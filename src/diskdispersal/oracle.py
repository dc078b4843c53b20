"""Independent brute-force cross-check for small instances.

Unlike the main search, this enumerates *every* subset of at most k disks
(not only the conflict covers) and, per subset, every assignment of
delta-grid displacements.  A complete assignment satisfying all constraints
exactly is a witness; if for every subset no assignment even survives the
constraints relaxed by the rounding slack (sqrt(2)*delta per moved
endpoint), the instance is a proven no.  Everything in between is unknown.

Everything is rescaled to one common denominator up front so the sweep runs
on plain integers; all comparisons stay exact.  The code deliberately
shares no search machinery with the solver, so agreement between the two
is a meaningful check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Union

from .geometry import Point
from .instance_io import Instance, Witness
from .numerics import frac, sqrt_lower_upper
from .solver import Answer

__all__ = ["oracle", "GuardError"]

MAX_DISKS = 12
MAX_K = 3


class GuardError(ValueError):
    """Instance outside the oracle's small-instance guard."""


def oracle(inst: Instance, delta=Fraction(1, 16)) -> Answer:
    """Exhaustive subset x grid-displacement sweep with certified slack."""
    delta = frac(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if inst.blocks:
        raise GuardError("oracle handles explicit disks only")
    if len(inst.disks) > MAX_DISKS or inst.k > MAX_K:
        raise GuardError(
            f"oracle guard: needs <= {MAX_DISKS} disks and k <= {MAX_K}")
    for d in inst.disks:
        if not d.is_rational():
            raise GuardError("oracle needs rational centers")

    d2 = frac(inst.d2)
    scale = delta.denominator
    for d in inst.disks:
        scale = math.lcm(scale, d.x.denominator, d.y.denominator)
    scale = math.lcm(scale, d2.denominator)
    M = scale
    MM = M * M

    centers = [(int(d.x * M), int(d.y * M)) for d in inst.disks]
    step = int(delta * M)
    four = 4 * MM
    move_cap = d2 * MM
    assert move_cap.denominator == 1
    move_cap = move_cap.numerator

    # relaxed separation, all integers: the centre distance sqrt(D) plus the
    # slack s*sqrt(2)*M is at least 2M.  With the squared slack S = 2(sM)^2
    # that reads sqrt(D) + sqrt(S) >= 2M, i.e. 2*sqrt(D*S) >= 4MM - D - S.
    # When s*sqrt(2) >= 2 the right side is never positive: every D passes.
    slack1 = 2 * step * step                # moved-fixed, s = delta
    slack2 = 8 * step * step                # moved-moved, s = 2*delta
    mvA = move_cap + 2 * step * step        # move length <= d + delta*sqrt(2)
    mv_rhs = 8 * step * step * move_cap     # bound for t^2 <= 8 (dM)^2 d2 M^2

    def sep_relaxed(D: int, S: int) -> bool:
        t = four - D - S
        return t <= 0 or t * t <= 4 * D * S

    def move_relaxed(V: int) -> bool:
        t = V - mvA
        return t <= 0 or t * t <= mv_rhs

    d_hi = sqrt_lower_upper(d2, 1 << 20)[1]
    amax = int((d_hi + 2 * delta) / delta) + 1
    disps: list[tuple[int, int]] = []
    if inst.variant == "euclidean":
        for a in range(-amax, amax + 1):
            va = a * step
            for b in range(-amax, amax + 1):
                vb = b * step
                if move_relaxed(va * va + vb * vb):
                    disps.append((va, vb))
    else:
        seen = set()
        for a in range(-amax, amax + 1):
            va = a * step
            if move_relaxed(va * va):
                for v in ((va, 0), (0, va)):
                    if v not in seen:
                        seen.add(v)
                        disps.append(v)
        disps.sort()

    n = len(inst.disks)
    some_relaxed_only = False
    for size in range(0, inst.k + 1):
        for subset in itertools.combinations(range(n), size):
            moved = set(subset)
            fixed_pts = [centers[i] for i in range(n) if i not in moved]
            # unmoved disks carry no slack: an overlapping fixed pair kills
            # the subset outright
            clean = True
            for a in range(len(fixed_pts)):
                xa, ya = fixed_pts[a]
                for b in range(a + 1, len(fixed_pts)):
                    dx = xa - fixed_pts[b][0]
                    dy = ya - fixed_pts[b][1]
                    if dx * dx + dy * dy < four:
                        clean = False
                        break
                if not clean:
                    break
            if not clean:
                continue

            menus: list[list[tuple[int, int]]] = []
            ok_subset = True
            for i in subset:
                ox, oy = centers[i]
                pts = []
                for vx, vy in disps:
                    px, py = ox + vx, oy + vy
                    good = True
                    for fx, fy in fixed_pts:
                        dx, dy = px - fx, py - fy
                        if not sep_relaxed(dx * dx + dy * dy, slack1):
                            good = False
                            break
                    if good:
                        pts.append((px, py))
                if not pts:
                    ok_subset = False
                    break
                menus.append(pts)
            if not ok_subset:
                continue

            hit = _search(list(subset), menus, centers, fixed_pts, four,
                          move_cap, slack2, M, sep_relaxed)
            if isinstance(hit, Witness):
                return Answer("yes", hit,
                              log=(f"oracle grid hit, subset {list(subset)}",))
            if hit:
                some_relaxed_only = True
    if some_relaxed_only:
        return Answer("unknown",
                      reason=f"relaxed assignments remain at delta {delta}")
    return Answer("no", log=(f"oracle refutation at delta {delta}",))


def _search(subset, menus, centers, fixed_pts, four: int, move_cap: int,
            slack2: int, M: int, sep_relaxed) -> Union[Witness, bool]:
    """DFS over displacement menus.

    Returns a Witness on an exact hit, True if only relaxed assignments
    exist, False if nothing survives the relaxed constraints.
    """
    chosen: list[tuple[int, int]] = []
    relaxed_seen = [False]

    def exact_ok() -> bool:
        for t, i in zip(chosen, subset):
            dx, dy = t[0] - centers[i][0], t[1] - centers[i][1]
            if dx * dx + dy * dy > move_cap:
                return False
            for fx, fy in fixed_pts:
                ex, ey = t[0] - fx, t[1] - fy
                if ex * ex + ey * ey < four:
                    return False
        for a in range(len(chosen)):
            for b in range(a + 1, len(chosen)):
                dx = chosen[a][0] - chosen[b][0]
                dy = chosen[a][1] - chosen[b][1]
                if dx * dx + dy * dy < four:
                    return False
        return True

    def rec(idx: int) -> Optional[Witness]:
        if idx == len(menus):
            relaxed_seen[0] = True
            if exact_ok():
                moves = {}
                for i, t in zip(subset, chosen):
                    if t != centers[i]:
                        moves[i] = Point(Fraction(t[0], M), Fraction(t[1], M))
                return Witness(moves)
            return None
        for p in menus[idx]:
            ok = True
            for q in chosen:
                dx, dy = p[0] - q[0], p[1] - q[1]
                if not sep_relaxed(dx * dx + dy * dy, slack2):
                    ok = False
                    break
            if ok:
                chosen.append(p)
                got = rec(idx + 1)
                chosen.pop()
                if got is not None:
                    return got
        return None

    got = rec(0)
    if got is not None:
        return got
    return relaxed_seen[0]
