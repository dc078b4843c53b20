"""Decision procedure: enumerate candidate moved-sets, decide placements.

The search enumerates every subset A (|A| <= k) whose removal leaves the
remaining disks pairwise non-overlapping -- exactly the vertex covers of the
intersection graph, non-minimal ones included -- and asks for each whether
the disks of A admit new positions.  Placement feasibility runs through
three stages:

1. structured exact candidates (tangency intersections, budget-tight
   points, axis extremes), verified with exact arithmetic.  Only anchors
   within d+2 of a movable's origin seed tangencies: a target within d of
   the origin at distance 2 from an anchor puts that anchor within d+2;
2. one numeric penalty descent from the origins (per axis choice in the
   rectilinear variant) whose solution is snapped to dyadic rationals and
   re-verified exactly;
3. an exhaustive grid sweep over each movable's reachable region that
   either finds an exact grid witness or *proves* infeasibility: if no
   grid assignment survives with every constraint relaxed by the maximal
   rounding perturbation (sqrt(2)*delta per moved endpoint), no continuous
   solution exists.

Stages 1 and 2 return a feasible ``Feasibility`` or None, stage 3 always a
``Feasibility``; ``feasibility`` runs a stage only when the one before it
returned None.

Some covers are refuted without running the stages.  Lemma: let A be a
cover and x a member of A such that A minus x is a cover too and x's origin
lies at least d+2 from the origin of every other member.  If A minus x is
infeasible, so is A.  Proof: take targets for A and put x back at its
origin.  x at its origin clears every disk that A leaves fixed, since A
minus x is a cover.  Every other member's target lies within d of its
origin -- a rectilinear move is axis-parallel, so its Euclidean length is
at most d as well -- and so at least 2 from x's origin.  The other
constraints are those of A, so A minus x would be feasible.  ``solve``
tests the distance exactly against (derived_d(d2) + 2)^2, an upper bound
on (d+2)^2, and applies the lemma only to a subset that was refuted, by a
grid or by the lemma itself, never to one left unknown.

Yes answers always carry a witness that validates exactly; No answers are
backed by a grid refutation, or by the lemma above from one, for every
candidate set; anything else is reported Unknown rather than guessed.

The search takes explicit disks only: ``solve`` rejects an instance with
lattice fill, which must be expanded first.  Comparisons between exact
coordinates are decided exactly; only ``~`` input can leave one undecided,
and that answer is unknown.

``SolverConfig`` has two fields: ``delta`` (stage 3's finest grid) and
``time_budget``, which bounds the whole solve: ``solve`` turns it into one
``time.monotonic()`` deadline before kernelization and hands it to the
enumeration, to every stage and to every DFS node of every grid pass, so an
expired budget ends the solve within one step of any of them and reports
unknown ("time budget").  The fixed search limits are module constants:
``CANDIDATE_CAP`` (stage 1 targets per movable), ``NUMERIC_ITERS``
(stage 2 descent steps), ``DELTA_START`` (stage 3's first, coarsest
grid) and ``GRID_NODE_BUDGET`` (stage 3 work per pass).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .geometry import (
    FOUR,
    Point,
    circle_circle_candidates_sq,
    dist2,
    point_key,
    within_move,
)
from .instance_io import Instance, Witness
from .kernel import derived_d, kernelize
from .numerics import (
    IndeterminateError,
    Ordering,
    approx_float,
    compare,
    frac,
    quadext,
)
from .udg import IntersectionGraph, build_graph

__all__ = [
    "SolverConfig",
    "Answer",
    "Feasibility",
    "solve",
    "enumerate_candidate_sets",
    "feasibility",
]

CANDIDATE_CAP = 600          # stage 1: candidate targets kept per movable
NUMERIC_ITERS = 400          # stage 2: descent steps
DELTA_START = Fraction(1, 4)  # stage 3: first (coarse) refutation grid
GRID_NODE_BUDGET = 1_500_000  # stage 3: DFS calls (and menu work) per pass


@dataclass
class SolverConfig:
    delta: Fraction = Fraction(1, 64)       # finest refutation grid
    time_budget: Optional[float] = None     # wall-clock seconds, whole solve

    def __post_init__(self):
        self.delta = frac(self.delta)
        if self.delta <= 0:
            raise ValueError("grid resolution must be positive")


@dataclass(frozen=True)
class Answer:
    verdict: str                      # yes | no | unknown
    witness: Optional[Witness] = None
    reason: Optional[str] = None
    log: tuple[str, ...] = ()

    def __str__(self):
        if self.verdict == "yes":
            return f"yes ({len(self.witness.moves)} moves)"
        if self.verdict == "unknown":
            return f"unknown ({self.reason})"
        return "no"


@dataclass(frozen=True)
class Feasibility:
    status: str                       # feasible | infeasible | unknown
    assignment: Optional[dict[int, Point]] = None
    delta: Optional[Fraction] = None  # grid used for an infeasibility proof
    reason: Optional[str] = None


def _expired(deadline: Optional[float]) -> bool:
    """Whether a ``time.monotonic()`` deadline has passed; None never does."""
    return deadline is not None and time.monotonic() > deadline


class _Stop(Exception):
    """Leaves a grid pass early; its argument is the reason for unknown."""


# ---------------------------------------------------------------------------
# candidate moved-set enumeration

def enumerate_candidate_sets(g: IntersectionGraph, k: int,
                             deadline: Optional[float] = None
                             ) -> Iterator[list[int]]:
    """All vertex covers of size <= k, by increasing size then lexicographic.

    Removal of such a set, and only such a set, leaves a packing.  A bounded
    edge-branching pass first establishes the minimum cover size (pruning the
    sweep); the lexicographic sweep then emits every cover, supersets of
    minimal covers included.  Once ``deadline`` has passed it yields nothing
    more, so the caller must check the deadline before trusting the sweep.
    """
    if k < 0:
        return
    min_size = _min_cover_size(g, k)
    if min_size is None:
        return
    edge_pairs = g.edges
    for size in range(min_size, k + 1):
        for combo in itertools.combinations(range(g.n), size):
            if _expired(deadline):
                return
            chosen = set(combo)
            if all(i in chosen or j in chosen for i, j in edge_pairs):
                yield list(combo)


def _min_cover_size(g: IntersectionGraph, k: int) -> Optional[int]:
    best: list[Optional[int]] = [None]

    def rec(chosen: set[int], depth: int):
        if best[0] is not None and depth >= best[0]:
            return
        for i, j in g.edges:
            if i not in chosen and j not in chosen:
                if depth == k:
                    return
                for w in (i, j):
                    chosen.add(w)
                    rec(chosen, depth + 1)
                    chosen.remove(w)
                return
        best[0] = depth

    rec(set(), 0)
    return best[0]


# ---------------------------------------------------------------------------
# exact constraint checks

def _sep_ok(a: Point, b: Point) -> bool:
    """Exact: centers at distance >= 2. Indeterminate counts as failure."""
    return compare(dist2(a, b), FOUR) in (Ordering.GREATER, Ordering.EQUAL)


def _move_ok(origin: Point, target: Point, d2: Fraction, variant: str) -> bool:
    try:
        return within_move(origin, target, d2, variant)
    except IndeterminateError:
        return False


def _fits(origin: Point, target: Point, fixed: Sequence[Point],
          placed: Sequence[Point], d2: Fraction, variant: str) -> bool:
    """Exact: ``target`` is within the move budget of ``origin`` and clear
    of every fixed disk and every disk already placed."""
    return (_move_ok(origin, target, d2, variant)
            and all(_sep_ok(target, f) for f in fixed)
            and all(_sep_ok(target, q) for q in placed))


# ---------------------------------------------------------------------------
# stage 1: structured candidates

def _candidates_for(origin: Point, anchors: Sequence[Point], d2: Fraction,
                    variant: str) -> list[Point]:
    """Structured target positions for one movable disk.

    Anchors are rational centers the target might end up tangent to; the
    ones within d+2 of the origin seed tangency circles.  Every tangency
    candidate lies at distance 2 from its anchor, so one that fits, within d
    of the origin, puts that anchor within d+2 of it; a farther anchor seeds
    only candidates that fail the move check.  The four axis extremes of
    the move budget are candidates in both variants.
    """
    if not origin.is_rational():
        return [origin]
    out: list[Point] = [
        origin,
        Point(quadext(origin.x, 1, d2), origin.y),
        Point(quadext(origin.x, -1, d2), origin.y),
        Point(origin.x, quadext(origin.y, 1, d2)),
        Point(origin.x, quadext(origin.y, -1, d2)),
    ]
    reach2 = (derived_d(d2) + 2) ** 2
    near = [(a, dd) for a in anchors
            if (dd := dist2(a, origin)) <= reach2]
    if variant == "euclidean":
        for ai, (u, du) in enumerate(near):
            if du > 0:
                # tangency to u along the line towards the origin
                dx, dy = origin.x - u.x, origin.y - u.y
                out.append(Point(quadext(u.x, 2 * dx / du, du),
                                 quadext(u.y, 2 * dy / du, du)))
                out.extend(circle_circle_candidates_sq(u, FOUR, origin, d2))
            for v, _ in near[ai + 1:]:
                if 0 < dist2(u, v) <= 16:
                    out.extend(circle_circle_candidates_sq(u, FOUR, v, FOUR))
    else:  # rectilinear: axis-aligned tangencies
        for u, _ in near:
            dy2 = (origin.y - u.y) ** 2
            if dy2 <= 4:
                out.append(Point(quadext(u.x, 1, 4 - dy2), origin.y))
                out.append(Point(quadext(u.x, -1, 4 - dy2), origin.y))
            dx2 = (origin.x - u.x) ** 2
            if dx2 <= 4:
                out.append(Point(origin.x, quadext(u.y, 1, 4 - dx2)))
                out.append(Point(origin.x, quadext(u.y, -1, 4 - dx2)))
    # points hash by structure, and single-level values are equal exactly
    # when their structures are, so this drops only repeated points
    return list(dict.fromkeys(sorted(out, key=point_key)))[:CANDIDATE_CAP]


def _stage_candidates(fixed: Sequence[Point], movables: Sequence[Point],
                      d2: Fraction, variant: str,
                      deadline: Optional[float]) -> Optional[Feasibility]:
    placed: list[Point] = []
    rational_fixed = [f for f in fixed if f.is_rational()]

    def rec(idx: int) -> bool:
        if _expired(deadline):
            return False
        if idx == len(movables):
            return True
        anchors = rational_fixed + [p for p in placed if p.is_rational()]
        cands = _candidates_for(movables[idx], anchors, d2, variant)
        for p in cands:
            if not _fits(movables[idx], p, fixed, placed, d2, variant):
                continue
            placed.append(p)
            if rec(idx + 1):
                return True
            placed.pop()
        return False

    if rec(0):
        return Feasibility("feasible", dict(enumerate(placed)))
    return None


# ---------------------------------------------------------------------------
# stage 2: numeric descent, snapped and re-verified exactly

def _penalty_and_grad(pos: list[list[float]], origins_f: list[tuple[float, float]],
                      fixed_f: list[tuple[float, float]], d2f: float,
                      axes: Optional[list[tuple[float, float]]]):
    n = len(pos)
    pen = 0.0
    grad = [[0.0, 0.0] for _ in range(n)]
    for i in range(n):
        xi, yi = pos[i]
        for j in range(i + 1, n):
            dx, dy = xi - pos[j][0], yi - pos[j][1]
            dd = dx * dx + dy * dy
            if dd < 4.0:
                v = 4.0 - dd
                pen += v * v
                grad[i][0] += -4.0 * v * dx
                grad[i][1] += -4.0 * v * dy
                grad[j][0] += 4.0 * v * dx
                grad[j][1] += 4.0 * v * dy
        for fx, fy in fixed_f:
            dx, dy = xi - fx, yi - fy
            dd = dx * dx + dy * dy
            if dd < 4.0:
                v = 4.0 - dd
                pen += v * v
                grad[i][0] += -4.0 * v * dx
                grad[i][1] += -4.0 * v * dy
        ox, oy = origins_f[i]
        dx, dy = xi - ox, yi - oy
        dd = dx * dx + dy * dy
        if dd > d2f:
            v = dd - d2f
            pen += v * v
            grad[i][0] += 4.0 * v * dx
            grad[i][1] += 4.0 * v * dy
    if axes is not None:
        for i in range(n):
            ax, ay = axes[i]
            g = grad[i][0] * ax + grad[i][1] * ay
            grad[i] = [g * ax, g * ay]
    return pen, grad


def _descend(start: list[list[float]], origins_f, fixed_f, d2f,
             axes, iters: int) -> Optional[list[list[float]]]:
    pos = [list(p) for p in start]
    lr = 0.05
    for _ in range(iters):
        pen, grad = _penalty_and_grad(pos, origins_f, fixed_f, d2f, axes)
        if pen < 1e-22:
            return pos
        trial = [[pos[i][0] - lr * grad[i][0], pos[i][1] - lr * grad[i][1]]
                 for i in range(len(pos))]
        pen2, _ = _penalty_and_grad(trial, origins_f, fixed_f, d2f, axes)
        if pen2 < pen:
            pos = trial
            lr = min(lr * 1.3, 0.5)
        else:
            lr *= 0.5
            if lr < 1e-12:
                break
    pen, _ = _penalty_and_grad(pos, origins_f, fixed_f, d2f, axes)
    return pos if pen < 1e-22 else None


def _snap_and_verify(sol: list[list[float]], origins: Sequence[Point],
                     fixed: Sequence[Point], d2: Fraction, variant: str,
                     axes_idx: Optional[list[int]]) -> Optional[list[Point]]:
    for bits in range(0, 24):
        scale = 1 << bits
        targets = []
        for i, (x, y) in enumerate(sol):
            qx = Fraction(round(x * scale), scale)
            qy = Fraction(round(y * scale), scale)
            if axes_idx is not None:
                # lock the off-axis coordinate to the origin's exact value
                if axes_idx[i] == 0:
                    qy = origins[i].y
                else:
                    qx = origins[i].x
            targets.append(Point(qx, qy))
        if all(_fits(o, t, fixed, targets[:i], d2, variant)
               for i, (o, t) in enumerate(zip(origins, targets))):
            return targets
    return None


def _stage_numeric(fixed: Sequence[Point], movables: Sequence[Point],
                   d2: Fraction, variant: str, deadline: Optional[float]
                   ) -> Optional[Feasibility]:
    if not all(p.is_rational() for p in movables):
        return None
    if not all(f.is_rational() for f in fixed):
        return None
    origins_f = [(approx_float(p.x), approx_float(p.y)) for p in movables]
    fixed_f = [(approx_float(f.x), approx_float(f.y)) for f in fixed]
    d2f = float(frac(d2))

    axis_combos: list[Optional[list[int]]]
    if variant == "rectilinear":
        axis_combos = [list(c) for c in
                       itertools.product((0, 1), repeat=len(movables))]
    else:
        axis_combos = [None]

    for axes_idx in axis_combos:
        if _expired(deadline):
            return None
        axes = None
        if axes_idx is not None:
            axes = [(1.0, 0.0) if a == 0 else (0.0, 1.0) for a in axes_idx]
        sol = _descend(origins_f, origins_f, fixed_f, d2f, axes, NUMERIC_ITERS)
        if sol is None:
            continue
        snapped = _snap_and_verify(sol, movables, fixed, d2, variant, axes_idx)
        if snapped is not None:
            return Feasibility("feasible", dict(enumerate(snapped)))
    return None


# ---------------------------------------------------------------------------
# stage 3: grid sweep with Lipschitz slack (proof-grade refutation)

def _stage_grid(fixed: Sequence[Point], movables: Sequence[Point],
                d2: Fraction, variant: str, cfg: SolverConfig,
                deadline: Optional[float]) -> Feasibility:
    """Sweep delta grids coarse to fine.

    Outcomes: an exact grid witness (feasible); a completed sweep with no
    assignment surviving the relaxed constraints (infeasible, certificate
    delta); or the finest pass's unknown, when relaxed assignments remain
    or a budget runs out.
    """
    if not all(p.is_rational() for p in movables) or \
            not all(f.is_rational() for f in fixed):
        return Feasibility("unknown", reason="non-rational centers")
    deltas: list[Fraction] = []
    dlt = DELTA_START
    while dlt > cfg.delta:
        deltas.append(dlt)
        dlt = dlt / 2
    deltas.append(cfg.delta)

    for delta in deltas:
        if _expired(deadline):
            return Feasibility("unknown", reason="time budget")
        res = _grid_pass(fixed, movables, d2, variant, delta, deadline)
        if res.status != "unknown":
            return res
    return res


def _grid_pass(fixed, movables, d2: Fraction, variant: str,
               delta: Fraction, deadline: Optional[float]) -> Feasibility:
    """One sweep at a fixed resolution, on integer-rescaled coordinates.

    Everything is multiplied by one common denominator so that the hot
    loops run on plain integers; all tests remain exact.  Relaxed
    separation thresholds have the form (2 - s*sqrt(2))^2 =
    (4 + 2s^2) - 4s*sqrt(2) with s = delta for moved-fixed pairs and
    s = 2*delta for moved-moved pairs.  The pass gives up with unknown when
    its work passes GRID_NODE_BUDGET or the deadline passes; both checks
    run once per movable while the menus are built and at every DFS node.
    """
    M = delta.denominator
    for p in list(fixed) + list(movables):
        M = math.lcm(M, p.x.denominator, p.y.denominator)
    M = math.lcm(M, d2.denominator)
    MM = M * M
    step = int(delta * M)
    four = 4 * MM
    d2i = d2 * MM
    assert d2i.denominator == 1
    d2i = d2i.numerator
    sA1, sB1 = four + 2 * step * step, 4 * step * M
    s2 = 2 * step
    sA2, sB2 = four + 2 * s2 * s2, 4 * s2 * M
    mvA = d2i + 2 * step * step
    mv_rhs = 8 * step * step * d2i

    def sep_rel(D: int, A: int, B: int) -> bool:
        t = A - D
        return t <= 0 or t * t <= 2 * B * B

    def mv_rel(V: int) -> bool:
        t = V - mvA
        return t <= 0 or t * t <= mv_rhs

    d_up = derived_d(d2)
    amax = int((d_up + 2 * delta) / delta) + 1
    if variant == "euclidean":
        disps = [(a * step, b * step)
                 for a in range(-amax, amax + 1)
                 for b in range(-amax, amax + 1)
                 if mv_rel((a * step) ** 2 + (b * step) ** 2)]
    else:
        axis = [a * step for a in range(-amax, amax + 1)
                if mv_rel((a * step) ** 2)]
        disps = sorted({(v, 0) for v in axis} | {(0, v) for v in axis})

    fixed_i = [(int(f.x * M), int(f.y * M)) for f in fixed]
    movers_i = [(int(o.x * M), int(o.y * M)) for o in movables]

    def spend(work: int) -> None:
        if work > GRID_NODE_BUDGET:
            raise _Stop("grid node budget")
        if _expired(deadline):
            raise _Stop("time budget")

    def menu(ox: int, oy: int) -> list[tuple[int, int]]:
        """The displaced positions of one movable that pass the relaxed
        tests against every fixed disk."""
        pts = []
        for vx, vy in disps:
            px, py = ox + vx, oy + vy
            for fx, fy in fixed_i:
                dx, dy = px - fx, py - fy
                if not sep_rel(dx * dx + dy * dy, sA1, sB1):
                    break
            else:
                pts.append((px, py))
        return pts

    chosen: list[tuple[int, int]] = []
    found_relaxed = [False]
    found_exact: list[Optional[list[tuple[int, int]]]] = [None]
    visited = [0]

    def point_exact(idx: int, px: int, py: int) -> bool:
        # incremental exact check; callers guarantee the chosen prefix is
        # itself exact when this is consulted
        ox, oy = origins[idx]
        dx, dy = px - ox, py - oy
        if dx * dx + dy * dy > d2i:
            return False
        for fx, fy in fixed_i:
            ex, ey = px - fx, py - fy
            if ex * ex + ey * ey < four:
                return False
        for qx, qy in chosen:
            dx, dy = px - qx, py - qy
            if dx * dx + dy * dy < four:
                return False
        return True

    def rec(idx: int, prefix_exact: bool) -> None:
        """Explore relaxed completions; prune to exact-viable branches once
        relaxed-feasibility is already established."""
        visited[0] += 1
        spend(visited[0])
        if idx == len(menus):
            found_relaxed[0] = True
            if prefix_exact:
                found_exact[0] = list(chosen)
            return
        for p in menus[idx]:
            if found_exact[0] is not None:
                return
            ok = True
            for qx, qy in chosen:
                dx, dy = p[0] - qx, p[1] - qy
                if not sep_rel(dx * dx + dy * dy, sA2, sB2):
                    ok = False
                    break
            if not ok:
                continue
            pe = prefix_exact and point_exact(idx, p[0], p[1])
            if found_relaxed[0] and not pe:
                continue
            chosen.append(p)
            rec(idx + 1, pe)
            chosen.pop()

    try:
        per_disk: list[list[tuple[int, int]]] = []
        for ox, oy in movers_i:
            per_disk.append(menu(ox, oy))
            spend(len(per_disk) * len(disps) * (len(fixed_i) + 1))
        # most-constrained-first ordering keeps the DFS shallow; results map
        # back through the permutation
        order = sorted(range(len(movables)),
                       key=lambda i: (len(per_disk[i]), i))
        menus = [per_disk[i] for i in order]
        origins = [movers_i[i] for i in order]
        rec(0, True)
    except _Stop as e:
        return Feasibility("unknown", reason=str(e))
    if found_exact[0] is not None:
        assignment = {}
        for pos, slot in enumerate(order):
            px, py = found_exact[0][pos]
            assignment[slot] = Point(Fraction(px, M), Fraction(py, M))
        return Feasibility("feasible", assignment)
    if not found_relaxed[0]:
        return Feasibility("infeasible", delta=delta)
    return Feasibility("unknown",
                       reason=f"relaxed grid assignments remain at delta {delta}")


# ---------------------------------------------------------------------------
# feasibility pipeline and the top-level solve

def feasibility(fixed: Sequence[Point], movables: Sequence[Point], d2,
                variant: str, cfg: Optional[SolverConfig] = None,
                deadline: Optional[float] = None) -> Feasibility:
    """Decide whether the movable disks admit new positions.

    ``fixed`` must already be a packing, and all disks are explicit (no
    lattice fill).  See the module docstring for the three stages and their
    guarantees.  ``deadline`` is a ``time.monotonic()`` instant (None: no
    limit); once it has passed, every stage gives up and the answer is
    unknown with reason "time budget".
    """
    cfg = cfg or SolverConfig()
    d2 = frac(d2)
    if not movables:
        return Feasibility("feasible", {})
    return (_stage_candidates(fixed, movables, d2, variant, deadline)
            or _stage_numeric(fixed, movables, d2, variant, deadline)
            or _stage_grid(fixed, movables, d2, variant, cfg, deadline))


def _implied_refutation(cand: list[int], refuted: set[frozenset[int]],
                        disks: Sequence[Point], far2: Fraction
                        ) -> Optional[list[int]]:
    """A refuted ``cand`` minus x whose x lies at least sqrt(far2) from every
    other member, or None; by the module docstring's lemma it refutes
    ``cand``.  Distances that are not rational never count as far."""
    def far(i: int, j: int) -> bool:
        dd = dist2(disks[i], disks[j])
        return isinstance(dd, Fraction) and dd >= far2

    for x in cand:
        rest = [i for i in cand if i != x]
        if frozenset(rest) in refuted and all(far(x, i) for i in rest):
            return rest
    return None


def solve(inst: Instance, cfg: Optional[SolverConfig] = None) -> Answer:
    """Full decision pipeline over an explicit-disk instance.

    Candidate sets come from ``enumerate_candidate_sets``, smaller first.
    A set that the module docstring's lemma refutes through a smaller
    refuted set is logged as "refuted, implied by" that set and never
    reaches ``feasibility``; every other set does.
    """
    cfg = cfg or SolverConfig()
    if inst.blocks:
        raise ValueError("solve requires explicit disks; expand blocks first")
    deadline = None if cfg.time_budget is None \
        else time.monotonic() + cfg.time_budget
    try:
        kr = kernelize(inst)
        if kr is None:
            return Answer("no",
                          log=("conflict matching exceeds the move budget",))
        kinst, report = kr
        g = build_graph(kinst.disks)
    except IndeterminateError as e:
        # an overlap that exact arithmetic cannot decide proves nothing
        return Answer("unknown", reason=str(e))
    if not g.edges:
        return Answer("yes", Witness({}),
                      log=("already a packing after reduction",))

    log: list[str] = [
        f"kernel kept {len(kinst.disks)} of {len(inst.disks)} disks"]
    unknowns = 0
    far2 = (derived_d(kinst.d2) + 2) ** 2
    refuted: set[frozenset[int]] = set()
    for cand in enumerate_candidate_sets(g, inst.k, deadline):
        implied = _implied_refutation(cand, refuted, kinst.disks, far2)
        if implied is not None:
            refuted.add(frozenset(cand))
            log.append(f"set {cand}: refuted, implied by {implied}")
            continue
        chosen = set(cand)
        fixed = [d for i, d in enumerate(kinst.disks) if i not in chosen]
        movables = [kinst.disks[i] for i in cand]
        res = feasibility(fixed, movables, kinst.d2, kinst.variant, cfg,
                          deadline=deadline)
        if res.status == "feasible":
            moves = {}
            for slot, target in res.assignment.items():
                orig_idx = report.kept[cand[slot]]
                if target != inst.disks[orig_idx]:
                    moves[orig_idx] = target
            return Answer("yes", Witness(moves),
                          log=tuple(log + [f"moved set {cand}"]))
        if res.status == "infeasible":
            refuted.add(frozenset(cand))
            log.append(f"set {cand}: refuted at delta {res.delta}")
        else:
            unknowns += 1
            log.append(f"set {cand}: unknown ({res.reason})")
    if _expired(deadline):
        # an incomplete sweep proves nothing
        return Answer("unknown", reason="time budget", log=tuple(log))
    if unknowns:
        return Answer("unknown",
                      reason=f"{unknowns} candidate sets undecided",
                      log=tuple(log))
    return Answer("no", log=tuple(log))
