"""Decision procedure: enumerate candidate moved-sets, decide placements.

The search enumerates subsets A (|A| <= k) whose removal leaves the
remaining disks pairwise non-overlapping -- vertex covers of the
intersection graph -- and asks for each whether the disks of A admit new
positions.  It takes only the covers in which every near group holds a disk
with a conflict edge (near-group lemma below), non-minimal ones included.
A moved set is a list of indices into one kernel instance.  Placement
feasibility runs through three stages of one rule each, all exact: apart
from the clock of its time budget, the solver uses no floats.
``feasibility`` gives a set whose members' centres are all rational one
``_Frame``, which every stage reads: the origins and the rational fixed
centres near each member, multiplied by one scale M with d2*M^2 an
integer, and in ``frame.others[i]`` member i's near fixed centres that are
not rational, as exact ``Point`` values.

1. the lone-member lemma below: the set is refuted when one member whose
   ``others`` are empty alone has no place clear of the fixed disks.  A
   member with ``others`` is skipped;
2. on every frame, a depth-first walk over structured candidates
   (tangency intersections, budget-tight points, axis extremes): every
   candidate is a tuple of integers over one radicand and every test the
   sign of an integer radical expression, and member i's candidates are
   also tested exactly against ``others[i]``.  Member i's near fixed
   centres and every rational placed point seed tangencies.  A placed
   anchor farther than derived_d(d2) + 2 from the origin gives only
   candidates 2 from it, so farther than d from the origin, which the move
   test rejects: the walk places the same targets as without it;
3. on a frame where no member has ``others``, an exhaustive grid sweep
   over each movable's reachable region that either finds an exact grid
   witness or *proves* infeasibility: if no grid assignment survives with
   every constraint relaxed by the maximal rounding perturbation
   (sqrt(2)*delta per moved endpoint), no continuous solution exists.  Each
   pass rescales the frame once more to put the grid on integers, so a
   grid point is a frame candidate: ``frame.fits`` is its exact test and
   ``frame.point`` builds the witness, as in stage 2.

Near fixed centres.  Stages test each member against its near fixed centres
only.  One routine, ``geometry.near``, answers every "within
derived_d(d2) + 2" question of the solver, closed for a frame and strict
for the near groups below: a pair on the instance's ``Instance.scaled``
array, built once per instance, is decided on integers, as ``close_pairs``
decides it, and any other pair by an exact ``compare``, in which an
undecided comparison counts as near.  So each centre left out lies farther
than d + 2 from the origin, whether it is rational or not.  Every exact
test asks for a point within d of the origin, which is then more than 2
from such a centre.  Stage 3's relaxed move test asks for a grid point
within d + sqrt(2)*delta, which is then more than 2 - sqrt(2)*delta from
it and passes the relaxed separation test.  For delta >= sqrt(2) that test
is vacuous (2 - sqrt(2)*delta <= 0) and every point passes it.

Stage 1 returns a refutation by the lone-member lemma or None, never a
placement; stage 2 a feasible ``Feasibility`` or None; stage 3 always a
``Feasibility``, unknown ("non-rational centers") on a frame where some
member has ``others``.  No stage returns because the clock ran out: each
raises TimeoutError (below).  ``feasibility`` runs a stage only when the
one before it returned None, so one rule decides each set: the lemma, the
walk or the grid.

A member x whose centre o is not rational.  ``feasibility`` answers its set
A unknown ("non-rational centers") with no frame and no stage, and no yes
turns into a no: as tangencies are built on rational centres only, a walk
on A could only keep x at o, clear of the fixed disks and of the other
targets.  Then the cover A minus x, less its near groups with no conflict
disk, is yielded before A and has the same placement with o fixed
(near-group lemma below), so no sound refutation -- the lone-member lemma
on a member whose near fixed centres are all rational, a grid on a frame
whose near centres all are -- applies to it.  When no group was taken out,
its walk lists the same candidates and runs the same tests, and by
induction on such members its first subset with a frame finds the
placement.

Lone-member lemma.  Let x be a member whose origin o is rational, with
every fixed centre within derived_d(d2) + 2 of o rational, and let R be the
free region of x: the points within x's move budget (Euclidean: the closed
disk of radius d around o; rectilinear: the two closed axis segments of
half-length d through o) at distance at least 2 from every fixed centre.  A
placement of the whole set puts x in R, so if R is empty the set is
infeasible.  If R is not empty, its lowest point p (least y, then least x)
is one of the points that ``_Frame.candidates(i, ())`` lists for x, so when
no point of that list fits, R is empty.  Proof, Euclidean: R is the closed
move disk minus finitely many open disks, so it is compact and p lies on
its boundary.  If p lies on two distinct circles among the move circle and
the fixed circles, it is a move-fixed or a fixed-fixed intersection point
(a tangency point included).  Otherwise every other constraint holds
strictly at p, so near p, R is one circle's closed side.  On the move
circle that side is the inside, and p must be the circle's bottom, an axis
extreme.  On a fixed circle it is the outside: below the circle's bottom
lie points of R, and from any other point of the circle, its top included,
sliding along the circle toward the equator lowers y; so p is never there.
Rectilinear: on each segment the fixed disks remove open intervals, leaving
a finite union of closed intervals whose lowest end is a segment end (an
axis extreme) or a tangency end.  Each of these points that is not an axis
extreme lies within d of o and at distance 2 from one or two fixed centres,
which therefore lie within d+2 of o, are rational and seed it.  A fixed
centre farther away is more than 2 from every point within d of o, so it
changes neither R nor the list.  Stage 1 runs this test on each member
whose ``others`` are empty and reports the first whose R is empty.

Near-group lemma.  Join two members of a cover when their origins lie
closer than derived_d(d2) + 2 >= d + 2, by the strict ``geometry.near``
test; the connected groups are the near groups.  A feasible cover A of
minimum size has a disk with a conflict edge in every near group G.
Otherwise no edge touches G, so A minus G is a cover, and a feasible one:
take targets for A and put G back at its origins, which conflict with
nothing and lie at least d + 2 from every other member's origin, so at
least 2 from that member's target, within d of it (a rectilinear move is
axis-parallel, so its length is at most d as well).
``enumerate_candidate_sets`` yields every cover of at most k members with a
conflict disk in each near group, grown one near disk at a time from the
leaf of edge branching that takes each edge's end in the cover: that leaf
holds an end of each group's conflict edge, and an end in the cover is
within 2 of the other, in the same group.  So a no needs, for every
enumerated set, the lone-member lemma or a grid refutation; a yes always
carries a witness that validates exactly; anything else is reported Unknown
rather than guessed.

The search takes explicit disks only: ``solve`` rejects an instance with
lattice fill, which must be expanded first.  Comparisons between exact
coordinates are decided exactly; only ``~`` input can leave one undecided,
and that answer is unknown.

``SolverConfig`` has two fields: ``delta`` (stage 3's finest grid) and
``time_budget`` (None, or seconds at least 0), which bounds the whole
solve: ``solve`` turns it into one ``time.monotonic()`` deadline before
kernelization and hands it to the enumeration, to stages 1 and 2 and to
every DFS node of every grid pass.  Each reads the clock through one
helper that raises TimeoutError("time budget") once the deadline has
passed, so an expired budget ends the solve within one step of any of
them, and no cut-short sweep passes for a finished one; only
``feasibility`` and ``solve`` catch it, into unknown ("time budget").  The
fixed search limits are module constants: ``DELTA_START`` (stage 3's
first, coarsest grid) and ``GRID_NODE_BUDGET`` (stage 3 work per pass).
That budget counts DFS nodes, and menu cells times (near fixed centres +
1), not the tests at a node, so only ``time_budget`` bounds a pass.
Stages 1 and 2 have no limit of their own: each tries every candidate it
lists, in the order it builds them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import geometry
from .geometry import FOUR, Point, dist2
from .instance_io import Instance, Witness
from .kernel import derived_d, kernelize
from .numerics import (
    IndeterminateError,
    Ordering,
    compare,
    frac,
    quadext,
    sign_sqrt,
    sign_sqrt2,
    split_sqrt,
)
from .udg import IntersectionGraph

__all__ = [
    "SolverConfig",
    "Answer",
    "Feasibility",
    "solve",
    "enumerate_candidate_sets",
    "feasibility",
]

DELTA_START = Fraction(1, 4)  # stage 3: first (coarse) refutation grid
GRID_NODE_BUDGET = 1_500_000  # stage 3, per pass: DFS nodes, and menu cells
                              # times (near fixed centres + 1); not node tests
NO_PLACE = "has no place clear of the fixed disks"  # stage 1 refutation


@dataclass
class SolverConfig:
    delta: Fraction = Fraction(1, 64)       # finest refutation grid
    time_budget: Optional[float] = None     # wall-clock seconds, whole solve

    def __post_init__(self):
        self.delta = frac(self.delta)
        if self.delta <= 0:
            raise ValueError("grid resolution must be positive")
        # a nan deadline never passes, so nan is refused with the negatives
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("time budget must be at least 0")


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
    member: Optional[int] = None      # movable that alone has no place


def _check_clock(deadline: Optional[float]) -> None:
    """Raise TimeoutError("time budget") once a ``time.monotonic()``
    deadline has passed; None never does."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("time budget")


class _Stop(Exception):
    """Leaves a grid pass whose work passes GRID_NODE_BUDGET."""


# ---------------------------------------------------------------------------
# candidate moved-set enumeration

def enumerate_candidate_sets(inst: Instance, g: IntersectionGraph,
                             deadline: Optional[float] = None
                             ) -> Iterator[list[int]]:
    """The covers of ``g`` with at most ``inst.k`` members whose every near
    group holds a disk with a conflict edge (module docstring), by
    increasing size then lexicographic.  Level s holds the size-s leaves of
    edge branching and each set of level s - 1 plus one disk near one of its
    members; a level grows once the one before it is yielded.  It raises
    TimeoutError once ``deadline`` has passed, so an enumeration that ends
    without one is complete."""
    disks = inst.disks
    reach2 = (derived_d(inst.d2) + 2) ** 2
    leaves: list[set[tuple[int, ...]]] = [set() for _ in range(inst.k + 1)]
    near: dict[int, list[int]] = {}

    def branch(chosen: set[int]) -> None:
        for i, j in g.edges:
            if i not in chosen and j not in chosen:
                if len(chosen) < inst.k:
                    _check_clock(deadline)
                    for w in (i, j):
                        branch(chosen | {w})
                return
        leaves[len(chosen)].add(tuple(sorted(chosen)))

    branch(set())
    level: list[tuple[int, ...]] = []
    for grown in leaves:
        for cand in level:
            _check_clock(deadline)
            for m in cand:
                if m not in near:
                    near[m] = geometry.near(disks, inst.scaled, m, reach2,
                                            False)
                grown.update(tuple(sorted(cand + (j,)))
                             for j in near[m] if j not in cand)
        level = sorted(grown)
        for cand in level:
            _check_clock(deadline)
            yield list(cand)


# ---------------------------------------------------------------------------
# stages 1 and 2: structured candidates on the set's integer frame

def _sep_ok(a: Point, b: Point) -> bool:
    """Exact: centers at distance >= 2. Indeterminate counts as failure."""
    return compare(dist2(a, b), FOUR) in (Ordering.GREATER, Ordering.EQUAL)


def _pt(X: int, Y: int, U: int, V: int, E: int, f: int) -> tuple:
    """The candidate ((X + U*sqrt(f))/E, (Y + V*sqrt(f))/E) in lowest terms;
    an f of 0 or 1 folds the radical in, and a rational candidate has
    radicand 0."""
    if f <= 1:
        X, Y, U, V = X + U * f, Y + V * f, 0, 0
    g = math.gcd(X, Y, U, V, E)
    return X // g, Y // g, U // g, V // g, E // g, f if U or V else 0


def _apart(t: tuple, p: tuple, four: int) -> bool:
    """Exact: candidates t and p are at least 2 apart, ``four`` being 4*M^2.

    E1*E2 times their difference is a + u1*sqrt(c1) + u2*sqrt(c2) in x and
    the same with b, v1, v2 in y; its square, less four*(E1*E2)^2, is
    A + B*sqrt(c1) + sqrt(c2)*(G + H*sqrt(c1)), one radical when the
    radicands agree or one side is rational."""
    X1, Y1, U1, V1, E1, c1 = t
    X2, Y2, U2, V2, E2, c2 = p
    a, b = X1 * E2 - X2 * E1, Y1 * E2 - Y2 * E1
    u1, v1, u2, v2 = U1 * E2, V1 * E2, -U2 * E1, -V2 * E1
    lim = four * (E1 * E2) ** 2
    if c1 == c2 or not c1 or not c2:
        u, v, c = u1 + u2, v1 + v2, c1 or c2
        return sign_sqrt(a * a + b * b + (u * u + v * v) * c - lim,
                         2 * (a * u + b * v), c) >= 0
    return sign_sqrt2(
        a * a + b * b + (u1 * u1 + v1 * v1) * c1 + (u2 * u2 + v2 * v2) * c2
        - lim, 2 * (a * u1 + b * v1), 2 * (a * u2 + b * v2),
        2 * (u1 * u2 + v1 * v2), c1, c2) >= 0


class _Frame:
    """One moved set on integers, for every stage.

    Member i is the disk ``inst.disks[members[i]]``, and its near fixed
    centres are the other disks, members excluded, that the closed
    ``geometry.near`` test on ``inst.scaled`` finds within derived_d(d2) + 2
    of its origin, in instance order.  Coordinates are multiplied by one
    scale M: the least common multiple of the denominators of d2, of the
    origins, which must be rational, and of the rational near fixed centres,
    so far centres never make M larger.  These centres become integer
    points, ``fixed[i]`` holding member i's, and d2*M^2 an integer D2;
    member i's near fixed centres that are not rational stay ``Point``
    values in ``others[i]``.  A candidate is a tuple (X, Y, U, V, E, c),
    built by :func:`_pt`, for the scaled point
    ((X + U*sqrt(c))/E, (Y + V*sqrt(c))/E); c is the radicand ``quadext``
    stores, so two candidates are equal exactly when their ``Point`` views
    are.  An anchor is a rational scaled point (X, Y, E).  Moves and
    separations are signs of integer radical expressions (:func:`sign_sqrt`
    and :func:`sign_sqrt2`), and a member is tested against its near fixed
    centres only, rational or not.  The frame holds only values fixed at
    construction: every call builds its candidates and runs its tests
    afresh.
    """

    def __init__(self, inst: Instance, members: Sequence[int]):
        d2 = inst.d2
        self.variant = inst.variant
        disks = inst.disks
        origins = [disks[m] for m in members]
        reach2 = (derived_d(d2) + 2) ** 2
        near = [[disks[j] for j in geometry.near(disks, inst.scaled, m,
                                                 reach2, True)
                 if j not in members] for m in members]
        self.others = [[f for f in fs if not f.is_rational()] for fs in near]
        rats = [[f for f in fs if f.is_rational()] for fs in near]
        M = self.M = math.lcm(d2.denominator, *(
            v.denominator for p in [*origins, *(f for fs in rats for f in fs)]
            for v in (p.x, p.y)))
        self.four = 4 * M * M
        self.D2 = d2.numerator * M * M // d2.denominator
        s, f, e = split_sqrt(d2.numerator, d2.denominator)
        self.axis = s * M // e, f

        def on_frame(p: Point) -> tuple[int, int]:
            return (p.x.numerator * (M // p.x.denominator),
                    p.y.numerator * (M // p.y.denominator))

        self.origins = [on_frame(o) for o in origins]
        self.fixed = [[on_frame(f) for f in fs] for fs in rats]

    def point(self, t: tuple) -> Point:
        X, Y, U, V, E, c = t
        m = E * self.M
        return Point(quadext(Fraction(X, m), Fraction(U, m), c),
                     quadext(Fraction(Y, m), Fraction(V, m), c))

    def candidates(self, i: int, placed: Sequence[tuple]) -> list[tuple]:
        """Member i's candidates in build order, repeats dropped: the origin,
        the four axis extremes, then the points of each anchor, the near
        fixed centres in order and then every rational placed point; the
        points of a placed anchor farther than derived_d(d2) + 2 from the
        origin are farther than d from it, so ``fits`` rejects them (module
        docstring).  A Euclidean anchor gives its tangency toward the origin
        and its points on the move circle, then its points on the circles of
        the later anchors that lie within 4 of it; a rectilinear one gives
        the ends of its clearance on the two axis segments."""
        ox, oy = O = self.origins[i]
        R, f = self.axis
        out = [_pt(ox, oy, 0, 0, 1, 0), _pt(ox, oy, R, 0, 1, f),
               _pt(ox, oy, -R, 0, 1, f), _pt(ox, oy, 0, R, 1, f),
               _pt(ox, oy, 0, -R, 1, f)]
        anchors = [(x, y, 1) for x, y in self.fixed[i]] + [
            (X, Y, E) for X, Y, U, V, E, _ in placed if not (U or V)]
        for n, a in enumerate(anchors):
            out += self._own(O, a)
            if self.variant == "euclidean":
                for b in anchors[n + 1:]:
                    out += self._meet(a, b)
        return list(dict.fromkeys(out))

    def _own(self, O: tuple[int, int], a: tuple[int, int, int]) -> list:
        """Anchor a's points that do not depend on other anchors."""
        ox, oy = O
        ax, ay, e = a
        wx, wy = e * ox - ax, e * oy - ay
        if self.variant == "euclidean":
            w2 = wx * wx + wy * wy
            if not w2:
                return []
            # 2 from a toward O: a + 2*w/|w|, with |w|^2 = w2/(e*M)^2
            s, f, q = split_sqrt(w2, e * e * self.M * self.M)
            return [_pt(ax * s * f, ay * s * f, 2 * q * wx, 2 * q * wy,
                        e * s * f, f),
                    *self._meet(a, (ox, oy, 1), self.D2)]
        out = []
        lim = e * e * self.four
        # the ends, at distance 2 from a, of the horizontal and the vertical
        # segment through O
        for w, horizontal in ((wy, True), (wx, False)):
            if w * w <= lim:
                s, f, q = split_sqrt(lim - w * w, e * e * self.M * self.M)
                r = self.M * s * e
                for sign in (1, -1):
                    out.append(_pt(ax * q, oy * e * q, sign * r, 0, e * q, f)
                               if horizontal else
                               _pt(ox * e * q, ay * q, 0, sign * r, e * q, f))
        return out

    def _meet(self, a: tuple[int, int, int], b: tuple[int, int, int],
              rb: Optional[int] = None) -> tuple:
        """The points 2 from anchor a and sqrt(rb)/M from anchor b: first
        the one to the left of the line from a to b, then the one to its
        right, the tangency point twice when the circles touch.  Without
        rb, b is another anchor, and there are none unless 0 < |ab| <= 4."""
        (ax, ay, ea), (bx, by, eb) = a, b
        e = math.lcm(ea, eb)
        ax, ay, bx, by = (ax * (e // ea), ay * (e // ea),
                          bx * (e // eb), by * (e // eb))
        dx, dy = bx - ax, by - ay
        dd = dx * dx + dy * dy
        ee = e * e
        ra = self.four * ee
        if rb is None:
            if not 0 < dd <= 4 * ra:
                return ()
            rb = ra
        else:
            rb *= ee
        # in units of 1/(e*M): the foot (2*dd*a + n*(b - a))/(2*dd) of the
        # radical line, offset by -+(dy, -dx)*sqrt(k/(4*dd^2))
        n = ra - rb + dd
        k = 4 * dd * ra - n * n
        if k < 0:
            return ()
        s, f, q = split_sqrt(k, 4 * dd * dd)
        fx, fy = (2 * dd * ax + n * dx) * q, (2 * dd * ay + n * dy) * q
        u, v, E = 2 * dd * s * dy, 2 * dd * s * dx, 2 * dd * q * e
        return _pt(fx, fy, -u, v, E, f), _pt(fx, fy, u, -v, E, f)

    def fits(self, i: int, t: tuple, placed: Sequence[tuple]) -> bool:
        """Exact: candidate t is within member i's move budget and clear of
        its near fixed centres, rational or not, and of every placed one."""
        return (self._moves(i, t) and self._clear(i, t)
                and all(_apart(t, p, self.four) for p in placed))

    def _moves(self, i: int, t: tuple) -> bool:
        X, Y, U, V, E, c = t
        ox, oy = self.origins[i]
        a, b = X - E * ox, Y - E * oy
        D = self.D2 * E * E
        if self.variant == "euclidean":
            return sign_sqrt(D - a * a - b * b - (U * U + V * V) * c,
                             -2 * (a * U + b * V), c) >= 0
        if not (a or U):
            return sign_sqrt(D - b * b - V * V * c, -2 * b * V, c) >= 0
        if not (b or V):
            return sign_sqrt(D - a * a - U * U * c, -2 * a * U, c) >= 0
        return False

    def _clear(self, i: int, t: tuple) -> bool:
        X, Y, U, V, E, c = t
        q = (U * U + V * V) * c - self.four * E * E
        for fx, fy in self.fixed[i]:
            a, b = X - E * fx, Y - E * fy
            if sign_sqrt(a * a + b * b + q, 2 * (a * U + b * V), c) < 0:
                return False
        if self.others[i]:
            p = self.point(t)
            return all(_sep_ok(p, f) for f in self.others[i])
        return True


def _stage_candidates(frame: _Frame, deadline: Optional[float]
                      ) -> Optional[Feasibility]:
    """Stage 1: a refutation when some member without ``others`` alone has
    no place clear of the fixed disks (the module docstring's lone-member
    lemma), else None."""
    for i, others in enumerate(frame.others):
        _check_clock(deadline)
        if not (others or any(frame.fits(i, t, ())
                              for t in frame.candidates(i, ()))):
            return Feasibility("infeasible", member=i, reason=NO_PLACE)
    return None


def _stage_numeric(frame: _Frame, deadline: Optional[float]
                   ) -> Optional[Feasibility]:
    """Stage 2: the first placement of the frame's members, depth first,
    or None: member i tries ``frame.candidates(i, placed)`` in order and
    keeps a candidate t when ``frame.fits(i, t, placed)``.  The name is
    left from the float descent this stage once ran: the stage wrappers of
    ``perfbench/layers.py`` bind it, so its rename to ``_stage_walk`` waits
    for ROADMAP item 2."""
    placed: list = []

    def rec(idx: int) -> bool:
        _check_clock(deadline)
        if idx == len(frame.origins):
            return True
        for t in frame.candidates(idx, placed):
            if frame.fits(idx, t, placed):
                placed.append(t)
                if rec(idx + 1):
                    return True
                placed.pop()
        return False

    return (Feasibility("feasible",
                        {i: frame.point(t) for i, t in enumerate(placed)})
            if rec(0) else None)


# ---------------------------------------------------------------------------
# stage 3: grid sweep with Lipschitz slack (proof-grade refutation)

def _stage_grid(frame: _Frame, cfg: SolverConfig,
                deadline: Optional[float]) -> Feasibility:
    """Stage 3, on a frame where no member has ``others`` (unknown,
    "non-rational centers", otherwise): grid passes from DELTA_START,
    halving down to ``cfg.delta``, coarse to fine.
    Outcomes: an exact grid witness (feasible); a pass with no assignment
    surviving the relaxed constraints (infeasible, certificate delta); or
    the finest pass's unknown, when relaxed assignments remain or its node
    budget runs out.
    """
    if any(frame.others):
        return Feasibility("unknown", reason="non-rational centers")
    delta = DELTA_START
    while True:
        delta = max(delta, cfg.delta)
        res = _grid_pass(frame, delta, deadline)
        if res.status != "unknown" or delta == cfg.delta:
            return res
        delta /= 2


def _grid_pass(frame: _Frame, delta: Fraction,
               deadline: Optional[float]) -> Feasibility:
    """One sweep of the frame's moved set at a fixed resolution.

    The frame's integers are multiplied once more, by the least r that
    makes the grid step delta*M*r an integer, and grid point (px, py) is
    the frame candidate (px, py, 0, 0, r, 0).  Member i's menu reads only
    its near fixed centres ``frame.fixed[i]``; the exact test is
    ``frame.fits`` and an exact assignment becomes ``frame.point`` values.
    Relaxed separation thresholds have the form (2 - s*sqrt(2))^2 =
    A - B*sqrt(2), A = 4 + 2s^2 and B = 4s, with s = delta for moved-fixed
    pairs and s = 2*delta for moved-moved pairs; A = 0 makes one vacuous
    once s*sqrt(2) >= 2.  The pass gives up with unknown when its work
    passes GRID_NODE_BUDGET, and raises TimeoutError when the deadline
    passes; both checks run once per movable while the menus are built and
    at every DFS node.
    """
    r = delta.denominator // math.gcd(frame.M, delta.denominator)
    M = frame.M * r
    step = delta.numerator * M // delta.denominator
    four = frame.four * r * r
    d2i = frame.D2 * r * r
    sA1, sB1 = four + 2 * step * step, 4 * step * M
    sA2, sB2 = four + 8 * step * step, 8 * step * M
    sA1 = 0 if sB1 * sB1 >= 2 * four * four else sA1
    sA2 = 0 if sB2 * sB2 >= 2 * four * four else sA2
    mvA = d2i + 2 * step * step
    mv_rhs = 8 * step * step * d2i

    def sep_rel(dx: int, dy: int, A: int, B: int) -> bool:
        t = A - dx * dx - dy * dy
        return t <= 0 or t * t <= 2 * B * B

    def mv_rel(V: int) -> bool:
        t = V - mvA
        return t <= 0 or t * t <= mv_rhs

    amax = math.isqrt(d2i) // step + 2
    if frame.variant == "euclidean":
        disps = [(a * step, b * step)
                 for a in range(-amax, amax + 1)
                 for b in range(-amax, amax + 1)
                 if mv_rel((a * step) ** 2 + (b * step) ** 2)]
    else:
        axis = [a * step for a in range(-amax, amax + 1)
                if mv_rel((a * step) ** 2)]
        disps = sorted({(v, 0) for v in axis} | {(0, v) for v in axis})

    def spend(work: int) -> None:
        if work > GRID_NODE_BUDGET:
            raise _Stop
        _check_clock(deadline)

    def menu(i: int) -> list[tuple]:
        """Member i's displaced positions that pass the relaxed tests
        against its near fixed centres, as frame candidates."""
        ox, oy = frame.origins[i]
        near = [(fx * r, fy * r) for fx, fy in frame.fixed[i]]
        pts = []
        for vx, vy in disps:
            px, py = ox * r + vx, oy * r + vy
            for fx, fy in near:
                if not sep_rel(px - fx, py - fy, sA1, sB1):
                    break
            else:
                pts.append((px, py, 0, 0, r, 0))
        return pts

    chosen: list[tuple] = []
    nodes = 0

    def rec(idx: int, exact: bool, relaxed: bool) -> tuple[bool, bool]:
        """Extend ``chosen``, exact when ``exact`` is, over the members
        from ``order[idx]`` on.  Returns (relaxed, found): whether a
        relaxed assignment is known, ``relaxed`` telling whether one was
        before this call, and whether an exact one fills ``chosen``.  Once
        a relaxed assignment is known, only exact branches are explored."""
        nonlocal nodes
        nodes += 1
        spend(nodes)
        if idx == len(order):
            return True, exact
        i = order[idx]
        for p in menus[i]:
            for q in chosen:
                if not sep_rel(p[0] - q[0], p[1] - q[1], sA2, sB2):
                    break
            else:
                pe = exact and frame.fits(i, p, chosen)
                if pe or not relaxed:
                    chosen.append(p)
                    relaxed, found = rec(idx + 1, pe, relaxed)
                    if found:
                        return True, True
                    chosen.pop()
        return relaxed, False

    try:
        menus, work = [], 0
        for i in range(len(frame.origins)):
            menus.append(menu(i))
            work += len(disps) * (len(frame.fixed[i]) + 1)
            spend(work)
        # most-constrained-first ordering keeps the DFS shallow; results map
        # back through the permutation
        order = sorted(range(len(menus)), key=lambda i: (len(menus[i]), i))
        relaxed, exact = rec(0, True, False)
    except _Stop:
        return Feasibility("unknown", reason="grid node budget")
    if exact:
        return Feasibility("feasible", {i: frame.point(t)
                                        for i, t in zip(order, chosen)})
    if not relaxed:
        return Feasibility("infeasible", delta=delta)
    return Feasibility("unknown",
                       reason=f"relaxed grid assignments remain at delta {delta}")


# ---------------------------------------------------------------------------
# feasibility pipeline and the top-level solve

def feasibility(inst: Instance, members: Sequence[int],
                cfg: Optional[SolverConfig] = None,
                deadline: Optional[float] = None) -> Feasibility:
    """Decide whether the disks of ``inst`` at the indices ``members``
    admit new positions; slot i of an assignment is ``members[i]``.

    The disks outside ``members`` must form a packing, and all disks are
    explicit (no lattice fill).  A set with a member whose centre is not
    rational is unknown ("non-rational centers"); any other gets one
    :class:`_Frame`, which every stage reads.  See the module docstring for
    the rule of each stage and its guarantees.  ``deadline`` is a
    ``time.monotonic()`` instant (None: no limit); once it has passed, the
    stage that reads the clock raises TimeoutError, and the answer is
    unknown with reason "time budget".
    """
    cfg = cfg or SolverConfig()
    if not members:
        return Feasibility("feasible", {})
    if not all(inst.disks[m].is_rational() for m in members):
        return Feasibility("unknown", reason="non-rational centers")
    frame = _Frame(inst, members)
    try:
        return (_stage_candidates(frame, deadline)
                or _stage_numeric(frame, deadline)
                or _stage_grid(frame, cfg, deadline))
    except TimeoutError as e:
        return Feasibility("unknown", reason=str(e))


def solve(inst: Instance, cfg: Optional[SolverConfig] = None) -> Answer:
    """Full decision pipeline over an explicit-disk instance.

    Candidate sets come from ``enumerate_candidate_sets`` on the kernel
    instance, smaller first, and every one goes to ``feasibility``: the
    first feasible set gives the yes, and a no needs every set refuted.  A
    set refuted by the lone-member lemma is logged as "refuted, disk j has
    no place clear of the fixed disks", j being the kernel index of that
    member, and one refuted by a grid as "refuted at delta" its resolution.
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
    except IndeterminateError as e:
        # an overlap that exact arithmetic cannot decide proves nothing
        return Answer("unknown", reason=str(e))
    g = report.graph
    if not g.edges:
        return Answer("yes", Witness({}),
                      log=("already a packing after reduction",))

    log: list[str] = [
        f"kernel kept {len(kinst.disks)} of {len(inst.disks)} disks"]
    unknowns = 0
    try:
        for cand in enumerate_candidate_sets(kinst, g, deadline):
            res = feasibility(kinst, cand, cfg, deadline=deadline)
            if res.status == "feasible":
                moves = {}
                for slot, target in res.assignment.items():
                    orig_idx = report.kept[cand[slot]]
                    if target != inst.disks[orig_idx]:
                        moves[orig_idx] = target
                return Answer("yes", Witness(moves),
                              log=tuple(log + [f"moved set {cand}"]))
            if res.status == "infeasible":
                if res.delta is not None:
                    log.append(f"set {cand}: refuted at delta {res.delta}")
                else:
                    log.append(f"set {cand}: refuted, "
                               f"disk {cand[res.member]} {res.reason}")
            else:
                unknowns += 1
                log.append(f"set {cand}: unknown ({res.reason})")
        _check_clock(deadline)
    except TimeoutError as e:
        # an incomplete sweep proves nothing
        return Answer("unknown", reason=str(e), log=tuple(log))
    if unknowns:
        return Answer("unknown",
                      reason=f"{unknowns} candidate sets undecided",
                      log=tuple(log))
    return Answer("no", log=tuple(log))
