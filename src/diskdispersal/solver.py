"""Decision procedure: enumerate candidate moved-sets, decide placements.

The search enumerates every subset A (|A| <= k) whose removal leaves the
remaining disks pairwise non-overlapping -- exactly the vertex covers of the
intersection graph, non-minimal ones included -- and asks for each whether
the disks of A admit new positions.  Placement feasibility runs through
three stages, all exact: apart from the clock of its time budget, the
solver uses no floats.  ``feasibility`` gives a set whose members' centres
are all rational one ``_Frame``, which every stage reads: the origins and
the rational fixed centres near each member, multiplied by one scale M
with d2*M^2 an integer, and each fixed centre that is not rational as a
``Point`` in ``frame.others``.

1. on a frame without ``others``, structured candidates (tangency
   intersections, budget-tight points, axis extremes): every candidate is
   a tuple of integers over one radicand and every test the sign of an
   integer radical expression.  Only anchors within d+2 of a movable's
   origin seed tangencies: a target within d of the origin at distance 2
   from an anchor puts that anchor within d+2.  Before its search, stage 1
   refutes the set when one member alone has no place clear of the fixed
   disks (the lone-member lemma below);
2. on a frame with ``others``, stage 1's walk, each candidate also tested
   exactly against every centre of ``others``; the lemma is not used;
3. on a frame without ``others``, an exhaustive grid sweep over each
   movable's reachable region that either finds an exact grid witness or
   *proves* infeasibility: if no grid assignment survives with every
   constraint relaxed by the maximal rounding perturbation (sqrt(2)*delta
   per moved endpoint), no continuous solution exists.  Each pass rescales
   the frame once more to put the grid on integers.

Near fixed centres.  Of the rational fixed centres, stages test each
member against its near ones only.  The closed test picks those within
derived_d(d2) + 2 of the member's origin, so each centre left out lies
farther than d + 2 from it.  Every exact test asks for a point within d of
the origin, which is then more than 2 from such a centre.  Stage 3's
relaxed move test asks for a grid point within d + sqrt(2)*delta, which is
then more than 2 - sqrt(2)*delta from it and passes the relaxed separation
test.  For delta >= sqrt(2) that test is vacuous (2 - sqrt(2)*delta <= 0)
and every point passes it.

Stage 1 returns a feasible ``Feasibility``, a refutation by the
lone-member lemma below, or None; stage 2 a feasible ``Feasibility`` or
None; stage 3 always a ``Feasibility``, unknown ("non-rational centers")
without a frame or on one with ``others``.  ``feasibility`` runs a stage
only when the one before it returned None.

A member x whose centre o is not rational.  Its set A gets no frame and
ends unknown ("non-rational centers"), and no yes is lost: as tangencies
are built on rational centres only, a walk on A could only keep x at o,
clear of the fixed disks and of the other targets.  Then the cover A minus
x, which the enumeration yields first, has the same placement with o
fixed, and by induction on such members its first subset with a frame
finds one: its walk lists the same candidates and runs the same tests.  No
set of a kernel instance that holds a disk that is not rational is
refuted, so the far-member lemma below never skips one.

Lone-member lemma.  Let every origin and every fixed centre be rational,
and let R be the free region of one member x with origin o: the points
within x's move budget (Euclidean: the closed disk of radius d around o;
rectilinear: the two closed axis segments of half-length d through o) at
distance at least 2 from every fixed centre.  A placement of the whole set
puts x in R, so if R is empty the set is infeasible.  If R is not empty,
its lowest point p (least y, then least x) is one of the points that
``_Frame.candidates(i, ())`` lists for x, so when no point of that
list fits, R is empty.  Proof, Euclidean: R is the closed move disk minus
finitely many open disks, so it is compact and p lies on its boundary.  If
p lies on two distinct circles among the move circle and the fixed circles,
it is a move-fixed or a fixed-fixed intersection point (a tangency point
included).  Otherwise every other constraint holds strictly at p, so near
p, R is one circle's closed side.  On the move circle that side is the
inside, and p must be the circle's bottom, an axis extreme.  On a fixed
circle it is the outside: below the circle's bottom lie points of R, and
from any other point of the circle, its top included, sliding along the
circle toward the equator lowers y; so p is never there.  Rectilinear: on
each segment the fixed disks remove open intervals, leaving a finite union
of closed intervals whose lowest end is a segment end (an axis extreme) or
a tangency end.  Each of these points that is not an axis extreme lies
within d of o and at distance 2 from one or two fixed centres, which
therefore lie within d+2 of o and seed it.  Stage 1 runs this test on each
member alone before its search and reports the first member whose R is
empty.

Some covers are refuted without running the stages.  Far-member lemma:
let A be a cover and x a member of A such that A minus x is a cover too
and x's origin lies at least d+2 from the origin of every other member.
If A minus x is infeasible, so is A.  Proof: take targets for A and put x back at its
origin.  x at its origin clears every disk that A leaves fixed, since A
minus x is a cover.  Every other member's target lies within d of its
origin -- a rectilinear move is axis-parallel, so its Euclidean length is
at most d as well -- and so at least 2 from x's origin.  The other
constraints are those of A, so A minus x would be feasible.  ``solve``
tests the distance exactly, on the integers of the two origins, against
(derived_d(d2) + 2)^2, an upper bound on (d+2)^2; an origin that is not
rational is never far.  It applies the lemma only to a subset that was
refuted, by the lone-member lemma, a grid or this lemma itself, never to
one left unknown.

Yes answers always carry a witness that validates exactly; No answers are
backed, for every candidate set, by the lone-member lemma, a grid
refutation, or the far-member lemma from either; anything else is reported
Unknown rather than guessed.

The search takes explicit disks only: ``solve`` rejects an instance with
lattice fill, which must be expanded first.  Comparisons between exact
coordinates are decided exactly; only ``~`` input can leave one undecided,
and that answer is unknown.

``SolverConfig`` has two fields: ``delta`` (stage 3's finest grid) and
``time_budget`` (None, or seconds at least 0), which bounds the whole
solve: ``solve`` turns it into one ``time.monotonic()`` deadline before
kernelization and hands it to the enumeration, to every stage and to every
DFS node of every grid pass, so an expired budget ends the solve within
one step of any of them and reports unknown ("time budget").  The fixed
search limits are module constants: ``DELTA_START`` (stage 3's first,
coarsest grid) and ``GRID_NODE_BUDGET`` (stage 3 work per pass).
That budget counts DFS nodes, and menu cells times (near fixed centres +
1), not the tests at a node, so only ``time_budget`` bounds a pass.
Stages 1 and 2 have no limit of their own: each walks every candidate it
lists, in the order it builds them.
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
    dist2,
    ratio,
    ratio_below,
)
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

    Coordinates are multiplied by one scale M: the least common multiple of
    the denominators of d2, of the origins, which must be rational, and of
    the near fixed centres, the rational ones within derived_d(d2) + 2 of
    some origin.  These centres become integer points, ``fixed[i]`` holding
    member i's, and d2*M^2 an integer D2; a fixed centre that is not
    rational stays a ``Point`` in ``others``.  A candidate is a tuple
    (X, Y, U, V, E, c), built by :func:`_pt`, for the scaled point
    ((X + U*sqrt(c))/E, (Y + V*sqrt(c))/E); c is the radicand ``quadext``
    stores, so two candidates are equal exactly when their ``Point`` views
    are.  An anchor is a rational scaled point (X, Y, E).  Moves and
    separations are signs of integer radical expressions (:func:`sign_sqrt`
    and :func:`sign_sqrt2`), and a member is tested against its near fixed
    centres only (module docstring) and exactly against ``others``.  The
    frame holds only values fixed at construction: every call builds its
    candidates and runs its tests afresh.
    """

    def __init__(self, fixed: Sequence[Point], origins: Sequence[Point],
                 d2: Fraction, variant: str):
        reach2 = (derived_d(d2) + 2) ** 2
        self.reach = reach2.numerator, reach2.denominator
        self.variant = variant
        rats = [ratio(f) for f in fixed]
        frats = [r for r in rats if r is not None]
        self.others = [f for f, r in zip(fixed, rats) if r is None]
        self.orats = [ratio(o) for o in origins]
        near = [[j for j, r in enumerate(frats)
                 if ratio_below(o, r, *self.reach, True)]
                for o in self.orats]
        M = self.M = math.lcm(d2.denominator, *(
            r[k] for r in self.orats + [frats[j] for js in near for j in js]
            for k in (1, 3)))
        self.four = 4 * M * M
        self.D2 = d2.numerator * M * M // d2.denominator
        s, f, e = split_sqrt(d2.numerator, d2.denominator)
        self.axis = s * M // e, f
        self.origins = [(xn * (M // xd), yn * (M // yd))
                        for xn, xd, yn, yd in self.orats]
        self.fixed = [[(frats[j][0] * (M // frats[j][1]),
                        frats[j][2] * (M // frats[j][3])) for j in js]
                      for js in near]

    def point(self, t: tuple) -> Point:
        X, Y, U, V, E, c = t
        m = E * self.M
        return Point(quadext(Fraction(X, m), Fraction(U, m), c),
                     quadext(Fraction(Y, m), Fraction(V, m), c))

    def candidates(self, i: int, placed: Sequence[tuple]) -> list[tuple]:
        """Member i's candidates in build order, repeats dropped: the
        origin, the four axis extremes, then the points of each anchor, the
        near fixed centres in order and then the rational placed points
        within derived_d(d2) + 2 of the origin.  A Euclidean anchor gives
        its tangency toward the origin and its points on the move circle,
        then its points on the circles of the later anchors that lie within
        4 of it; a rectilinear one gives the ends of its clearance on the
        two axis segments."""
        ox, oy = O = self.origins[i]
        R, f = self.axis
        out = [_pt(ox, oy, 0, 0, 1, 0), _pt(ox, oy, R, 0, 1, f),
               _pt(ox, oy, -R, 0, 1, f), _pt(ox, oy, 0, R, 1, f),
               _pt(ox, oy, 0, -R, 1, f)]
        M = self.M
        anchors = [(x, y, 1) for x, y in self.fixed[i]] + [
            (X, Y, E) for X, Y, U, V, E, _ in placed if not (U or V)
            and ratio_below((X, E * M, Y, E * M), self.orats[i], *self.reach,
                            True)]
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
        its near fixed centres, of ``others`` and of every placed one."""
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
        if self.others:
            p = self.point(t)
            return all(_sep_ok(p, f) for f in self.others)
        return True


def _walk(frame: _Frame, deadline: Optional[float]
          ) -> Optional[Feasibility]:
    """The first placement of the frame's members, depth first: member i
    tries ``frame.candidates(i, placed)`` in order and keeps a candidate t
    when ``frame.fits(i, t, placed)``.  None when there is none or the
    deadline passes."""
    placed: list = []

    def rec(idx: int) -> bool:
        if _expired(deadline):
            return False
        if idx == len(frame.origins):
            return True
        for t in frame.candidates(idx, placed):
            if not frame.fits(idx, t, placed):
                continue
            placed.append(t)
            if rec(idx + 1):
                return True
            placed.pop()
        return False

    if not rec(0):
        return None
    return Feasibility("feasible",
                       {i: frame.point(t) for i, t in enumerate(placed)})


def _stage_candidates(frame: Optional[_Frame], deadline: Optional[float]
                      ) -> Optional[Feasibility]:
    """Stage 1, on a frame without ``others`` (None at once otherwise): a
    refutation when some member alone has no place clear of the fixed
    disks (the module docstring's lone-member lemma), else a feasible
    placement built from structured candidates, or None."""
    if frame is None or frame.others:
        return None
    for i in range(len(frame.origins)):
        if _expired(deadline):
            return None
        if not any(frame.fits(i, t, ()) for t in frame.candidates(i, ())):
            return Feasibility("infeasible", member=i, reason=NO_PLACE)
    return _walk(frame, deadline)


def _stage_numeric(frame: Optional[_Frame], deadline: Optional[float]
                   ) -> Optional[Feasibility]:
    """Stage 2, on a frame with ``others`` (None at once otherwise): stage
    1's walk, each candidate also tested exactly against the fixed centres
    that are not rational, or None.  The lone-member lemma does not apply
    here.  The name is left from the float descent this stage once ran:
    the stage wrappers of ``perfbench/layers.py`` bind it, so a rename
    waits for a change to the benchmark."""
    if frame is None or not frame.others:
        return None
    return _walk(frame, deadline)


# ---------------------------------------------------------------------------
# stage 3: grid sweep with Lipschitz slack (proof-grade refutation)

def _stage_grid(frame: Optional[_Frame], cfg: SolverConfig,
                deadline: Optional[float]) -> Feasibility:
    """Stage 3, on a frame without ``others`` (unknown, "non-rational
    centers", otherwise): sweep delta grids coarse to fine on the frame.
    Outcomes: an exact grid witness (feasible); a completed sweep with no
    assignment surviving the relaxed constraints (infeasible, certificate
    delta); or the finest pass's unknown, when relaxed assignments remain
    or a budget runs out.
    """
    if frame is None or frame.others:
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
        res = _grid_pass(frame, delta, deadline)
        if res.status != "unknown":
            return res
    return res


def _grid_pass(frame: _Frame, delta: Fraction,
               deadline: Optional[float]) -> Feasibility:
    """One sweep of the frame's moved set at a fixed resolution.

    The frame's integers are multiplied once more, by the least r that
    makes the grid step delta*M*r an integer.  Member i's menu and exact
    check read only its near fixed centres ``frame.fixed[i]``.  Relaxed
    separation thresholds have the form (2 - s*sqrt(2))^2 = A - B*sqrt(2),
    A = 4 + 2s^2 and B = 4s, with s = delta for moved-fixed pairs and
    s = 2*delta for moved-moved pairs; A = 0 makes one vacuous once
    s*sqrt(2) >= 2.  The pass gives up with unknown when its work passes
    GRID_NODE_BUDGET or the deadline passes; both checks run once per
    movable while the menus are built and at every DFS node.
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

    def sep_rel(D: int, A: int, B: int) -> bool:
        t = A - D
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

    origins = [(x * r, y * r) for x, y in frame.origins]
    fixed = [[(x * r, y * r) for x, y in near] for near in frame.fixed]

    def spend(work: int) -> None:
        if work > GRID_NODE_BUDGET:
            raise _Stop("grid node budget")
        if _expired(deadline):
            raise _Stop("time budget")

    def menu(i: int) -> list[tuple[int, int]]:
        """Member i's displaced positions that pass the relaxed tests
        against its near fixed centres."""
        ox, oy = origins[i]
        pts = []
        for vx, vy in disps:
            px, py = ox + vx, oy + vy
            for fx, fy in fixed[i]:
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

    def point_exact(i: int, px: int, py: int) -> bool:
        # incremental exact check; callers guarantee the chosen prefix is
        # itself exact when this is consulted
        ox, oy = origins[i]
        dx, dy = px - ox, py - oy
        if dx * dx + dy * dy > d2i:
            return False
        for fx, fy in fixed[i]:
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
        if idx == len(order):
            found_relaxed[0] = True
            if prefix_exact:
                found_exact[0] = list(chosen)
            return
        i = order[idx]
        for p in menus[i]:
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
            pe = prefix_exact and point_exact(i, p[0], p[1])
            if found_relaxed[0] and not pe:
                continue
            chosen.append(p)
            rec(idx + 1, pe)
            chosen.pop()

    try:
        menus, work = [], 0
        for i in range(len(origins)):
            menus.append(menu(i))
            work += len(disps) * (len(fixed[i]) + 1)
            spend(work)
        # most-constrained-first ordering keeps the DFS shallow; results map
        # back through the permutation
        order = sorted(range(len(origins)), key=lambda i: (len(menus[i]), i))
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
    lattice fill).  The set gets one :class:`_Frame` when every movable's
    centre is rational, and none otherwise; every stage reads it.  See the
    module docstring for which stage takes which frame, and for their
    guarantees.  ``deadline`` is a ``time.monotonic()`` instant (None: no
    limit); once it has passed, every stage gives up and the answer is
    unknown with reason "time budget", or "non-rational centers" for a set
    that stage 3 does not take.
    """
    cfg = cfg or SolverConfig()
    d2 = frac(d2)
    if not movables:
        return Feasibility("feasible", {})
    frame = (_Frame(fixed, movables, d2, variant)
             if all(p.is_rational() for p in movables) else None)
    return (_stage_candidates(frame, deadline)
            or _stage_numeric(frame, deadline)
            or _stage_grid(frame, cfg, deadline))


def _implied_refutation(cand: list[int], refuted: set[frozenset[int]],
                        rats: Sequence[Optional[tuple]],
                        reach: tuple[int, int]) -> Optional[list[int]]:
    """A refuted ``cand`` minus x whose x lies at least sqrt(reach[0] /
    reach[1]) from every other member, or None; by the module docstring's
    far-member lemma it refutes ``cand``.  ``rats`` holds each disk's
    :func:`ratio`; a disk that is not rational is never far."""
    def far(i: int, j: int) -> bool:
        return (rats[i] is not None and rats[j] is not None
                and not ratio_below(rats[i], rats[j], *reach))

    for x in cand:
        rest = [i for i in cand if i != x]
        if frozenset(rest) in refuted and all(far(x, i) for i in rest):
            return rest
    return None


def solve(inst: Instance, cfg: Optional[SolverConfig] = None) -> Answer:
    """Full decision pipeline over an explicit-disk instance.

    Candidate sets come from ``enumerate_candidate_sets``, smaller first.
    A set that the module docstring's far-member lemma refutes through a
    smaller refuted set is logged as "refuted, implied by" that set and
    never reaches ``feasibility``; every other set does.  A set refuted by the
    lone-member lemma is logged as "refuted, disk j has no place clear of
    the fixed disks", j being the kernel index of that member.
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
    reach2 = (derived_d(kinst.d2) + 2) ** 2
    reach = reach2.numerator, reach2.denominator
    rats = [ratio(p) for p in kinst.disks]
    refuted: set[frozenset[int]] = set()
    for cand in enumerate_candidate_sets(g, inst.k, deadline):
        implied = _implied_refutation(cand, refuted, rats, reach)
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
            if res.delta is not None:
                log.append(f"set {cand}: refuted at delta {res.delta}")
            else:
                log.append(f"set {cand}: refuted, "
                           f"disk {cand[res.member]} {res.reason}")
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
