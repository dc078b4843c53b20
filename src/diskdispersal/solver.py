"""Decision procedure: search moved sets by clauses, decide placements.

The search looks for a set A (|A| <= k) of disks whose removal leaves the
remaining disks pairwise non-overlapping -- a vertex cover of the
intersection graph -- and whose disks admit new positions.  It adds to a
set only a disk of a clause that the set violates (below): each conflict
edge is a clause, and so is each answer that is not feasible, so every set
it yields is a cover that no earlier answer rules out.
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
2. on every frame, a depth-first walk over structured candidates: the
   origin, the four axis extremes and the lone-member lemma's points
   (below), with member i's near fixed centres and every rational placed
   point as its anchors.  Every candidate is a tuple of integers over one
   radicand and every test the sign of an integer radical expression, and
   member i's candidates are also tested exactly against ``others[i]``.  A
   placed anchor farther than derived_d(d2) + 2 from the origin gives only
   candidates 2 from it, so farther than d from the origin, which the move
   test rejects: the walk places the same targets as without it;
3. on a frame where no member has ``others``, an exhaustive grid sweep
   over each movable's reachable region that either finds an exact grid
   witness or *proves* infeasibility: if no grid assignment survives with
   every constraint relaxed by the maximal rounding perturbation
   (sqrt(2)*delta per moved endpoint), no continuous solution exists.  Each
   pass rescales the frame once more to put the grid on integers, so a
   grid point is a frame candidate.  A pass searches first for a relaxed
   assignment, whose absence is the refutation, and then, only when one
   exists, for an exact one, with ``frame.fits`` added to the test: the
   first exact one is the grid witness, built by ``frame.point``.

Near fixed centres.  Stages test each member against its near fixed centres
only.  One routine, ``geometry.near`` with the closed test, answers every
"within derived_d(d2) + 2" question of the solver (``_near_fixed``), for a
frame and for a clause: a pair on the instance's ``Instance.scaled`` array,
built once per instance, is decided on integers, as ``close_pairs`` decides
it, and any other pair by an exact ``compare``, in which an undecided
comparison counts as near.  So each centre left out lies farther
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
A unknown ("non-rational centers") with no frame and no stage.  As
tangencies are built on rational centres only, a walk on A could only keep
x, and every other such member, at its origin.  Such a placement is also
one of the set F of A's members whose centres are rational, with the other
members fixed: F is a cover, as a conflict edge of x has its other end
moved, and it holds no member whose centre is not rational, so no set
answered "non-rational centers" lies in F and F satisfies their clauses.
By the completeness argument below, the search then answers yes or leaves
unknown a set whose members' centres are all rational; so these unknowns
never alone stand between the solve and a placement that a walk on A would
find.

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
which therefore lie within d+2 of o, are rational and seed it.  The list
is exactly these points and the origin: the four axis extremes, each near
fixed centre's points at distance 2 on the move circle (Euclidean) or on
the two axis lines through o (rectilinear), and, Euclidean, the points at
distance 2 from two near fixed centres.  A fixed centre farther away is
more than 2 from every point within d of o, so it changes neither R nor
the list.  Stage 1 runs this test on each member whose ``others`` are
empty and reports the first whose R is empty.

Clauses.  A clause (S, N), two sets of kernel indices, says "if every disk
of S moves, some disk of N moves"; a moved set B violates it when S is in
B and no disk of N is.  ``solve`` keeps one list of clauses.  It starts
with the kernel graph's conflict edges, (i, j) giving ({}, {i, j}), so a
set that violates none is a cover.  Each answer that is not feasible, for
a set A, appends one, N being the fixed disks that ``Feasibility.read``
carries: a lone-member refutation of member x gives ({x}, N), N the near
fixed disks of x in A; a grid refutation or an unknown answer gives (A, N),
N the union of the members' near fixed disks.  Soundness: in a set B that
violates a refutation's clause every disk of N stays fixed at its origin,
so x, or all of A, faces at least the constraints that the refutation read
-- the same near fixed centres, with more fixed disks and more members only
adding constraints (a placement of B restricted to A places A clear of N)
-- and adding constraints never makes an infeasible set feasible.  This
holds even when B has a member whose centre is not rational.  By the same
restriction, a B that violates the clause of an unknown A is feasible only
if A is, and the solve, having counted A, answers unknown anyway.

The search.  ``enumerate_candidate_sets`` runs depth first from the empty
set.  At a set B it takes the first clause, in list order, that B violates
and, when |B| < k, branches over that clause's N in increasing order: the
n-th branch adds N's n-th disk and bans the disks before it, and a banned
disk is never added, so the branches' subtrees are disjoint and no set is
yielded twice.  A set that violates no clause is yielded; ``solve`` appends
its clause unless it is feasible, and the search goes on from it.  No cover
is built only to be skipped.  A yes is the first feasible set the search
reaches, which need not be one of least size.

Completeness.  Take any feasible F with |F| <= k.  F satisfies every edge
clause, being a cover, every refutation's clause, by soundness, and every
unknown set's clause unless the solve answers unknown.  From the empty set,
follow at each violated clause the branch of the clause's first disk in F:
each set B on this path is in F, no disk of F is banned, and the clause has
a disk of F outside B, so |B| < k and the branch exists.  The path reaches
a set B in F that violates no clause, F itself at the latest, and the
search yields it; its answer is feasible, or unknown, or a refutation whose
clause F satisfies and B violates, and the path goes on.  So a search that
ends with no set feasible and none unknown proves that no feasible set of
at most k disks exists: a no needs, for every yielded set, the lone-member
lemma or a grid refutation; a yes always carries a witness that validates
exactly; anything else is reported Unknown rather than guessed.

The search takes explicit disks only: ``solve`` rejects an instance with
lattice fill, which must be expanded first.  Comparisons between exact
coordinates are decided exactly; only ``~`` input can leave one undecided,
and that answer is unknown.

``SolverConfig`` has two fields: ``delta`` (stage 3's finest grid) and
``time_budget`` (None, or seconds at least 0 within float range), which
bounds the whole solve: ``solve`` turns it into one ``time.monotonic()``
deadline before kernelization and hands it to the search, to stages 1
and 2 and to every DFS node of every grid pass.  Each reads the clock
through one helper that raises TimeoutError("time budget") once the
deadline has passed, so an expired budget ends the solve within one step
of any of them, and no cut-short sweep passes for a finished one; only
``feasibility`` and ``solve`` catch it, into unknown ("time budget").  The
fixed search limits are module constants: ``DELTA_START`` (stage 3's
first, coarsest grid) and ``GRID_NODE_BUDGET`` (stage 3 work per pass).
That budget counts the nodes of a pass's relaxed and exact searches
together, and menu cells times (near fixed centres + 1), not the tests at
a node, so only ``time_budget`` bounds a pass.  Stages 1 and 2 have no
limit of their own: each tries every candidate it lists, in the order it
builds them.

One placement search.  Stage 2's walk and both searches of a grid pass
are one depth-first routine, ``_place``: members in a given order, each
trying its menu in order, keeping a point that passes the test against
the points kept before it and backtracking when no point of the menu
leads to a whole placement.  Stage 2 runs it once, in member order; a
grid pass runs it on its menus, most constrained member first, with the
relaxed test and then with the relaxed and the exact test.  The
two-search pass answers as one search that looks for both at once would:
an exact assignment is a relaxed one, so the second search's first
placement is the first exact leaf in depth-first order, and the second
search can start where the first one ended.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
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

__all__ = [
    "SolverConfig",
    "Answer",
    "Feasibility",
    "solve",
    "enumerate_candidate_sets",
    "feasibility",
]

DELTA_START = Fraction(1, 4)  # stage 3: first (coarse) refutation grid
GRID_NODE_BUDGET = 1_500_000  # stage 3, per pass: the nodes of its relaxed
                              # and exact searches together, and menu cells
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
        # the deadline is a float: a budget beyond float range has none, and
        # a nan one never passes, so both are refused with the negatives
        try:
            ok = self.time_budget is None or (
                self.time_budget >= 0 and float(self.time_budget) >= 0)
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError("time budget must be at least 0 and fit a float")


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
    read: Optional[frozenset[int]] = None  # fixed disks of a clause


def _check_clock(deadline: Optional[float]) -> None:
    """Raise TimeoutError("time budget") once a ``time.monotonic()``
    deadline has passed; None never does."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("time budget")


class _Stop(Exception):
    """Leaves a grid pass whose work passes GRID_NODE_BUDGET."""


# ---------------------------------------------------------------------------
# candidate moved-set search

def enumerate_candidate_sets(clauses: Sequence[tuple[frozenset, frozenset]],
                             k: int, deadline: Optional[float] = None
                             ) -> Iterator[list[int]]:
    """The moved sets of at most ``k`` disks that violate no clause of
    ``clauses``, depth first (module docstring).  A set B violates the
    clause (S, N), two frozensets of disk indices, when S is in B and no
    disk of N is.  From the empty set, a set that violates a clause
    branches on the first such clause in list order, when it has fewer
    than ``k`` members: the branches take the clause's disks of N in
    increasing order, and each adds its disk and bans the disks of the
    branches before it, which no set below it adds.  A set that violates
    no clause is yielded, and then looked at again, since the caller may
    have appended a clause that it violates; if it still violates none,
    its search ends.  No set is yielded twice.  The clock is read at every
    node, and TimeoutError is raised once ``deadline`` has passed, so a
    search that ends without one is complete."""

    def search(chosen: frozenset, banned: frozenset
               ) -> Iterator[list[int]]:
        fresh = True
        while True:
            _check_clock(deadline)
            violated = next((n for s, n in clauses
                             if s <= chosen and n.isdisjoint(chosen)), None)
            if violated is not None:
                if len(chosen) < k:
                    for j in sorted(violated - banned):
                        yield from search(chosen | {j}, banned)
                        banned = banned | {j}
                return
            if not fresh:
                return
            fresh = False
            yield sorted(chosen)

    yield from search(frozenset(), frozenset())


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


def _near_fixed(inst: Instance, members: Sequence[int]) -> list[list[int]]:
    """For each member, the indices of the other disks, members excluded,
    that the closed ``geometry.near`` test on ``inst.scaled`` finds within
    derived_d(d2) + 2 of its origin, in instance order."""
    reach2 = (derived_d(inst.d2) + 2) ** 2
    return [[j for j in geometry.near(inst.disks, inst.scaled, m, reach2, True)
             if j not in members] for m in members]


class _Frame:
    """One moved set on integers, for every stage.

    Member i is the disk ``inst.disks[members[i]]``, and its near fixed
    centres are the disks that :func:`_near_fixed` lists for it, ``near[i]``
    holding their indices into ``inst.disks``.  Coordinates are multiplied
    by one
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
        self.near = _near_fixed(inst, members)
        near = [[disks[j] for j in js] for js in self.near]
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
        docstring).  A Euclidean anchor gives its points on the move
        circle, then its points on the circles of the later anchors that
        lie within 4 of it; a rectilinear one gives the ends of its
        clearance on the two axis segments."""
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

    def _own(self, O: tuple[int, int], a: tuple[int, int, int]
             ) -> Sequence[tuple]:
        """Anchor a's points that do not depend on other anchors."""
        if self.variant == "euclidean":
            return self._meet(a, (*O, 1), self.D2)
        ox, oy = O
        ax, ay, e = a
        wx, wy = e * ox - ax, e * oy - ay
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
        right, the tangency point twice when the circles touch.  There are
        none when a and b are one point, as concentric circles have no
        isolated common point; without rb, b is another anchor, and there
        are none unless |ab| <= 4."""
        (ax, ay, ea), (bx, by, eb) = a, b
        e = math.lcm(ea, eb)
        ax, ay, bx, by = (ax * (e // ea), ay * (e // ea),
                          bx * (e // eb), by * (e // eb))
        dx, dy = bx - ax, by - ay
        dd = dx * dx + dy * dy
        ee = e * e
        ra = self.four * ee
        if not dd:
            return ()
        rb = ra if rb is None else rb * ee
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
    lemma), else None.  The refutation read member i's near fixed disks."""
    for i, others in enumerate(frame.others):
        _check_clock(deadline)
        if not (others or any(frame.fits(i, t, ())
                              for t in frame.candidates(i, ()))):
            return Feasibility("infeasible", member=i, reason=NO_PLACE,
                               read=frozenset(frame.near[i]))
    return None


def _place(order: Sequence[int], menu, fits, tick) -> Optional[list]:
    """The first placement, depth first, of the members in ``order``, or
    None: member i tries ``menu(i, placed)`` in order and keeps a t when
    ``fits(i, t, placed)``, ``placed`` holding the points kept for the
    members before it in ``order``.  ``tick()`` runs at every node, so it
    may raise to end the search."""
    placed: list = []

    def rec(idx: int) -> bool:
        tick()
        if idx == len(order):
            return True
        i = order[idx]
        for t in menu(i, placed):
            if fits(i, t, placed):
                placed.append(t)
                if rec(idx + 1):
                    return True
                placed.pop()
        return False

    return placed if rec(0) else None


def _stage_numeric(frame: _Frame, deadline: Optional[float]
                   ) -> Optional[Feasibility]:
    """Stage 2: the first placement of the frame's members, in member
    order, that :func:`_place` finds with menu ``frame.candidates`` and
    test ``frame.fits``, reading the clock at every node, or None.  The
    name is left from the float descent this stage once ran: the stage
    wrappers of ``perfbench/layers.py`` bind it, so its rename to
    ``_stage_walk`` waits for ROADMAP item 3."""
    placed = _place(range(len(frame.origins)), frame.candidates, frame.fits,
                    partial(_check_clock, deadline))
    return None if placed is None else Feasibility(
        "feasible", {i: frame.point(t) for i, t in enumerate(placed)})


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
    the frame candidate (px, py, 0, 0, r, 0).  Member i's menu holds its
    displaced grid points that pass the relaxed tests against its near
    fixed centres ``frame.fixed[i]``.  Relaxed separation thresholds have
    the form (2 - s*sqrt(2))^2 = A - B*sqrt(2), A = 4 + 2s^2 and B = 4s,
    with s = delta for moved-fixed pairs and s = 2*delta for moved-moved
    pairs, which a test reads as A and L = 2*B^2; A = 0 makes one vacuous
    once s*sqrt(2) >= 2, that is once L >= 64.  :func:`_place`
    searches the menus twice, most constrained member first: with the
    relaxed moved-moved test alone, where finding nothing refutes the set
    at delta, and then, only if that found an assignment, with
    ``frame.fits`` as well, where a placement is the grid witness, as
    ``frame.point`` values, and finding nothing leaves relaxed assignments.
    The second search starts on the path to the first search's leaf: an
    exact assignment is a relaxed one, and none lies to the left of it.
    The pass gives up with unknown when its work passes GRID_NODE_BUDGET,
    and raises TimeoutError when the deadline passes; both checks run once
    per movable while the menus are built and at every node of both
    searches, whose nodes count together.
    """
    r = delta.denominator // math.gcd(frame.M, delta.denominator)
    M = frame.M * r
    step = delta.numerator * M // delta.denominator
    four = frame.four * r * r
    d2i = frame.D2 * r * r
    sA1, sL1 = four + 2 * step * step, 2 * (4 * step * M) ** 2
    sA2, sL2 = four + 8 * step * step, 2 * (8 * step * M) ** 2
    sA1 = 0 if sL1 >= 4 * four * four else sA1
    sA2 = 0 if sL2 >= 4 * four * four else sA2
    mvA = d2i + 2 * step * step
    mv_rhs = 8 * step * step * d2i

    def clear(i: int, p: tuple, pts: Sequence[tuple], A: int = sA2,
              L: int = sL2) -> bool:
        """Whether member i's grid point p passes the relaxed separation
        test (A, L) against every point (x, y, ...) of ``pts``; by default
        the moved-moved test, so that it is the relaxed search's test."""
        px, py = p[0], p[1]
        for q in pts:
            dx, dy = px - q[0], py - q[1]
            t = A - dx * dx - dy * dy
            if t > 0 and t * t > L:
                return False
        return True

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
        ox, oy = frame.origins[i]
        near = [(fx * r, fy * r) for fx, fy in frame.fixed[i]]
        pts = [(ox * r + vx, oy * r + vy, 0, 0, r, 0) for vx, vy in disps]
        return [p for p in pts if clear(i, p, near, sA1, sL1)]

    nodes = itertools.count(1)

    def tick() -> None:
        spend(next(nodes))

    first: Optional[list] = []  # the relaxed search's placement

    def listed(i: int, placed: list) -> list[tuple]:
        # left of the path to the first relaxed leaf lies no relaxed leaf,
        # so no exact one: on that path, the exact search starts at it
        d = len(placed)
        if d < len(first) and placed == first[:d]:
            return menus[i][menus[i].index(first[d]):]
        return menus[i]

    def exact(i: int, p: tuple, placed: list) -> bool:
        return clear(i, p, placed) and frame.fits(i, p, placed)

    try:
        menus, work = [], 0
        for i in range(len(frame.origins)):
            menus.append(menu(i))
            work += len(disps) * (len(frame.fixed[i]) + 1)
            spend(work)
        # most-constrained-first ordering keeps the DFS shallow; results map
        # back through the permutation
        order = sorted(range(len(menus)), key=lambda i: (len(menus[i]), i))
        first = _place(order, listed, clear, tick)
        if first is None:
            return Feasibility("infeasible", delta=delta)
        witness = _place(order, listed, exact, tick)
    except _Stop:
        return Feasibility("unknown", reason="grid node budget")
    if witness is None:
        return Feasibility("unknown",
                           reason=f"relaxed grid assignments remain at delta {delta}")
    return Feasibility("feasible", {i: frame.point(t)
                                    for i, t in zip(order, witness)})


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
    the rule of each stage and its guarantees.  An answer that is not
    feasible carries in ``read`` the N of its clause: the member's near
    fixed disks for the lone-member lemma, else the union of every
    member's.  ``deadline`` is a ``time.monotonic()`` instant (None: no
    limit); once it has passed, the stage that reads the clock raises
    TimeoutError, and the answer is unknown with reason "time budget".
    """
    cfg = cfg or SolverConfig()
    if all(inst.disks[m].is_rational() for m in members):
        frame = _Frame(inst, members)
        near = frame.near
        try:
            res = (_stage_candidates(frame, deadline)
                   or _stage_numeric(frame, deadline)
                   or _stage_grid(frame, cfg, deadline))
        except TimeoutError as e:
            res = Feasibility("unknown", reason=str(e))
    else:
        near = _near_fixed(inst, members)
        res = Feasibility("unknown", reason="non-rational centers")
    if res.status == "feasible" or res.read is not None:
        return res
    return replace(res, read=frozenset().union(*near))


def solve(inst: Instance, cfg: Optional[SolverConfig] = None) -> Answer:
    """Full decision pipeline over an explicit-disk instance.

    ``enumerate_candidate_sets`` searches the kernel instance by one clause
    list: the kernel graph's conflict edges, then a clause for every answer
    that is not feasible (module docstring).  Each set it yields goes to
    ``feasibility``: the first feasible set gives the yes, and a no needs
    the search exhausted with no set unknown.  The log starts "kernel kept
    m of n disks", then has one line per ``feasibility`` call: "set [..]:
    refuted, disk j has no place clear of the fixed disks" for the
    lone-member lemma, j being the kernel index of that member, "set [..]:
    refuted at delta" and the grid's resolution for a grid, and "set [..]:
    unknown (reason)" otherwise; a yes ends it with "moved set [..]".
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
    # (S, N): a set that holds all of S and none of N is not feasible, or
    # only if a set answered unknown is (module docstring)
    clauses = [(frozenset(), frozenset(e)) for e in g.edges]
    try:
        for cand in enumerate_candidate_sets(clauses, kinst.k, deadline):
            res = feasibility(kinst, cand, cfg, deadline=deadline)
            if res.status == "feasible":
                moves = {}
                for slot, target in res.assignment.items():
                    orig_idx = report.kept[cand[slot]]
                    if target != inst.disks[orig_idx]:
                        moves[orig_idx] = target
                return Answer("yes", Witness(moves),
                              log=(*log, f"moved set {cand}"))
            if res.delta is not None:
                log.append(f"set {cand}: refuted at delta {res.delta}")
            elif res.member is not None:
                log.append(f"set {cand}: refuted, "
                           f"disk {cand[res.member]} {res.reason}")
            else:
                unknowns += 1
                log.append(f"set {cand}: unknown ({res.reason})")
            trigger = cand if res.member is None else [cand[res.member]]
            clauses.append((frozenset(trigger), res.read))
    except TimeoutError as e:
        # an incomplete search proves nothing
        return Answer("unknown", reason=str(e), log=tuple(log))
    if unknowns:
        return Answer("unknown",
                      reason=f"{unknowns} candidate sets undecided",
                      log=tuple(log))
    return Answer("no", log=tuple(log))
