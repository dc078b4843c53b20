"""Points, unit disks and the exact predicates the solver is built on.

A disk is an *open* unit disk identified by its center point.  Two disks
overlap iff their centers are strictly closer than 2; touching disks (center
distance exactly 2) do not overlap.  Move budgets are closed: a move of
length exactly d is allowed.  All distance work happens on squared distances
so that rational inputs stay rational.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .numerics import (
    DomainError,
    IndeterminateError,
    Ordering,
    Scalar,
    ceil_sqrt,
    compare,
    format_scalar,
    frac,
    sign_eq,
    sign_le,
    sign_lt,
    to_interval,
)

__all__ = [
    "Point",
    "Disk",
    "FOUR",
    "dist2",
    "overlap",
    "is_packing",
    "close_pairs",
    "ScaledPoints",
    "scale_points",
    "near",
    "within_move",
]

FOUR = Fraction(4)


@dataclass(frozen=True, slots=True)
class Point:
    """A point, and the center of a unit disk.  Slotted: a bulk instance
    holds one per disk, and without a ``__dict__`` each is one object for
    the cyclic collector to track instead of two."""

    x: Scalar
    y: Scalar

    def is_rational(self) -> bool:
        """Both coordinates are ``Fraction`` or ``int``."""
        return isinstance(self.x, (Fraction, int)) and \
            isinstance(self.y, (Fraction, int))

    def __repr__(self):
        try:
            return f"({format_scalar(self.x)}, {format_scalar(self.y)})"
        except ValueError:  # an interval too wide for a literal
            return f"Point({self.x!r}, {self.y!r})"


# a unit disk is represented by its center
Disk = Point


def dist2(a: Point, b: Point) -> Scalar:
    """Squared Euclidean distance between two points."""
    dx, dy = a.x - b.x, a.y - b.y
    return dx * dx + dy * dy


def overlap(a: Disk, b: Disk) -> bool:
    """Strict overlap test: center distance < 2.  Touching is not overlap.

    Raises IndeterminateError when interval operands straddle the threshold.
    """
    return sign_lt(dist2(a, b), FOUR, f"overlap({a}, {b})")


def is_packing(disks: Sequence[Disk]) -> Optional[tuple[int, int]]:
    """None if no pair of disks overlaps, else the lexicographically first
    overlapping pair."""
    return next(close_pairs(disks, FOUR), None)


def close_pairs(points: Sequence[Point], threshold, closed: bool = False,
                scaled: Optional[ScaledPoints] = None
                ) -> Iterator[tuple[int, int]]:
    """Pairs (i, j), i < j, with dist2 below threshold (at most it when
    closed), in lexicographic order: :func:`pair_pass`, then
    :func:`merge_pairs`, so a pair that the exact comparison cannot decide
    raises IndeterminateError once every close pair before it is yielded.
    ``scaled`` is :func:`scale_points` of ``points``, built here when not
    given."""
    threshold = frac(threshold)
    _, decided, candidates = pair_pass(points, threshold, closed,
                                       scaled or scale_points(points))
    yield from merge_pairs(points, threshold, closed, decided, candidates)


def pair_pass(points: Sequence[Point], threshold: Fraction, closed: bool,
              scaled: ScaledPoints) -> tuple[tuple, list, list]:
    """(grid, decided, candidates): the points, whose scale_points is
    ``scaled``, filed on a square grid of integer width w >= sqrt(threshold),
    where a close pair lies in equal or adjacent cells, and two sorted lists
    of pairs (i, j), i < j.

    The grid is (w, span, cells, loose, wide).  Cell (cx, cy) has the key
    cx*span + cy, distinct over every 3x3 block around a filed cell.
    ``cells`` maps a key to the points (X/D, Y/D) on the scale in the cell
    (X // (w*D), Y // (w*D)), in index order; ``loose`` to the points off
    the scale whose exact enclosure touches it; ``wide`` lists those whose
    enclosure touches more than four cells.  ``decided`` holds the close
    pairs on the scale, each cell tested against itself and its four
    forward neighbours on integers: dist2 < tn/td iff (dX^2 + dY^2)*td <
    tn*D^2, and dist2 <= tn/td iff it is below tn*D^2 + 1.  ``candidates``
    holds, untested, the pairs with a point off the scale in equal or
    adjacent cells, and those with a wide point.
    """
    width = max(ceil_sqrt(threshold), 1)
    D, X, Y = scaled
    wD = width * D
    offs = {i: _cells(points[i], width) for i, x in enumerate(X) if x is None}
    ys = [cy for cs in offs.values() if cs for _, cy in cs]
    on = [y for y in Y if y is not None] if offs else Y
    if on:
        ys += [min(on) // wD, max(on) // wD]
    span = max(ys, default=0) - min(ys, default=0) + 3
    # tuples, which the garbage collector stops tracking, not a list per cell
    cells: dict[int, tuple[int, ...]] = {}
    loose: dict[int, tuple[int, ...]] = {}
    for i, (x, y) in enumerate(zip(X, Y)):
        if x is not None:
            key = x // wD * span + y // wD
            cells[key] = cells.get(key, ()) + (i,)
    for i, cs in offs.items():
        for cx, cy in cs or ():
            loose[cx * span + cy] = loose.get(cx * span + cy, ()) + (i,)
    wide = [i for i, cs in offs.items() if cs is None]
    td, limit = threshold.denominator, threshold.numerator * D * D + closed
    get = cells.get
    decided = [(a, b) for cell in cells.values() if len(cell) > 1
               for s, a in enumerate(cell) for b in cell[s + 1:]
               if ((X[b] - X[a]) ** 2 + (Y[b] - Y[a]) ** 2) * td < limit]
    for off in (1, span - 1, span, span + 1):
        decided += [(a, b) if a < b else (b, a)
                    for key, cell in cells.items() if (other := get(key + off))
                    for a in cell for xa, ya in ((X[a], Y[a]),)
                    for b in other
                    if ((dx := X[b] - xa) * dx + (dy := Y[b] - ya) * dy) * td
                    < limit]
    around = [dx * span + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    pairs = {(i, j) if i < j else (j, i)
             for key, group in loose.items() for off in around
             for j in (*get(key + off, ()), *loose.get(key + off, ()))
             for i in group if i != j}
    pairs.update((i, j) if i < j else (j, i)
                 for i in wide for j in range(len(X)) if j != i)
    return (width, span, cells, loose, wide), sorted(decided), sorted(pairs)


def near_filed(grid: tuple, p: Point) -> set[int]:
    """The points of a :func:`pair_pass` grid in the cells around those of
    p's enclosure, and the wide ones; every point when p is wide."""
    width, span, cells, loose, wide = grid
    cs = _cells(p, width)
    return set(wide).union(*cells.values(), *loose.values()) if cs is None \
        else set(wide).union(*(m.get((cx + dx) * span + cy + dy, ())
                               for cx, cy in cs for dx in (-1, 0, 1)
                               for dy in (-1, 0, 1) for m in (cells, loose)))


def merge_pairs(points: Sequence[Point], threshold: Fraction, closed: bool,
                decided: Iterable, candidates: Iterable
                ) -> Iterator[tuple[int, int]]:
    """The pairs of decided and the close ones of candidates, two disjoint
    sorted streams, in lexicographic order; a candidate is decided by the
    exact comparison when it comes up."""
    for (i, j), check in heapq.merge(((p, False) for p in decided),
                                     ((p, True) for p in candidates)):
        if check:
            o = compare(dist2(points[i], points[j]), threshold)
            if o is Ordering.INDETERMINATE:
                raise IndeterminateError(
                    f"distance of {points[i]} and {points[j]}")
            if not (o is Ordering.LESS or (closed and o is Ordering.EQUAL)):
                continue
        yield i, j


# Bits of the largest common denominator of a scale.  A set with many
# unrelated denominators has a common denominator as long as all of them
# together, so without a bound every scaled coordinate, and with it every
# pair test, would grow with the size of the set.  Within 64 bits a pair
# test stays on integers of a few machine words.  A point whose denominators
# would pass the bound is left off the scale; its pairs go through the exact
# comparison, whose cost depends on the pair alone.
SCALE_BITS = 64
# Points from which scale_points converts each distinct coordinate object
# once.  That costs a dictionary lookup per coordinate, which pays where
# points share coordinate objects, as those of a parsed or generated bulk
# instance do; a smaller set converts every coordinate, which costs little
# at any sharing.
SHARED_POINTS = 1024


# A point set on one integer scale, (D, X, Y): point i is (X[i]/D, Y[i]/D),
# or X[i] and Y[i] are both None when it is off the scale.
ScaledPoints = tuple[int, list[Optional[int]], list[Optional[int]]]


def scale_points(points: Sequence[Point]) -> ScaledPoints:
    """The points on the scale D, the least common denominator of their
    rational coordinates.

    Coordinates are met in order, the x of every point and then the y of
    every point, from SHARED_POINTS points on each distinct coordinate
    object once.  A coordinate is on the scale unless it is not rational or
    its denominator would take D past SCALE_BITS bits, and a point is on
    the scale when both its coordinates are.
    """
    n = len(points)
    xy = [p.x for p in points] + [p.y for p in points]
    shared = n >= SHARED_POINTS
    if shared:
        ids = list(map(id, xy))
        coords = dict(zip(ids, xy))
    rats = [v.as_integer_ratio() if isinstance(v, (Fraction, int)) else None
            for v in (coords.values() if shared else xy)]
    D = math.lcm(*[r[1] for r in rats if r is not None])
    if D.bit_length() > SCALE_BITS:
        D = 1
        for i, r in enumerate(rats):
            if r is not None:
                m = math.lcm(D, r[1])
                if m.bit_length() > SCALE_BITS:
                    rats[i] = None
                else:
                    D = m
    scaled = [None if r is None else r[0] * (D // r[1]) for r in rats]
    if shared:
        scaled = list(map(dict(zip(coords, scaled)).get, ids))
    if None in rats:
        for i in [i % n for i, v in enumerate(scaled) if v is None]:
            scaled[i] = scaled[n + i] = None
    return D, scaled[:n], scaled[n:]


def near(points: Sequence[Point], scaled: ScaledPoints, i: int,
         threshold: Fraction, closed: bool) -> list[int]:
    """The indices, in order, of the points whose squared distance from
    point i is below threshold, or at most it when closed; ``scaled`` is
    :func:`scale_points` of ``points``.  A pair on the scale is decided on
    integers, as :func:`pair_pass` decides it.  Any other pair goes through
    ``compare``, and an undecided comparison counts as near, where
    :func:`merge_pairs` would raise; only such a pair reads ``points``."""
    D, X, Y = scaled
    x, y = X[i], Y[i]
    td, limit = threshold.denominator, threshold.numerator * D * D + closed
    far = (Ordering.GREATER,) if closed else (Ordering.GREATER,
                                              Ordering.EQUAL)
    return [j for j, (u, v) in enumerate(zip(X, Y))
            if (((u - x) ** 2 + (v - y) ** 2) * td < limit
                if x is not None and u is not None else
                compare(dist2(points[i], points[j]), threshold) not in far)]


def _cells(p: Point, width: int) -> Optional[list[tuple[int, int]]]:
    """Grid cells touched by an exact enclosure of a point off the scale,
    one for a rational point; None when more than four."""
    xs, ys = (range(iv.lo // width, iv.hi // width + 1)
              for iv in (to_interval(p.x), to_interval(p.y)))
    if len(xs) * len(ys) > 4:
        return None
    return [(cx, cy) for cx in xs for cy in ys]


def within_move(origin: Point, target: Point, d2, variant: str) -> bool:
    """Whether moving a center from origin to target respects the budget.

    euclidean: squared displacement <= d2 (equality allowed).
    rectilinear: displacement must be axis-parallel and its square <= d2.
    """
    d2 = frac(d2)
    if d2 < 0:
        raise DomainError("negative squared move radius")
    if variant == "euclidean":
        return sign_le(dist2(origin, target), d2, "move bound")
    if variant == "rectilinear":
        dx = origin.x - target.x
        dy = origin.y - target.y
        if sign_eq(dx, Fraction(0), "axis check"):
            return sign_le(dy * dy, d2, "move bound")
        if sign_eq(dy, Fraction(0), "axis check"):
            return sign_le(dx * dx, d2, "move bound")
        return False
    raise ValueError(f"unknown variant {variant!r}")

