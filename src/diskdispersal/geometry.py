"""Points, unit disks and the exact predicates the solver is built on.

A disk is an *open* unit disk identified by its center point.  Two disks
overlap iff their centers are strictly closer than 2; touching disks (center
distance exactly 2) do not overlap.  Move budgets are closed: a move of
length exactly d is allowed.  All distance work happens on squared distances
so that rational inputs stay rational.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

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
    "within_move",
    "translate",
]

FOUR = Fraction(4)


@dataclass(frozen=True)
class Point:
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
    closed), in lexicographic order.

    ``scaled`` is :func:`scale_points` of ``points``, built here when not
    given.  Candidates come from a square grid of integer width w >=
    sqrt(threshold): the cells holding the true coordinates of a close pair
    are equal or adjacent.  A point (X/D, Y/D) on the scale is filed once,
    under the cell (X // (w*D), Y // (w*D)).  A point off the scale is
    filed under every cell that its exact enclosure touches, which is one
    cell for a rational point; one that touches more than four is paired
    with every other point instead.  Points leave the grid in index order,
    so the 3x3 block around a cell of point i holds only partners j > i,
    and only the close ones are sorted.

    A pair of points on the scale is decided on plain integers: dist2 <
    tn/td iff (dX^2 + dY^2)*td < tn*D^2, and dist2 <= tn/td iff the left
    side is below tn*D^2 + 1.  Any other pair goes through the exact
    comparison, in the order of j, which decides every rational pair and
    raises IndeterminateError when interval operands straddle the
    threshold.
    """
    threshold = frac(threshold)
    tn, td = threshold.numerator, threshold.denominator
    width = max(ceil_sqrt(threshold), 1)
    D, X, Y = scaled or scale_points(points)
    wD = width * D
    # the cells of each point off the scale; None when more than four
    loose = {i: _cells(points[i], width) for i, x in enumerate(X) if x is None}
    # cell (cx, cy) has key cx*span + cy, distinct over every 3x3 block
    # around a filed cell
    ys = [cy for cells in loose.values() if cells for _, cy in cells]
    on = [y for y in Y if y is not None] if loose else Y
    if on:
        ys += [min(on) // wD, max(on) // wD]
    span = max(ys, default=0) - min(ys, default=0) + 3
    around = [dx * span + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    keys = [[(x // wD) * span + y // wD] if x is not None
            else None if (cells := loose[i]) is None
            else [cx * span + cy for cx, cy in cells]
            for i, (x, y) in enumerate(zip(X, Y))]
    grid: dict[int, list[int]] = {}
    for i, cell in enumerate(keys):
        for key in cell or ():
            grid.setdefault(key, []).append(i)
    get = grid.get
    wide = [i for i, cell in enumerate(keys) if cell is None]
    limit = tn * D * D + closed
    for i, cell in enumerate(keys):
        xi = X[i]
        if cell is None:
            hits = range(i + 1, len(points))
        else:
            for key in cell:
                del grid[key][0]
            if xi is None:
                hits = [j for key in cell for off in around
                        for j in get(key + off, ())]
            else:
                # j is a hit when close, or when it is off the scale
                yi, (key,) = Y[i], cell
                hits = [j for off in around for j in get(key + off, ())
                        if (xj := X[j]) is None
                        or ((xj - xi) ** 2 + (Y[j] - yi) ** 2) * td < limit]
            if wide:
                hits += wide[bisect.bisect(wide, i):]
        for j in sorted(set(hits)) if hits else ():
            if xi is None or X[j] is None:
                o = compare(dist2(points[i], points[j]), threshold)
                if o is Ordering.INDETERMINATE:
                    raise IndeterminateError(
                        f"distance of {points[i]} and {points[j]}")
                if not (o is Ordering.LESS
                        or (closed and o is Ordering.EQUAL)):
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


def translate(p: Point, vx, vy) -> Point:
    return Point(p.x + frac(vx), p.y + frac(vy))

