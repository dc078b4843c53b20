"""Points, unit disks and the exact predicates the solver is built on.

A disk is an *open* unit disk identified by its center point.  Two disks
overlap iff their centers are strictly closer than 2; touching disks (center
distance exactly 2) do not overlap.  Move budgets are closed: a move of
length exactly d is allowed.  All distance work happens on squared distances
so that rational inputs stay rational.
"""

from __future__ import annotations

import bisect
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
    quadext,
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
    "within_move",
    "circle_circle_candidates",
    "circle_circle_candidates_sq",
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


def close_pairs(points: Sequence[Point], threshold,
                closed: bool = False) -> Iterator[tuple[int, int]]:
    """Pairs (i, j), i < j, with dist2 below threshold (at most it when
    closed), in lexicographic order.

    Candidates come from a square grid of integer width w >= sqrt(threshold):
    the cells holding the true coordinates of a close pair are equal or
    adjacent.  A rational point is filed once, under its cell computed on
    its own numerators and denominators.  Any other point is filed under
    every cell that its exact enclosure touches; one that touches more than
    four is paired with every other point instead.  Points leave the grid
    in index order, so the 3x3 block around a cell of point i holds only
    partners j > i, and only the close ones are sorted.

    A pair of rational points is decided on integers by :func:`ratio_below`.
    Any other pair goes through the exact comparison, in the order of j,
    which raises IndeterminateError when interval operands straddle the
    threshold.
    """
    threshold = frac(threshold)
    tn, td = threshold.numerator, threshold.denominator
    width = max(ceil_sqrt(threshold), 1)
    rats = [ratio(p) for p in points]
    cells = [_cells(p, width) if r is None
             else [(r[0] // (width * r[1]), r[2] // (width * r[3]))]
             for p, r in zip(points, rats)]
    # cell (cx, cy) has key cx*span + cy, distinct over every 3x3 block
    # around a filed cell
    ys = [cy for keys in cells if keys for _, cy in keys]
    span = max(ys, default=0) - min(ys, default=0) + 3
    around = [dx * span + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    grid: dict[int, list[int]] = {}
    wide = [i for i, keys in enumerate(cells) if keys is None]
    for i, keys in enumerate(cells):
        if keys is not None:
            keys = cells[i] = [cx * span + cy for cx, cy in keys]
            for key in keys:
                grid.setdefault(key, []).append(i)
    for i, keys in enumerate(cells):
        ri = rats[i]
        if keys is None:
            near = range(i + 1, len(points))
        else:
            for key in keys:
                del grid[key][0]
            near = wide[bisect.bisect(wide, i):]
            for key in keys:
                for off in around:
                    near += grid.get(key + off, ())
        # j is a hit when close, or when only the exact comparison decides
        hits = near if ri is None else [
            j for j in near if (rj := rats[j]) is None
            or ratio_below(ri, rj, tn, td, closed)]
        for j in sorted(set(hits)) if hits else ():
            if ri is None or rats[j] is None:
                o = compare(dist2(points[i], points[j]), threshold)
                if o is Ordering.INDETERMINATE:
                    raise IndeterminateError(
                        f"distance of {points[i]} and {points[j]}")
                if not (o is Ordering.LESS
                        or (closed and o is Ordering.EQUAL)):
                    continue
            yield i, j


def ratio(p: Point) -> Optional[tuple[int, int, int, int]]:
    """(x numerator, x denominator, y numerator, y denominator) of a
    rational point, ``int`` coordinates included; None for any other."""
    x, y = p.x, p.y
    if isinstance(x, (Fraction, int)) and isinstance(y, (Fraction, int)):
        return x.numerator, x.denominator, y.numerator, y.denominator
    return None


def ratio_below(a: tuple[int, int, int, int], b: tuple[int, int, int, int],
                tn: int, td: int, closed: bool = False) -> bool:
    """Whether dist2 of the rational points a and b, given as (x numerator,
    x denominator, y numerator, y denominator) with positive denominators,
    is below tn/td (at most it when closed).

    With differences dx/ex and dy/ey, dist2 < t/s iff ((dx*ey)^2 +
    (dy*ex)^2)*s < t*(ex*ey)^2.  Each pair uses its own denominators; a
    common denominator for a whole point set could grow with its size.
    """
    xn, xd, yn, yd = a
    un, ud, vn, vd = b
    ex, ey = xd * ud, yd * vd
    lhs = (((xn * ud - un * xd) * ey) ** 2
           + ((yn * vd - vn * yd) * ex) ** 2) * td
    rhs = tn * (ex * ey) ** 2
    return lhs < rhs or (closed and lhs == rhs)


def _cells(p: Point, width: int) -> Optional[list[tuple[int, int]]]:
    """Grid cells touched by an exact enclosure of a point that is not
    rational; None when more than four."""
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


def circle_circle_candidates_sq(c1: Point, r1_sq, c2: Point, r2_sq) -> list[Point]:
    """Intersection points of two circles given by center and squared radius.

    Centers must be rational and distinct; squared radii rational.  The
    returned coordinates share one radicand, so every point is exactly
    checkable.  Empty when the circles are disjoint or nested; a single
    point at tangency.
    """
    if not (c1.is_rational() and c2.is_rational()):
        raise DomainError("circle intersection needs rational centers")
    r1_sq, r2_sq = frac(r1_sq), frac(r2_sq)
    dx = c2.x - c1.x
    dy = c2.y - c1.y
    dd = dx * dx + dy * dy
    if dd == 0:
        raise DomainError("coincident circle centers")
    # foot of the radical line along the center segment: c1 + t*(dx, dy)
    t = (r1_sq - r2_sq + dd) / (2 * dd)
    fx = c1.x + t * dx
    fy = c1.y + t * dy
    h2 = r1_sq - t * t * dd  # squared offset / dd gives the radicand
    if h2 < 0:
        return []
    if h2 == 0:
        return [Point(fx, fy)]
    c = h2 / dd
    return [Point(quadext(fx, -dy, c), quadext(fy, dx, c)),
            Point(quadext(fx, dy, c), quadext(fy, -dx, c))]


def circle_circle_candidates(c1: Point, r1, c2: Point, r2) -> list[Point]:
    r1, r2 = frac(r1), frac(r2)
    if r1 < 0 or r2 < 0:
        raise DomainError("negative radius")
    return circle_circle_candidates_sq(c1, r1 * r1, c2, r2 * r2)


def translate(p: Point, vx, vy) -> Point:
    return Point(p.x + frac(vx), p.y + frac(vy))

