"""Points, unit disks and the exact predicates the solver is built on.

A disk is an *open* unit disk identified by its center point.  Two disks
overlap iff their centers are strictly closer than 2; touching disks (center
distance exactly 2) do not overlap.  Move budgets are closed: a move of
length exactly d is allowed.  All distance work happens on squared distances
so that rational inputs stay rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .numerics import (
    DomainError,
    IndeterminateError,
    Ordering,
    Scalar,
    approx_float,
    compare,
    format_scalar,
    frac,
    quadext,
    sign_eq,
    sign_le,
    sign_lt,
    sqrt_lower_upper,
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
    "point_key",
]

FOUR = Fraction(4)


@dataclass(frozen=True)
class Point:
    x: Scalar
    y: Scalar

    def is_rational(self) -> bool:
        return isinstance(self.x, Fraction) and isinstance(self.y, Fraction)

    def __repr__(self):
        return f"({format_scalar(self.x)}, {format_scalar(self.y)})"


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

    Candidates come from a square grid of integer width w >= sqrt(threshold).
    A pair within the threshold differs by at most w in each axis, so the
    cells holding its true coordinates are equal or adjacent.  Every point is
    filed under all cells that its exact enclosure touches, which include the
    cell of its true value, so scanning the 3x3 block around each cell of a
    point finds all its partners.  A point whose enclosure touches more than
    four cells is paired with every other point instead.

    A pair of rational points is decided on integers: with differences
    dx/ex and dy/ey, dist2 < t/s iff ((dx*ey)^2 + (dy*ex)^2)*s < t*(ex*ey)^2.
    Each pair uses its own denominators; a common denominator for the whole
    set could grow with its size.  Any other pair goes through the exact
    comparison, which raises IndeterminateError when interval operands
    straddle the threshold.
    """
    threshold = frac(threshold)
    tn, td = threshold.numerator, threshold.denominator
    width = sqrt_lower_upper(max(threshold, Fraction(1)), 1)[1].numerator
    cells = [_cells(p, width) for p in points]
    rats = [_ratio(p) for p in points]
    grid: dict[tuple[int, int], list[int]] = {}
    wide: list[int] = []
    for i, keys in enumerate(cells):
        if keys is None:
            wide.append(i)
        else:
            for key in keys:
                grid.setdefault(key, []).append(i)
    n = len(points)
    for i, keys in enumerate(cells):
        if keys is None:
            near: Iterable[int] = range(i + 1, n)
        else:
            found = {j for cx, cy in keys for dx, dy in _NEIGHBOURS
                     for j in grid.get((cx + dx, cy + dy), ()) if j > i}
            found.update(j for j in wide if j > i)
            near = sorted(found)
        ri = rats[i]
        for j in near:
            rj = rats[j]
            if ri is not None and rj is not None:
                xn, xd, yn, yd = ri
                un, ud, vn, vd = rj
                ex, ey = xd * ud, yd * vd
                lhs = (((xn * ud - un * xd) * ey) ** 2
                       + ((yn * vd - vn * yd) * ex) ** 2) * td
                rhs = tn * (ex * ey) ** 2
                if lhs < rhs or (closed and lhs == rhs):
                    yield i, j
                continue
            o = compare(dist2(points[i], points[j]), threshold)
            if o is Ordering.INDETERMINATE:
                raise IndeterminateError(
                    f"distance of {points[i]} and {points[j]}")
            if o is Ordering.LESS or (closed and o is Ordering.EQUAL):
                yield i, j


_NEIGHBOURS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def _ratio(p: Point) -> Optional[tuple[int, int, int, int]]:
    """(x numerator, x denominator, y numerator, y denominator) of a
    rational point; None for any other."""
    if p.is_rational():
        return p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator
    return None


def _cell(v: Fraction, width: int) -> int:
    return v.numerator // (width * v.denominator)


def _cells(p: Point, width: int) -> Optional[list[tuple[int, int]]]:
    """Grid cells touched by an exact enclosure of p; None when more than
    four."""
    if p.is_rational():
        return [(_cell(p.x, width), _cell(p.y, width))]
    xs, ys = (range(_cell(iv.lo, width), _cell(iv.hi, width) + 1)
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
    p1 = Point(quadext(fx, -dy, c), quadext(fy, dx, c))
    p2 = Point(quadext(fx, dy, c), quadext(fy, -dx, c))
    pts = [p1, p2]
    pts.sort(key=point_key)
    return pts


def circle_circle_candidates(c1: Point, r1, c2: Point, r2) -> list[Point]:
    r1, r2 = frac(r1), frac(r2)
    if r1 < 0 or r2 < 0:
        raise DomainError("negative radius")
    return circle_circle_candidates_sq(c1, r1 * r1, c2, r2 * r2)


def translate(p: Point, vx, vy) -> Point:
    return Point(p.x + frac(vx), p.y + frac(vy))


def point_key(p: Point) -> tuple:
    """Deterministic sort key (float approximation plus repr tiebreak)."""
    return (approx_float(p.x), approx_float(p.y),
            format_scalar(p.x), format_scalar(p.y))
