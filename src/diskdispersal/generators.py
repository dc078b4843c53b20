"""Constructive instance builders.

Besides seeded random and co-located stress instances, two reduction-shaped
families are built here:

* square "appending frames": a packing inside an axis-aligned square with a
  fixed border pattern, carrying a count of disks one would like to add;
* the OR-composition of t such frames into a single dispersal instance
  whose co-located stack can reach exactly the gadget row above the middle
  frame -- the four reach/clearance inequalities that make the composition
  work are re-verified with exact rational arithmetic and reported.

The grid-tiling reduction lives in :mod:`diskdispersal.gridtiling`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import Point, is_packing
from .instance_io import Instance, LatticeBlock, Rect
from .numerics import frac, sqrt_lower_upper

__all__ = [
    "AppendingInstance",
    "CompositionReachReport",
    "gen_random",
    "gen_colocated",
    "gen_appending_frame",
    "gen_crosscompose",
]


def gen_random(n: int, side: int, seed: int, k: int = 1,
               d2=Fraction(1), variant: str = "euclidean") -> Instance:
    """n disks with centers drawn uniformly from the quarter-integer grid
    inside [0, side]^2, deterministic per seed.  Overlaps are expected --
    they are the point of the exercise."""
    if n < 0 or side <= 0:
        raise ValueError("need n >= 0 and a positive box side")
    rng = random.Random(seed)
    disks = tuple(
        Point(Fraction(rng.randint(0, 4 * side), 4),
              Fraction(rng.randint(0, 4 * side), 4))
        for _ in range(n))
    return Instance(variant, k, frac(d2), disks)


def gen_colocated(m: int, k: int, d2, variant: str = "euclidean") -> Instance:
    """m disks stacked on the origin; m-1 moves are forced, m-2 never enough."""
    if m < 0:
        raise ValueError("need m >= 0")
    origin = Point(Fraction(0), Fraction(0))
    return Instance(variant, k, frac(d2), tuple(origin for _ in range(m)))


# ---------------------------------------------------------------------------
# appending frames

@dataclass(frozen=True)
class AppendingInstance:
    """A packing inside the square [0, a]^2 plus a count of disks to add."""

    a: int
    packing: tuple[Point, ...]
    kappa: int


def _border_disks(a: int) -> list[Point]:
    pts = []
    for i in range(1, a // 2 + 1):
        v = 2 * i - 1
        pts.append((v, 1))
        pts.append((v, a - 1))
        pts.append((1, v))
        pts.append((a - 1, v))
    uniq = sorted(set(pts))
    return [Point(Fraction(x), Fraction(y)) for x, y in uniq]


def gen_appending_frame(a: int, kappa: int,
                        interior: Sequence[Point] = ()) -> AppendingInstance:
    """Border disks on all four sides plus caller-provided interior disks.

    The combined set must be a packing and the interior must stay inside
    the square.  The four border families share their corner positions, so
    the distinct border count is 2a - 4.
    """
    if a % 2 != 0 or a < max(10 * kappa, 216):
        raise ValueError("side must be even and at least max(10*kappa, 216)")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    border = _border_disks(a)
    disks = list(border)
    for p in interior:
        if not p.is_rational():
            raise ValueError("interior centers must be rational")
        if not (0 <= p.x <= a and 0 <= p.y <= a):
            raise ValueError(f"interior disk {p} outside the square")
        disks.append(p)
    bad = is_packing(disks)
    if bad is not None:
        raise ValueError(f"frame is not a packing: disks {bad} overlap")
    return AppendingInstance(a, tuple(disks), kappa)


# ---------------------------------------------------------------------------
# OR-composition of appending frames

@dataclass(frozen=True)
class CompositionReachReport:
    """Exact squared bounds behind the composition's reach arguments.

    * stack_to_gadget_max_sq: farthest point of any gadget box from the
      co-located stack (must be <= d^2: the stack reaches every gadget).
    * stack_to_square_min_sq: closest point of any frame square to the
      stack (must be > d^2: the stack cannot jump into a frame directly).
    * gadget_to_own_square_max_sq: a^2 + h^2 for the rational h used --
      the top-aligned reach of a gadget into its own frame (<= d^2).
    * gadget_to_other_square_min_sq: closest approach between a gadget box
      and any *other* frame square (> d^2: no cross-frame shortcuts).
    """

    stack_to_gadget_max_sq: Fraction
    stack_to_square_min_sq: Fraction
    gadget_to_own_square_max_sq: Fraction
    gadget_to_other_square_min_sq: Fraction
    d: Fraction

    @property
    def verdicts(self) -> tuple[bool, bool, bool, bool]:
        dd = self.d * self.d
        return (self.stack_to_gadget_max_sq <= dd,
                self.stack_to_square_min_sq > dd,
                self.gadget_to_own_square_max_sq <= dd,
                self.gadget_to_other_square_min_sq > dd)

    @property
    def all_ok(self) -> bool:
        return all(self.verdicts)


def _max_dist2(px, py, r: Rect) -> Fraction:
    """Squared distance from (px, py) to the farthest point of r."""
    dx = max(abs(px - r.x0), abs(px - r.x1))
    dy = max(abs(py - r.y0), abs(py - r.y1))
    return dx * dx + dy * dy


def gen_crosscompose(instances: Sequence[AppendingInstance]
                     ) -> tuple[Instance, CompositionReachReport]:
    """Compose an odd number t >= 3 of same-shape appending frames.

    Frames line up along the x-axis with gap s ~ sqrt(2ad); a small gadget
    of interesting disks floats h ~ sqrt(d^2 - a^2) above each frame; a
    stack of kappa+2 co-located disks hangs d/2 below the middle gadget.
    s and h are rational approximations, re-chosen at increasing precision
    until the four reach inequalities verify exactly.
    """
    t = len(instances)
    if t < 3 or t % 2 == 0:
        raise ValueError("need an odd number of instances, at least 3")
    a = instances[0].a
    kappa = instances[0].kappa
    for inst in instances:
        if inst.a != a or inst.kappa != kappa:
            raise ValueError("instances must share the square side and kappa")
    if a % 2 != 0 or a < max(10 * kappa, 216):
        raise ValueError("side must be even and at least max(10*kappa, 216)")
    if kappa < 1:
        raise ValueError("composition needs kappa >= 1")

    d = Fraction(9, 4) * t * t * a * a
    for denom_bits in (16, 24, 32, 48, 64):
        bound = 1 << denom_bits
        s_r = sqrt_lower_upper(2 * a * d, bound)[1]   # upper: keeps l4 large
        h_r = sqrt_lower_upper(d * d - a * a, bound)[0]  # lower: keeps l3 small
        built = _compose(instances, a, kappa, d, s_r, h_r)
        if built[1].all_ok:
            return built
    raise ValueError("no rational approximation satisfied the reach bounds")


def _compose(instances, a: int, kappa: int, d: Fraction, s_r: Fraction,
             h_r: Fraction) -> tuple[Instance, CompositionReachReport]:
    t = len(instances)
    disks: list[Point] = []
    squares: list[Rect] = []

    for i, inst in enumerate(instances):
        x_off = i * (a + s_r)
        squares.append(Rect(x_off, Fraction(0), x_off + a, Fraction(a)))
        for p in inst.packing:
            disks.append(Point(p.x + x_off, p.y))

    gadget_bottom = a + h_r - 6
    gadget_boxes = []
    half_cols = (a - (2 * kappa + 6)) // 2
    w_left = (half_cols + 1) // 2
    w_right = half_cols - w_left
    for i in range(t):
        gx = i * (a + s_r)          # gadget box left edge, width exactly a
        gadget_boxes.append(
            Rect(gx, gadget_bottom, gx + a, gadget_bottom + 6))
        ox = gx + 2 * w_left        # local origin of the unpadded gadget
        for c in range(kappa + 3):
            disks.append(Point(ox + 1 + 2 * c, gadget_bottom + 1))
            disks.append(Point(ox + 1 + 2 * c, gadget_bottom + 5))
        disks.append(Point(ox + 1, gadget_bottom + 3))
        disks.append(Point(ox + 2 * kappa + 5, gadget_bottom + 3))
        for c in range(kappa):
            disks.append(Point(ox + 4 + 2 * c, gadget_bottom + 3))
        for c in range(w_left):
            px = ox - 1 - 2 * c
            for ly in (1, 3, 5):
                disks.append(Point(px, gadget_bottom + ly))
        for c in range(w_right):
            px = ox + 2 * kappa + 7 + 2 * c
            for ly in (1, 3, 5):
                disks.append(Point(px, gadget_bottom + ly))

    # the co-located stack floats d/2 above the middle gadget's bottom edge:
    # far enough that no frame square is within reach, close enough that
    # every gadget row is
    mid = (t - 1) // 2
    c_x = mid * (a + s_r) + Fraction(a, 2)
    c_y = gadget_bottom + d / 2
    for _ in range(kappa + 2):
        disks.append(Point(c_x, c_y))

    # reach report, exact
    dd = d * d
    l1 = max(_max_dist2(c_x, c_y, box) for box in gadget_boxes)
    stack = Rect(c_x, c_y, c_x, c_y)
    l2 = min(stack.min_dist2_to(sq) for sq in squares)
    l3 = Fraction(a * a) + h_r * h_r
    l4 = min(gadget_boxes[i].min_dist2_to(squares[j])
             for i in range(t) for j in range(t) if i != j)
    report = CompositionReachReport(l1, l2, l3, l4, d)

    xs = [p.x for p in disks]
    ys = [p.y for p in disks]
    holes = [Rect(r.x0 - 1, r.y0 - 1, r.x1 + 1, r.y1 + 1)
             for r in squares + gadget_boxes]
    holes.append(Rect(c_x - 2, c_y - 2, c_x + 2, c_y + 2))
    block = LatticeBlock(
        _ceil_even(min(xs)), _ceil_even(min(ys)),
        _floor_even(max(xs)), _floor_even(max(ys)),
        Fraction(2), tuple(holes))

    inst = Instance("euclidean", 2 * kappa + 1, dd, tuple(disks), (block,))
    return inst, report


def _ceil_even(v: Fraction) -> Fraction:
    """The least even integer at or above v."""
    return Fraction(2 * -(-v // 2))


def _floor_even(v: Fraction) -> Fraction:
    """The greatest even integer at or below v."""
    return Fraction(2 * (v // 2))
