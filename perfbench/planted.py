"""Planted tight triples in a sparse background packing.

A tight triple is three unit disks at (0,0), (1,0), (2,0), translated.  Its
conflicts are the two unit-distance pairs; the end disks touch, which is
allowed.  With t triples and d^2 in [1, 3):

* k = 2t - 1 is a no-instance.  Each triple needs a move of its own, so one
  triple gets exactly one.  That move must cover both conflicts, so it is the
  middle disk, and a target at distance >= 2 from both end disks has
  |y| >= sqrt(3) > d.
* k = 2t is a yes-instance.  Moving each triple's end disks outward by 1 gives
  (-1,0), (1,0), (3,0): pairwise distance 2, and every move has length 1 <= d.

The background is a jittered square lattice of pitch ``PITCH``, one square
block per triple with the triple at its centre.  No background disk comes
closer than ``CLEAR`` to a triple disk or to a planted target, so the
background stays out of both arguments above.  Blocks sit side by side, so
triples are a block width apart.

Disk order is fixed: the triples' end disks first, then their middle disks,
then the background in seeded order.  The solver sweeps covers in
lexicographic order of kept indices, so on a yes-instance it reaches the
planted witness set right after refuting every smaller cover; a shuffled order
would make the cost of a yes depend on the seed by orders of magnitude.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from diskdispersal.geometry import Point
from diskdispersal.instance_io import Instance

PITCH = 7        # background lattice pitch, before jitter
JITTER = 4       # jitter is a multiple of 1/JITTER in {-1, 0, 1}
CLEAR = 4        # least center distance from background to triple or target


@dataclass(frozen=True)
class Planted:
    instance: Instance
    answer: str                      # "yes" or "no", by construction
    witness: dict[int, Point]        # the planted moves (valid when yes)
    triples: tuple[tuple[int, int, int], ...]   # disk indices, left to right


def block_cells(n_bg: int) -> int:
    """Side, in lattice cells, of a block that holds n_bg disks outside the
    clearance zone."""
    side = 3
    while True:
        half = side * PITCH / 2
        free = sum(1 for i in range(side) for j in range(side)
                   if _clear_of_triple(i * PITCH - half, j * PITCH - half, 1))
        if free >= n_bg:
            return side
        side += 1


def _clear_of_triple(x, y, slack) -> bool:
    # the triple is centred on (0, 0): disks at x = -1, 0, 1, targets at -2, 2
    for ox in (-2, -1, 0, 1, 2):
        if (x - ox) ** 2 + y ** 2 < (CLEAR + slack) ** 2:
            return False
    return True


def planted(seed: int, n_bg: int, t: int, k: int, d2, variant: str) -> Planted:
    """t triples over about n_bg background disks (a multiple of t).

    The answer is "no" for k = 2t - 1 and "yes" for k = 2t.
    """
    if k not in (2 * t - 1, 2 * t):
        raise ValueError("k must be 2t - 1 or 2t")
    d2 = Fraction(d2)
    if not 1 <= d2 < 3:
        raise ValueError("d2 must lie in [1, 3)")
    rng = random.Random(seed)
    per = n_bg // t
    side = block_cells(per)
    width = side * PITCH
    half = Fraction(width, 2)
    ends, middles, background = [], [], []
    targets = []
    for b in range(t):
        # triple centre (the middle disk) at the block centre
        cx, cy = b * width + half, half
        ends += [Point(cx - 1, cy), Point(cx + 1, cy)]
        middles.append(Point(cx, cy))
        targets += [Point(cx - 2, cy), Point(cx + 2, cy)]
        cells = []
        for i in range(side):
            for j in range(side):
                x = Fraction(i * PITCH) + Fraction(rng.randint(-1, 1), JITTER)
                y = Fraction(j * PITCH) + Fraction(rng.randint(-1, 1), JITTER)
                rx, ry = x - half, y - half
                if _clear_of_triple(rx, ry, 0):
                    cells.append((rx * rx + ry * ry, Point(b * width + x, y)))
        # keep the per nearest: the triple's neighbourhood is always full
        cells.sort(key=lambda c: (c[0], c[1].x, c[1].y))
        background += [p for _, p in cells[:per]]
    rng.shuffle(background)
    disks = tuple(ends + middles + background)
    triples = tuple((2 * b, 2 * t + b, 2 * b + 1) for b in range(t))
    witness = {}
    if k == 2 * t:
        for b in range(t):
            witness[2 * b] = targets[2 * b]
            witness[2 * b + 1] = targets[2 * b + 1]
    answer = "yes" if k == 2 * t else "no"
    return Planted(Instance(variant, k, d2, disks), answer, witness, triples)
