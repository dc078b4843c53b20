"""Instance/witness model, bit-exact text formats, and witness validation.

Huge reduction-style instances carry most of their disks implicitly as
lattice-fill blocks: axis-aligned rectangles filled with disks on a regular
grid, minus rectangular holes where gadgets live.  Blocks are never movable;
validation checks them against explicit disks through nearest-grid-point
queries instead of materialising millions of circles.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .geometry import (FOUR, Disk, Point, ScaledPoints, close_pairs,
                       dist2, merge_pairs, near_filed, pair_pass,
                       scale_points, within_move)
from .numerics import (
    IndeterminateError,
    Ordering,
    Scalar,
    ceil_sqrt,
    compare,
    format_scalar,
    parse_int,
    parse_rational,
    parse_scalar,
    to_interval,
)

__all__ = [
    "Rect",
    "LatticeBlock",
    "Instance",
    "Witness",
    "ParseError",
    "ValidationResult",
    "DEFAULT_EPS",
    "parse_instance",
    "write_instance",
    "parse_witness",
    "write_witness",
    "validate_witness",
    "apply_witness",
    "expand_blocks",
]

DEFAULT_EPS = Fraction(1, 10 ** 9)

INSTANCE_HEADER = "DISKDISPERSAL v1"
WITNESS_HEADER = "DISPERSALMOVES v1"


class ParseError(ValueError):
    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line = line
        self.msg = msg


@dataclass(frozen=True)
class Rect:
    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError("degenerate rectangle bounds")

    def min_dist2_to(self, other: "Rect") -> Fraction:
        dx = max(Fraction(0), max(self.x0, other.x0) - min(self.x1, other.x1))
        dy = max(Fraction(0), max(self.y0, other.y0) - min(self.y1, other.y1))
        return dx * dx + dy * dy


Box = tuple[int, int, int, int]  # inclusive (i0, i1, j0, j1); may be empty


@dataclass(frozen=True)
class LatticeBlock:
    """Implicit disks at (x0 + i*step, y0 + j*step) inside the rectangle.

    Grid points lying inside any hole rectangle (inclusive bounds) carry no
    disk.  The generators cut holes one unit wider than each gadget so that
    fill disks keep a clear margin from gadget disks.

    Queries work on lattice indices: with D the common denominator of x0,
    y0 and step, lattice coordinates are integers over D, and each hole is
    the inclusive box of indices it removes.
    """

    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction
    step: Fraction
    holes: tuple[Rect, ...] = ()

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError("degenerate block bounds")
        if self.step <= 0:
            raise ValueError("block step must be positive")

    @cached_property
    def _scaled(self) -> tuple[int, int, int, int]:
        """(D, x0*D, y0*D, step*D)."""
        D = math.lcm(self.x0.denominator, self.y0.denominator,
                     self.step.denominator)
        return D, int(self.x0 * D), int(self.y0 * D), int(self.step * D)

    @cached_property
    def nx(self) -> int:
        return int((self.x1 - self.x0) / self.step)

    @cached_property
    def ny(self) -> int:
        return int((self.y1 - self.y0) / self.step)

    @cached_property
    def _hole_boxes(self) -> tuple[Box, ...]:
        """The index box of the lattice points inside each hole."""
        return tuple(self._window(h.x0, h.x1, h.y0, h.y1, 0)
                     for h in self.holes)

    def _alive(self, i: int, j: int) -> bool:
        return not any(i0 <= i <= i1 and j0 <= j <= j1
                       for i0, i1, j0, j1 in self._hole_boxes)

    def _window(self, xlo: Fraction, xhi: Fraction, ylo: Fraction,
                yhi: Fraction, reach: Fraction | int) -> Box:
        """Index box of the lattice points of the block within Chebyshev
        distance reach of the box [xlo, xhi] x [ylo, yhi]."""
        D, X0, Y0, S = self._scaled
        i0, i1 = _index_range(*(xlo - reach).as_integer_ratio(),
                              *(xhi + reach).as_integer_ratio(), X0, S, D)
        j0, j1 = _index_range(*(ylo - reach).as_integer_ratio(),
                              *(yhi + reach).as_integer_ratio(), Y0, S, D)
        return max(0, i0), min(self.nx, i1), max(0, j0), min(self.ny, j1)

    def _point_window(self, p: Point, reach: Fraction | int) -> Box:
        ix, iy = to_interval(p.x), to_interval(p.y)
        return self._window(ix.lo, ix.hi, iy.lo, iy.hi, reach)

    def _points(self, box: Box) -> Iterator[Point]:
        i0, i1, j0, j1 = box
        for i in range(i0, i1 + 1):
            x = self.x0 + i * self.step
            for j in range(j0, j1 + 1):
                if self._alive(i, j):
                    yield Point(x, self.y0 + j * self.step)

    def iter_disks(self) -> Iterator[Point]:
        return self._points((0, self.nx, 0, self.ny))

    def near_points(self, p: Point, reach: Fraction) -> Iterator[Point]:
        """Lattice points of the block within Chebyshev distance reach of p."""
        return self._points(self._point_window(p, reach))

    def first_close(self, points: Iterable[Point], threshold: Fraction,
                    scaled: Optional[ScaledPoints] = None
                    ) -> Optional[tuple[int, Point]]:
        """The first index k of points, with the first lattice point q in
        index order, such that dist2(points[k], q) is below threshold; None
        when there is none.  ``scaled`` is :func:`scale_points` of points,
        built here when not given.

        A point whose window of lattice points within reach lies in one hole
        needs no test.  For points on the scale each hole's index box
        becomes, once per call, an open rectangle of their scaled
        coordinates (:func:`_clear_range`): a point inside it has its window
        in the box, so it is cleared by four integer comparisons, against
        the rectangle that cleared the point before it first.  A point on
        the scale that no rectangle clears is decided on plain integers,
        window and distances alike, on M, the least common multiple of its
        scale and the block's.  Any other point has its window checked
        against the hole boxes and goes through the exact comparison, which
        decides every rational point and raises IndeterminateError when it
        cannot decide a lattice point before the first close one.
        """
        if scaled is None:
            points = list(points)
            scaled = scale_points(points)
        Db, Xb, Yb, Sb = self._scaled
        P, X, Y = scaled
        M = math.lcm(Db, P)
        mb, mp = M // Db, M // P
        X0, Y0, S = Xb * mb, Yb * mb, Sb * mb
        tn, td = threshold.numerator, threshold.denominator
        reach = ceil_sqrt(threshold)
        RM, limit = reach * M, tn * M * M
        nx, ny, boxes = self.nx, self.ny, self._hole_boxes
        clear = [(*_clear_range(h0, h1, nx, X0, S, RM, mp),
                  *_clear_range(g0, g1, ny, Y0, S, RM, mp))
                 for h0, h1, g0, g1 in boxes]
        xlo = xhi = ylo = yhi = 0  # the rectangle tried first; none yet
        for k, (p, x, y) in enumerate(zip(points, X, Y)):
            if x is None:
                i0, i1, j0, j1 = self._point_window(p, reach)
                if i0 > i1 or j0 > j1 or any(
                        h0 <= i0 and i1 <= h1 and g0 <= j0 and j1 <= g1
                        for h0, h1, g0, g1 in boxes):
                    continue  # no lattice point, or a hole covers them
                for q in self._points((i0, i1, j0, j1)):
                    o = compare(dist2(p, q), threshold)
                    if o is Ordering.INDETERMINATE:
                        raise IndeterminateError(f"separation of {p} and {q}")
                    if o is Ordering.LESS:
                        return k, q
                continue
            if xlo < x < xhi and ylo < y < yhi:
                continue  # the last hole covers its window
            for xlo, xhi, ylo, yhi in clear:
                if xlo < x < xhi and ylo < y < yhi:
                    break
            else:
                x, y = x * mp, y * mp
                i0 = max(0, -((X0 - x + RM) // S))
                i1 = min(nx, (x + RM - X0) // S)
                j0 = max(0, -((Y0 - y + RM) // S))
                j1 = min(ny, (y + RM - Y0) // S)
                for i in range(i0, i1 + 1):
                    dx = X0 + i * S - x
                    for j in range(j0, j1 + 1):
                        dy = Y0 + j * S - y
                        if ((dx * dx + dy * dy) * td < limit
                                and self._alive(i, j)):
                            return k, Point(self.x0 + i * self.step,
                                            self.y0 + j * self.step)
        return None


def _clear_range(k0: int, k1: int, n: int, origin: int, step: int,
                 reach: int, m: int) -> tuple[int | float, int | float]:
    """Open bounds (lo, hi) on an integer c for one axis of a hole's index
    box k0..k1: the indices of 0..n within reach of c*m on the scale of
    origin and step, clamped to 0..n as :meth:`LatticeBlock._window` clamps
    them, have both ends in k0..k1 exactly when lo < c < hi.  The low end
    is at least k0 > 0 exactly when c*m exceeds origin + (k0-1)*step +
    reach, and the high end at most k1 < n exactly when c*m is below
    origin + (k1+1)*step - reach; the side of k0 = 0 or of k1 = n is
    unbounded, an infinity."""
    lo = -math.inf if k0 <= 0 else (origin + (k0 - 1) * step + reach) // m
    hi = (math.inf if k1 >= n
          else -((reach - origin - (k1 + 1) * step) // m))
    return lo, hi


def _index_range(ln: int, ld: int, hn: int, hd: int, origin: int, step: int,
                 D: int) -> tuple[int, int]:
    """Smallest and largest k with ln/ld <= (origin + k*step)/D <= hn/hd,
    for positive ld and hd; the first exceeds the second when there is no
    such k."""
    return (-((origin * ld - ln * D) // (step * ld)),
            (hn * D - origin * hd) // (step * hd))


@dataclass(frozen=True)
class Instance:
    variant: str
    k: int
    d2: Fraction
    disks: tuple[Disk, ...]
    blocks: tuple[LatticeBlock, ...] = ()

    def __post_init__(self):
        if self.variant not in ("euclidean", "rectilinear"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.d2 < 0:
            raise ValueError("d2 must be nonnegative")

    @cached_property
    def scaled(self) -> ScaledPoints:
        """The disks' :func:`scale_points` array, built once and kept
        outside the dataclass fields."""
        return scale_points(self.disks)

    @cached_property
    def _conflicts(self) -> tuple:
        """(grid, decided, candidates): the disks' pair_pass at separation
        4, built once and kept like ``scaled``."""
        return pair_pass(self.disks, FOUR, False, self.scaled)


@dataclass
class Witness:
    moves: dict[int, Point]


# ---------------------------------------------------------------------------
# parsing / writing

def _logical_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line with content, lazily: a parse
    holds one line's tokens at a time, not a list over the whole text."""
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.partition("#")[0].split()
        if toks:
            yield no, toks


class _Cursor:
    """The logical lines of a text, read one ahead so that :meth:`done`
    knows whether any is left."""

    def __init__(self, text: str):
        self.lines = _logical_lines(text)
        self.ahead = next(self.lines, None)
        self.last = 0  # the line number of the last line returned

    def next(self, what: str) -> tuple[int, list[str]]:
        item = self.ahead
        if item is None:
            raise ParseError(self.last + 1,
                             f"unexpected end of file, expected {what}")
        self.ahead = next(self.lines, None)
        self.last = item[0]
        return item

    def done(self) -> bool:
        return self.ahead is None


def _expect_kv(cursor: _Cursor, key: str) -> tuple[int, str]:
    no, toks = cursor.next(f"'{key}:'")
    if len(toks) != 2 or toks[0] != f"{key}:":
        raise ParseError(no, f"expected '{key}: <value>'")
    return no, toks[1]


def _rat(no: int, tok: str) -> Fraction:
    try:
        return parse_rational(tok)
    except ValueError:
        raise ParseError(no, f"bad rational {tok!r}") from None


def _int(no: int, tok: str) -> int:
    try:
        return parse_int(tok)
    except ValueError:
        raise ParseError(no, f"bad integer {tok!r}") from None


def _count(no: int, tok: str, what: str) -> int:
    """The number of ``what`` items that follow, which may not be
    negative: a negative count would read as none and not write back."""
    n = _int(no, tok)
    if n < 0:
        raise ParseError(no, f"{what} count must be nonnegative")
    return n


def parse_instance(text: str) -> Instance:
    cur = _Cursor(text)
    no, toks = cur.next("header")
    if " ".join(toks) != INSTANCE_HEADER:
        raise ParseError(no, f"expected header {INSTANCE_HEADER!r}")

    no, variant = _expect_kv(cur, "variant")
    if variant not in ("euclidean", "rectilinear"):
        raise ParseError(no, f"unknown variant {variant!r}")

    no, ktok = _expect_kv(cur, "k")
    k = _int(no, ktok)
    if k < 0:
        raise ParseError(no, "k must be nonnegative")

    no, dtok = _expect_kv(cur, "d2")
    d2 = _rat(no, dtok)
    if d2 < 0:
        raise ParseError(no, "d2 must be nonnegative")

    no, ntok = _expect_kv(cur, "disks")
    n = _count(no, ntok, "disk")

    scalars: dict[str, Scalar] = {}
    disks = []
    for _ in range(n):
        no, toks = cur.next("disk coordinates")
        if len(toks) != 2:
            raise ParseError(no, "expected two coordinates")
        disks.append(_point(scalars, no, toks[0], toks[1]))

    blocks: list[LatticeBlock] = []
    if not cur.done():
        no, btok = _expect_kv(cur, "blocks")
        for _ in range(_count(no, btok, "block")):
            no, toks = cur.next("block definition")
            if len(toks) != 8 or toks[4] != "step" or toks[6] != "holes":
                raise ParseError(
                    no, "expected 'x0 y0 x1 y1 step <s> holes <h>'")
            x0, y0, x1, y1 = (_rat(no, t) for t in toks[:4])
            step = _rat(no, toks[5])
            nh = _count(no, toks[7], "hole")
            if step <= 0:
                raise ParseError(no, "block step must be positive")
            if x0 > x1 or y0 > y1:
                raise ParseError(no, "block rectangle is inverted")
            holes = []
            for _ in range(nh):
                hno, htoks = cur.next("hole rectangle")
                if len(htoks) != 4:
                    raise ParseError(hno, "expected 'x0 y0 x1 y1'")
                hx0, hy0, hx1, hy1 = (_rat(hno, t) for t in htoks)
                if hx0 > hx1 or hy0 > hy1:
                    raise ParseError(hno, "hole rectangle is inverted")
                holes.append(Rect(hx0, hy0, hx1, hy1))
            blocks.append(LatticeBlock(x0, y0, x1, y1, step, tuple(holes)))

    if not cur.done():
        no, toks = cur.next("")
        raise ParseError(no, f"unexpected trailing content {' '.join(toks)!r}")
    return Instance(variant, k, d2, tuple(disks), tuple(blocks))


def _point(scalars: dict[str, Scalar], no: int, xtok: str,
           ytok: str) -> Point:
    """The Point of a line's two coordinate tokens.  ``scalars`` belongs to
    one parse: each distinct token is parsed once, at its first line, and a
    repeat shares that scalar.  Every scalar is immutable, and a bulk
    instance repeats few distinct coordinates many times."""
    x, y = scalars.get(xtok), scalars.get(ytok)
    return Point(_coord(scalars, no, xtok) if x is None else x,
                 _coord(scalars, no, ytok) if y is None else y)


def _coord(scalars: dict[str, Scalar], no: int, tok: str) -> Scalar:
    try:
        value = scalars[tok] = parse_scalar(tok)
    except ValueError:
        raise ParseError(no, f"bad coordinate {tok!r}") from None
    return value


def write_instance(inst: Instance) -> str:
    out = [INSTANCE_HEADER,
           f"variant: {inst.variant}",
           f"k: {inst.k}",
           f"d2: {inst.d2}",
           f"disks: {len(inst.disks)}"]
    for d in inst.disks:
        out.append(f"{format_scalar(d.x)} {format_scalar(d.y)}")
    out.append(f"blocks: {len(inst.blocks)}")
    for b in inst.blocks:
        out.append(f"{b.x0} {b.y0} {b.x1} {b.y1} step {b.step} holes {len(b.holes)}")
        for h in b.holes:
            out.append(f"{h.x0} {h.y0} {h.x1} {h.y1}")
    return "\n".join(out) + "\n"


def parse_witness(text: str) -> Witness:
    cur = _Cursor(text)
    no, toks = cur.next("header")
    if " ".join(toks) != WITNESS_HEADER:
        raise ParseError(no, f"expected header {WITNESS_HEADER!r}")
    no, mtok = _expect_kv(cur, "moves")
    scalars: dict[str, Scalar] = {}
    moves: dict[int, Point] = {}
    for _ in range(_count(no, mtok, "move")):
        no, toks = cur.next("move line")
        if len(toks) != 4 or toks[1] != "->":
            raise ParseError(no, "expected '<index> -> <x> <y>'")
        idx = _int(no, toks[0])
        if idx < 0:
            raise ParseError(no, "negative disk index")
        if idx in moves:
            raise ParseError(no, f"duplicate move for disk {idx}")
        moves[idx] = _point(scalars, no, toks[2], toks[3])
    if not cur.done():
        no, toks = cur.next("")
        raise ParseError(no, f"unexpected trailing content {' '.join(toks)!r}")
    return Witness(moves)


def write_witness(w: Witness) -> str:
    out = [WITNESS_HEADER, f"moves: {len(w.moves)}"]
    for idx in sorted(w.moves):
        p = w.moves[idx]
        out.append(f"{idx} -> {format_scalar(p.x)} {format_scalar(p.y)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ValidationResult:
    status: str  # accept | reject | indeterminate
    reason: Optional[str] = None
    detail: object = None
    eps: Optional[Fraction] = None

    @property
    def accepted(self) -> bool:
        return self.status == "accept"

    def __str__(self):
        if self.status == "accept":
            return f"accept({self.eps})" if self.eps is not None else "accept"
        if self.reason and self.detail is not None:
            return f"{self.status}({self.reason}, {self.detail})"
        if self.reason:
            return f"{self.status}({self.reason})"
        return self.status


def check_witness_indices(inst: Instance, w: Witness) -> None:
    """Raise ValueError for a move of a disk that ``inst`` does not have."""
    for idx in w.moves:
        if not 0 <= idx < len(inst.disks):
            raise ValueError(f"witness index {idx} out of range")


def validate_witness(inst: Instance, w: Witness,
                     eps: Optional[Fraction] = None) -> ValidationResult:
    """Check a move assignment against an instance.

    eps=None is exact mode.  In tolerant mode separation thresholds drop to
    4 - eps and the move budget grows to d2 + eps; acceptance is then
    reported together with the eps used.  A move of a disk the instance
    does not have, or a negative eps, raises ValueError.  In exact mode a
    witness moving under a ninth of the disks, whose targets' 3x3 cells
    then hold few of them, reuses the pairs kept by
    :attr:`Instance._conflicts`; any other witness, and every tolerant one,
    gets one pass over its final list.  A lattice block's neighbours lie
    ``step`` apart, so a block with step^2 below the separation threshold
    is rejected as "block-step".
    """
    check_witness_indices(inst, w)
    if eps is not None and eps < 0:
        raise ValueError("eps must be nonnegative")
    if len(w.moves) > inst.k:
        return ValidationResult("reject", "budget", len(w.moves), eps)

    sep = FOUR if eps is None else FOUR - eps
    budget = inst.d2 if eps is None else inst.d2 + eps

    try:
        for idx, target in sorted(w.moves.items()):
            if not within_move(inst.disks[idx], target, budget, inst.variant):
                return ValidationResult("reject", "move", idx, eps)

        final = list(inst.disks)
        for idx, target in w.moves.items():
            final[idx] = target
        if eps is None and 9 * len(w.moves) < len(final):
            # the kept pairs less those with a moved endpoint, and a pass
            # over the targets and the unmoved disks near them
            grid, *own = inst._conflicts
            D, X, Y = inst.scaled
            local = sorted(set(w.moves).union(*(
                near_filed(grid, t) for t in w.moves.values())))
            points = [final[i] for i in local]
            new = [[(local[a], local[b]) for a, b in pairs
                    if local[a] in w.moves or local[b] in w.moves]
                   for pairs in pair_pass(points, sep, False,
                                          scale_points(points))[1:]]
            own = [(p for p in pairs if p[0] not in w.moves
                    and p[1] not in w.moves) for pairs in own]
            pairs = merge_pairs(final, sep, False, *map(heapq.merge, own, new))
            X, Y = list(X), list(Y)
            for idx in w.moves:  # first_close decides the targets exactly
                X[idx] = Y[idx] = None
        else:
            D, X, Y = scale_points(final)
            pairs = close_pairs(final, sep, scaled=(D, X, Y))
        bad = next(pairs, None)
        if bad is not None:
            return ValidationResult("reject", "packing", bad, eps)

        for block in inst.blocks:
            if block.step * block.step < sep:
                return ValidationResult("reject", "block-step", block.step, eps)
            hit = block.first_close(final, sep, (D, X, Y))
            if hit is not None:
                return ValidationResult("reject", "block", hit[0], eps)
        for bi in range(len(inst.blocks)):
            for bj in range(bi + 1, len(inst.blocks)):
                if _blocks_conflict(inst.blocks[bi], inst.blocks[bj], sep):
                    return ValidationResult("reject", "block", (bi, bj), eps)
    except IndeterminateError as e:
        return ValidationResult("indeterminate", str(e), None, eps)

    return ValidationResult("accept", None, None, eps)


def _blocks_conflict(a: LatticeBlock, b: LatticeBlock, sep: Fraction) -> bool:
    ra = Rect(a.x0, a.y0, a.x1, a.y1)
    rb = Rect(b.x0, b.y0, b.x1, b.y1)
    if ra.min_dist2_to(rb) >= sep:
        return False
    # blocks approach each other: query b with the points of a near it
    near = a._points(a._window(rb.x0, rb.x1, rb.y0, rb.y1, ceil_sqrt(sep)))
    return b.first_close(near, sep) is not None


def apply_witness(inst: Instance, w: Witness) -> Instance:
    """The instance with the witness's moves made; a move of a disk that
    ``inst`` does not have raises ValueError."""
    check_witness_indices(inst, w)
    disks = tuple(w.moves.get(i, d) for i, d in enumerate(inst.disks))
    return Instance(inst.variant, inst.k, inst.d2, disks, inst.blocks)


def expand_blocks(inst: Instance, cap: int = 10 ** 6) -> Instance:
    """Materialise block disks as explicit disks appended after the originals.

    Existing disk indices (and hence witnesses) stay valid.
    """
    extra: list[Point] = []
    for b in inst.blocks:
        for p in b.iter_disks():
            extra.append(p)
            if len(extra) > cap:
                raise ValueError(f"block expansion exceeds cap of {cap} disks")
    return Instance(inst.variant, inst.k, inst.d2,
                    inst.disks + tuple(extra), ())
