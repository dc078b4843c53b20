"""Grid-tiling reduction: build a rectilinear dispersal instance whose
yes-answers correspond exactly to consistent row/column value choices.

Geometry overview.  Every gadget is a tall 3xL frame of touching unit
disks (two full side columns plus a middle disk at the bottom and top);
its hollow middle column carries, bottom to top: a run of base padding, a
short run of payload disks, and a run of cap padding.  One-unit gaps
below and above the payload mean that vacating all m payload disks frees
exactly m+1 slots, shifted one unit against the old positions.  Columns
of the construction alternate a one-unit vertical offset, so a payload
disk can slide horizontally into a freed slot of a neighbouring column,
and chains of such slides propagate choices across the grid.

All coordinates are integers, the move budget d is an integer, moves are
axis-parallel, and the vast empty area is filled by an implicit lattice
block.  Each gadget group's hole in that block is cut where the group is
placed, from the same coordinates: one per cell, row feeder and emptying
row, two per column feeder and emptying column (the group and its stack
or vacancy gadget).  The layout stays on ``int``: ``_Layout.instance()``
and the witness's move targets alone build ``Fraction``s, the former one
per distinct coordinate.

Deliberate deviations from the usual presentation of this construction
(vertical cell spacing, parity of the extra column gadget, sub-row
orientation) exist solely to make every emitted witness move fit the
budget; they are asserted at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .geometry import Point
from .instance_io import Instance, LatticeBlock, Rect, Witness
from .numerics import parse_int

__all__ = [
    "GridTilingInstance",
    "GeneratorError",
    "gen_gridtiling",
    "gridtiling_witness",
    "build_layout",
    "parse_gridtiling",
    "write_gridtiling",
]


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class GridTilingInstance:
    n: int
    kappa: int
    sets: dict[tuple[int, int], frozenset[tuple[int, int]]]

    def __post_init__(self):
        if self.n < 1 or self.kappa < 1:
            raise GeneratorError("need n >= 1 and kappa >= 1")
        for i, j in self.sets:
            if not (1 <= i <= self.kappa and 1 <= j <= self.kappa):
                raise GeneratorError(
                    f"cell ({i}, {j}) outside 1..{self.kappa}")
        for i in range(1, self.kappa + 1):
            for j in range(1, self.kappa + 1):
                cell = self.sets.get((i, j))
                if not cell:
                    raise GeneratorError(f"cell ({i}, {j}) missing or empty")
                for a, b in cell:
                    if not (1 <= a <= self.n and 1 <= b <= self.n):
                        raise GeneratorError(
                            f"cell ({i}, {j}) value {(a, b)} out of range")


# ---------------------------------------------------------------------------
# gadget geometry

@dataclass
class _Gadget:
    x0: int                    # bottom-left wall disk center
    y0: int
    phi: int                   # 0 or 1: one-unit upward shift of the middle
    kind: str                  # pair | absent | stack | empty
    m: int                     # payload disks / stack copies / space slots
    L: int
    N1: int
    payload_idx: list[int] = field(default_factory=list)
    stack_idx: list[int] = field(default_factory=list)

    @property
    def x_mid(self) -> int:
        return self.x0 + 2

    @property
    def base_top(self) -> int:  # y of the highest base padding disk
        return self.y0 + self.phi + 2 * self.N1

    def payload_y(self, t: int) -> int:
        return self.base_top + 3 + 2 * t

    def slot_y(self, u: int) -> int:
        """Freed positions once all payload disks leave (u in 0..m); in an
        empty-kind gadget, its reserved vacancies (u in 0..m-1)."""
        return self.base_top + 2 + 2 * u

    @property
    def stack_point(self) -> tuple[int, int]:
        return (self.x_mid, self.base_top + 2)

    def emit(self, disks: list[tuple[int, int]]) -> None:
        def add(x: int, y: int) -> None:
            disks.append((x, y))

        x0, y0, L = self.x0, self.y0, self.L
        if self.kind == "absent":
            for c in (0, 2, 4):
                for r in range(L):
                    add(x0 + c, y0 + 2 * r)
            return
        for r in range(L):
            add(x0, y0 + 2 * r)
        for r in range(L):
            add(x0 + 4, y0 + 2 * r)
        add(x0 + 2, y0)
        add(x0 + 2, y0 + 2 * L - 2)
        for s in range(self.N1):
            add(x0 + 2, y0 + 2 + self.phi + 2 * s)
        if self.kind == "pair":
            for t in range(self.m):
                self.payload_idx.append(len(disks))
                add(x0 + 2, self.payload_y(t))
            cap_lo = self.base_top + 2 * self.m + 4
        elif self.kind == "stack":
            sx, sy = self.stack_point
            for _ in range(self.m):
                self.stack_idx.append(len(disks))
                add(sx, sy)
            cap_lo = self.base_top + 4
        elif self.kind == "empty":
            cap_lo = self.base_top + 2 * self.m + 2
        else:
            raise GeneratorError(f"unknown gadget kind {self.kind!r}")
        cap_hi = y0 + 2 * L - 4 - (self.phi if self.kind == "pair" else 0)
        if cap_hi < cap_lo or (cap_hi - cap_lo) % 2 != 0:
            raise GeneratorError("cap padding does not fit the frame")
        for y in range(cap_lo, cap_hi + 1, 2):
            add(x0 + 2, y)


# ---------------------------------------------------------------------------
# the full layout

def _col_phi(j: int) -> int:
    # odd construction columns sit one unit lower than even ones
    return 0 if j % 2 == 1 else 1


class _Layout:
    """Integer centres ``disks``, fill-block ``box`` and ``holes``, from
    which ``instance()`` builds the ``Point``s, ``Rect``s and block."""

    def __init__(self, gt: GridTilingInstance):
        self.gt = gt
        n, kappa = gt.n, gt.kappa
        if kappa > 2 * n:
            raise GeneratorError(
                "column gadgets would overshoot the move budget for kappa > 2n")
        self.n, self.kappa = n, kappa
        self.L = 100 * max(n, kappa)
        self.N1 = self.L // 3
        self.d = 6 * n * self.L
        # vertical/horizontal padding between cells; the vertical value is
        # 2nL so that a hop between *any* two sub-rows of adjacent cell rows
        # stays within d (see the build-time assertions)
        self.V = 2 * n * self.L
        self.H = 6 * n * self.L - 12 * n
        self.cell_w = 6 * n
        self.cell_h = 2 * self.L * n
        self.k = self._budget()
        self.gadgets: dict[tuple, _Gadget] = {}
        self.disks: list[tuple[int, int]] = []
        self.holes: list[tuple[int, int, int, int]] = []
        self._build()

    # quantities per construction row/column
    def m_ij(self, i: int, j: int) -> int:
        return 3 * self.kappa - i - 2 * j + 2

    def r_i(self, i: int) -> int:
        return 2 * self.kappa - i

    def c_j(self, j: int) -> int:
        return self.kappa - j + 2

    def er_i(self, i: int) -> int:
        return self.kappa - i

    def _budget(self) -> int:
        K = self.kappa
        total = sum(2 * self.r_i(i) + 1 for i in range(1, K + 1))
        total += sum(3 * self.c_j(j) + 3 for j in range(1, K + 1))
        total += sum(self.er_i(i) for i in range(1, K + 1))
        total += 2 * sum(self.c_j(j) for j in range(1, K + 1))
        total += sum(self.m_ij(i, j)
                     for i in range(1, K + 1) for j in range(1, K + 1))
        return total

    # global coordinates
    def cell_top(self, i: int) -> int:
        return -(i - 1) * (self.cell_h + self.V)

    def cell_bot(self, i: int) -> int:
        return self.cell_top(i) - self.cell_h

    def cell_left(self, j: int) -> int:
        return (j - 1) * (self.cell_w + self.H)

    def cell_right(self, j: int) -> int:
        return self.cell_left(j) + self.cell_w

    def sub_x0(self, j: int, b: int) -> int:
        return self.cell_left(j) + 6 * (b - 1) + 1

    def sub_y0(self, i: int, a: int) -> int:
        # sub-row 1 is the top band of the cell
        return self.cell_top(i) - 2 * self.L * a + 1

    def _build(self) -> None:
        """Place every gadget group, then cut the fill block's hole for
        that group from the same coordinates: cells, row feeders, column
        feeders (two holes each), emptying rows, emptying columns (two
        holes each)."""
        n, K, L = self.n, self.kappa, self.L

        def put(key, x0, y0, phi, kind, m):
            g = _Gadget(x0, y0, phi, kind, m, L, self.N1)
            g.emit(self.disks)
            self.gadgets[key] = g

        def hole(x0, y0, x1, y1):
            self.holes.append((x0, y0, x1, y1))

        # cells of pair / absent gadgets
        for i in range(1, K + 1):
            for j in range(1, K + 1):
                cell = self.gt.sets[(i, j)]
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        if (a, b) in cell:
                            put(("pg", i, j, a, b), self.sub_x0(j, b),
                                self.sub_y0(i, a), _col_phi(j), "pair",
                                self.m_ij(i, j))
                        else:
                            put(("apg", i, j, a, b), self.sub_x0(j, b),
                                self.sub_y0(i, a), 0, "absent", 0)
                hole(self.cell_left(j) - 1, self.cell_bot(i) - 1,
                     self.cell_right(j) + 1, self.cell_top(i) + 1)

        # row feeders, left of the grid, one 6-wide column per row index
        for i in range(1, K + 1):
            x0 = -7 - 6 * (i - 1)
            for a in range(1, n + 1):
                put(("rc", i, a), x0, self.sub_y0(i, a), 1, "pair",
                    self.r_i(i))
            put(("rstar", i), x0, self.sub_y0(i, 1) + 2 * L, 0, "stack",
                self.r_i(i) + 2)
            hole(x0 - 2, self.sub_y0(i, n) - 2,
                 x0 + 6, self.sub_y0(i, 1) + 4 * L)

        # column feeders above the grid, staggered upwards per column
        for j in range(1, K + 1):
            y0 = 3 + 2 * L * (j - 1)
            for b in range(1, n + 1):
                put(("cc", j, b), self.sub_x0(j, b), y0, 1, "pair",
                    self.c_j(j))
            xn1 = self.cell_left(j) + 6 * n + 1
            put(("cc", j, n + 1), xn1, y0, 0, "pair", self.c_j(j) + 1)
            put(("cstar", j), xn1, y0 + 2 * L, 0, "stack", self.c_j(j) + 3)
            hole(self.cell_left(j) - 1, y0 - 2, xn1 + 6, y0 + 2 * L)
            hole(xn1 - 2, y0 + 2 * L - 2, xn1 + 6, y0 + 4 * L)

        # emptying rows, mirrored to the right (none for the last row)
        phi_er = 1 - _col_phi(K)
        for i in range(1, K):
            x0 = self.cell_right(K) + 3 + 6 * (i - 1)
            for a in range(1, n + 1):
                put(("erc", i, a), x0, self.sub_y0(i, a), phi_er, "pair",
                    self.er_i(i))
            put(("erstar", i), x0, self.sub_y0(i, 1) + 2 * L, 0, "empty",
                self.er_i(i))
            hole(x0 - 2, self.sub_y0(i, n) - 2,
                 x0 + 6, self.sub_y0(i, 1) + 4 * L)

        # emptying columns, mirrored below
        for j in range(1, K + 1):
            y_top_disk = self.cell_bot(K) - 3 - 2 * L * (j - 1)
            y0 = y_top_disk - (2 * L - 2)
            for b in range(1, n + 1):
                put(("ecc", j, b), self.sub_x0(j, b), y0, 1, "pair",
                    self.c_j(j))
            xn1 = self.cell_left(j) + 6 * n + 1
            put(("ecc", j, n + 1), xn1, y0, 0, "pair", self.c_j(j))
            put(("ecstar", j), xn1, y0 - 2 * L, 0, "empty", self.c_j(j))
            hole(self.cell_left(j) - 1, y0 - 2, xn1 + 6, y0 + 2 * L)
            hole(xn1 - 2, y0 - 2 * L - 2, xn1 + 6, y0 + 2)

        # the fill lattice spans the even points inside the disks' bounding box
        xs, ys = zip(*self.disks)
        self.box = (min(xs) + min(xs) % 2, min(ys) + min(ys) % 2,
                    max(xs) - max(xs) % 2, max(ys) - max(ys) % 2)

    def instance(self) -> Instance:
        # one Fraction per distinct coordinate, shared by the Points
        frac = {v: Fraction(v) for v in {v for xy in self.disks for v in xy}}
        disks = tuple(Point(frac[x], frac[y]) for x, y in self.disks)
        holes = tuple(Rect(*map(Fraction, h)) for h in self.holes)
        block = LatticeBlock(*map(Fraction, self.box), Fraction(2), holes)
        return Instance("rectilinear", self.k, Fraction(self.d) ** 2, disks,
                        (block,))


def build_layout(gt: GridTilingInstance) -> _Layout:
    return _Layout(gt)


def gen_gridtiling(gt: GridTilingInstance) -> Instance:
    return _Layout(gt).instance()


# ---------------------------------------------------------------------------
# witness construction

def gridtiling_witness(gt: GridTilingInstance, inst: Instance,
                       row_values: Sequence[int],
                       col_values: Sequence[int]) -> Witness:
    """Emit the canonical move set realising a grid-tiling solution.

    ``row_values[i-1]`` and ``col_values[j-1]`` must form a solution:
    (row_values[i-1], col_values[j-1]) in sets[(i, j)] for all i, j.
    The move count always equals the instance budget.
    """
    lay = _Layout(gt)
    n, K = lay.n, lay.kappa
    if len(row_values) != K or len(col_values) != K:
        raise GeneratorError("need one row value and one column value per index")
    for i in range(1, K + 1):
        for j in range(1, K + 1):
            pair = (row_values[i - 1], col_values[j - 1])
            if pair not in gt.sets[(i, j)]:
                raise GeneratorError(
                    f"({pair[0]}, {pair[1]}) not allowed in cell ({i}, {j})")
    if len(inst.disks) != len(lay.disks) or not all(
            p.x == x and p.y == y for p, (x, y) in zip(inst.disks, lay.disks)):
        raise GeneratorError("instance does not match this grid-tiling input")

    moves: dict[int, Point] = {}

    def put_move(idx: int, x: int, y: int):
        sx, sy = lay.disks[idx]
        dx, dy = abs(sx - x), abs(sy - y)
        if idx in moves:
            raise GeneratorError(f"disk {idx} moved twice")
        if (dx != 0 and dy != 0) or max(dx, dy) > lay.d:
            raise GeneratorError(
                f"move of disk {idx} is not an axis move within {lay.d}")
        moves[idx] = Point(Fraction(x), Fraction(y))

    def height(i: int, j: int) -> int:
        """Payload disks that the chosen pair gadget of cell (i, j) sends
        right, to the next cell or the emptying row; the rest go down."""
        return 2 * K - i - j

    def free_slots(i: int, j: int) -> list[int]:
        """Slots of the chosen pair gadget in cell (i, j) left for
        vertical arrivals after the horizontal arrivals take theirs."""
        m = lay.m_ij(i, j)
        if j == 1:
            occupied = set(range(1, lay.r_i(i) + 1))
        else:
            base = _col_phi(j - 1)
            occupied = set(range(base, height(i, j - 1) + base))
        out = [u for u in range(m + 1) if u not in occupied]
        if len(out) != K - j + 2:
            raise GeneratorError("slot bookkeeping is inconsistent")
        return out

    a_of = {i: row_values[i - 1] for i in range(1, K + 1)}
    b_of = {j: col_values[j - 1] for j in range(1, K + 1)}

    # row chains: stack -> row feeder -> first-column pair gadget
    for i in range(1, K + 1):
        rstar = lay.gadgets[("rstar", i)]
        rc = lay.gadgets[("rc", i, a_of[i])]
        for u, idx in enumerate(rstar.stack_idx[1:]):
            put_move(idx, rc.x_mid, rc.slot_y(u))
        pg1 = lay.gadgets[("pg", i, 1, a_of[i], b_of[1])]
        for t, idx in enumerate(rc.payload_idx):
            put_move(idx, pg1.x_mid, pg1.slot_y(t + 1))

    # column chains: stack -> extra feeder -> chosen feeder -> first row
    for j in range(1, K + 1):
        cstar = lay.gadgets[("cstar", j)]
        ccn1 = lay.gadgets[("cc", j, n + 1)]
        for u, idx in enumerate(cstar.stack_idx[1:]):
            put_move(idx, ccn1.x_mid, ccn1.slot_y(u))
        ccb = lay.gadgets[("cc", j, b_of[j])]
        for t, idx in enumerate(ccn1.payload_idx):
            put_move(idx, ccb.x_mid, ccb.slot_y(t))
        pg = lay.gadgets[("pg", 1, j, a_of[1], b_of[j])]
        for idx, u in zip(ccb.payload_idx, free_slots(1, j)):
            put_move(idx, pg.x_mid, pg.slot_y(u))

    # pair-gadget cascades
    for i in range(1, K + 1):
        for j in range(1, K + 1):
            pg = lay.gadgets[("pg", i, j, a_of[i], b_of[j])]
            h = height(i, j)
            if j < K:
                tgt = lay.gadgets[("pg", i, j + 1, a_of[i], b_of[j + 1])]
                for t in range(h):
                    put_move(pg.payload_idx[t], tgt.x_mid,
                             tgt.slot_y(t + _col_phi(j)))
            elif h:
                erc = lay.gadgets[("erc", i, a_of[i])]
                for t in range(h):
                    put_move(pg.payload_idx[t], erc.x_mid,
                             erc.slot_y(t + _col_phi(K)))
            if i < K:
                tgt = lay.gadgets[("pg", i + 1, j, a_of[i + 1], b_of[j])]
                for t, u in zip(range(h, pg.m), free_slots(i + 1, j)):
                    put_move(pg.payload_idx[t], tgt.x_mid, tgt.slot_y(u))
            else:
                ecc = lay.gadgets[("ecc", j, b_of[j])]
                for u, t in enumerate(range(h, pg.m)):
                    put_move(pg.payload_idx[t], ecc.x_mid, ecc.slot_y(u))

    # emptying chains
    for i in range(1, K):
        erc = lay.gadgets[("erc", i, a_of[i])]
        erstar = lay.gadgets[("erstar", i)]
        for t, idx in enumerate(erc.payload_idx):
            put_move(idx, erstar.x_mid, erstar.slot_y(t))
    for j in range(1, K + 1):
        eccb = lay.gadgets[("ecc", j, b_of[j])]
        eccn1 = lay.gadgets[("ecc", j, n + 1)]
        ecstar = lay.gadgets[("ecstar", j)]
        for t, idx in enumerate(eccb.payload_idx):
            put_move(idx, eccn1.x_mid, eccn1.slot_y(t + 1))
        for t, idx in enumerate(eccn1.payload_idx):
            put_move(idx, ecstar.x_mid, ecstar.slot_y(t))

    if len(moves) != lay.k:
        raise GeneratorError(
            f"emitted {len(moves)} moves for a budget of {lay.k}")
    return Witness(moves)


# ---------------------------------------------------------------------------
# text format for grid-tiling inputs

def parse_gridtiling(text: str) -> GridTilingInstance:
    """First line "n kappa"; then kappa^2 lines "i j: a1,b1 a2,b2 ...".
    Every integer takes the instance format's grammar, ``[+-]?[0-9]+``."""
    lines = [(no, ln.split("#", 1)[0].strip())
             for no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise GeneratorError("empty grid-tiling input")
    no, first = lines[0]
    head = first.split()
    if len(head) != 2:
        raise GeneratorError(f"line {no}: first line must be 'n kappa'")
    n, kappa = _int(no, head[0]), _int(no, head[1])
    sets: dict[tuple[int, int], frozenset] = {}
    for no, ln in lines[1:]:
        if ":" not in ln:
            raise GeneratorError(f"line {no}: bad cell line {ln!r}")
        key, vals = ln.split(":", 1)
        parts = key.split()
        if len(parts) != 2:
            raise GeneratorError(f"line {no}: bad cell key {key!r}")
        i, j = _int(no, parts[0]), _int(no, parts[1])
        pairs = set()
        for tok in vals.split():
            try:
                a, b = map(parse_int, tok.split(","))
            except ValueError:
                raise GeneratorError(f"line {no}: bad pair {tok!r}") from None
            pairs.add((a, b))
        if (i, j) in sets:
            raise GeneratorError(f"line {no}: duplicate cell ({i}, {j})")
        sets[(i, j)] = frozenset(pairs)
    return GridTilingInstance(n, kappa, sets)


def _int(no: int, tok: str) -> int:
    try:
        return parse_int(tok)
    except ValueError:
        raise GeneratorError(f"line {no}: bad integer {tok!r}") from None


def write_gridtiling(gt: GridTilingInstance) -> str:
    out = [f"{gt.n} {gt.kappa}"]
    for i in range(1, gt.kappa + 1):
        for j in range(1, gt.kappa + 1):
            pairs = " ".join(f"{a},{b}" for a, b in sorted(gt.sets[(i, j)]))
            out.append(f"{i} {j}: {pairs}")
    return "\n".join(out) + "\n"
