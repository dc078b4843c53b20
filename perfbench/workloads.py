"""The benchmark's three workloads: inputs from a seed, one round of library
calls over them, and the checks of every output.

A round runs the same operations on the same inputs every time, so every
round of a run attempts the same number of operations.  The first round of a
run is checked in full; later rounds must reproduce its outputs exactly,
which carries its verdict on each operation over.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import diskdispersal as dd
from diskdispersal import gridtiling
from diskdispersal.gridtiling import GridTilingInstance

import exact
import planted

POOL = Path(__file__).resolve().parent / "data" / "random_small_pool.json"


@dataclass
class Round:
    times: dict      # phase -> seconds at reference speed, summed over the round
    wall: dict = field(default_factory=dict)      # phase -> wall seconds
    samples: list = field(default_factory=list)   # per-instance solve seconds
    outputs: list = field(default_factory=list)   # per operation, comparable
    records: list = field(default_factory=list)   # per operation, for checks

    def add(self, phase: str, wall: float, scaled: float) -> None:
        self.times[phase] = self.times.get(phase, 0.0) + scaled
        self.wall[phase] = self.wall.get(phase, 0.0) + wall

    @property
    def total(self) -> float:
        return sum(self.times.values())


# ---------------------------------------------------------------------------
# solve workloads: random-small and planted-triples

@dataclass(frozen=True)
class Case:
    instance: dd.Instance
    expect: str                      # the known verdict: "yes" or "no"
    label: str


# the eight symmetries of the square, as (a, b, c, e): (x, y) -> (ax+by, cx+ey)
SYMMETRIES = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
              (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0))


def moved_copy(inst: dd.Instance, rng: random.Random) -> dd.Instance:
    """The instance under a seeded symmetry of the square and a translation
    by quarter units.  Both variants are invariant under these maps, so the
    verdict is unchanged.  The disk order is kept: the greedy conflict
    matching and the cover enumeration depend on it."""
    a, b, c, e = rng.choice(SYMMETRIES)
    tx = Fraction(rng.randint(-32, 32), 4)
    ty = Fraction(rng.randint(-32, 32), 4)
    disks = [dd.Point(a * p.x + b * p.y + tx, c * p.x + e * p.y + ty)
             for p in inst.disks]
    return dd.Instance(inst.variant, inst.k, inst.d2, tuple(disks))


def random_small_cases(seed: int) -> list[Case]:
    """Every pool instance, moved by its own seeded isometry, in seeded
    order.  The reference verdict carries over unchanged."""
    pool = json.loads(POOL.read_text())["pool"]
    rng = random.Random(seed)
    cases = [Case(moved_copy(dd.parse_instance(rec["instance"]), rng),
                  rec["reference"], f"pool[{i}]")
             for i, rec in enumerate(pool)]
    rng.shuffle(cases)
    return cases


# (background disks, triples, k, d2) per variant; the sizes straddle the
# 256-disk switch between the all-pairs and the bucketed graph build
PLANTED = [
    (60, 1, 1, Fraction(1)),
    (150, 1, 2, Fraction(2)),
    (250, 1, 1, Fraction(9, 4)),
    (300, 1, 2, Fraction(5, 2)),
    (100, 2, 3, Fraction(1)),
    (100, 2, 4, Fraction(1)),
]


def planted_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for variant in ("euclidean", "rectilinear"):
        for n_bg, t, k, d2 in PLANTED:
            p = planted.planted(rng.getrandbits(32), n_bg, t, k, d2, variant)
            cases.append(Case(p.instance, p.answer,
                              f"{variant} n={len(p.instance.disks)} t={t} "
                              f"k={k} d2={d2}"))
    return cases


REPEATS = 9            # most timings taken of one cheap call
REPEAT_BUDGET = 0.05   # seconds; no further repeats once the calls took this


def _median(values):
    return sorted(values)[len(values) // 2]


def timed(meter, fn, *args, most=1, budget=float("inf")):
    """fn(*args), with the median wall time and the median time at reference
    speed of up to ``most`` calls; repeats stop once the calls took
    ``budget`` seconds together.  Repeating cheap calls keeps a single
    interruption of a sub-millisecond call from swinging a sum; traced
    rounds call once, so that layer counts see one call."""
    walls, scaled = [], []
    while len(walls) < most and (not walls or sum(walls) < budget):
        result, wall, at_ref = meter.time(fn, *args)
        walls.append(wall)
        scaled.append(at_ref)
    return result, _median(walls), _median(scaled)


def _roundtrip(inst):
    return dd.parse_instance(dd.write_instance(inst))


def _witness_roundtrip(w):
    return dd.parse_witness(dd.write_witness(w))


def solve_round(cases: list[Case], meter, repeat: bool = True) -> Round:
    """Per case: write and parse its text, solve the parsed instance, and
    validate a yes witness exactly."""
    rnd = Round({"roundtrip_s": 0.0, "solve_s": 0.0, "validate_s": 0.0})
    most = REPEATS if repeat else 1
    for case in cases:
        try:
            back, *t_io = timed(meter, _roundtrip, case.instance, most=most,
                                budget=REPEAT_BUDGET)
            answer, *t_solve = timed(meter, dd.solve, back)
            valid, t_valid = None, (0.0, 0.0)
            if answer.verdict == "yes":
                valid, *t_valid = timed(meter, dd.validate_witness, back,
                                        answer.witness, most=most,
                                        budget=REPEAT_BUDGET)
        except Exception as exc:     # counts as a failed operation
            rnd.outputs.append(("raised", repr(exc)))
            rnd.records.append((case, exc))
            continue
        rnd.add("roundtrip_s", *t_io)
        rnd.add("solve_s", *t_solve)
        rnd.add("validate_s", *t_valid)
        rnd.samples.append(t_solve[1])
        witness = dd.write_witness(answer.witness) if answer.witness else None
        rnd.outputs.append((back == case.instance, answer.verdict, witness,
                            valid.status if valid else None))
        rnd.records.append((case, back, answer, valid))
    return rnd


def check_solve(case: Case, back, answer=None, valid=None) -> str | None:
    if isinstance(back, Exception):
        return f"raised {back!r}"
    if back != case.instance:
        return "text round trip changed the instance"
    if answer.verdict != case.expect:
        why = f" ({answer.reason})" if answer.reason else ""
        return f"verdict {answer.verdict}{why}, expected {case.expect}"
    if answer.verdict == "yes":
        if not valid.accepted:
            return f"validate_witness: {valid}"
        bad = exact.check_witness(case.instance, answer.witness.moves)
        if bad:
            return f"exact check: {bad}"
    return None


# ---------------------------------------------------------------------------
# gridtiling-fig7

FIG7_SPEC = """\
3 2
1 1: 1,1 1,2 2,1 3,3
1 2: 2,2 2,3 3,2
2 1: 1,1 1,3 2,2 3,1
2 2: 2,3 3,1 3,3
"""
FIG7_ROWS, FIG7_COLS = [2, 3], [1, 3]
FIG7_DISKS = 61_147
GRID_IO_REPEATS = 11


@dataclass(frozen=True)
class Fig7:
    spec: GridTilingInstance
    L: int
    d: int
    k: int


def fig7_expected(gt: GridTilingInstance) -> Fig7:
    """L, d and k of the reduction, from the paper's formulas."""
    n, K = gt.n, gt.kappa
    L = 100 * max(n, K)
    d = 6 * n * L
    rng = range(1, K + 1)
    k = (sum(2 * (2 * K - i) + 1 for i in rng)
         + sum(3 * (K - j + 2) + 3 for j in rng)
         + sum(K - i for i in rng)
         + 2 * sum(K - j + 2 for j in rng)
         + sum(3 * K - i - 2 * j + 2 for i in rng for j in rng))
    return Fig7(gt, L, d, k)


def fig7_input(seed: int) -> Fig7:
    # the instance is the paper's figure: the seed does not change it
    return fig7_expected(gridtiling.parse_gridtiling(FIG7_SPEC))


def gridtiling_round(fig: Fig7, meter, repeat: bool = True) -> Round:
    rnd = Round({})
    inst, *t = timed(meter, gridtiling.gen_gridtiling, fig.spec)
    rnd.add("generate_s", *t)
    # one 1-s measurement swings by 10% on a shared machine: take the
    # median of GRID_IO_REPEATS
    back, *t = timed(meter, _roundtrip, inst,
                     most=GRID_IO_REPEATS if repeat else 1)
    rnd.add("roundtrip_s", *t)
    w, *t = timed(meter, gridtiling.gridtiling_witness, fig.spec, back,
                  FIG7_ROWS, FIG7_COLS)
    rnd.add("witness_build_s", *t)
    w_back, *t = timed(meter, _witness_roundtrip, w)
    rnd.add("roundtrip_s", *t)
    accepted, *t = timed(meter, dd.validate_witness, back, w_back)
    rnd.add("validate_s", *t)
    empty, *t = timed(meter, dd.validate_witness, back, dd.Witness({}))
    rnd.add("validate_s", *t)
    rnd.outputs = [(inst.k, inst.d2, len(inst.disks)), back == inst,
                   dd.write_witness(w), w_back.moves == w.moves,
                   accepted.status, empty.status]
    rnd.records = [("generate", inst), ("roundtrip", back, inst),
                   ("witness", back, w), ("witness roundtrip", w_back, w),
                   ("validate", accepted), ("empty", back, empty)]
    return rnd


def check_gridtiling(fig: Fig7, op) -> str | None:
    kind = op[0]
    if kind == "generate":
        inst = op[1]
        if (fig.L, fig.d, fig.k) != (300, 5400, 58):
            return f"formula gives L={fig.L} d={fig.d} k={fig.k}"
        lay = gridtiling.build_layout(fig.spec)
        if (lay.L, lay.d, inst.k, inst.d2) != (fig.L, fig.d, fig.k, fig.d ** 2):
            return (f"generator gives L={lay.L} d={lay.d} k={inst.k} "
                    f"d2={inst.d2}")
        if len(inst.disks) != FIG7_DISKS or len(inst.blocks) != 1:
            return f"{len(inst.disks)} disks and {len(inst.blocks)} blocks"
        return None
    if kind == "roundtrip":
        return None if op[1] == op[2] else "text round trip changed the instance"
    if kind == "witness":
        return exact_fig7_witness(fig, op[1], op[2].moves)
    if kind == "witness roundtrip":
        return None if op[1].moves == op[2].moves else "witness text changed"
    if kind == "validate":
        return None if op[1].status == "accept" else f"witness {op[1]}"
    if kind == "empty":
        inst, res = op[1], op[2]
        if res.status != "reject":
            return f"empty witness {res}"
        centers = integer_centers(inst.disks, {})
        if centers is not None and exact.packing_violation(centers, 2) is None:
            return "the unmoved disks form a packing, so rejection is wrong"
        return None
    raise ValueError(kind)


def integer_centers(disks, moves):
    out = []
    for i, p in enumerate(disks):
        q = moves.get(i, p)
        if not (isinstance(q.x, Fraction) and isinstance(q.y, Fraction)
                and q.x.denominator == 1 and q.y.denominator == 1):
            return None
        out.append((int(q.x), int(q.y)))
    return out


def exact_fig7_witness(fig: Fig7, inst, moves) -> str | None:
    """Integer check: k axis-parallel moves of length at most d, and the
    final explicit disks form a packing."""
    if len(moves) != fig.k:
        return f"{len(moves)} moves, expected {fig.k}"
    final = integer_centers(inst.disks, moves)
    if final is None:
        return "a center is not an integer point"
    origin = integer_centers(inst.disks, {})
    for i in moves:
        dx = abs(final[i][0] - origin[i][0])
        dy = abs(final[i][1] - origin[i][1])
        if dx and dy:
            return f"move of disk {i} is not axis-parallel"
        if dx + dy > fig.d:
            return f"move of disk {i} has length {dx + dy} > {fig.d}"
    bad = exact.packing_violation(final, 2)
    if bad is not None:
        return f"disks {bad[0]} and {bad[1]} overlap after the moves"
    return None


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make: object          # seed -> inputs
    round: object         # (inputs, meter, repeat) -> Round
    check: object         # (inputs, record) -> message, or None when right


def _check_solve(cases, op):
    return check_solve(*op)


WORKLOADS = {
    "random-small": Workload("random-small", random_small_cases, solve_round,
                             _check_solve),
    "planted-triples": Workload("planted-triples", planted_cases, solve_round,
                                _check_solve),
    "gridtiling-fig7": Workload("gridtiling-fig7", fig7_input,
                                gridtiling_round, check_gridtiling),
}
