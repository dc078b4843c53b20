"""One digest of every solve on the benchmark's search workloads.

    python3 tools/solve_digest.py

solves the random-small and planted-triples inputs of ``perfbench`` at seeds 1
and 7 with the default ``SolverConfig`` and prints, per workload and seed, the
number of solves, their tally of yes, no and unknown verdicts, and two SHA-256
digests: one of the answers, over each answer's verdict and witness text, and
one of the logs, over each answer's reason and log lines.  A fifth line gives
the SHA-256 of the Fig. 7 grid-tiling instance text and of its witness text,
with the results of validating the parsed texts, of validating the parsed
instance against the empty witness, whose first overlapping pair it names, and
of validating it, with a budget one larger, against the witness with one more
move, a wall disk two units out into the lattice fill, which the block check
names.  One more line digests 50 small seeded ``gen_random`` instances whose
one coordinate is a radical or a ``~`` literal, so that their covers have a
centre that is not rational.  The next line digests the three seeded
``gen_random`` instances whose yes comes from a stage-3 grid witness, which no
other line reaches.  The line "off-scale rationals" digests 24 seeded
``gen_random`` instances whose every disk's x is shifted by 1/p for its own
prime p above 2^21, so that the integer scales of the kernel and of each moved
set leave most centres off, and their pairs go through the exact comparison.
The line "clause cases" digests four instances that the clauses of earlier
refutations decide in a few sets each: an 8x8 lattice plus three disks at
k = 5, plus four at k = 7, and ``perfbench``'s planted instance with six
triples, its disks shuffled, at k = 11 (no) and k = 12 (yes).  The last, "far
groups", digests the shuffled planted instances with five triples at k = 10
(yes) and eight at k = 15 (no), whose moved sets join triples that lie far
apart.  Two checkouts that print the same lines gave byte-identical answers
and logs; two that print the same answers digests gave the same verdicts and
witness texts, whatever their logs say; a solve line's tally shows whether a
changed digest moved verdicts.  Every yes witness of a solve is also validated
exactly and in tolerant mode at ``DEFAULT_EPS``, which takes the pass over the
whole final list, and the two Fig. 7 texts are parsed back: each must write
back byte for byte, with every parsed coordinate a ``Fraction``.  The instance
text is parsed once more and validated in the other order, the empty witness
first: an instance keeps its pairs between validations, and each result must
equal that of the first parse.  The Fig. 7 witness and the move into the fill
are validated at ``DEFAULT_EPS`` as well, which prints nothing more.  The
script exits 1, after its lines, when a witness is rejected in either mode,
including the Fig. 7 witness, the Fig. 7 round trip fails, the second parse
gives another result, or the block check passes the move into the fill in
either mode.  The benchmark inputs come from ``perfbench/workloads.py``, which
is imported and never changed; the library is imported from this checkout's
``src/``.

``tools/solve_digest.txt`` holds the expected output, and CI diffs a fresh
run against it.  A change that alters these outputs on purpose rewrites
that file:

    python3 tools/solve_digest.py > tools/solve_digest.txt
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import diskdispersal as dd  # noqa: E402
import workloads  # noqa: E402
from planted import planted  # noqa: E402
from diskdispersal.instance_io import DEFAULT_EPS  # noqa: E402
from diskdispersal.numerics import parse_scalar  # noqa: E402

CASES = {"random-small": workloads.random_small_cases,
         "planted-triples": workloads.planted_cases}
SEEDS = (1, 7)
# the seeded instances whose one yes is a stage-3 grid witness
GRID_WITNESS_CASES = (
    (3, 4, 768000, 2, Fraction(1, 4), "euclidean"),
    (4, 5, 951059, 3, Fraction(1, 4), "euclidean"),
    (5, 4, 319576, 3, Fraction(2), "rectilinear"),
)


def answer_text(ans: dd.Answer) -> str:
    witness = dd.write_witness(ans.witness) if ans.witness else ""
    return "\n".join([ans.verdict, witness])


def log_text(ans: dd.Answer) -> str:
    return "\n".join([str(ans.reason), *ans.log])


def digest(label: str, instances) -> int:
    """Print under ``label`` the number of solves, their verdict tally and
    the SHA-256 of their answers and of their logs; return the number of
    yes witnesses that ``validate_witness`` rejects, exactly or at
    ``DEFAULT_EPS``."""
    answers, logs = hashlib.sha256(), hashlib.sha256()
    rejected = 0
    tally = Counter()
    for inst in instances:
        ans = dd.solve(inst)
        tally[ans.verdict] += 1
        if ans.verdict == "yes":
            rejected += not all(
                dd.validate_witness(inst, ans.witness, eps).accepted
                for eps in (None, DEFAULT_EPS))
        for h, text in ((answers, answer_text(ans)), (logs, log_text(ans))):
            h.update(text.encode())
            h.update(b"\0")
    counts = "".join(f", {tally[v]} {v}" for v in ("yes", "no", "unknown"))
    print(f"{label}: {len(instances)} solves{counts}, answers sha256 "
          f"{answers.hexdigest()}, log sha256 {logs.hexdigest()}")
    return rejected


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fig7_line() -> tuple[str, list[str]]:
    """The Fig. 7 line, and the faults of its text round trip and its
    witness: a text that does not write back byte for byte, a parsed
    coordinate that is not a ``Fraction``, a parsed witness that
    ``validate_witness`` does not accept, exactly or at ``DEFAULT_EPS``, a
    second parse of the instance text whose validations, the empty witness
    first, differ from those of the first parse, or a move into the fill
    that the block check passes in either mode."""
    spec = workloads.fig7_input(1).spec
    inst = dd.gen_gridtiling(spec)
    w = dd.gridtiling_witness(spec, inst, workloads.FIG7_ROWS,
                              workloads.FIG7_COLS)
    inst_text, witness_text = dd.write_instance(inst), dd.write_witness(w)
    back, w_back = dd.parse_instance(inst_text), dd.parse_witness(witness_text)
    faults = []
    if dd.write_instance(back) != inst_text:
        faults.append("the Fig. 7 instance text does not write back")
    if dd.write_witness(w_back) != witness_text:
        faults.append("the Fig. 7 witness text does not write back")
    if any(type(v) is not Fraction
           for p in (*back.disks, *w_back.moves.values()) for v in (p.x, p.y)):
        faults.append("a parsed Fig. 7 coordinate is not a Fraction")
    accepted = dd.validate_witness(back, w_back)
    if not accepted.accepted:
        faults.append("the Fig. 7 witness fails validation")
    if not dd.validate_witness(back, w_back, DEFAULT_EPS).accepted:
        faults.append("the Fig. 7 witness fails tolerant validation")
    empty = dd.validate_witness(back, dd.Witness({}))
    wider, into = fill_move(back, w_back)
    fill = dd.validate_witness(wider, into)
    if fill.reason != "block":
        faults.append("the Fig. 7 move into the fill passes the block check")
    if dd.validate_witness(wider, into, DEFAULT_EPS).reason != "block":
        faults.append("the Fig. 7 move into the fill passes the tolerant "
                      "block check")
    # a second parse validates in the other order: each call must give what
    # it gave first, whatever the instance kept from the call before
    again = dd.parse_instance(inst_text)
    if (dd.validate_witness(again, dd.Witness({})),
            dd.validate_witness(again, w_back)) != (empty, accepted):
        faults.append("the Fig. 7 results depend on the order of validation")
    line = (f"gridtiling-fig7: instance sha256 {sha256(inst_text)}, "
            f"witness sha256 {sha256(witness_text)}, "
            f"witness {accepted}, empty witness {empty}, "
            f"one more move into the fill {fill}")
    return line, faults


def fill_move(inst: dd.Instance,
              w: dd.Witness) -> tuple[dd.Instance, dd.Witness]:
    """The instance with a budget one larger, and w with one more move: the
    unmoved disk inside the first hole of the first block with the greatest
    x, the first such, two units right, out of the hole towards the
    fill."""
    hole = inst.blocks[0].holes[0]
    idx = max((i for i, p in enumerate(inst.disks) if i not in w.moves
               and hole.x0 <= p.x <= hole.x1 and hole.y0 <= p.y <= hole.y1),
              key=lambda i: (inst.disks[i].x, -i))
    p = inst.disks[idx]
    return (dd.Instance(inst.variant, inst.k + 1, inst.d2, inst.disks,
                        inst.blocks),
            dd.Witness({**w.moves, idx: dd.Point(p.x + 2, p.y)}))


def non_rational_cases() -> list[dd.Instance]:
    """3-7 disks in [0, 6]^2, k 1-3, both variants, one disk's x moved by
    sqrt(2)/8: as a radical in two seeds of three, else as a ``~``
    literal."""
    cases = []
    for seed in range(50):
        rng = random.Random(seed)
        variant = ("euclidean", "rectilinear")[seed % 2]
        inst = dd.gen_random(rng.randint(3, 7), 6, seed, k=rng.randint(1, 3),
                             d2=rng.choice([Fraction(1, 4), Fraction(1),
                                            Fraction(2), Fraction(9, 4)]),
                             variant=variant)
        disks = list(inst.disks)
        j = rng.randrange(len(disks))
        p = disks[j]
        x = (dd.quadext(p.x, Fraction(1, 8), 2) if seed % 3 else
             parse_scalar(f"{float(p.x) + 0.17678:.5f}~"))
        disks[j] = dd.Point(x, p.y)
        cases.append(dd.Instance(variant, inst.k, inst.d2, tuple(disks)))
    return cases


def off_scale_cases() -> list[dd.Instance]:
    """4-9 disks in [0, 6]^2, k 1-3, both variants, d2 in {1/4, 1, 9/4},
    each disk's x shifted by 1/p for the next prime p above 2^21."""
    primes = (p for p in itertools.count(2 ** 21 + 1, 2)
              if all(p % q for q in range(3, math.isqrt(p) + 1, 2)))
    cases = []
    for seed in range(24):
        rng = random.Random(seed)
        variant = ("euclidean", "rectilinear")[seed % 2]
        inst = dd.gen_random(rng.randint(4, 9), 6, seed, k=rng.randint(1, 3),
                             d2=rng.choice([Fraction(1, 4), Fraction(1),
                                            Fraction(9, 4)]),
                             variant=variant)
        disks = tuple(dd.Point(p.x + Fraction(1, next(primes)), p.y)
                      for p in inst.disks)
        cases.append(dd.Instance(variant, inst.k, inst.d2, disks))
    return cases


def clause_cases() -> list[dd.Instance]:
    """An 8x8 lattice of pitch 5/2 at d2 = 9/4 with three disks on cell
    edges at k = 5, and with a fourth at k = 7, both no;
    ``shuffled_planted(6, k)`` at k = 11 (no) and 12 (yes)."""
    grid = [dd.Point(Fraction(5 * i, 2), Fraction(5 * j, 2))
            for i in range(8) for j in range(8)]
    edges = [dd.Point(Fraction(5, 4), 0), dd.Point(Fraction(35, 4),
                                                   Fraction(15, 2)),
             dd.Point(15, Fraction(55, 4)),
             dd.Point(Fraction(5, 4), Fraction(25, 2))]
    cases = [dd.Instance("euclidean", k, Fraction(9, 4),
                         tuple(grid + edges[:extra]))
             for extra, k in ((3, 5), (4, 7))]
    return cases + [shuffled_planted(6, 11), shuffled_planted(6, 12)]


def shuffled_planted(t: int, k: int) -> dd.Instance:
    """``planted(1, 20*t, t, k, 9/4, "euclidean")``, t tight triples in a
    sparse packing, with its disks shuffled by ``random.Random(1)``."""
    disks = list(planted(1, 20 * t, t, k, Fraction(9, 4),
                         "euclidean").instance.disks)
    random.Random(1).shuffle(disks)
    return dd.Instance("euclidean", k, Fraction(9, 4), tuple(disks))


def main() -> int:
    rejected = 0
    for name, build in CASES.items():
        for seed in SEEDS:
            rejected += digest(f"{name} seed {seed}",
                               [c.instance for c in build(seed)])
    line, faults = fig7_line()
    print(line)
    rejected += digest("non-rational random", non_rational_cases())
    rejected += digest("grid witnesses",
                       [dd.gen_random(*args) for args in GRID_WITNESS_CASES])
    rejected += digest("off-scale rationals", off_scale_cases())
    rejected += digest("clause cases", clause_cases())
    rejected += digest("far groups", [shuffled_planted(5, 10),
                                      shuffled_planted(8, 15)])
    if rejected:
        faults.append(f"{rejected} yes witnesses fail validation, exact or "
                      "tolerant")
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
