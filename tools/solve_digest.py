"""One digest of every solve on the benchmark's search workloads.

    python3 tools/solve_digest.py

solves the random-small and planted-triples inputs of ``perfbench`` at seeds
1 and 7 with the default ``SolverConfig`` and prints, per workload and seed,
the number of solves and a SHA-256 over each answer's verdict, reason,
witness text and log lines.  A last line gives the SHA-256 of the Fig. 7
grid-tiling instance text and of its witness text, and one more line
digests 50 small seeded ``gen_random`` instances whose one coordinate is a
radical or a ``~`` literal, so that their covers have a centre that is not
rational.  Two checkouts that print the same lines gave byte-identical
answers.  Every yes witness of a solve is also validated exactly; the
script exits 1, after its lines, when one is rejected.  The benchmark
inputs come from ``perfbench/workloads.py``, which is imported and never
changed; the library is imported from this checkout's ``src/``.

``tools/solve_digest.txt`` holds the expected output, and CI diffs a fresh
run against it.  A change that alters these outputs on purpose rewrites
that file:

    python3 tools/solve_digest.py > tools/solve_digest.txt
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import diskdispersal as dd  # noqa: E402
import workloads  # noqa: E402
from diskdispersal.numerics import parse_scalar  # noqa: E402

CASES = {"random-small": workloads.random_small_cases,
         "planted-triples": workloads.planted_cases}
SEEDS = (1, 7)


def answer_text(ans: dd.Answer) -> str:
    witness = dd.write_witness(ans.witness) if ans.witness else ""
    return "\n".join([ans.verdict, str(ans.reason), witness, *ans.log])


def digest(instances) -> tuple[int, str, int]:
    """The number of solves, their SHA-256, and the number of yes witnesses
    that ``validate_witness`` rejects."""
    h = hashlib.sha256()
    rejected = 0
    for inst in instances:
        ans = dd.solve(inst)
        if ans.verdict == "yes":
            rejected += not dd.validate_witness(inst, ans.witness).accepted
        h.update(answer_text(ans).encode())
        h.update(b"\0")
    return len(instances), h.hexdigest(), rejected


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fig7_line() -> str:
    spec = workloads.fig7_input(1).spec
    inst = dd.gen_gridtiling(spec)
    w = dd.gridtiling_witness(spec, inst, workloads.FIG7_ROWS,
                              workloads.FIG7_COLS)
    return (f"gridtiling-fig7: instance sha256 "
            f"{sha256(dd.write_instance(inst))}, witness sha256 "
            f"{sha256(dd.write_witness(w))}")


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


def main() -> int:
    rejected = 0
    for name, build in CASES.items():
        for seed in SEEDS:
            count, hexdigest, bad = digest([c.instance for c in build(seed)])
            rejected += bad
            print(f"{name} seed {seed}: {count} solves, sha256 {hexdigest}")
    print(fig7_line())
    count, hexdigest, bad = digest(non_rational_cases())
    rejected += bad
    print(f"non-rational random: {count} solves, sha256 {hexdigest}")
    if rejected:
        print(f"{rejected} yes witnesses fail validation", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
