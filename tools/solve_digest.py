"""One digest of every solve on the benchmark's search workloads.

    python3 tools/solve_digest.py

solves the random-small and planted-triples inputs of ``perfbench`` at seeds
1 and 7 with the default ``SolverConfig`` and prints, per workload and seed,
the number of solves and a SHA-256 over each answer's verdict, reason,
witness text and log lines.  A last line gives the SHA-256 of the Fig. 7
grid-tiling instance text and of its witness text.  Two checkouts that
print the same lines gave byte-identical answers.  The inputs come from
``perfbench/workloads.py``, which is imported and never changed; the
library is imported from this checkout's ``src/``.

``tools/solve_digest.txt`` holds the expected output, and CI diffs a fresh
run against it.  A change that alters these outputs on purpose rewrites
that file:

    python3 tools/solve_digest.py > tools/solve_digest.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import diskdispersal as dd  # noqa: E402
import workloads  # noqa: E402

CASES = {"random-small": workloads.random_small_cases,
         "planted-triples": workloads.planted_cases}
SEEDS = (1, 7)


def answer_text(ans: dd.Answer) -> str:
    witness = dd.write_witness(ans.witness) if ans.witness else ""
    return "\n".join([ans.verdict, str(ans.reason), witness, *ans.log])


def digest(cases) -> tuple[int, str]:
    h = hashlib.sha256()
    for case in cases:
        h.update(answer_text(dd.solve(case.instance)).encode())
        h.update(b"\0")
    return len(cases), h.hexdigest()


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


def main() -> int:
    for name, build in CASES.items():
        for seed in SEEDS:
            count, hexdigest = digest(build(seed))
            print(f"{name} seed {seed}: {count} solves, sha256 {hexdigest}")
    print(fig7_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
