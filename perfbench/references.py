"""Reference verdicts of the random-small workload, made by the oracle.

    python3 perfbench/references.py --pool > perfbench/data/random_small_pool.json
    python3 perfbench/references.py --seed 7

``--pool`` draws random instances of 4-12 disks from POOL_SEED and keeps
those that reach the search: the conflict matching
does not decide them, and some conflict survives the kernel.  Each kept
instance gets the verdict of ``oracle`` (delta 1/16), which shares no search
code with ``solve``; an instance the oracle leaves undecided has no
reference and is not kept.  The pool holds PER_STRATUM instances for each
(variant, k, verdict).  The output is always the same.

``--seed N`` makes the references anew for the instances that the benchmark
runs at seed N (the pool moved by that seed's isometries, see
``workloads.random_small_cases``): it runs the oracle on every one of them,
prints the table, and exits 1 if any verdict differs from the pool's.
"""

import argparse
import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction

import library

dd = library.load()
from diskdispersal.kernel import kernelize  # noqa: E402
from diskdispersal.oracle import oracle  # noqa: E402
from diskdispersal.udg import build_graph  # noqa: E402

VARIANTS = ("euclidean", "rectilinear")
KS = (1, 2, 3)
VERDICTS = ("no", "yes")
D2S = (Fraction(1, 4), Fraction(1), Fraction(9, 4), Fraction(4))
PER_STRATUM = 16
POOL_SEED = 0
MAX_DRAWS = 200_000

# Decided by the oracle, but solve spends minutes on them; they stay out so
# that a run ends in time (see the FOUND lines in CHANGES.md).
SLOW = {
    "a6287e78f02d2741": "euclidean k=3 d2=9/4, 7 disks: one stage-3 grid pass "
                        "runs for over 60 s",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def draw(rng: random.Random, variant: str, k: int):
    """One candidate instance, or None when it does not reach the search."""
    n = rng.randint(4, 12)
    d2 = rng.choice(D2S)
    side = max(3, math.isqrt(4 * n) + rng.randint(0, 3))
    inst = dd.gen_random(n, side, rng.getrandbits(32), k, d2, variant)
    kr = kernelize(inst)
    if kr is None or not build_graph(kr[0].disks).edges:
        return None
    return inst


def make_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    want = {(v, k, r): PER_STRATUM for v in VARIANTS for k in KS
            for r in VERDICTS}
    pool = []
    draws = 0
    while any(want.values()):
        for variant in VARIANTS:
            for k in KS:
                if not (want[(variant, k, "no")] or want[(variant, k, "yes")]):
                    continue
                draws += 1
                if draws > MAX_DRAWS:
                    raise SystemExit("references: strata did not fill")
                inst = draw(rng, variant, k)
                if inst is None:
                    continue
                text = dd.write_instance(inst)
                if digest(text) in SLOW:
                    continue
                ref = oracle(inst).verdict
                if ref not in VERDICTS or not want[(variant, k, ref)]:
                    continue
                want[(variant, k, ref)] -= 1
                pool.append({"reference": ref, "instance": text})
    return pool


def anew(seed: int) -> int:
    import workloads
    disagree = 0
    for case in workloads.random_small_cases(seed):
        t0 = time.perf_counter()
        got = oracle(case.instance).verdict
        dt = time.perf_counter() - t0
        mark = "" if got == case.expect else "  DIFFERS"
        disagree += bool(mark)
        print(f"{case.label:10s} {case.instance.variant:11s} "
              f"k={case.instance.k} d2={case.instance.d2!s:5s} "
              f"oracle {got:7s} pool {case.expect:3s} {dt:7.3f}s{mark}")
    print(f"seed {seed}: {disagree} verdicts differ from the pool")
    return 1 if disagree else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pool", action="store_true", help="print the pool")
    mode.add_argument("--seed", type=int,
                      help="make the references anew for this run seed")
    args = ap.parse_args(argv)
    if not args.pool:
        return anew(args.seed)
    json.dump({"seed": POOL_SEED, "oracle_delta": "1/16", "pool": make_pool()},
              sys.stdout, indent=0)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
