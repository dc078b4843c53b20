"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

import diskdispersal as dd
from diskdispersal.geometry import Point, dist2, is_packing
from diskdispersal.gridtiling import GridTilingInstance, build_layout
from diskdispersal.kernel import derived_d, full_kernel, kernelize, size_bound
from diskdispersal.oracle import oracle
from diskdispersal.solver import SolverConfig, solve
from diskdispersal.udg import approx_vc, build_graph
from diskdispersal.instance_io import Instance, validate_witness


def P(x, y):
    return Point(F(x), F(y))


def report(num: int, desc: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def fig1(k, d2, variant="euclidean"):
    return Instance(variant, k, F(d2), (P(0, 0), P(1, 0), P(2, 0)))


# ---------------------------------------------------------------------------
# shared corpora (module-scoped so criteria 2/3/5 reuse one sweep)

def _random_corpus():
    out = []
    for seed in range(200):
        n = 4 + (seed * 7) % 22
        side = max(4, int((n * 4) ** 0.5) + (seed % 7))
        k = 1 + seed % 3
        d2 = [F(1), F(9, 4), F(4), F(9)][seed % 4]
        out.append(dd.gen_random(n, side, seed, k, d2))
    return out


def _curated_small_suite():
    out = []
    for s in range(30):
        n = 3 + s % 8
        side = max(3, int((n * 3) ** 0.5) + s % 4)
        k = 1 + s % 2
        d2 = [F(1), F(4), F(9, 4), F(1, 4)][s % 4]
        variant = "euclidean" if s % 2 == 0 else "rectilinear"
        out.append(dd.gen_random(n, side, 1000 + s, k, d2, variant))
    for variant in ("euclidean", "rectilinear"):
        out.append(Instance(variant, 1, F(3), (P(0, 0), P(1, 0), P(2, 0))))
        out.append(Instance(variant, 1, F(1, 4), (P(0, 0), P(1, 0), P(2, 0))))
        out.append(dd.gen_colocated(3, 1, F(36), variant))
        out.append(dd.gen_colocated(3, 2, F(36), variant))
        out.append(dd.gen_colocated(4, 2, F(64), variant))
        out.append(Instance(variant, 0, F(1), (P(0, 0), P(2, 0), P(4, 0))))
        out.append(Instance(variant, 1, F(4), (P(0, 0), P(1, 0))))
        out.append(Instance(variant, 2, F(1),
                            (P(0, 0), P(F(1, 2), 0), P(1, 0))))
        out.append(Instance(variant, 1, F(2),
                            (P(0, 0), P(1, 0), P(F(5, 2), 0), P(4, 0))))
        out.append(Instance(variant, 2, F(9),
                            (P(0, 0), P(0, 1), P(1, 0), P(8, 8))))
    return out[:50]


@pytest.fixture(scope="module")
def corpus_runs():
    runs = []
    for inst in _random_corpus():
        kr = kernelize(inst)
        runs.append((inst, kr))
    return runs


FIG7_SETS = {
    (1, 1): frozenset({(1, 1), (1, 2), (2, 1), (3, 3)}),
    (1, 2): frozenset({(2, 2), (2, 3), (3, 2)}),
    (2, 1): frozenset({(1, 1), (1, 3), (2, 2), (3, 1)}),
    (2, 2): frozenset({(2, 3), (3, 1), (3, 3)}),
}


# ---------------------------------------------------------------------------

def test_criterion_1_tangency_family():
    """Tight triple (0,0),(1,0),(2,0) with k=1: the threshold is d = sqrt(3).

    The conflicts are 0-1 and 1-2 (disks 0 and 2 touch, which is allowed),
    so the only size-1 cover is the middle disk.  A target at distance >= 2
    from both (0,0) and (2,0) has |y| >= sqrt(3), so the middle disk must
    move at least sqrt(3): yes at d2=3 with an exact witness, no at d2=1 and
    at d2=1/4, each refuted by both the solver and the oracle.
    """
    t0 = time.time()
    a3 = solve(fig1(1, 3))
    t3 = time.time() - t0
    ok3 = a3.verdict == "yes" and t3 < 1.0 and \
        validate_witness(fig1(1, 3), a3.witness).status == "accept"

    t0 = time.time()
    a1 = solve(fig1(1, 1))
    o1 = oracle(fig1(1, 1), F(1, 16))
    t1 = time.time() - t0
    ok1 = a1.verdict == "no" and o1.verdict == "no" and t1 < 1.0

    t0 = time.time()
    aq = solve(fig1(1, F(1, 4)), SolverConfig(delta=F(1, 16)))
    oq = oracle(fig1(1, F(1, 4)), F(1, 16))
    tq = time.time() - t0
    okq = aq.verdict == "no" and oq.verdict == "no" and tq < 1.0

    ok = ok3 and ok1 and okq
    report(1, f"tight triple: d2=3 {a3.verdict}, "
              f"d2=1 {a1.verdict}/{o1.verdict}, "
              f"d2=1/4 {aq.verdict}/{oq.verdict}", ok)
    assert ok3, "d2=3 must be yes with an exactly validating witness"
    assert okq, "d2=1/4 must be refuted by both engines"
    assert ok1, ("d2=1 must be refuted by both engines: the middle disk "
                 "needs a move of sqrt(3) > 1")


def test_criterion_2_kernel_equivalence(corpus_runs):
    agree = True
    determinate = 0
    total = 0
    t0 = time.time()
    for inst, kr in corpus_runs:
        total += 1
        a = solve(inst)
        if kr is None:
            b_verdict = "no"
        else:
            b_verdict = solve(kr[0]).verdict
        c_verdict = solve(full_kernel(inst)).verdict
        verdicts = (a.verdict, b_verdict, c_verdict)
        if "unknown" not in verdicts:
            determinate += 1
            if len(set(verdicts)) != 1:
                agree = False
    elapsed = time.time() - t0
    frac_det = determinate / total
    ok = agree and frac_det >= 0.95 and elapsed < 600
    report(2, f"kernel equivalence on {total} instances: "
              f"{determinate} determinate ({frac_det:.0%}), "
              f"agree={agree}, {elapsed:.0f}s", ok)
    assert ok


def test_criterion_3_kernel_size_bound(corpus_runs):
    ok = True
    checked = 0
    for inst, kr in corpus_runs:
        if kr is None:
            continue
        _, rep = kr
        checked += 1
        if len(rep.kept) > rep.size_bound:
            ok = False
        if rep.size_bound != size_bound(inst.k, rep.d_bound):
            ok = False
    report(3, f"|kept| <= size bound on {checked} kernelizations", ok)
    assert ok


def test_criterion_4_shrinking_exactness():
    rng = random.Random(77)
    ok = True
    for trial in range(100):
        n = rng.randint(2, 12)
        disks = [P(F(rng.randint(-2000, 2000), 4),
                   F(rng.randint(-2000, 2000), 4)) for _ in range(n)]
        idx = list(range(n))
        rng.shuffle(idx)
        nparts = rng.randint(2, min(4, n))
        parts = [idx[i::nparts] for i in range(nparts)]
        parts = [p for p in parts if p]
        r = F(rng.randint(1, 12))
        out = dd.shrink_parts(disks, parts, r)
        for part in parts:
            for a, b in itertools.combinations(part, 2):
                if dist2(disks[a], disks[b]) != dist2(out[a], out[b]):
                    ok = False
        for pa, pb in itertools.combinations(range(len(parts)), 2):
            for a in parts[pa]:
                for b in parts[pb]:
                    if not dist2(out[a], out[b]) > r * r:
                        ok = False
    report(4, "100 multi-part shrinks: intra exact, inter > r^2", ok)
    assert ok


def test_criterion_5_vertex_cover_quality():
    ok = True
    graphs = 0
    for inst in _curated_small_suite():
        if len(inst.disks) > 12:
            continue
        g = build_graph(inst.disks)
        graphs += 1
        cover = approx_vc(g, g.n)
        cs = set(cover)
        if not all(i in cs or j in cs for i, j in g.edges):
            ok = False
        opt = None
        for size in range(g.n + 1):
            for combo in itertools.combinations(range(g.n), size):
                s = set(combo)
                if all(i in s or j in s for i, j in g.edges):
                    opt = size
                    break
            if opt is not None:
                break
        if len(cover) > 2 * opt:
            ok = False
        if len(cover) % 2 != 0 or len(cover) // 2 > opt:
            ok = False
    report(5, f"greedy cover valid and within 2x optimum on {graphs} graphs",
           ok)
    assert ok


def test_criterion_6_composition_reach_report():
    t0 = time.time()
    ok = True
    for (t, a, kappa) in ((3, 216, 2), (5, 240, 3)):
        frames = [dd.gen_appending_frame(a, kappa) for _ in range(t)]
        inst, rep = dd.gen_crosscompose(frames)
        if not rep.all_ok:
            ok = False
        if inst.k != 2 * kappa + 1:
            ok = False
        counts = Counter((d.x, d.y) for d in inst.disks)
        if [n for n in counts.values() if n > 1] != [kappa + 2]:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(6, f"composition reach inequalities exact, budget and stack "
              f"sizes correct ({elapsed:.0f}s)", ok)
    assert ok


def test_criterion_7_gridtiling_reduction():
    t0 = time.time()
    gt = GridTilingInstance(3, 2, FIG7_SETS)
    lay = build_layout(gt)
    inst = dd.gen_gridtiling(gt)
    ok = lay.L == 300 and lay.d == 5400 and inst.k == 58 \
        and inst.d2 == 5400 ** 2

    # the budget, re-derived independently from the per-family counts
    K = 2
    expect_k = (sum(2 * (2 * K - i) + 1 for i in (1, 2))
                + sum(3 * (K - j + 2) + 3 for j in (1, 2))
                + sum(K - i for i in (1, 2))
                + 2 * sum(K - j + 2 for j in (1, 2))
                + sum(3 * K - i - 2 * j + 2 for i in (1, 2) for j in (1, 2)))
    ok = ok and expect_k == 58

    w = dd.gridtiling_witness(gt, inst, [2, 3], [1, 3])
    ok = ok and len(w.moves) == inst.k
    res = validate_witness(inst, w)
    ok = ok and res.status == "accept"
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    report(7, f"grid tiling: L=300 d=5400 k=58, witness of {len(w.moves)} "
              f"moves validates {res.status} ({elapsed:.0f}s)", ok)
    assert ok


def test_criterion_8_oracle_agreement():
    t0 = time.time()
    suite = _curated_small_suite()
    contradictions = 0
    disagreements = 0
    determinate_pairs = 0
    for inst in suite:
        s = solve(inst)
        o = oracle(inst, F(1, 16))
        if {s.verdict, o.verdict} == {"yes", "no"}:
            contradictions += 1
        if "unknown" not in (s.verdict, o.verdict):
            determinate_pairs += 1
            if s.verdict != o.verdict:
                disagreements += 1
    elapsed = time.time() - t0
    ok = contradictions == 0 and disagreements == 0 and elapsed < 900
    report(8, f"oracle agreement on {len(suite)} instances: "
              f"{determinate_pairs} determinate pairs, "
              f"{contradictions} contradictions ({elapsed:.0f}s)", ok)
    assert ok


def test_criterion_9_variant_ordering():
    ok = True
    # every rectilinear yes witness in the corpus revalidates euclidean-ly
    checked = 0
    for inst in _curated_small_suite():
        if inst.variant != "rectilinear":
            continue
        a = solve(inst)
        if a.verdict != "yes":
            continue
        checked += 1
        eu = Instance("euclidean", inst.k, inst.d2, inst.disks, inst.blocks)
        if validate_witness(eu, a.witness).status != "accept":
            ok = False
    # co-located stacks: m disks need m-1 moves, never m-2
    for m in (3, 4, 5):
        d2 = F((2 * m) ** 2)
        for variant in ("euclidean", "rectilinear"):
            if solve(dd.gen_colocated(m, m - 2, d2, variant)).verdict != "no":
                ok = False
            a = solve(dd.gen_colocated(m, m - 1, d2, variant))
            if a.verdict != "yes":
                ok = False
    report(9, f"variant ordering: {checked} rectilinear witnesses revalidate; "
              f"stack thresholds m-1/m-2 behave", ok)
    assert ok


def test_criterion_10_packing_density_bound():
    rng = random.Random(5150)
    packings = []

    frame = dd.gen_appending_frame(216, 1)
    packings.append(("frame", list(frame.packing), ()))

    gt = GridTilingInstance(2, 1, {(1, 1): frozenset({(1, 2)})})
    ginst = dd.gen_gridtiling(gt)
    counts = Counter((d.x, d.y) for d in ginst.disks)
    rest = [d for d in ginst.disks if counts[(d.x, d.y)] == 1]
    packings.append(("gridtiling", rest, ginst.blocks))

    frames = [dd.gen_appending_frame(216, 2) for _ in range(3)]
    xinst, _ = dd.gen_crosscompose(frames)
    counts = Counter((d.x, d.y) for d in xinst.disks)
    rest = [d for d in xinst.disks if counts[(d.x, d.y)] == 1]
    packings.append(("composition", rest, xinst.blocks))

    ok = True
    for name, disks, blocks in packings:
        xs = sorted(float(d.x) for d in disks)
        ys = sorted(float(d.y) for d in disks)
        for _ in range(100):
            r = rng.choice((3, 5, 10))
            cx = F(round(rng.uniform(xs[0], xs[-1]) * 4), 4)
            cy = F(round(rng.uniform(ys[0], ys[-1]) * 4), 4)
            centre = Point(cx, cy)
            lim = F((r - 1) ** 2)
            count = sum(1 for sq in (dist2(centre, d) for d in disks)
                        if isinstance(sq, F) and sq <= lim)
            for b in blocks:
                for q in b.near_points(centre, F(r)):
                    if dist2(centre, q) <= lim:
                        count += 1
            if count > r * r:
                ok = False
    report(10, "unit disks inside any radius-r query stay under r^2", ok)
    assert ok
