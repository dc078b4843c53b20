"""The benchmark's own tests:  python3 -m pytest perfbench/tests -q"""

import dataclasses
import json
from fractions import Fraction as F

import pytest

import diskdispersal as dd
from diskdispersal.geometry import Point
from diskdispersal.numerics import quadext

import exact
import layers
import planted
import run
import workloads

BENCHMARK = json.loads((run.library.ROOT / "BENCHMARK.json").read_text())

SHAPES = [(60, 1, 1, F(1)), (150, 1, 2, F(2)), (100, 2, 3, F(1)),
          (100, 2, 4, F(9, 4))]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("variant", ["euclidean", "rectilinear"])
@pytest.mark.parametrize("n_bg,t,k,d2", SHAPES)
def test_planted_keeps_its_clearances(seed, variant, n_bg, t, k, d2):
    p = planted.planted(seed, n_bg, t, k, d2, variant)
    inst = p.instance
    assert len(inst.disks) == 3 * t + n_bg
    assert p.answer == ("yes" if k == 2 * t else "no")
    triple_disks = {i for tr in p.triples for i in tr}
    for a, b, c in p.triples:
        origin = inst.disks[a]
        assert [inst.disks[i] for i in (a, b, c)] == [
            Point(origin.x + dx, origin.y) for dx in (0, 1, 2)]
    keep_out = [inst.disks[i] for i in triple_disks]
    keep_out += [Point(inst.disks[a].x + dx, inst.disks[a].y)
                 for a, _, _ in p.triples for dx in (-1, 3)]
    background = [q for i, q in enumerate(inst.disks) if i not in triple_disks]
    for q in background:
        for r in keep_out:
            assert dd.dist2(q, r) >= planted.CLEAR ** 2
    # the background is a packing with room to spare
    assert exact.packing_violation(
        [(int(4 * q.x), int(4 * q.y)) for q in background], 4 * 2 + 1) is None
    # triples are a whole block apart
    mids = [inst.disks[b] for _, b, _ in p.triples]
    for i in range(len(mids)):
        for j in range(i + 1, len(mids)):
            assert abs(mids[i].x - mids[j].x) >= 2 * planted.CLEAR


@pytest.mark.parametrize("variant", ["euclidean", "rectilinear"])
def test_planted_witness_passes_the_checker(variant):
    p = planted.planted(5, 100, 2, 4, F(1), variant)
    assert exact.check_witness(p.instance, p.witness) is None
    assert dd.validate_witness(p.instance, dd.Witness(p.witness)).accepted
    # the same moves exceed the budget of the no-instance
    q = planted.planted(5, 100, 2, 3, F(1), variant)
    assert "budget" in exact.check_witness(q.instance, p.witness)


def test_checker_rejects_a_nudged_target():
    p = planted.planted(3, 60, 1, 2, F(1), "euclidean")
    moves = dict(p.witness)
    left = min(moves)
    t = moves[left]
    moves[left] = Point(t.x + F(1, 4), t.y)   # towards the middle disk
    assert "overlap" in exact.check_witness(p.instance, moves)
    moves[left] = Point(t.x - F(1, 4), t.y)   # away: the move is too long
    assert "longer than d" in exact.check_witness(p.instance, moves)


def test_checker_decides_tangency_with_radicals():
    # the tight triple with d2 = 3: the middle disk goes to (1, sqrt 3),
    # touching both ends exactly
    inst = dd.Instance("euclidean", 1, F(3),
                       (Point(F(0), F(0)), Point(F(1), F(0)), Point(F(2), F(0))))
    up = Point(F(1), quadext(0, 1, 3))
    assert exact.check_witness(inst, {1: up}) is None
    nudged = Point(F(1), quadext(F(-1, 1000), 1, 3))
    assert "overlap" in exact.check_witness(inst, {1: nudged})
    # the library finds a witness of its own; the checker agrees with it
    answer = dd.solve(inst)
    assert answer.verdict == "yes"
    assert exact.check_witness(inst, answer.witness.moves) is None


def test_sign_of_sums_of_radicals():
    r = lambda c: exact.num(quadext(0, 1, c))  # noqa: E731
    # sqrt 2 + sqrt 3 = 3.1462... < sqrt 10 = 3.1623...
    assert exact.sign(exact.sub(exact.add(r(2), r(3)), r(10))) == -1
    # (sqrt 2 + sqrt 3)^2 = 5 + 2 sqrt 6 exactly
    s = exact.add(r(2), r(3))
    assert exact.sign(exact.sub(exact.mul(s, s),
                                exact.add({1: F(5)}, exact.mul({1: F(2)}, r(6))))) == 0
    assert exact.sign(exact.sub(r(F(9, 4)), {1: F(3, 2)})) == 0


def test_moved_copies_keep_the_reference():
    cases = workloads.random_small_cases(11)
    pool = json.loads(workloads.POOL.read_text())["pool"]
    assert len(cases) == len(pool)
    for case in cases[:12]:
        rec = pool[int(case.label[5:-1])]
        assert case.expect == rec["reference"]
        assert dd.oracle(case.instance).verdict == rec["reference"]


def test_fig7_formulas():
    fig = workloads.fig7_input(0)
    assert (fig.L, fig.d, fig.k) == (300, 5400, 58)


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("traced", [False, True])
def test_printed_metric_names_match_benchmark_json(monkeypatch, capsys, traced):
    small = workloads.WORKLOADS["random-small"]
    monkeypatch.setitem(workloads.WORKLOADS, "random-small", dataclasses.replace(
        small, make=lambda seed: small.make(seed)[:8]))
    report = run.measure("random-small", 1, 0, traced)
    section = "per_layer" if traced else "end_to_end"
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == 8 * (2 if traced else 1)
    assert {k: m["unit"] for k, m in report["metrics"].items()} == \
        _declared(section)
    printed = capsys.readouterr().out
    for name in _declared(section):
        assert f"  {name} " in printed


def _few_random_small(monkeypatch, **changes):
    small = workloads.WORKLOADS["random-small"]
    monkeypatch.setitem(workloads.WORKLOADS, "random-small", dataclasses.replace(
        small, make=lambda seed: small.make(seed)[:4], **changes))
    return small


def test_a_check_that_raises_fails_one_operation(monkeypatch):
    small = workloads.WORKLOADS["random-small"]

    def check(cases, op):
        if op[0] is cases[0]:
            raise ValueError("malformed record")
        return small.check(cases, op)

    _few_random_small(monkeypatch, check=check)
    report = run.measure("random-small", 1, 0, False)
    assert report["correct"]
    assert (report["attempted"], report["failed"]) == (4, 1)


def test_a_traced_round_that_differs_is_incorrect(monkeypatch):
    small = workloads.WORKLOADS["random-small"]

    def round_(cases, meter, repeat=True):
        rnd = small.round(cases, meter, repeat)
        if not repeat:                  # traced rounds call once
            rnd.outputs[0] = ("changed",)
        return rnd

    _few_random_small(monkeypatch, round=round_)
    report = run.measure("random-small", 1, 0, True)
    assert not report["correct"]
    assert report["failed"] == 1


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"] for m in BENCHMARK["per_layer"]} == \
        {name for name, _ in layers.METRICS} | {run.OVERHEAD[0]}
