import hashlib
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from diskdispersal.generators import (
    AppendingInstance,
    gen_appending_frame,
    gen_colocated,
    gen_crosscompose,
    gen_random,
)
from diskdispersal.geometry import Point, dist2, is_packing
from diskdispersal.gridtiling import (
    GeneratorError,
    GridTilingInstance,
    build_layout,
    gen_gridtiling,
    gridtiling_witness,
    parse_gridtiling,
    write_gridtiling,
)
from diskdispersal.instance_io import (
    Instance,
    parse_instance,
    validate_witness,
    write_instance,
    write_witness,
    Witness,
)
from diskdispersal.solver import solve


def P(x, y):
    return Point(F(x), F(y))


FIG7_SETS = {
    (1, 1): frozenset({(1, 1), (1, 2), (2, 1), (3, 3)}),
    (1, 2): frozenset({(2, 2), (2, 3), (3, 2)}),
    (2, 1): frozenset({(1, 1), (1, 3), (2, 2), (3, 1)}),
    (2, 2): frozenset({(2, 3), (3, 1), (3, 3)}),
}
FIG7 = GridTilingInstance(3, 2, FIG7_SETS)
FIG7_SOLUTION = ([2, 3], [1, 3])
KAPPA3_SOLUTION = ([2, 1, 2], [1, 2, 2])
KAPPA3 = GridTilingInstance(2, 3, {
    (i, j): frozenset({(KAPPA3_SOLUTION[0][i - 1], KAPPA3_SOLUTION[1][j - 1]),
                       (1, 1)})
    for i in range(1, 4) for j in range(1, 4)})


class TestSimpleGenerators:
    def test_random_deterministic_per_seed(self):
        a = gen_random(10, 8, seed=42)
        b = gen_random(10, 8, seed=42)
        c = gen_random(10, 8, seed=43)
        assert a == b and a != c

    def test_random_empty(self):
        assert gen_random(0, 5, 1).disks == ()

    def test_colocated_solver_behaviour(self):
        assert solve(gen_colocated(4, 2, 10 ** 6)).verdict == "no"
        assert solve(gen_colocated(1, 0, F(0))).verdict == "yes"


class TestAppendingFrame:
    def test_border_count_and_packing(self):
        # four families of a/2 disks share the four corners: 2a-4 distinct
        frame = gen_appending_frame(216, 1)
        assert len(frame.packing) == 2 * 216 - 4
        assert is_packing(frame.packing) is None

    def test_interior_collision_rejected(self):
        with pytest.raises(ValueError):
            gen_appending_frame(216, 1, [P(1, 1)])

    def test_zero_kappa_valid(self):
        frame = gen_appending_frame(216, 0)
        assert frame.kappa == 0

    def test_interior_accepted(self):
        frame = gen_appending_frame(216, 1, [P(100, 100)])
        assert len(frame.packing) == 2 * 216 - 3

    def test_side_constraints(self):
        with pytest.raises(ValueError):
            gen_appending_frame(215, 1)
        with pytest.raises(ValueError):
            gen_appending_frame(100, 1)


class TestCrossCompose:
    @pytest.mark.parametrize("t,a,kappa", [(3, 216, 2), (5, 240, 3)])
    def test_structure_and_reach_report(self, t, a, kappa):
        frames = [gen_appending_frame(a, kappa) for _ in range(t)]
        inst, report = gen_crosscompose(frames)
        assert report.d == F(9, 4) * t * t * a * a
        assert report.all_ok
        assert inst.k == 2 * kappa + 1
        assert inst.d2 == report.d ** 2
        counts = Counter((d.x, d.y) for d in inst.disks)
        stacks = [n for n in counts.values() if n > 1]
        assert stacks == [kappa + 2]

    def test_round_trip(self):
        frames = [gen_appending_frame(216, 2) for _ in range(3)]
        inst, _ = gen_crosscompose(frames)
        assert parse_instance(write_instance(inst)) == inst

    def test_non_stack_disks_form_packing(self):
        frames = [gen_appending_frame(216, 2) for _ in range(3)]
        inst, _ = gen_crosscompose(frames)
        counts = Counter((d.x, d.y) for d in inst.disks)
        rest = [d for d in inst.disks if counts[(d.x, d.y)] == 1]
        assert is_packing(rest) is None

    def test_preconditions(self):
        frames = [gen_appending_frame(216, 2) for _ in range(2)]
        with pytest.raises(ValueError):
            gen_crosscompose(frames)  # even t
        with pytest.raises(ValueError):
            gen_crosscompose([])
        with pytest.raises(ValueError, match="at least 3"):
            gen_crosscompose(frames[:1])  # one frame has no frame pairs

    def test_explicit_disks_clear_of_fill_block(self):
        frames = [gen_appending_frame(216, 2) for _ in range(3)]
        inst, _ = gen_crosscompose(frames)
        assert len(inst.blocks) == 1
        block = inst.blocks[0]
        for p in inst.disks:
            for q in block.near_points(p, F(2)):
                assert dist2(p, q) >= 4

    def test_empty_witness_rejected_on_stack(self):
        # the co-located stack is the only conflict: doing nothing fails
        frames = [gen_appending_frame(216, 2) for _ in range(3)]
        inst, _ = gen_crosscompose(frames)
        res = validate_witness(inst, Witness({}))
        assert res.status == "reject" and res.reason == "packing"


class TestGridTiling:
    def test_fig7_headline_numbers(self):
        inst = gen_gridtiling(FIG7)
        lay = build_layout(FIG7)
        assert lay.L == 300
        assert lay.d == 5400
        assert inst.d2 == 5400 ** 2
        assert inst.k == 58

    def test_budget_formula_re_derived(self):
        # independent evaluation of the budget sum for kappa=2
        K = 2
        r = [2 * K - i for i in range(1, K + 1)]
        c = [K - j + 2 for j in range(1, K + 1)]
        er = [K - i for i in range(1, K + 1)]
        ec = [K - j + 2 for j in range(1, K + 1)]
        m = [[3 * K - i - 2 * j + 2 for j in range(1, K + 1)]
             for i in range(1, K + 1)]
        assert r == [3, 2] and c == [3, 2] and er == [1, 0] and ec == [3, 2]
        assert m == [[5, 3], [4, 2]]
        k = sum(2 * ri + 1 for ri in r) + sum(3 * cj + 3 for cj in c) + \
            sum(er) + 2 * sum(ec) + sum(sum(row) for row in m)
        assert k == 58
        assert gen_gridtiling(FIG7).k == k

    def test_fig7_witness_validates_exactly(self):
        inst = gen_gridtiling(FIG7)
        w = gridtiling_witness(FIG7, inst, *FIG7_SOLUTION)
        assert len(w.moves) == inst.k
        assert validate_witness(inst, w).status == "accept"
        # the first overlapping pair of the unmoved disks, in lexicographic
        # order: the scan stops there and reports it
        res = validate_witness(inst, Witness({}))
        assert (res.status, res.reason, res.detail) == \
            ("reject", "packing", (35776, 35777))

    def test_non_solution_rejected(self):
        inst = gen_gridtiling(FIG7)
        with pytest.raises(GeneratorError):
            # (2, 1) is not an allowed pair of cell (2, 1)
            gridtiling_witness(FIG7, inst, [2, 2], [1, 3])

    def test_minimal_kappa_one(self):
        gt = GridTilingInstance(2, 1, {(1, 1): frozenset({(1, 2), (2, 1)})})
        inst = gen_gridtiling(gt)
        w = gridtiling_witness(gt, inst, [1], [2])
        assert len(w.moves) == inst.k
        assert validate_witness(inst, w).status == "accept"

    def test_stacks_removed_leaves_packing(self):
        gt = GridTilingInstance(2, 1, {(1, 1): frozenset({(1, 1)})})
        inst = gen_gridtiling(gt)
        counts = Counter((d.x, d.y) for d in inst.disks)
        rest = [d for d in inst.disks if counts[(d.x, d.y)] == 1]
        assert is_packing(rest) is None

    def test_explicit_disks_clear_of_block(self):
        gt = GridTilingInstance(2, 1, {(1, 1): frozenset({(1, 2)})})
        inst = gen_gridtiling(gt)
        assert len(inst.blocks) == 1
        block = inst.blocks[0]
        for p in inst.disks:
            for q in block.near_points(p, F(2)):
                assert dist2(p, q) >= 4

    def test_wall_disk_moved_into_the_fill_hits_the_block(self):
        # the solution plus one move: the rightmost unmoved disk of the
        # first cell's hole, two units right, towards the fill; it clears
        # every disk, so the packing check passes and the block check
        # decides
        gt = GridTilingInstance(2, 1, {(1, 1): frozenset({(1, 2), (2, 1)})})
        inst = gen_gridtiling(gt)
        w = gridtiling_witness(gt, inst, [1], [2])
        block = inst.blocks[0]
        hole = block.holes[0]
        idx = max((i for i, p in enumerate(inst.disks) if i not in w.moves
                   and hole.x0 <= p.x <= hole.x1
                   and hole.y0 <= p.y <= hole.y1),
                  key=lambda i: (inst.disks[i].x, -i))
        p = inst.disks[idx]
        moves = {**w.moves, idx: Point(p.x + 2, p.y)}
        final = [moves.get(i, q) for i, q in enumerate(inst.disks)]
        assert all(dist2(final[idx], q) >= 4
                   for i, q in enumerate(final) if i != idx)
        wider = Instance(inst.variant, inst.k + 1, inst.d2, inst.disks,
                         inst.blocks)
        res = validate_witness(wider, Witness(moves))
        assert (res.status, res.reason, res.detail) == ("reject", "block", idx)
        brute = [(i, r) for i, q in enumerate(final)
                 for r in block.near_points(q, F(2)) if dist2(q, r) < 4]
        assert brute and {i for i, _ in brute} == {idx}
        # validate_witness decides moved disks exactly; on the integer
        # scale, the same hit
        assert block.first_close(final, F(4)) == brute[0]

    def test_adjacent_columns_offset_by_one(self):
        lay = build_layout(FIG7)
        for i in range(1, 3):
            for j in range(1, 2):
                g1 = next(g for key, g in lay.gadgets.items()
                          if key[0] == "pg" and key[1] == i and key[2] == j)
                g2 = next(g for key, g in lay.gadgets.items()
                          if key[0] == "pg" and key[1] == i and key[2] == j + 1)
                band = lambda g: g.payload_y(0) - g.y0
                assert abs(band(g1) - band(g2)) == 1

    def test_round_trip(self):
        gt = GridTilingInstance(2, 1, {(1, 1): frozenset({(1, 2)})})
        inst = gen_gridtiling(gt)
        assert parse_instance(write_instance(inst)) == inst

    def test_text_format_round_trip(self):
        text = write_gridtiling(FIG7)
        assert parse_gridtiling(text) == FIG7

    @pytest.mark.parametrize("text, line, tok", [
        ("2 1\n1 1: 1_1,1\n", 2, "1_1,1"),
        ("\u0663 2\n", 1, "\u0663"),
        ("2 1\n1 1: 1, 1\n", 2, "1,"),
    ])
    def test_text_format_integer_grammar(self, text, line, tok):
        with pytest.raises(GeneratorError,
                           match=re.escape(f"line {line}: bad") + ".*"
                           + re.escape(repr(tok))):
            parse_gridtiling(text)

    def test_fig7_coordinates_are_shared_fractions(self):
        # the witness check of the benchmark needs Fraction coordinates;
        # the generator and the parser build each distinct value once
        inst = gen_gridtiling(FIG7)
        for disks in (inst.disks, parse_instance(write_instance(inst)).disks):
            coords = [v for p in disks for v in (p.x, p.y)]
            assert all(type(v) is F for v in coords)
            assert len({id(v) for v in coords}) == len(set(coords))

    @pytest.mark.parametrize("cell", [(7, 7), (0, 1), (1, 2), (2, 0)])
    def test_cell_outside_kappa_rejected(self, cell):
        # the writer emits only cells 1..kappa, so a kept stray cell would
        # change the instance on a text round trip
        sets = {(1, 1): frozenset({(1, 2), (2, 1)}), cell: frozenset({(1, 1)})}
        with pytest.raises(GeneratorError, match="outside"):
            GridTilingInstance(2, 1, sets)
        i, j = cell
        with pytest.raises(GeneratorError, match="outside"):
            parse_gridtiling(f"2 1\n1 1: 1,2 2,1\n{i} {j}: 1,1\n")

    def test_odd_kappa_witness_builds(self):
        # kappa=3 exercises the opposite emptying-row parity branch; the
        # builder itself asserts axis-parallelism, move lengths and the
        # slot bookkeeping (full validation of this size runs in the
        # generator stress sweep, not here)
        inst = gen_gridtiling(KAPPA3)
        w = gridtiling_witness(KAPPA3, inst, *KAPPA3_SOLUTION)
        assert len(w.moves) == inst.k == 129

    def test_all_moves_axis_parallel_within_budget(self):
        inst = gen_gridtiling(FIG7)
        w = gridtiling_witness(FIG7, inst, *FIG7_SOLUTION)
        from diskdispersal.kernel import derived_d
        d = derived_d(inst.d2)
        for idx, target in w.moves.items():
            src = inst.disks[idx]
            dx, dy = abs(src.x - target.x), abs(src.y - target.y)
            assert dx == 0 or dy == 0
            assert max(dx, dy) <= d


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestOutputBytes:
    """The generators' instance and witness texts, pinned byte for byte."""

    @pytest.mark.parametrize("gt, solution, inst_sha, witness_sha", [
        (FIG7, FIG7_SOLUTION,
         "811ee0bf2e9c2d80d67d97201f204d966de302f975f16594e9678c8b37df091f",
         "346f587dd2a93195ad1ead7f4f2a4f26bdb35aa6dd3c6518ead88f05a7c5ce04"),
        (KAPPA3, KAPPA3_SOLUTION,
         "a5b733645354eb56a5d2dba1ce0c844ce5ae463eb921795f9a63a030a06a27c1",
         "6f2388f302037a811f1b8e0ca7e32beffd855cafa6aae4144522ac46587857e9"),
    ])
    def test_gridtiling(self, gt, solution, inst_sha, witness_sha):
        inst = gen_gridtiling(gt)
        assert _sha256(write_instance(inst)) == inst_sha
        w = gridtiling_witness(gt, inst, *solution)
        assert _sha256(write_witness(w)) == witness_sha

    @pytest.mark.parametrize("t, a, kappa, sha", [
        (3, 216, 2,
         "8cf506505e945fbba69780d2f41a1007d190affdae230953bf25a3d452e97393"),
        (5, 240, 3,
         "37df52794bc02bca07640c1964c5e49eef4973c6548f17f7b2e12e210e819977"),
        (3, 216, 1,
         "e454a314ee6099c7949c49973e07f413d6e34e1351f99f3ee6fff60c189db70f"),
    ])
    def test_crosscompose(self, t, a, kappa, sha):
        frames = [gen_appending_frame(a, kappa) for _ in range(t)]
        inst, _ = gen_crosscompose(frames)
        assert _sha256(write_instance(inst)) == sha
