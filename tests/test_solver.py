import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from ast import literal_eval
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from diskdispersal import geometry, solver
from diskdispersal.geometry import (
    FOUR, Point, dist2, scale_points, within_move)
from diskdispersal.instance_io import (
    Instance,
    Witness,
    validate_witness,
    write_instance,
    write_witness,
)
from diskdispersal.kernel import derived_d, kernelize
from diskdispersal.numerics import Ordering, compare, parse_scalar, quadext
from diskdispersal.oracle import GuardError, oracle
from diskdispersal.solver import (
    Answer,
    SolverConfig,
    enumerate_candidate_sets,
    feasibility,
    solve,
)
from diskdispersal.udg import build_graph
from diskdispersal.generators import gen_colocated, gen_random


def P(x, y):
    return Point(F(x), F(y))


def moved_set(fixed, movables, d2, variant):
    """``feasibility``'s instance and members for a set given as its fixed
    disks and its movables: the fixed disks first, then the movables."""
    inst = Instance(variant, len(movables), d2, (*fixed, *movables))
    return inst, list(range(len(fixed), len(inst.disks)))


def on_frame(frame, p):
    """The rational point p as a candidate tuple of ``frame``."""
    x, y = p.x * frame.M, p.y * frame.M
    e = math.lcm(x.denominator, y.denominator)
    return solver._pt(int(x * e), int(y * e), 0, 0, e, 0)


def fig1(k, d2, variant="euclidean"):
    return Instance(variant, k, F(d2), (P(0, 0), P(1, 0), P(2, 0)))


def edge_clauses(inst):
    """The clauses ({}, {i, j}) of the conflict edges of ``inst``, the
    list that ``solve`` starts with."""
    return [(frozenset(), frozenset(e)) for e in build_graph(inst.disks).edges]


def covers(disks, k, d2=F(1)):
    """The sets that the edge clauses of the Euclidean instance on
    ``disks`` alone give, no clause being added."""
    inst = Instance("euclidean", k, d2, tuple(disks))
    return list(enumerate_candidate_sets(edge_clauses(inst), k))


def all_covers(inst):
    """Every cover of at most ``inst.k`` disks of ``inst``, by size and
    then lexicographic."""
    edges = build_graph(inst.disks).edges
    return [list(c) for size in range(inst.k + 1)
            for c in itertools.combinations(range(len(inst.disks)), size)
            if all(i in c or j in c for i, j in edges)]


def violates(cand, clause):
    """Whether the set ``cand`` holds all of S and none of N, for the
    clause (S, N)."""
    s, n = clause
    return s <= set(cand) and n.isdisjoint(cand)


class TestEnumerateCandidateSets:
    def test_edgeless_yields_only_the_empty_set(self):
        assert covers([P(0, 0), P(4, 0)], 1, F(4)) == [[]]

    def test_single_edge_covers(self):
        assert covers([P(0, 0), P(1, 0)], 1) == [[0], [1]]

    def test_triangle_needs_two(self):
        triangle = [P(0, 0), P(1, 0), P(F(1, 2), F(1, 2))]
        assert covers(triangle, 1) == []
        assert covers(triangle, 2) == [[0, 1], [0, 2], [1, 2]]

    def test_branches_on_the_first_violated_clause(self):
        # edges (0, 1) and (1, 2): [0] violates (1, 2), and the branch of
        # disk 1 bans disk 0, so [1] already violates none
        assert covers([P(0, 0), P(1, 0), P(2, 0)], 2) == [[0, 1], [0, 2],
                                                          [1]]
        assert covers([P(0, 0), P(1, 0), P(2, 0)], 1) == [[1]]

    def test_a_banned_disk_is_never_added(self):
        # below [1], disk 0 is banned: the clause "if 1 moves, 0 moves"
        # ends that branch, and [0, 1], yielded before, comes no more
        inst = fig1(2, 1)
        clauses = edge_clauses(inst)
        got = []
        for cand in enumerate_candidate_sets(clauses, 2):
            got.append(cand)
            if cand == [1]:
                clauses.append((frozenset([1]), frozenset([0])))
        assert got == [[0, 1], [0, 2], [1]]

    def test_a_clause_appended_after_a_yield_is_searched(self):
        # [1] refuted with N = {0, 2}: the search goes on from [1], with
        # disk 0 banned, to [1, 2]
        clauses = edge_clauses(fig1(2, 1))
        got = []
        for cand in enumerate_candidate_sets(clauses, 2):
            got.append(cand)
            clauses.append((frozenset(cand), frozenset({0, 1, 2}) - {*cand}))
        assert got == [[0, 1], [0, 2], [1], [1, 2]]

    def test_random_clauses_against_brute_force(self):
        # a driver like ``solve``: a yielded set is feasible when it is in a
        # hidden family of covers, and otherwise gets a clause that it
        # violates and that every feasible set satisfies.  No set comes
        # twice or violates a clause listed when it is yielded, and a
        # feasible set is found exactly when the family has one within k
        rng = random.Random(20261021)
        found = 0
        for trial in range(400):
            n = rng.randint(1, 7)
            k = rng.randint(0, n)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.3]
            feasible = [set(c) for size in range(n + 1)
                        for c in itertools.combinations(range(n), size)
                        if all(i in c or j in c for i, j in edges)
                        and rng.random() < 0.1]
            clauses = [(frozenset(), frozenset(e)) for e in edges]
            # the edge clauses alone: each cover within k holds a yielded
            # set, and each yielded set is a cover, yielded once
            plain = list(enumerate_candidate_sets(list(clauses), k))
            assert len({tuple(c) for c in plain}) == len(plain), trial
            assert all(all(i in c or j in c for i, j in edges)
                       for c in plain), trial
            assert all(any(set(c) <= f for c in plain)
                       for f in map(set, itertools.chain.from_iterable(
                           itertools.combinations(range(n), size)
                           for size in range(k + 1)))
                       if all(i in f or j in f for i, j in edges)), trial
            seen = []
            hit = None
            for cand in enumerate_candidate_sets(clauses, k):
                assert cand == sorted(set(cand)) and len(cand) <= k
                assert cand not in seen, trial
                assert not any(violates(cand, c) for c in clauses), trial
                seen.append(cand)
                b = set(cand)
                if b in feasible:
                    hit = b
                    break
                s = set(rng.sample(cand, rng.randint(0, len(cand))))
                if any(s <= f <= b for f in feasible):
                    s = b
                ns = {rng.choice(sorted(f - b)) for f in feasible if s <= f}
                ns |= {j for j in range(n) if j not in b
                       and rng.random() < 0.2}
                clauses.append((frozenset(s), frozenset(ns)))
            assert (hit is not None) == any(len(f) <= k for f in feasible), \
                trial
            found += hit is not None
        assert 50 < found < 350

    def test_undecided_distance_counts_as_near_in_a_clause(self):
        # disk 2's centre 4.000000000~ is within d + 2 = 3 of disk 1's only
        # as far as its enclosure tells: it is a near fixed disk of [1],
        # which the walk cannot place, and it is in the unknown's clause
        x = parse_scalar("4.000000000~")
        inst = Instance("euclidean", 2, F(1), (P(0, 0), P(1, 0),
                                               Point(x, F(0))))
        res = feasibility(inst, [1])
        assert (res.status, res.reason) == ("unknown", "non-rational centers")
        assert res.read == {0, 2}
        # and so is a member's: the unknown [2] reads disk 1
        assert feasibility(inst, [2]).read == {1}

    def test_a_tilde_disk_near_a_member_is_a_yes(self):
        # with disk 1 moved to (2, 0), the undecided disk 2 stays fixed
        x = parse_scalar("4.000000000~")
        inst = Instance("euclidean", 2, F(1), (P(0, 0), P(1, 0),
                                               Point(x, F(0))))
        ans = solve(inst)
        assert str(ans) == "yes (1 moves)"
        assert validate_witness(inst, ans.witness).accepted


class TestFeasibility:
    def test_tangency_candidate_found(self):
        res = feasibility(*moved_set([P(0, 0), P(2, 0)], [P(1, 0)], F(3),
                                     "euclidean"))
        assert res.status == "feasible"
        target = res.assignment[0]
        assert target.x == F(1)
        assert target.y * target.y == F(3)  # lands at (1, +-sqrt(3))

    def test_no_motion_possible(self):
        # refuted by stage 1's lone-member test, not by a grid
        res = feasibility(*moved_set([P(0, 0)], [P(1, 0)], F(0), "euclidean"))
        assert res.status == "infeasible"
        assert res.member == 0 and res.reason == solver.NO_PLACE
        assert res.delta is None

    def test_empty_movables(self):
        res = feasibility(*moved_set([P(0, 0), P(2, 0)], [], F(1),
                                     "euclidean"))
        assert res.status == "feasible" and res.assignment == {}

    def test_rectilinear_axis_solution(self):
        res = feasibility(*moved_set([P(0, 0), P(2, 0)], [P(1, 0)], F(3),
                                     "rectilinear"))
        assert res.status == "feasible"
        t = res.assignment[0]
        assert t.x == F(1)  # vertical slide

    # disks [m1, f1, m0, f2]: both members move, a lone-member refutation
    # of slot 1, and a grid refutation
    @pytest.mark.parametrize("variant, d2, disks", [
        ("euclidean", F(4), [P(F(1, 2), 1), P(F(1, 4), F(5, 4)),
                             P(1, F(9, 4)), P(F(9, 4), 0)]),
        ("rectilinear", F(1), [P(0, F(11, 4)), P(F(3, 4), F(3, 2)),
                               P(1, F(1, 2)), P(3, F(3, 2))]),
        ("euclidean", F(9, 4), [P(2, 0), P(1, F(5, 2)), P(3, F(1, 2)),
                                P(F(9, 4), 0)]),
        ("rectilinear", F(9, 4), [P(1, F(1, 4)), P(3, F(1, 4)),
                                  P(F(5, 2), 0), P(F(5, 4), F(11, 4))]),
    ])
    def test_members_in_any_order_and_place(self, variant, d2, disks):
        m1, f1, m0, f2 = disks
        inst = Instance(variant, 2, d2, tuple(disks))
        res = feasibility(inst, [2, 0])
        other, members = moved_set([f1, f2], [m0, m1], d2, variant)
        want = feasibility(other, members)
        assert replace(res, read=None) == replace(want, read=None)
        # a refutation reads the same fixed disks, each instance indexing
        # them in its own order
        assert ({inst.disks[j] for j in res.read or ()}
                == {other.disks[j] for j in want.read or ()})
        if res.status == "feasible":
            moves = {m: res.assignment[i] for i, m in enumerate([2, 0])}
            assert validate_witness(inst, Witness(moves)).accepted


class TestOneArrayPerInstance:
    """Every pass over an instance's disks reads ``Instance.scaled``."""

    @staticmethod
    def count_scales(monkeypatch):
        """The point lists given to ``geometry.scale_points`` through any
        module's binding, in call order."""
        calls = []
        real = geometry.scale_points

        def counting(points):
            calls.append(points)
            return real(points)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("diskdispersal")
                    and getattr(mod, "scale_points", None) is real):
                monkeypatch.setattr(mod, "scale_points", counting)
        return calls

    def test_a_solve_scales_the_input_and_the_kernel(self, monkeypatch):
        root = Path(__file__).resolve().parent.parent
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        from planted import planted

        sets = []
        real = solver.feasibility

        def recording(kinst, members, *args, **kwargs):
            sets.append(members)
            return real(kinst, members, *args, **kwargs)

        monkeypatch.setattr(solver, "feasibility", recording)
        calls = self.count_scales(monkeypatch)
        # a no that tries three sets still scales twice
        ans = solve(planted(1, 60, 3, 5, F(9, 4), "euclidean").instance)
        assert ans.verdict == "no" and len(sets) >= 3
        assert len(calls) == 2
        calls.clear()
        inst = planted(1, 60, 2, 4, F(9, 4), "euclidean").instance
        ans = solve(inst)
        assert ans.verdict == "yes"
        assert len(calls) == 2
        # the witness moves under a ninth of the disks: the local path
        # scales its targets and their neighbours only
        assert 9 * len(ans.witness.moves) < len(inst.disks)
        calls.clear()
        assert validate_witness(inst, ans.witness).accepted
        assert calls and all(len(pts) < len(inst.disks) for pts in calls)

    def test_the_array_is_not_a_field(self):
        disks = (P(0, 0), P(1, F(1, 3)), P(4, F(5, 2)))
        built = Instance("euclidean", 1, F(1), disks)
        assert built.scaled == scale_points(disks)
        fresh = Instance("euclidean", 1, F(1), disks)
        assert "scaled" in vars(built) and "scaled" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert write_instance(built) == write_instance(fresh)


def refuse(*args):
    raise AssertionError("not reached")


def candidate_points(fixed, origin, d2, variant):
    """The candidates of a lone member at ``origin``, as ``Point`` values."""
    frame = solver._Frame(*moved_set(fixed, [origin], d2, variant))
    return [frame.point(t) for t in frame.candidates(0, ())]


class TestSearchStages:
    def test_stage_two_walks_a_rational_frame(self, monkeypatch):
        # stage 1 cannot refute the set and never walks; stage 2 walks the
        # frame to (1, +-sqrt(3))
        frame = solver._Frame(*moved_set([P(0, 0), P(2, 0)], [P(1, 0)],
                                         F(3), "euclidean"))
        with monkeypatch.context() as m:
            m.setattr(solver, "_stage_numeric", refuse)
            assert solver._stage_candidates(frame, None) is None
        res = solver._stage_numeric(frame, None)
        assert res.status == "feasible"
        assert res.assignment == {0: Point(F(1), quadext(0, 1, 3))}

    @pytest.mark.parametrize("fixed, movables", [
        ([P(0, 0), Point(quadext(3, F(1, 8), 2), F(0))], [P(1, 0)]),
        ([P(0, 0)], [Point(quadext(1, 1, 2), F(0))]),
    ])
    def test_stage_one_skips_non_rational_sets(self, monkeypatch, fixed,
                                               movables):
        # a fixed centre that is not rational, within d+2 = 3 of the member,
        # goes to the member's others, and stage 1 skips that member; a set
        # with a member that is not rational gets no frame, and feasibility
        # answers it without running a stage
        inst, members = moved_set(fixed, movables, F(1), "euclidean")
        monkeypatch.setattr(solver._Frame, "fits", refuse)
        if movables[0].is_rational():
            frame = solver._Frame(inst, members)
            assert solver._stage_candidates(frame, None) is None
            return
        for name in ("_stage_candidates", "_stage_numeric", "_stage_grid"):
            monkeypatch.setattr(solver, name, refuse)
        res = feasibility(inst, members)
        assert (res.status, res.reason) == ("unknown", "non-rational centers")

    def test_each_stage_decides_by_its_one_rule(self, monkeypatch):
        # over the seed-1 benchmark inputs: stage 1 returns only lone-member
        # refutations, stage 2 only placements, and no cover gets a verdict
        # from two stages
        root = Path(__file__).resolve().parent.parent
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        import workloads

        covers = []
        real_feasibility = solver.feasibility

        def per_cover(*args, **kwargs):
            covers.append([])
            return real_feasibility(*args, **kwargs)

        monkeypatch.setattr(solver, "feasibility", per_cover)
        for n, name in enumerate(("_stage_candidates", "_stage_numeric",
                                  "_stage_grid"), 1):
            def spy(*args, real=getattr(solver, name), n=n):
                covers[-1].append((n, real(*args)))
                return covers[-1][-1][1]

            monkeypatch.setattr(solver, name, spy)
        for case in (workloads.random_small_cases(1)
                     + workloads.planted_cases(1)):
            solve(case.instance)
        decided = {1: 0, 2: 0, 3: 0}
        for stages in covers:
            verdicts = [n for n, res in stages
                        if res is not None and res.status != "unknown"]
            assert len(verdicts) <= 1, stages
            for n, res in stages:
                if n == 1 and res is not None:
                    assert res.status == "infeasible"
                    assert res.member is not None
                if n == 2 and res is not None:
                    assert res.status == "feasible"
            for n in verdicts:
                decided[n] += 1
        assert decided[1] and decided[2] and decided[3]

    # (d, an anchor exactly d+2 from the origin, its one tangency point);
    # d = 3/2 tells the reach d+2 apart from d2+2
    @pytest.mark.parametrize("d, anchor, touch", [
        (F(1), P(F(9, 5), F(12, 5)), P(F(3, 5), F(4, 5))),
        (F(3, 2), P(F(21, 10), F(14, 5)), P(F(9, 10), F(6, 5))),
    ])
    def test_anchors_reach_exactly_d_plus_two(self, d, anchor, touch):
        base = {P(0, 0), P(d, 0), P(-d, 0), P(0, d), P(0, -d)}
        # the line and the circle-circle tangency give the same point
        got = candidate_points([anchor], P(0, 0), d * d, "euclidean")
        assert len(got) == 6 and set(got) == base | {touch}
        beyond = Point(anchor.x + F(1, 100), anchor.y)
        got = candidate_points([beyond], P(0, 0), d * d, "euclidean")
        assert len(got) == 5 and set(got) == base
        # far centres whose x denominators are primes above 2^21 fill the
        # frame's 64-bit scale before the anchor, which is left off it: the
        # anchor is still a rational near centre on the frame's integers
        far = [P(10 + F(1, q), 0) for q in (2097169, 2097211, 2097223)]
        assert scale_points([P(0, 0), *far, anchor])[1][-1] is None
        frame = solver._Frame(*moved_set([*far, anchor], [P(0, 0)], d * d,
                                         "euclidean"))
        M = frame.M
        assert frame.others == [[]]
        assert frame.fixed == [[(anchor.x * M, anchor.y * M)]]
        got = [frame.point(t) for t in frame.candidates(0, ())]
        assert len(got) == 6 and set(got) == base | {touch}

    def test_placed_anchors_beyond_reach_change_nothing(self):
        # every rational placed point seeds tangencies; those farther than
        # derived_d(d2) + 2 from the origin add only candidates that do not
        # fit, so the fitting ones come out as without them, in order.  Each
        # placed list holds quarter-grid points in a box reaching 2 past
        # the reach, a point exactly at the reach and one just beyond it
        rng = random.Random(20261020)
        extra = 0
        for trial in range(40):
            n = rng.randint(2, 8)
            d2 = rng.choice([F(1, 4), F(1), F(9, 4), F(3), F(4)])
            variant = ("euclidean", "rectilinear")[trial % 2]
            inst = gen_random(n, rng.randint(2, 5) + n // 2,
                              rng.randrange(10 ** 6), 2, d2, variant)
            members = sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
            frame = solver._Frame(inst, members)
            reach = derived_d(d2) + 2
            for i, m in enumerate(members):
                o = inst.disks[m]
                box = 4 * math.ceil(reach + 2)
                pts = [Point(o.x + F(rng.randint(-box, box), 4),
                             o.y + F(rng.randint(-box, box), 4))
                       for _ in range(rng.randint(2, 7))]
                pts += [Point(o.x + reach, o.y),
                        Point(o.x, o.y - reach - F(1, 8))]
                rng.shuffle(pts)
                near = [p for p in pts if dist2(o, p) <= reach * reach]
                assert len(near) < len(pts)
                placed = [on_frame(frame, p) for p in pts]
                near_placed = [on_frame(frame, p) for p in near]
                got = frame.candidates(i, placed)
                want = frame.candidates(i, near_placed)
                extra += len(got) > len(want)
                assert ([t for t in got if frame.fits(i, t, placed)]
                        == [t for t in want if frame.fits(i, t, placed)])
        assert extra >= 40


class TestOneFrame:
    """``feasibility`` builds one frame per moved set, and none for a set
    with a member whose centre is not rational."""

    # (-2 - sqrt(2)/8, 0), within d+2 = 4 of (0, 0) at d2 = 4
    X = Point(quadext(-2, F(-1, 8), 2), F(0))

    @staticmethod
    def spy(monkeypatch):
        built = []

        class Counting(solver._Frame):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(solver, "_Frame", Counting)
        return built

    def test_rational_set_reaching_stage_three_builds_one_frame(
            self, monkeypatch):
        # the members, 1/2 apart, cannot get 2 apart with moves of 1/2
        # each; alone each has a place, so stage 3 refutes the set
        built = self.spy(monkeypatch)
        grids = []
        real = solver._stage_grid

        def recording(frame, *args):
            grids.append(frame)
            return real(frame, *args)

        monkeypatch.setattr(solver, "_stage_grid", recording)
        res = feasibility(*moved_set([P(F(3, 2), F(7, 4))],
                                     [P(F(1, 2), 0), P(F(1, 2), F(1, 2))],
                                     F(1, 4), "euclidean"))
        assert res.status == "infeasible" and res.delta == F(1, 8)
        assert len(built) == 1 and grids == built

    def test_non_rational_member_builds_no_frame(self, monkeypatch):
        built = self.spy(monkeypatch)
        res = feasibility(*moved_set([P(1, 0)], [P(0, 0), self.X], F(4),
                                     "euclidean"))
        assert (res.status, res.reason) == ("unknown", "non-rational centers")
        assert built == []

    def test_smaller_cover_answers_for_a_non_rational_member(self):
        # cover [0, 2], unknown in the test above, has a placement with X
        # at its origin; the search, which adds only disks of violated
        # clauses, never adds X: [0] answers yes with the same target for
        # disk 0, tested against X as a fixed centre that is not rational
        inst = Instance("euclidean", 2, F(4), (P(0, 0), P(1, 0), self.X))
        assert list(enumerate_candidate_sets(edge_clauses(inst), 2)) == [
            [0], [1]]
        ans = solve(inst)
        assert ans.verdict == "yes" and ans.log[-1] == "moved set [0]"
        assert ans.witness.moves == {0: P(0, 2)}
        assert validate_witness(inst, ans.witness).accepted


class TestLoneMember:
    """Stage 1 refutes a set when one member alone has no place clear of
    the fixed disks; see the solver module docstring's lone-member lemma."""

    def test_thin_rectilinear_miss_is_no_without_a_grid(self, monkeypatch):
        # the best move misses by 5/2 - sqrt(3) - 3/4 ~ 0.018, which grids
        # coarser than 1/256 cannot refute
        inst = Instance("rectilinear", 1, F(3), (
            P(F(17, 4), F(5, 2)), P(F(7, 4), 4), P(F(17, 4), F(11, 4)),
            P(F(3, 2), 2)))
        passes = []
        real = solver._grid_pass

        def counting(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "_grid_pass", counting)
        ans = solve(inst)
        assert ans.verdict == "no"
        assert passes == []
        assert all(o.startswith("refuted, disk ")
                   for _, o in logged_sets(ans))

    @pytest.mark.parametrize("fixed, origin, d2, variant, targets", [
        # fits only at (0, 0), where the circles of (-2, 0) and (2, 0) touch
        ([P(-2, 0), P(2, 0), P(0, 2), P(0, -2)], P(F(3, 10), F(1, 2)), F(1),
         "euclidean", {P(0, 0)}),
        # fits only at the tangency ends -3 + sqrt(3) and 1/2 - sqrt(3) on
        # the horizontal segment
        ([P(F(1, 2), 1), P(-3, 1), P(0, F(-29, 10))], P(0, 0), F(4),
         "rectilinear", {Point(quadext(-3, 1, 3), F(0)),
                         Point(quadext(F(1, 2), -1, 3), F(0))}),
    ])
    def test_guard_cases_are_found_feasible(self, fixed, origin, d2,
                                            variant, targets):
        # the lemma keeps the set, and stage 2's walk places the member
        frame = solver._Frame(*moved_set(fixed, [origin], d2, variant))
        assert solver._stage_candidates(frame, None) is None
        res = solver._stage_numeric(frame, None)
        assert res is not None and res.status == "feasible"
        assert res.assignment[0] in targets

    def test_refutation_never_meets_a_grid_witness(self):
        # every lone-member refutation of a random cover (1-3 movers, both
        # variants) is checked against the delta 1/16 grid on the whole set;
        # sets the grid leaves undecided are skipped
        cfg = SolverConfig(delta=F(1, 16))
        rng = random.Random(20261019)
        sets = fired = refuted = 0
        trial = 0
        while sets < 500:
            n = rng.randint(3, 8)
            k = rng.randint(1, 3)
            d2 = rng.choice([F(1, 4), F(1), F(9, 4), F(3), F(4)])
            variant = ("euclidean", "rectilinear")[trial % 2]
            inst = gen_random(n, rng.randint(2, 5) + n // 2,
                              rng.randrange(10 ** 6), k, d2, variant)
            trial += 1
            for cand in all_covers(inst):
                if not cand:
                    continue
                sets += 1
                frame = solver._Frame(inst, cand)
                res = solver._stage_candidates(frame, None)
                if res is None or res.status != "infeasible":
                    continue
                fired += 1
                grid = solver._stage_grid(frame, cfg, None)
                assert grid.status != "feasible", (trial, cand)
                refuted += grid.status == "infeasible"
        assert fired >= 100 and refuted >= fired - 20

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("d2", [F(1), F(3), F(9, 4)])
    @pytest.mark.parametrize("variant", ["euclidean", "rectilinear"])
    def test_int_and_fraction_coordinates_agree(self, k, d2, variant):
        coords = ((0, 0), (1, 0), (2, 0), (2, 3), (-3, 1))
        ints = Instance(variant, k, d2, tuple(Point(x, y) for x, y in coords))
        fracs = Instance(variant, k, d2, tuple(P(x, y) for x, y in coords))
        a, b = solve(ints), solve(fracs)
        assert a.verdict == b.verdict != "unknown"
        assert a.log == b.log
        if a.verdict == "yes":
            assert write_witness(a.witness) == write_witness(b.witness)
            assert validate_witness(ints, a.witness).accepted


class TestCandidateList:
    """Stage 1 lists a member's candidates in build order and tests them
    all, however long the list."""

    # a member at (1/2, 1/3) inside a square lattice of touching disks, with
    # d = 9: no point within d of it is clear of the lattice
    ORIGIN = P(F(1, 2), F(1, 3))
    D2 = F(81)

    def lattice(self):
        fixed = [P(2 * i, 2 * j) for i in range(-6, 7) for j in range(-6, 7)]
        return sorted(fixed, key=lambda p: dist2(p, self.ORIGIN))

    def test_lone_member_lemma_holds_on_a_long_list(self):
        fixed = self.lattice()
        frame = solver._Frame(*moved_set(fixed, [self.ORIGIN], self.D2,
                                         "euclidean"))
        assert len(frame.candidates(0, ())) == 654
        res = solver._stage_candidates(frame, None)
        assert res is not None and res.status == "infeasible"
        assert (res.member, res.reason) == (0, solver.NO_PLACE)

    def test_non_rational_origin_is_its_only_candidate(self):
        # two disks at (sqrt(2), 0): either one's only candidate is its
        # origin, on the other disk, and no stage may refute the set
        c = Point(quadext(0, 1, 2), F(0))
        ans = solve(Instance("euclidean", 1, F(9), (c, c)))
        assert ans.verdict == "unknown"
        assert logged_sets(ans) == [([0], "unknown (non-rational centers)"),
                                    ([1], "unknown (non-rational centers)")]

    @pytest.mark.parametrize("variant", ["euclidean", "rectilinear"])
    def test_build_order_origin_then_axis_extremes(self, variant):
        o = self.ORIGIN
        cands = candidate_points(self.lattice(), o, self.D2, variant)
        assert cands[:5] == [o, P(o.x + 9, o.y), P(o.x - 9, o.y),
                             P(o.x, o.y + 9), P(o.x, o.y - 9)]
        assert len(set(cands)) == len(cands)


class TestIntegerStageOne:
    """Stages 1 and 2 on a moved set's integer frame agree with ``Point``
    arithmetic."""

    def test_member_test_matches_point_reference(self):
        # every candidate of a random member, and its separation from up to
        # four earlier candidates that fit, against within_move and an
        # exact distance test to every fixed centre, near or not; then the
        # separation of random pairs of its candidates.  Two trials in
        # three add fixed centres that are not rational, the frame's
        # others: one radical, then also one ~ literal
        rng = random.Random(20261020)
        tests = {"euclidean": 0, "rectilinear": 0}
        kept = {True: 0, False: 0}
        trial = 0
        while min(tests.values()) < 500:
            variant = ("euclidean", "rectilinear")[trial % 2]
            trial += 1
            den = rng.choice((1, 2, 3, 4))

            def pt(gen=rng):
                return P(F(gen.randint(-5 * den, 5 * den), den),
                         F(gen.randint(-5 * den, 5 * den), den))

            d2 = rng.choice([F(1, 4), F(1, 2), F(1), F(2), F(9, 4), F(3),
                             F(4)])
            origin, fixed = pt(), [pt() for _ in range(rng.randint(1, 8))]
            q, r = pt(random.Random(trial)), pt(random.Random(-trial))
            tilde = f"{float(r.x) + 0.17678:.5f}"
            others = [Point(quadext(q.x, F(1, 8), 2), q.y),
                      Point(parse_scalar(tilde + "~"), r.y)][:trial % 3]
            # the x ranges of the two: sqrt(2)/8 lies in (0.17677669,
            # 0.1767767), and the ~ literal is one unit wide on each side
            xs = [(q.x + F(17677669, 10 ** 8), q.x + F(1767767, 10 ** 7)),
                  (F(tilde) - F(1, 10 ** 5), F(tilde) + F(1, 10 ** 5))]
            frame = solver._Frame(*moved_set(fixed + others, [origin], d2,
                                             variant))
            # member 0's others: a centre whose whole x range lies within
            # derived_d(d2) + 2 of the origin must be there, and one whose
            # whole range lies farther must not
            reach2 = (derived_d(d2) + 2) ** 2
            for f, (lo, hi) in zip(others, xs):
                near = [(x - origin.x) ** 2 + (f.y - origin.y) ** 2
                        for x in (lo, hi, min(max(origin.x, lo), hi))]
                if max(near[:2]) <= reach2:
                    assert f in frame.others[0], (trial, f)
                    kept[True] += 1
                elif near[2] > reach2 + F(1, 1000):
                    assert f not in frame.others[0], (trial, f)
                    kept[False] += 1
            placed: list = []
            for t in frame.candidates(0, ()):
                p = frame.point(t)
                alone = within_move(origin, p, d2, variant) and all(
                    compare(dist2(p, f), FOUR) in (Ordering.GREATER,
                                                   Ordering.EQUAL)
                    for f in fixed + others)
                apart = all(compare(dist2(p, frame.point(q)), FOUR)
                            is not Ordering.LESS for q in placed)
                assert frame.fits(0, t, ()) == alone, (trial, p)
                assert frame.fits(0, t, placed) == (alone and apart), \
                    (trial, p)
                tests[variant] += 1
                if alone and len(placed) < 4 and rng.random() < 0.5:
                    placed.append(t)
            # any two candidates, whatever their radicands
            cands = frame.candidates(0, ())
            for _ in range(10):
                t, q = rng.choice(cands), rng.choice(cands)
                assert solver._apart(t, q, frame.four) == (
                    compare(dist2(frame.point(t), frame.point(q)), FOUR)
                    is not Ordering.LESS), (trial, t, q)
        assert kept[True] and kept[False]

    # with a fixed centre that is not rational, stage 2's walk finds these
    # witnesses on the frame
    @pytest.mark.parametrize("variant, d2, third, target", [
        ("euclidean", 1, Point(quadext(3, 1, 2), F(0)), P(-1, 0)),
        ("euclidean", 1, Point(parse_scalar("4.41421~"), F(0)), P(-1, 0)),
        ("rectilinear", 4, Point(quadext(1, 1, 2), F(2)), P(-2, 0)),
    ])
    def test_non_rational_centres_keep_their_yes(self, monkeypatch, variant,
                                                 d2, third, target):
        found = []
        real = solver._stage_numeric

        def spy(*args):
            found.append(real(*args))
            return found[-1]

        monkeypatch.setattr(solver, "_stage_numeric", spy)
        inst = Instance(variant, 1, F(d2), (P(0, 0), P(1, 0), third))
        ans = solve(inst)
        assert ans.verdict == "yes" and ans.log[-1] == "moved set [0]"
        assert ans.witness.moves == {0: target}
        assert validate_witness(inst, ans.witness).accepted
        assert found[-1].status == "feasible"
        assert found[-1].assignment == {0: target}

    def test_placed_anchor_off_the_scaled_grid(self):
        # the set's scale M is 4.  Member 0's first candidate clear of the
        # fixed disks is (9/5, 12/5), 2 from (3, 4) toward its origin;
        # member 1 then lands on the circles of (3, 4) and (9/5, 12/5), a
        # point that no candidate of the fixed centres alone gives
        fixed = [P(3, 4), P(F(7, 2), -1), P(-1, -1), P(F(-7, 2), 1),
                 P(F(1, 2), F(-7, 2)), P(-1, F(7, 2)), P(7, F(7, 2)),
                 P(F(11, 4), 8)]
        movables = [P(0, 0), P(F(9, 4), 4)]
        frame = solver._Frame(*moved_set(fixed, movables, F(9), "euclidean"))
        res = solver._stage_numeric(frame, None)
        target = Point(quadext(F(12, 5), F(4, 5), 3),
                       quadext(F(16, 5), F(-3, 5), 3))
        assert res.status == "feasible"
        assert res.assignment == {0: P(F(9, 5), F(12, 5)), 1: target}
        assert target not in [frame.point(t) for t in frame.candidates(1, ())]


class TestFrameMeet:
    """``_Frame._meet`` on a frame of scale M: anchors (X, Y, E) stand for
    (X/(E*M), Y/(E*M)), a's circle has radius 2 and b's radius sqrt(rb)/M,
    or 2 without rb."""

    @pytest.mark.parametrize("a, b, rb, want", [
        # two anchors 2 apart: the point left of a->b comes first
        ((0, 0, 1), (2, 0, 1), None,
         [Point(F(1), quadext(0, 1, 3)), Point(F(1), quadext(0, -1, 3))]),
        ((0, 0, 1), (5, 0, 1), None, []),
        ((0, 0, 1), (4, 0, 1), None, [P(2, 0), P(2, 0)]),
        ((1, 1, 1), (1, 1, 1), None, []),
        # squared radius 3 around b: where a move budget of sqrt(3) is tight
        ((2, 0, 1), (0, 0, 1), 3,
         [Point(F(3, 4), quadext(0, F(-1, 4), 39)),
          Point(F(3, 4), quadext(0, F(1, 4), 39))]),
    ], ids=["symmetric_pair", "disjoint", "tangent", "coincident",
            "squared_radius"])
    def test_examples(self, a, b, rb, want):
        frame = solver._Frame(*moved_set([], [P(0, 0)], F(1), "euclidean"))
        assert [frame.point(t) for t in frame._meet(a, b, rb)] == want

    @given(st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 3),
           st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 3),
           st.integers(1, 4), st.none() | st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_points_lie_on_both_circles(self, ax, ay, ea, bx, by, eb, m, rb):
        frame = solver._Frame(*moved_set([], [P(0, 0)], F(1, m), "euclidean"))
        assert frame.M == m
        A = P(F(ax, ea * m), F(ay, ea * m))
        B = P(F(bx, eb * m), F(by, eb * m))
        assume(rb is None or A != B)
        pts = [frame.point(t) for t in frame._meet((ax, ay, ea), (bx, by, eb),
                                                   rb)]
        rb2 = FOUR if rb is None else F(rb, m * m)
        for p in pts:
            assert compare(dist2(p, A), FOUR) is Ordering.EQUAL
            assert compare(dist2(p, B), rb2) is Ordering.EQUAL
        # the circles meet when 0 < |AB| and |2 - r| <= |AB| <= 2 + r
        ab2 = dist2(A, B)
        if rb is None:
            meets = 0 < ab2 <= 16
        else:
            low = quadext(4 + rb2, F(-4, m), rb)
            high = quadext(4 + rb2, F(4, m), rb)
            meets = (compare(ab2, low) is not Ordering.LESS
                     and compare(ab2, high) is not Ordering.GREATER)
        assert len(pts) == (2 if meets else 0)
        # the first point lies left of the line from A to B, the second right
        for p, side in zip(pts, (Ordering.LESS, Ordering.GREATER)):
            cross = ((B.x - A.x) * (p.y - A.y) - (B.y - A.y) * (p.x - A.x))
            assert compare(cross, F(0)) is not side


# solves the first 30 random-small benchmark instances and prints one line
# each: the verdict and the witness text
HASH_SCRIPT = """
import json, sys
from diskdispersal import parse_instance, solve, write_witness
for rec in json.load(open(sys.argv[1]))["pool"][:30]:
    ans = solve(parse_instance(rec["instance"]))
    print(ans.verdict, repr(ans.witness and write_witness(ans.witness)))
"""


def test_witness_texts_do_not_depend_on_hashing():
    # candidate order rests on anchor order and insertion order only
    root = Path(__file__).resolve().parent.parent
    pool = root / "perfbench" / "data" / "random_small_pool.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    outs = [subprocess.run(
        [sys.executable, "-c", HASH_SCRIPT, str(pool)], capture_output=True,
        text=True, check=True, env=dict(env, PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "1")]
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 30 and "sqrt" in outs[0]


class TestSolve:
    def test_fig1_yes_with_validating_witness(self):
        inst = fig1(1, 3)
        ans = solve(inst)
        assert ans.verdict == "yes"
        assert validate_witness(inst, ans.witness).status == "accept"

    def test_fig1_quarter_budget_refuted(self):
        ans = solve(fig1(1, F(1, 4)))
        assert ans.verdict == "no"

    def test_fig1_unit_budget_refuted(self):
        # the only size-1 cover is the middle disk, which needs sqrt(3)
        ans = solve(fig1(1, 1))
        assert ans.verdict == "no"

    def test_overlap_no_budget(self):
        inst = Instance("euclidean", 0, F(1), (P(0, 0), P(1, 0)))
        assert solve(inst).verdict == "no"

    def test_four_colocated_two_moves_insufficient(self):
        assert solve(gen_colocated(4, 2, 10 ** 6)).verdict == "no"

    def test_packing_is_trivially_yes(self):
        inst = Instance("euclidean", 0, F(1), (P(0, 0), P(2, 0), P(4, 0)))
        ans = solve(inst)
        assert ans.verdict == "yes" and ans.witness.moves == {}

    def test_empty_instance(self):
        ans = solve(Instance("euclidean", 0, F(0), ()))
        assert ans.verdict == "yes"

    def test_witness_indices_refer_to_original_instance(self):
        # far-away clutter is kernelised away; indices must survive
        disks = (P(100, 100), P(0, 0), P(1, 0), P(2, 0), P(-100, -100))
        inst = Instance("euclidean", 1, F(3), disks)
        ans = solve(inst)
        assert ans.verdict == "yes"
        assert set(ans.witness.moves) <= {1, 2, 3}
        assert validate_witness(inst, ans.witness).status == "accept"

    def test_determinism(self):
        inst = fig1(1, 3)
        a1, a2 = solve(inst), solve(inst)
        assert a1.witness.moves == a2.witness.moves

    def test_kernel_commutation(self):
        from diskdispersal.kernel import kernelize
        disks = (P(0, 0), P(1, 0), P(20, 20), P(40, 0))
        inst = Instance("euclidean", 1, F(4), disks)
        kinst, _ = kernelize(inst)
        assert solve(inst).verdict == solve(kinst).verdict

    def test_rectilinear_yes_revalidates_as_euclidean(self):
        inst = fig1(1, 3, "rectilinear")
        ans = solve(inst)
        assert ans.verdict == "yes"
        eu = Instance("euclidean", inst.k, inst.d2, inst.disks)
        assert validate_witness(eu, ans.witness).status == "accept"

    def test_blocks_rejected(self):
        from diskdispersal.instance_io import LatticeBlock
        b = LatticeBlock(F(0), F(0), F(4), F(4), F(2))
        inst = Instance("euclidean", 0, F(0), (), (b,))
        with pytest.raises(ValueError):
            solve(inst)

    @pytest.mark.parametrize("second, rest", [("2.0~", ["10 10"]),
                                              ("1.9~", [])])
    def test_undecidable_overlap_is_unknown(self, second, rest):
        # a raw interval straddling distance 2 leaves an overlap that
        # kernelization cannot decide, which proves nothing either way
        from diskdispersal.instance_io import parse_instance
        disks = ["0 0", f"{second} 0"] + rest
        inst = parse_instance(
            "DISKDISPERSAL v1\nvariant: euclidean\nk: 1\nd2: 1\n"
            f"disks: {len(disks)}\n" + "\n".join(disks) + "\n")
        ans = solve(inst)
        assert ans.verdict == "unknown"
        assert ans.reason == f"distance of (0, 0) and ({second}, 0)"


# euclidean, k=3, d2=9/4, oracle yes; the grid pass at delta 1/64 runs for
# minutes, so only the time budget ends the solve
SEVEN = Instance("euclidean", 3, F(9, 4), tuple(
    P(F(x), F(y)) for x, y in (
        ("3", "9/4"), ("15/4", "23/4"), ("2", "11/4"), ("13/4", "19/4"),
        ("9/2", "19/4"), ("5/4", "21/4"), ("23/4", "3"))))


class TestDeadline:
    def test_time_budget_bounds_the_whole_solve(self):
        t0 = time.monotonic()
        ans = solve(SEVEN, SolverConfig(time_budget=1))
        assert time.monotonic() - t0 < 1.5
        assert ans.verdict == "unknown" and ans.reason == "time budget"

    def test_feasibility_past_deadline_is_unknown(self):
        # stage 2 would find (1, +-sqrt(3)) at once without the deadline
        res = feasibility(*moved_set([P(0, 0), P(2, 0)], [P(1, 0)], F(3),
                                     "euclidean"),
                          deadline=time.monotonic() - 1)
        assert res.status == "unknown" and res.reason == "time budget"

    def test_past_deadline_beats_near_non_rational_centre(self):
        # the fixed (3 + sqrt(2)/8, 0) lies within d+2 = 3 of the member, so
        # stage 3 would answer "non-rational centers"; stage 1 reads the
        # clock first and raises, so the cut-short set reports the time budget
        res = feasibility(*moved_set(
            [P(0, 0), Point(quadext(3, F(1, 8), 2), F(0))], [P(1, 0)], F(1),
            "euclidean"), deadline=time.monotonic() - 1)
        assert res.status == "unknown" and res.reason == "time budget"

    def test_stage_two_walk_checks_the_deadline(self, monkeypatch):
        # the walk reads the clock at its root, at 0, and then at each
        # node below it, at 10, past the deadline of 5
        frame = solver._Frame(*moved_set([P(0, 0), P(2, 0)], [P(1, 0)],
                                         F(3), "euclidean"))
        res = solver._stage_numeric(frame, None)
        assert res.status == "feasible"
        assert res.assignment == {0: Point(F(1), quadext(0, 1, 3))}
        clock = iter(itertools.chain([0], itertools.repeat(10)))
        monkeypatch.setattr(solver.time, "monotonic", lambda: next(clock))
        with pytest.raises(TimeoutError, match="time budget"):
            solver._stage_numeric(frame, 5.0)

    def test_enumeration_past_deadline_yields_nothing(self):
        inst = Instance("euclidean", 2, F(1), (P(0, 0), P(1, 0), P(5, 0)))
        gen = enumerate_candidate_sets(edge_clauses(inst), 2,
                                       deadline=time.monotonic() - 1)
        with pytest.raises(TimeoutError, match="time budget"):
            next(gen)

    def test_enumeration_checks_the_deadline_at_every_node(
            self, monkeypatch):
        # the search reads the clock once at each set it reaches, and once
        # more when it looks again at a yielded one: past the deadline of
        # 5, the next read raises before any clause is looked at
        clauses = edge_clauses(fig1(2, 1))
        reads, got = [], []

        def clock():
            reads.append(len(got))
            return 10 if len(got) == 2 else 0

        monkeypatch.setattr(solver.time, "monotonic", clock)
        gen = enumerate_candidate_sets(clauses, 2, 5.0)
        got += [next(gen)]
        got += [next(gen)]
        assert got == [[0, 1], [0, 2]]
        # the empty set, [0], [0, 1], [0, 1] again, [0, 2]
        assert reads == [0, 0, 0, 1, 1]
        clauses.append(None)  # never read: the clock raises first
        with pytest.raises(TimeoutError, match="time budget"):
            next(gen)
        assert reads[-1] == 2

    def test_solve_cut_between_two_sets(self, monkeypatch):
        # the tight triple's first set [0, 1] is refuted at clock 0; the
        # clock then passes the deadline of 5, so the search ends the
        # solve, which keeps the log of the set it decided
        inst = Instance("euclidean", 2, F(1), (P(0, 0), P(1, 0), P(2, 0)))
        now = [0]
        monkeypatch.setattr(solver.time, "monotonic", lambda: now[0])
        real = solver.feasibility

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            now[0] = 10
            return res

        monkeypatch.setattr(solver, "feasibility", spy)
        assert solve(inst, SolverConfig(time_budget=5)) == Answer(
            "unknown", reason="time budget",
            log=("kernel kept 3 of 3 disks",
                 "set [0, 1]: refuted at delta 1/16"))

    @pytest.mark.parametrize("budget", [float("nan"), -1, -0.5, 10 ** 400])
    def test_nan_or_negative_budget_rejected(self, budget):
        # a nan deadline never passes: the solve would have no bound; a
        # budget beyond float range gives no deadline at all
        with pytest.raises(ValueError):
            SolverConfig(time_budget=budget)

    def test_zero_budget_allowed(self):
        assert SolverConfig(time_budget=0).time_budget == 0


def reference_grid_pass(frame, delta):
    """``solver._grid_pass`` as one combined search, kept as a reference:
    a three-valued recursion that looks for a relaxed and an exact grid
    assignment at once, exploring only exact branches once a relaxed
    assignment is known.  It has no deadline, and its nodes count toward
    ``solver.GRID_NODE_BUDGET`` as the pass's do."""
    r = delta.denominator // math.gcd(frame.M, delta.denominator)
    M = frame.M * r
    step = delta.numerator * M // delta.denominator
    four = frame.four * r * r
    d2i = frame.D2 * r * r
    sA1, sB1 = four + 2 * step * step, 4 * step * M
    sA2, sB2 = four + 8 * step * step, 8 * step * M
    sA1 = 0 if sB1 * sB1 >= 2 * four * four else sA1
    sA2 = 0 if sB2 * sB2 >= 2 * four * four else sA2
    mvA = d2i + 2 * step * step
    mv_rhs = 8 * step * step * d2i

    def sep_rel(dx, dy, A, B):
        t = A - dx * dx - dy * dy
        return t <= 0 or t * t <= 2 * B * B

    def mv_rel(V):
        t = V - mvA
        return t <= 0 or t * t <= mv_rhs

    amax = math.isqrt(d2i) // step + 2
    if frame.variant == "euclidean":
        disps = [(a * step, b * step)
                 for a in range(-amax, amax + 1)
                 for b in range(-amax, amax + 1)
                 if mv_rel((a * step) ** 2 + (b * step) ** 2)]
    else:
        axis = [a * step for a in range(-amax, amax + 1)
                if mv_rel((a * step) ** 2)]
        disps = sorted({(v, 0) for v in axis} | {(0, v) for v in axis})

    def spend(work):
        if work > solver.GRID_NODE_BUDGET:
            raise solver._Stop

    def menu(i):
        ox, oy = frame.origins[i]
        near = [(fx * r, fy * r) for fx, fy in frame.fixed[i]]
        pts = []
        for vx, vy in disps:
            px, py = ox * r + vx, oy * r + vy
            for fx, fy in near:
                if not sep_rel(px - fx, py - fy, sA1, sB1):
                    break
            else:
                pts.append((px, py, 0, 0, r, 0))
        return pts

    chosen = []
    nodes = 0

    def rec(idx, exact, relaxed):
        # (whether a relaxed assignment is known, whether an exact one
        # fills ``chosen``)
        nonlocal nodes
        nodes += 1
        spend(nodes)
        if idx == len(order):
            return True, exact
        i = order[idx]
        for p in menus[i]:
            for q in chosen:
                if not sep_rel(p[0] - q[0], p[1] - q[1], sA2, sB2):
                    break
            else:
                pe = exact and frame.fits(i, p, chosen)
                if pe or not relaxed:
                    chosen.append(p)
                    relaxed, found = rec(idx + 1, pe, relaxed)
                    if found:
                        return True, True
                    chosen.pop()
        return relaxed, False

    try:
        menus, work = [], 0
        for i in range(len(frame.origins)):
            menus.append(menu(i))
            work += len(disps) * (len(frame.fixed[i]) + 1)
            spend(work)
        order = sorted(range(len(menus)), key=lambda i: (len(menus[i]), i))
        relaxed, exact = rec(0, True, False)
    except solver._Stop:
        return solver.Feasibility("unknown", reason="grid node budget")
    if exact:
        return solver.Feasibility("feasible", {
            i: frame.point(t) for i, t in zip(order, chosen)})
    if not relaxed:
        return solver.Feasibility("infeasible", delta=delta)
    return solver.Feasibility(
        "unknown", reason=f"relaxed grid assignments remain at delta {delta}")


class TestGridOnFrame:
    """Stage 3 runs on the moved set's ``_Frame``: one integer scale, and
    each member tested against its near fixed centres only."""

    @staticmethod
    def ring(core):
        # 25 disks on a 5/2 lattice around (31/10, 28/5): squared distance
        # to it in [20, 64], squared distance to every core disk >= 5
        c = Point(F(31, 10), F(28, 5))
        ring = [Point(c.x + F(5, 2) * i, c.y + F(5, 2) * j)
                for i in range(-8, 9) for j in range(-8, 9)]
        return [p for p in ring if 20 <= dist2(p, c) <= 64
                and all(dist2(p, q) >= 5 for q in core)]

    CORE = [P(3, F(23, 4)), P(F(13, 4), F(11, 2)), P(F(11, 4), F(11, 4)),
            P(F(11, 4), 5), P(F(23, 4), F(23, 4)), P(F(5, 2), 0)]

    def test_unreachable_ring_keeps_the_refutation(self):
        # the ring lies beyond d+2 of both movers; a pass that counts its
        # disks in every menu runs out of node budget before delta 1/64
        core = self.CORE
        ring = self.ring(core)
        assert len(ring) == 25
        for disks in (core, core + ring):
            ans = solve(Instance("euclidean", 2, F(2), tuple(disks)))
            assert ans.verdict == "no"
            assert ([0, 1], "refuted at delta 1/64") in logged_sets(ans)

    def test_node_budget_ends_the_pass_as_unknown(self, monkeypatch):
        monkeypatch.setattr(solver, "GRID_NODE_BUDGET", 1000)
        ans = solve(Instance("euclidean", 2, F(2), tuple(self.CORE)))
        assert ans.verdict == "unknown"
        assert ([0, 1], "unknown (grid node budget)") in logged_sets(ans)

    def test_non_rational_centres_are_unknown_not_no(self):
        # (3 + sqrt(2)/8, 0) lies within d+2 = 5/2 of (1, 0): neither stage
        # 1 nor a grid may refute set [1].  It lies farther from (0, 0), so
        # the lemma refutes set [0]
        inst = Instance("euclidean", 1, F(1, 4), (
            P(0, 0), P(1, 0), Point(quadext(3, F(1, 8), 2), F(0))))
        ans = solve(inst)
        assert ans.verdict == "unknown"
        assert logged_sets(ans) == [
            ([0], "refuted, disk 0 has no place clear of the fixed disks"),
            ([1], "unknown (non-rational centers)")]

    @pytest.mark.parametrize("third", [
        Point(quadext(3, 1, 2), F(0)),
        Point(quadext(5, F(1, 8), 2), F(0)),
        Point(parse_scalar("5.17678~"), F(0)),
        P(F(41, 8), 0),
    ])
    def test_far_non_rational_centres_keep_the_refutation(self, third):
        # the third disk lies farther than d+2 = 5/2 from both members, so
        # it takes no part in their tests, rational or not
        inst = Instance("euclidean", 1, F(1, 4), (P(0, 0), P(1, 0), third))
        frame = solver._Frame(*moved_set([P(1, 0), third], [P(0, 0)],
                                         F(1, 4), "euclidean"))
        assert frame.others == [[]]
        assert solve(inst).verdict == "no"

    def test_coarse_grid_keeps_every_point_once_slack_passes_two(self):
        # at delta = 2, s*sqrt(2) >= 2 for both separation thresholds, so
        # rounding keeps every grid point: a squared test against
        # (2 - s*sqrt(2))^2 refuted this feasible set
        fixed = [P(F(5, 2), F(3, 2)), P(F(1, 2), 3)]
        movables = [P(F(-1, 2), 0), P(F(1, 2), 1)]
        frame = solver._Frame(*moved_set(fixed, movables, F(1), "rectilinear"))
        res = solver._stage_numeric(frame, None)
        assert res.assignment == {0: P(F(-3, 2), 0), 1: P(F(1, 2), 1)}
        res = solver._stage_grid(frame, SolverConfig(delta=F(2)), None)
        assert res.status != "infeasible"

    @staticmethod
    def far_disks(disks, movables, d2, count):
        """Up to ``count`` points of a 5/2 lattice, each farther than
        derived_d(d2) + 2 from every mover and at least 2 from every
        disk."""
        reach2 = (derived_d(d2) + 2) ** 2
        x0, y0 = min(p.x for p in disks), min(p.y for p in disks)
        pts = sorted((Point(x0 + F(5, 2) * i, y0 + F(5, 2) * j)
                      for i in range(-12, 13) for j in range(-12, 13)),
                     key=lambda p: ((p.x - x0) ** 2 + (p.y - y0) ** 2,
                                    p.x, p.y))
        return [p for p in pts
                if all(dist2(p, m) > reach2 for m in movables)
                and all(dist2(p, q) >= 4 for q in disks)][:count]

    def test_far_fixed_disks_change_nothing(self, monkeypatch):
        # seeded sets that reach stage 3, in both variants, with 150 fixed
        # disks added beyond derived_d(d2) + 2 of every mover: no relaxed or
        # exact test can see them, so the sweep must end the same way.
        # They are enough to exhaust the node budget on at least one set if
        # a pass counted every fixed disk in its menus.
        real = solver._stage_grid
        grids = []
        reached = []

        def recording(*args):
            grids.append(real(*args))
            return grids[-1]

        monkeypatch.setattr(solver, "_stage_grid", recording)
        rng = random.Random(1)
        trial = 0
        while len(reached) < 15:
            n, k = rng.randint(3, 7), rng.randint(1, 3)
            d2 = rng.choice([F(1, 4), F(1), F(9, 4), F(2)])
            variant = ("euclidean", "rectilinear")[trial % 2]
            inst = gen_random(n, rng.randint(2, 4) + n // 2,
                              rng.randrange(10 ** 6), k, d2, variant)
            trial += 1
            for cand in all_covers(inst):
                fixed = [p for i, p in enumerate(inst.disks) if i not in cand]
                movables = [inst.disks[i] for i in cand]
                grids.clear()
                feasibility(*moved_set(fixed, movables, d2, variant))
                if grids:
                    reached.append((fixed, movables, d2, variant, grids[0]))
        for fixed, movables, d2, variant, want in reached:
            far = self.far_disks(fixed + movables, movables, d2, 150)
            assert len(far) == 150
            got = real(solver._Frame(*moved_set(fixed + far, movables, d2,
                                                variant)),
                       SolverConfig(), None)
            assert (got.status, got.delta, got.assignment, got.reason) == \
                (want.status, want.delta, want.assignment, want.reason)

    @pytest.mark.parametrize("delta", [F(1, 6), F(1, 12), F(2, 9), F(1, 4)])
    def test_delta_sharing_a_factor_with_the_scale(self, delta):
        # the frame's scale is 3; each delta needs one more factor r (2, 4,
        # 3 and 4) to put the grid on integers
        fixed = [P(0, 0), P(F(13, 3), F(2, 3))]
        movables = [P(F(1, 3), F(2, 3)), P(F(7, 3), F(1, 3))]
        frame = solver._Frame(*moved_set(fixed, movables, F(4), "euclidean"))
        assert frame.M == 3
        res = solver._grid_pass(frame, delta, None)
        assert res.status == "feasible"
        for i, target in res.assignment.items():
            steps = [(t - o) / delta for t, o in
                     ((target.x, movables[i].x), (target.y, movables[i].y))]
            assert all(s.denominator == 1 for s in steps)
        inst = Instance("euclidean", 2, F(4), tuple(fixed + movables))
        moves = {len(fixed) + i: t for i, t in res.assignment.items()}
        assert validate_witness(inst, Witness(moves)).accepted


    @staticmethod
    def grid_exact(frame, r, i, px, py, chosen):
        """Integer reference for the exact test of grid point (px, py), in
        units of 1/(M*r): within member i's move budget, and at least 2
        from its near fixed centres and from every ``chosen`` point.  It
        tests the Euclidean budget only; a rectilinear grid point lies on
        the axes through the origin."""
        four, d2i = frame.four * r * r, frame.D2 * r * r
        ox, oy = frame.origins[i]
        dx, dy = px - ox * r, py - oy * r
        if dx * dx + dy * dy > d2i:
            return False
        for fx, fy in frame.fixed[i]:
            ex, ey = px - fx * r, py - fy * r
            if ex * ex + ey * ey < four:
                return False
        for qx, qy in chosen:
            dx, dy = px - qx, py - qy
            if dx * dx + dy * dy < four:
                return False
        return True

    def test_exact_test_is_the_frames(self):
        # grid points of seeded frames, alone and with up to three placed
        # grid points: frame.fits on (px, py, 0, 0, r, 0) agrees with the
        # integer reference, and frame.point gives (px, py)/(M*r)
        rng = random.Random(20261019)
        seen = Counter()
        for trial in range(300):
            variant = ("euclidean", "rectilinear")[trial % 2]
            den = rng.choice((1, 2, 3, 4))

            def pt():
                return P(F(rng.randint(-4 * den, 4 * den), den),
                         F(rng.randint(-4 * den, 4 * den), den))

            d2 = rng.choice([F(1, 4), F(1, 2), F(1), F(2), F(9, 4), F(4)])
            delta = rng.choice([F(1, 4), F(1, 6), F(1, 8), F(2, 9), F(1)])
            movables = [pt() for _ in range(rng.randint(1, 3))]
            frame = solver._Frame(*moved_set(
                [pt() for _ in range(rng.randint(0, 6))], movables, d2,
                variant))
            r = delta.denominator // math.gcd(frame.M, delta.denominator)
            M = frame.M * r
            step = delta.numerator * M // delta.denominator
            reach = math.isqrt(frame.D2 * r * r) // step + 1

            def grid_point(i):
                a, b = (rng.randint(-reach, reach) for _ in range(2))
                if variant == "rectilinear":
                    a, b = rng.choice([(a, 0), (0, b)])
                ox, oy = frame.origins[i]
                return ox * r + a * step, oy * r + b * step

            for _ in range(20):
                i = rng.randrange(len(movables))
                chosen = [grid_point(rng.randrange(len(movables)))
                          for _ in range(rng.choice((0, 0, 1, 2, 3)))]
                px, py = grid_point(i)
                want = self.grid_exact(frame, r, i, px, py, chosen)
                placed = [(qx, qy, 0, 0, r, 0) for qx, qy in chosen]
                assert frame.fits(i, (px, py, 0, 0, r, 0), placed) == want, \
                    (trial, i, px, py, chosen)
                assert frame.point((px, py, 0, 0, r, 0)) == \
                    Point(F(px, M), F(py, M))
                seen[variant, bool(chosen), want] += 1
        assert len(seen) == 8 and min(seen.values()) >= 50, seen

    @staticmethod
    def grid_sets(inst):
        """(frame, placed) for each cover of ``inst`` with no near centre
        that is not rational and that stage 1 does not refute; placed tells
        whether stage 2 places it, and a set it does not reaches stage 3."""
        out = []
        for cand in all_covers(inst):
            frame = solver._Frame(inst, cand)
            if not (any(frame.others)
                    or solver._stage_candidates(frame, None)):
                out.append((frame,
                            solver._stage_numeric(frame, None) is not None))
        return out

    def test_two_searches_answer_as_the_combined_one(self):
        # seeded sets, in both variants, and the sets of the three
        # grid-witness instances below: each pass from delta 1/4 to 1/64
        # that the sweep runs, until one decides, ends as the combined
        # search's does.  At least 100 sets reach stage 3; the sets that
        # stage 2 places add feasible passes, on which the exact search
        # must not skip a witness.  Euclidean move budgets are small, so
        # that the passes that go on to 1/64 stay short
        rng = random.Random(20261021)
        sets = []
        trial = 0
        while sum(not placed for _, placed in sets) < 100:
            variant = ("euclidean", "rectilinear")[trial % 2]
            n, k = rng.randint(3, 5), rng.randint(1, 2)
            d2 = rng.choice({"euclidean": [F(1, 64), F(1, 16)],
                             "rectilinear": [F(1, 4), F(1), F(9, 4),
                                             F(2)]}[variant])
            sets += self.grid_sets(gen_random(
                n, rng.randint(2, 4) + n // 2, rng.randrange(10 ** 6), k, d2,
                variant))
            trial += 1
        for args, _, _ in self.GRID_WITNESSES:
            sets += self.grid_sets(gen_random(*args))
        seen = Counter()
        for frame, placed in sets:
            for e in range(2, 7):
                want = reference_grid_pass(frame, F(1, 2 ** e))
                got = solver._grid_pass(frame, F(1, 2 ** e), None)
                assert (got.status, got.delta, got.assignment, got.reason) \
                    == (want.status, want.delta, want.assignment,
                        want.reason)
                seen[frame.variant, placed, got.status] += 1
                if got.status != "unknown":
                    break
        for variant in ("euclidean", "rectilinear"):
            assert all(seen[variant, False, status]
                       for status in ("infeasible", "unknown"))
            assert seen[variant, False, "feasible"] \
                + seen[variant, True, "feasible"] >= 20, seen

    def test_place_ticks_at_every_node(self):
        # members 0 and 1 have two points each, c not after a, and member
        # 2 none: the search visits the root, a and b, d below a, c and d
        # below b, and finds no placement
        menus = {0: ["a", "b"], 1: ["c", "d"], 2: []}
        ticks = []

        def place():
            ticks.clear()
            return solver._place(
                [0, 1, 2], lambda i, placed: menus[i],
                lambda i, t, placed: (t, placed) != ("c", ["a"]),
                lambda: ticks.append(None))

        assert place() is None and len(ticks) == 6
        # c does not fit after a: the root, a, d, e
        menus[2] = ["e"]
        assert place() == ["a", "d", "e"] and len(ticks) == 4

    # seeded instances whose one yes comes from a stage-3 grid witness;
    # tools/solve_digest.py digests the same three
    GRID_WITNESSES = [
        ((3, 4, 768000, 2, F(1, 4), "euclidean"), [0, 1],
         "0 -> 9/16 45/16\n1 -> 17/8 65/16\n"),
        ((4, 5, 951059, 3, F(1, 4), "euclidean"), [0, 2, 3],
         "0 -> 41/16 3/8\n2 -> 7/16 1/8\n3 -> 21/16 31/16\n"),
        ((5, 4, 319576, 3, F(2), "rectilinear"), [1, 2, 4],
         "1 -> 51/32 1\n2 -> 165/32 2\n4 -> 101/32 9/4\n"),
    ]

    @pytest.mark.parametrize("args, moved, text", GRID_WITNESSES)
    def test_grid_witness_answers_yes(self, monkeypatch, args, moved, text):
        grids = []
        real = solver._stage_grid

        def spy(*a):
            grids.append(real(*a))
            return grids[-1]

        monkeypatch.setattr(solver, "_stage_grid", spy)
        inst = gen_random(*args)
        ans = solve(inst)
        assert ans.verdict == "yes"
        assert write_witness(ans.witness) == (
            f"DISPERSALMOVES v1\nmoves: {len(moved)}\n" + text)
        assert ans.log[-1] == f"moved set {moved}"
        res = grids[-1]
        assert res.status == "feasible"
        assert {moved[slot]: t for slot, t in res.assignment.items()
                if t != inst.disks[moved[slot]]} == ans.witness.moves
        assert oracle(inst).verdict == "yes"


class TestRefutationMonotonicity:
    def test_finer_grids_keep_refuting(self):
        # once a set is refuted at some resolution, every finer tested
        # resolution must refute it too
        cases = [
            ([P(0, 0), P(2, 0)], [P(1, 0)], F(1, 4)),
            ([P(0, 0)], [P(1, 0)], F(0)),
            ([P(0, 0), P(2, 0), P(1, F(7, 4))], [P(1, 0)], F(1)),
        ]
        for fixed, movs, d2 in cases:
            deltas = [F(1, 4), F(1, 8), F(1, 16), F(1, 32)]
            refuted_from = None
            frame = solver._Frame(*moved_set(fixed, movs, d2, "euclidean"))
            for i, dl in enumerate(deltas):
                res = solver._grid_pass(frame, dl, None)
                if res.status == "infeasible" and refuted_from is None:
                    refuted_from = i
                if refuted_from is not None:
                    assert res.status == "infeasible"


class TestOracle:
    def test_packing_zero_budget(self):
        inst = Instance("euclidean", 0, F(1), (P(0, 0), P(2, 0)))
        assert oracle(inst).verdict == "yes"

    def test_fig1_quarter_budget_refutes(self):
        assert oracle(fig1(1, F(1, 4)), F(1, 16)).verdict == "no"

    def test_fig1_unit_budget_refutes(self):
        assert oracle(fig1(1, 1), F(1, 16)).verdict == "no"

    def test_grid_hit_yields_exact_witness(self):
        inst = Instance("euclidean", 1, F(4), (P(0, 0), P(1, 0)))
        ans = oracle(inst, F(1, 4))
        assert ans.verdict == "yes"
        assert validate_witness(inst, ans.witness).status == "accept"

    def test_tight_instance_is_unknown_not_wrong(self):
        # the only solutions move the middle disk to (1, +-sqrt(3)),
        # which no grid hits: the oracle must not claim a no
        ans = oracle(fig1(1, 3), F(1, 8))
        assert ans.verdict == "unknown"

    def test_guard(self):
        with pytest.raises(GuardError):
            oracle(gen_colocated(13, 1, 1))
        with pytest.raises(GuardError):
            oracle(Instance("euclidean", 4, F(1), (P(0, 0),)))

    def test_coarse_grid_never_refutes_a_yes(self):
        # solve moves disk 0 to (-1/2, -1/2); at delta = 4 the relaxed
        # separation test is vacuous, so the oracle may not answer no
        text = "1/2 -1/2; -9/2 -3/2; -3 5/2; 2 5; -1 -5/2; 3/2 -1; " \
               "5 1/2; 3 -3; 9/2 -3/2"
        disks = tuple(P(*map(F, pair.split())) for pair in text.split(";"))
        inst = Instance("euclidean", 1, F(1), disks)
        ans = solve(inst)
        assert ans.verdict == "yes"
        assert validate_witness(inst, ans.witness).accepted
        assert oracle(inst, F(4)).verdict != "no"
        assert oracle(inst, F(1, 16)).verdict == "yes"

    def test_rectilinear_refutes_diagonal_only_solution(self):
        # two overlapping disks; only diagonal escapes exist euclidean-ly
        inst = Instance("rectilinear", 1, F(2),
                        (P(0, 0), P(1, 0), P(-2, 0), P(F(5, 2), F(0))))
        a = oracle(inst, F(1, 8))
        s = solve(inst)
        assert not (a.verdict == "yes" and s.verdict == "no")
        assert not (a.verdict == "no" and s.verdict == "yes")


class TestDifferentialAgainstOracle:
    def test_random_small_instances_never_contradict(self):
        import random
        from diskdispersal.generators import gen_random
        rng = random.Random(424242)
        for trial in range(30):
            n = rng.randint(2, 8)
            k = rng.randint(0, 2)
            d2 = rng.choice([F(1, 4), F(1), F(2), F(4)])
            variant = rng.choice(["euclidean", "rectilinear"])
            base = gen_random(n, rng.randint(3, 7), 7000 + trial, k, d2,
                              variant)
            vx, vy = F(-rng.randint(0, 5), 2), F(rng.randint(0, 5), 4)
            inst = Instance(variant, k, d2, tuple(
                Point(p.x + vx, p.y + vy) for p in base.disks))
            s = solve(inst)
            o = oracle(inst, F(1, 8))
            assert {s.verdict, o.verdict} != {"yes", "no"}, trial
            if s.verdict == "yes":
                assert validate_witness(inst, s.witness).accepted
            if o.verdict == "yes":
                assert validate_witness(inst, o.witness).accepted


class TestVariantOrdering:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_colocated_thresholds(self, m):
        d2 = F(4 * m * m)
        for variant in ("euclidean", "rectilinear"):
            no = solve(gen_colocated(m, m - 2, d2, variant))
            assert no.verdict == "no"
            yes = solve(gen_colocated(m, m - 1, d2, variant))
            assert yes.verdict == "yes"
            inst = gen_colocated(m, m - 1, d2, variant)
            assert validate_witness(inst, yes.witness).status == "accept"
            if variant == "rectilinear":
                eu = Instance("euclidean", inst.k, inst.d2, inst.disks)
                assert validate_witness(eu, yes.witness).status == "accept"


# ---------------------------------------------------------------------------
# sets ruled out by the clause of an earlier answer

# six background disks around a tight triple centred on the origin, each at
# least 4 from every triple disk and from the targets (+-2, 0)
RING = ((0, 5), (0, -5), (6, 0), (-6, 0), (5, 5), (-5, -5))
FAR2 = (F(3, 2) + 2) ** 2     # (d+2)^2 at d2 = 9/4


def two_triples(k, shuffle_seed=None):
    """Tight triples at x = 0 and x = 30, each with its RING, d2 = 9/4.

    k = 3 is a no: one triple gets a single move, which must be its middle
    disk, and clearing both end disks needs a move of sqrt(3) > 3/2.  k = 4
    is a yes: each triple's end disks move outward by 1.  The kernel keeps
    every disk, so its indices are the instance's.
    """
    disks = []
    for cx in (0, 30):
        disks += [P(cx + dx, 0) for dx in (-1, 0, 1)]
        disks += [P(cx + dx, dy) for dx, dy in RING]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(disks)
    return Instance("euclidean", k, F(9, 4), tuple(disks))


def logged_sets(ans):
    """(moved set, outcome) for every "set [..]: .." line of a solve log."""
    out = []
    for line in ans.log:
        if line.startswith("set ["):
            head, outcome = line[len("set "):].split(": ", 1)
            out.append((literal_eval(head), outcome))
    return out


def clause(inst, moved, outcome):
    """(S, N) of a refuted set's line, computed from the instance: "if all
    of S moves, some disk of N moves", N being the disks outside the set
    within (d + 2) of S's members, d2 = 9/4."""
    m = re.match(r"refuted, disk (\d+) ", outcome)
    s = {int(m[1])} if m else set(moved)
    return s, {j for j in range(len(inst.disks)) if j not in moved and any(
        dist2(inst.disks[x], inst.disks[j]) <= FAR2 for x in s)}


def solve_recording(monkeypatch, inst):
    """``solve(inst)`` and the moved sets, as disk index sets, that reached
    ``feasibility``, in call order."""
    index = {p: i for i, p in enumerate(inst.disks)}
    seen = []
    real = solver.feasibility

    def recording(kinst, members, *args, **kwargs):
        seen.append(frozenset(index[kinst.disks[m]] for m in members))
        return real(kinst, members, *args, **kwargs)

    monkeypatch.setattr(solver, "feasibility", recording)
    return solve(inst), seen


class TestImpliedRefutation:
    """A set that violates the clause of an earlier answer is never tried:
    the search adds only disks of violated clauses (the solver module
    docstring's clauses and search)."""

    def test_every_yielded_set_is_refuted_in_the_log(self, monkeypatch):
        # each set that reaches feasibility has a line of its own and
        # violates no clause, computed from the geometry, of an earlier
        # line; the lines' clauses rule out every cover of at most k disks
        inst = two_triples(3)
        assert len(kernelize(inst)[0].disks) == len(inst.disks)
        ans, seen = solve_recording(monkeypatch, inst)
        assert ans.verdict == "no"
        logged = logged_sets(ans)
        assert all(o.startswith("refuted") for _, o in logged)
        assert [frozenset(s) for s, _ in logged] == seen
        clauses = []
        for moved, outcome in logged:
            assert not any(violates(moved, c) for c in clauses), moved
            clauses.append(clause(inst, moved, outcome))
        for cover in all_covers(inst):
            assert any(violates(cover, c) for c in clauses), cover
        assert len(logged) < len(all_covers(inst))

    @pytest.mark.parametrize("y, near", [(F(-5, 2), {2, 3, 4}),
                                         (F(-251, 100), {2, 3})])
    def test_near_means_at_most_d_plus_two(self, monkeypatch, y, near):
        # fig1 at d2 = 1/4 (d + 2 = 5/2) with disk 3 just inside 5/2 of
        # the middle disk and disk 4 at 5/2 or just beyond: the clause of
        # [0, 1], whose disk 1 has no place, reads the disks within 5/2,
        # and the search adds each of them, and no other, to [1]
        inst = Instance("euclidean", 2, F(1, 4), (
            P(0, 0), P(1, 0), P(2, 0), P(1, F(249, 100)), P(1, y)))
        res = feasibility(inst, [0, 1])
        assert (res.status, res.member, res.read) == ("infeasible", 1, near)
        ans, seen = solve_recording(monkeypatch, inst)
        assert ans.verdict == "no"
        assert {s for s in seen if 1 in s and 0 not in s} == {
            frozenset([1, j]) for j in near}
        no_place = "refuted, disk 1 has no place clear of the fixed disks"
        assert ([1, 3], no_place) in logged_sets(ans)

    @pytest.mark.parametrize("k, seed, verdict", [
        (3, None, "no"), (4, None, "yes"), (4, 1, "yes"), (4, 2, "yes")])
    def test_far_extension_of_refuted_set_skips_feasibility(
            self, monkeypatch, k, seed, verdict):
        inst = two_triples(k, seed)
        ans, seen = solve_recording(monkeypatch, inst)
        assert ans.verdict == verdict
        if verdict == "yes":
            assert validate_witness(inst, ans.witness).accepted
        logged = logged_sets(ans)
        # a refuted set plus a disk far from all of its members violates
        # the refuted set's clause, so it never reaches feasibility
        refuted = {frozenset(s) for s, o in logged if o.startswith("refuted")}
        for moved in seen:
            for x in moved:
                rest = moved - {x}
                assert not (rest in refuted and all(
                    dist2(inst.disks[x], inst.disks[i]) >= FAR2
                    for i in rest)), sorted(moved)


def reference_solve(inst, cfg):
    """``solve`` over every cover of at most k kernel disks, each through
    ``feasibility``, in (size, lexicographic) order; and the number of
    covers it tried."""
    kr = kernelize(inst)
    if kr is None:
        return "no", None, 0
    kinst, report = kr
    g = build_graph(kinst.disks)
    if not g.edges:
        return "yes", Witness({}), 0
    unknown = False
    tried = 0
    for size in range(inst.k + 1):
        for cand in itertools.combinations(range(len(kinst.disks)), size):
            if not all(i in cand or j in cand for i, j in g.edges):
                continue
            tried += 1
            res = solver.feasibility(kinst, list(cand), cfg)
            if res.status == "feasible":
                moves = {}
                for slot, target in res.assignment.items():
                    orig = report.kept[cand[slot]]
                    if target != inst.disks[orig]:
                        moves[orig] = target
                return "yes", Witness(moves), tried
            unknown = unknown or res.status == "unknown"
    return ("unknown" if unknown else "no"), None, tried


class TestEnumerationDifferential:
    @pytest.mark.parametrize("variant", ["euclidean", "rectilinear"])
    def test_clause_search_and_all_covers_agree(self, monkeypatch, variant):
        # feasibility is deterministic without a deadline, so both loops
        # share one memo: the reference pays only for the covers that the
        # search never tried
        memo, asked = {}, []
        real = solver.feasibility

        def memoised(kinst, members, *args, **kwargs):
            key = (kinst, tuple(members))
            asked.append(key[1])
            if key not in memo:
                memo[key] = real(kinst, members, *args, **kwargs)
            return memo[key]

        monkeypatch.setattr(solver, "feasibility", memoised)
        cfg = SolverConfig(delta=F(1, 16))
        rng = random.Random(20261020)
        fewer = grids = unknowns = 0
        for trial in range(200):
            n = rng.randint(4, 12)
            k = rng.randint(1, 3)
            d2 = rng.choice([F(1, 4), F(1), F(9, 4), F(4)])
            inst = gen_random(n, rng.randint(2, 5) + n // 2,
                              rng.randrange(10 ** 6), k, d2, variant)
            asked.clear()
            ans = solve(inst, cfg)
            called = len(asked)
            verdict, witness, tried = reference_solve(inst, cfg)
            # a clause only turns an unknown set into a refuted one
            assert ans.verdict == verdict or (
                verdict == "unknown" and ans.verdict == "no"), trial
            if ans.verdict == "yes":
                assert validate_witness(inst, ans.witness).accepted, trial
            fewer += called < tried
            kr = kernelize(inst)
            if kr is None or not kr[1].graph.edges:
                continue
            kinst = kr[0]
            # no set that the search yields violates the clause of an
            # earlier answer, an unknown one included
            earlier = []
            for members in asked[:called]:
                assert not any(violates(members, c) for c in earlier), trial
                res = memo[kinst, members]
                if res.status != "feasible":
                    earlier.append((frozenset(
                        members if res.member is None
                        else [members[res.member]]), res.read))
            # a clause's N is the near fixed disks of its lone member, or
            # of every member for a grid refutation or an unknown answer
            reach2 = (derived_d(d2) + 2) ** 2
            for members in set(asked):
                res = memo[kinst, members]
                if res.status == "feasible":
                    continue
                grids += res.delta is not None
                unknowns += res.status == "unknown"
                movers = (members if res.member is None
                          else [members[res.member]])
                assert res.read == {
                    j for j in range(len(kinst.disks))
                    if j not in members and any(
                        dist2(kinst.disks[x], kinst.disks[j]) <= reach2
                        for x in movers)}
        assert fewer > 0 and grids > 0 and unknowns > 0


@pytest.fixture
def shuffled_planted(monkeypatch):
    """perfbench's planted instance at seed s, Euclidean with d2 = 9/4,
    its disks shuffled by ``random.Random(s)``; and its answer."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    from planted import planted

    def build(seed, n_bg, t, k):
        case = planted(seed, n_bg, t, k, F(9, 4), "euclidean")
        disks = list(case.instance.disks)
        random.Random(seed).shuffle(disks)
        return Instance("euclidean", k, F(9, 4), tuple(disks)), case.answer
    return build


class TestLocality:
    """Shuffled instances whose covers are spread over distant clusters:
    a refutation's clause names only the disks near its set."""

    @pytest.mark.parametrize("n_bg, t, k", [(60, 3, 5), (60, 3, 6),
                                            (80, 4, 8)])
    def test_shuffled_planted_is_decided(self, shuffled_planted, n_bg, t, k):
        inst, answer = shuffled_planted(1, n_bg, t, k)
        ans = solve(inst, SolverConfig(time_budget=10))
        assert ans.verdict == answer
        if answer == "yes":
            assert validate_witness(inst, ans.witness).accepted

    def test_zero_budget_returns_at_once(self, shuffled_planted):
        inst, _ = shuffled_planted(1, 120, 4, 8)
        t0 = time.monotonic()
        ans = solve(inst, SolverConfig(time_budget=0))
        assert time.monotonic() - t0 < 0.5
        assert str(ans) == "unknown (time budget)"

    def test_one_component_lattice_is_no(self):
        ans = solve(lattice(3, 5), SolverConfig(time_budget=10))
        assert ans.verdict == "no"


def lattice(extra, k):
    """An 8x8 lattice of pitch 5/2, one halo component at d + 2 = 7/2
    (d2 = 9/4), with ``extra`` of four disks on cell edges: each needs two
    moves."""
    disks = [P(F(5 * i, 2), F(5 * j, 2)) for i in range(8) for j in range(8)]
    disks += [P(F(5, 4), 0), P(F(35, 4), F(15, 2)), P(15, F(55, 4)),
              P(F(5, 4), F(25, 2))][:extra]
    return Instance("euclidean", k, F(9, 4), tuple(disks))


class TestClauses:
    """A refutation is a clause "if all of S moves, some disk of N moves",
    and the search never yields a set that violates it."""

    def test_lattice_is_no_in_few_calls(self, monkeypatch):
        ans, seen = solve_recording(monkeypatch, lattice(4, 7))
        assert ans.verdict == "no"
        assert len(seen) <= 20
        assert len(seen) == sum(line.startswith("set [") for line in ans.log)

    def test_shuffled_planted_no_in_time(self, shuffled_planted):
        inst, answer = shuffled_planted(1, 160, 8, 15)
        assert answer == "no"
        t0 = time.monotonic()
        assert solve(inst).verdict == "no"
        assert time.monotonic() - t0 < 10

    def test_shuffled_planted_ten_triples_no_in_time(self, shuffled_planted):
        # the covers of ten far-apart triples multiply; each refutation's
        # clause names only disks near its set, and the search tries ten
        # sets
        inst, answer = shuffled_planted(1, 200, 10, 19)
        assert answer == "no"
        t0 = time.monotonic()
        assert solve(inst).verdict == "no"
        assert time.monotonic() - t0 < 5

    def test_time_budget_holds_on_an_undecided_lattice(self):
        t0 = time.monotonic()
        ans = solve(lattice(3, 6), SolverConfig(time_budget=1))
        assert time.monotonic() - t0 < 1.5
        assert ans.verdict in ("no", "unknown")

    def test_clause_of_an_unknown_set_leads_on_to_a_yes(self):
        # [1] is unknown, as its near fixed disk 3 is not rational; its
        # clause sends the search on to the sets that also move a near disk
        # of [1], and [0, 1, 2] is a yes that moves disks 1 and 2.  With no
        # clause, the search would end at [1] and the solve be unknown
        inst = Instance("euclidean", 3, F(1), (
            P(F(1, 2), F(9, 4)), P(F(13, 4), F(7, 4)), P(F(7, 2), F(9, 4)),
            Point(quadext(2, F(1, 8), 2), F(17, 4))))
        assert feasibility(inst, [1]).read == {0, 2, 3}
        ans = solve(inst)
        assert ans.log[1:] == ("set [1]: unknown (non-rational centers)",
                               "set [0, 1]: unknown (non-rational centers)",
                               "moved set [0, 1, 2]")
        assert str(ans) == "yes (2 moves)"
        assert validate_witness(inst, ans.witness).accepted

    def test_clause_rules_out_a_set_with_a_non_rational_member(
            self, monkeypatch):
        # in [0, 4, 5], disk 5 has no place clear of its near fixed disks 2
        # and 3; [1, 4, 5], the one other cover that the edges give, keeps
        # both fixed, so it is ruled out without the frame that its
        # non-rational member, disk 1, would not get
        inst = Instance("euclidean", 3, F(1, 4), (
            P(F(13, 4), 4), Point(quadext(F(17, 4), F(1, 8), 2), F(11, 2)),
            P(F(3, 4), F(5, 4)), P(3, F(7, 4)), P(F(9, 4), 0),
            P(F(7, 4), F(3, 4))))
        assert list(enumerate_candidate_sets(edge_clauses(inst), 3)) == [
            [0, 4, 5], [1, 4, 5]]
        assert feasibility(inst, [0, 4, 5]).read == {2, 3}
        ans, seen = solve_recording(monkeypatch, inst)
        assert ans.verdict == "no"
        assert ans.log[1:] == (
            "set [0, 4, 5]: refuted, disk 5 has no place clear of the fixed "
            "disks",)
        assert seen == [frozenset([0, 4, 5])]
