import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from diskdispersal.geometry import Point, dist2
from diskdispersal.numerics import (
    Interval,
    Ordering,
    compare,
    quadext,
)
from diskdispersal.udg import approx_vc, build_graph, components


def P(x, y):
    return Point(F(x), F(y))


# half-integer coordinates put many centers on cell boundaries; radicals
# come from tangency points, intervals from approximate literals
halves = st.integers(-12, 12).map(lambda v: F(v, 2))
radicals = st.builds(quadext, halves,
                     st.sampled_from([F(1), F(-1), F(1, 2)]),
                     st.sampled_from([2, 3, 5]))
intervals = st.builds(lambda m, w: Interval(m - w, m + w), halves,
                      st.sampled_from([F(1, 64), F(1, 2), F(7)]))
coords = st.one_of(halves, halves, halves, radicals, intervals)
points = st.builds(Point, coords, coords)


def brute_min_vc(n, edges):
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if all(i in s or j in s for i, j in edges):
                return size
    return n


class TestBuildGraph:
    def test_chain_touching_pair_excluded(self):
        g = build_graph([P(0, 0), P(1, 0), P(2, 0)])
        assert g.edges == ((0, 1), (1, 2))

    def test_spread_out_is_edgeless(self):
        g = build_graph([P(0, 0), P(2, 0), P(0, 2), P(5, 5)])
        assert g.edges == ()

    def test_colocated_complete_graph(self):
        m = 5
        g = build_graph([P(0, 0)] * m)
        assert len(g.edges) == m * (m - 1) // 2

    @given(st.lists(points, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_edges_match_brute_force(self, disks):
        # brute force: every pair through the exact comparison; instances
        # with an undecidable pair, and other thresholds, are left to
        # test_geometry's TestClosePairs
        expect = []
        for i, j in itertools.combinations(range(len(disks)), 2):
            o = compare(dist2(disks[i], disks[j]), F(4))
            if o is Ordering.INDETERMINATE:
                return
            if o is Ordering.LESS:
                expect.append((i, j))
        g = build_graph(disks)
        assert g.n == len(disks)
        assert list(g.edges) == expect


class TestApproxVC:
    def test_edgeless_empty_cover(self):
        g = build_graph([P(0, 0), P(4, 0)])
        assert approx_vc(g, 0) == []

    def test_path_greedy_matching(self):
        g = build_graph([P(0, 0), P(1, 0), P(2, 0)])
        assert approx_vc(g, 1) == [0, 1]

    def test_one_edge_zero_budget_exceeds(self):
        g = build_graph([P(0, 0), P(1, 0)])
        assert approx_vc(g, 0) is None

    def test_cover_hits_every_edge(self):
        rng = random.Random(11)
        for trial in range(30):
            disks = [P(F(rng.randint(0, 40), 4), F(rng.randint(0, 40), 4))
                     for _ in range(10)]
            g = build_graph(disks)
            cover = approx_vc(g, 10)
            assert cover is not None
            cs = set(cover)
            assert all(i in cs or j in cs for i, j in g.edges)

    def test_two_approximation_and_matching_bound(self):
        rng = random.Random(5)
        for trial in range(40):
            n = rng.randint(2, 12)
            disks = [P(F(rng.randint(0, 3 * n), 4),
                       F(rng.randint(0, 3 * n), 4)) for _ in range(n)]
            g = build_graph(disks)
            cover = approx_vc(g, n)
            opt = brute_min_vc(n, g.edges)
            assert len(cover) <= 2 * opt
            assert len(cover) % 2 == 0
            assert len(cover) // 2 <= opt  # matching lower-bounds OPT


class TestComponents:
    def test_edgeless_singletons(self):
        g = build_graph([P(0, 0), P(4, 0), P(8, 0)])
        assert components(g) == [[0], [1], [2]]

    def test_path_single_component(self):
        g = build_graph([P(0, 0), P(1, 0), P(2, 0)])
        assert components(g) == [[0, 1, 2]]

    def test_two_far_pairs(self):
        g = build_graph([P(0, 0), P(1, 0), P(50, 0), P(51, 0)])
        assert components(g) == [[0, 1], [2, 3]]
