import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diskdispersal.geometry import (
    Point,
    circle_circle_candidates,
    circle_circle_candidates_sq,
    close_pairs,
    dist2,
    is_packing,
    overlap,
    translate,
    within_move,
)
from diskdispersal.numerics import (
    DomainError,
    IndeterminateError,
    Interval,
    Ordering,
    compare,
    parse_scalar,
    quadext,
    to_interval,
)


def P(x, y):
    return Point(F(x), F(y))


coords = st.fractions(min_value=-50, max_value=50, max_denominator=16)
points = st.builds(P, coords, coords)

# half-integer coordinates put many centers on cell boundaries; radicals
# come from tangency points, intervals from approximate literals
halves = st.integers(-12, 12).map(lambda v: F(v, 2))
radicals = st.builds(quadext, halves,
                     st.sampled_from([F(1), F(-1), F(1, 2)]),
                     st.sampled_from([2, 3, 5]))
intervals = st.builds(lambda m, w: Interval(m - w, m + w), halves,
                      st.sampled_from([F(1, 64), F(1, 2), F(7)]))
mixed = st.one_of(halves, halves, halves, radicals, intervals)
mixed_points = st.builds(Point, mixed, mixed)
# coprime denominators give pairs with unrelated denominators; integers give
# exact tangencies
fine = st.one_of(st.fractions(min_value=-6, max_value=6, max_denominator=97),
                 st.integers(-6, 6).map(F))


def brute_close_pairs(pts, threshold, closed):
    """Reference for close_pairs: every pair through the exact comparison.

    Returns the close pairs and the pairs the comparison cannot decide.
    """
    close, undecided = [], []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            o = compare(dist2(pts[i], pts[j]), threshold)
            if o is Ordering.INDETERMINATE:
                undecided.append((i, j))
            elif o is Ordering.LESS or (closed and o is Ordering.EQUAL):
                close.append((i, j))
    return close, undecided


def boxes_apart(a, b, threshold):
    """The enclosures of a and b are farther apart than sqrt(threshold)."""
    gap2 = 0
    for u, v in ((a.x, b.x), (a.y, b.y)):
        iu, iv = to_interval(u), to_interval(v)
        gap = max(iv.lo - iu.hi, iu.lo - iv.hi, 0)
        gap2 += gap * gap
    return gap2 > threshold


class TestDist2:
    def test_pythagorean_triple(self):
        assert dist2(P(0, 0), P(3, 4)) == F(25)

    def test_half_units(self):
        assert dist2(P(F(1, 2), 0), P(0, F(1, 2))) == F(1, 2)

    def test_radical_squares_away(self):
        q = Point(F(1), quadext(0, 1, 3))
        assert dist2(P(1, 0), q) == F(3)

    @given(points, points)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b):
        assert dist2(a, b) == dist2(b, a)

    @given(points, points)
    @settings(max_examples=100, deadline=None)
    def test_matches_independent_expansion(self, a, b):
        # textbook polynomial, term by term
        expect = (a.x * a.x - 2 * a.x * b.x + b.x * b.x
                  + a.y * a.y - 2 * a.y * b.y + b.y * b.y)
        assert dist2(a, b) == expect


class TestOverlap:
    def test_touching_is_not_overlap(self):
        assert overlap(P(0, 0), P(2, 0)) is False

    def test_unit_apart_overlaps(self):
        assert overlap(P(0, 0), P(1, 0)) is True

    def test_root_five_apart(self):
        assert overlap(P(0, 0), P(2, 1)) is False

    @given(points, points)
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_compare(self, a, b):
        assert overlap(a, b) == (compare(dist2(a, b), F(4)) is Ordering.LESS)


class TestIsPacking:
    def test_touching_chain(self):
        assert is_packing([P(0, 0), P(2, 0), P(4, 0)]) is None

    def test_touching_over_two_radicands(self):
        a = Point(quadext(0, F(2, 5), 2), quadext(0, F(4, 5), 2))
        b = Point(quadext(0, F(-4, 5), 3), quadext(0, F(2, 5), 3))
        assert is_packing([a, b]) is None

    def test_first_violation_reported(self):
        assert is_packing([P(0, 0), P(1, 0)]) == (0, 1)

    def test_empty(self):
        assert is_packing([]) is None

    def test_lexicographic_first_pair(self):
        assert is_packing([P(0, 0), P(1, 0), P(F(3, 2), 0)]) == (0, 1)

    def test_subset_of_packing_is_packing(self):
        disks = [P(2 * i, 2 * j) for i in range(4) for j in range(4)]
        assert is_packing(disks) is None
        assert is_packing(disks[3:9]) is None

    @given(st.lists(points, max_size=7), st.fractions(max_denominator=8),
           st.fractions(max_denominator=8))
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, disks, vx, vy):
        moved = [translate(p, vx, vy) for p in disks]
        assert is_packing(disks) == is_packing(moved)

    @given(st.lists(mixed_points, max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_first_pair_matches_brute_force(self, disks):
        close, undecided = brute_close_pairs(disks, F(4), False)
        if undecided:
            return
        assert is_packing(disks) == (close[0] if close else None)


class TestClosePairs:
    @given(st.lists(mixed_points, max_size=14),
           st.sampled_from([F(0), F(1, 4), F(1), F(4) - F(1, 10 ** 9), F(4),
                            F(9), F(16)]),
           st.booleans())
    @example([P(0, 0), Point(quadext(-2, -1, 5), Interval(F(-7), F(7)))],
             F(16), False)
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, pts, threshold, closed):
        close, undecided = brute_close_pairs(pts, threshold, closed)
        try:
            got = list(close_pairs(pts, threshold, closed))
        except IndeterminateError:
            assert undecided
            return
        assert got == close
        # interval arithmetic may leave a far pair undecided; the index
        # skips such a pair only when it is provably far
        assert all(boxes_apart(pts[i], pts[j], threshold)
                   for i, j in undecided)

    @given(st.lists(st.builds(Point, fine, fine), max_size=16),
           st.sampled_from([F(4), F(4) - F(1, 10 ** 9)]), st.booleans())
    @example([P(F(1, 3), F(1, 7)), P(F(23, 15), F(61, 35))], F(4), True)
    @example([P(F(1, 3), F(1, 7)), P(F(23, 15), F(61, 35))], F(4), False)
    @settings(max_examples=200, deadline=None)
    def test_rational_matches_brute_force(self, pts, threshold, closed):
        close, undecided = brute_close_pairs(pts, threshold, closed)
        assert not undecided
        assert list(close_pairs(pts, threshold, closed)) == close

    @pytest.mark.parametrize("kind", ["integer", "mixed", "interleaved"])
    def test_seeded_sets_match_brute_force(self, kind):
        # dense sets with many close pairs and exact tangencies; in the
        # interleaved sets one radical or approximate point goes through the
        # exact comparison and must merge into lexicographic order
        rng = random.Random(f"close-pairs-{kind}")
        for trial in range(40):
            n = rng.randint(2, 40)
            side = rng.randint(2, 12)
            if kind == "integer":
                pts = [P(rng.randint(0, side), rng.randint(0, side))
                       for _ in range(n)]
            else:
                pts = [P(F(rng.randint(0, 4 * side), rng.choice([1, 2, 3, 4])),
                         F(rng.randint(0, 4 * side), rng.choice([1, 5, 7])))
                       for _ in range(n)]
            if kind == "interleaved":
                i = rng.randrange(n)
                x, y = pts[i].x, pts[i].y
                pts[i] = [
                    Point(quadext(x, 1, 3), y),
                    Point(x, parse_scalar(f"{float(y) + 0.5:.7f}~")),
                    # an enclosure over more than four cells, far above
                    Point(Interval(x - 6, x + 6), y + 50),
                ][trial % 3]
            for threshold in (F(4), F(4) - F(1, 10 ** 9), F(9, 4)):
                for closed in (False, True):
                    close, undecided = brute_close_pairs(pts, threshold,
                                                         closed)
                    assert not undecided
                    assert list(close_pairs(pts, threshold, closed)) == close

    def test_tangencies_count_only_when_closed(self):
        # the three centers are pairwise exactly 2 apart
        pts = [P(0, 0), Point(F(1), quadext(0, 1, 3)), P(2, 0)]
        assert list(close_pairs(pts, F(4))) == []
        assert list(close_pairs(pts, F(4), closed=True)) == \
            [(0, 1), (0, 2), (1, 2)]


class TestWithinMove:
    def test_tangency_move_at_budget(self):
        target = Point(F(1), quadext(0, 1, 3))
        assert within_move(P(1, 0), target, F(3), "euclidean") is True

    def test_identity_move(self):
        assert within_move(P(5, 5), P(5, 5), F(0), "euclidean") is True
        assert within_move(P(5, 5), P(5, 5), F(0), "rectilinear") is True

    def test_diagonal_rejected_rectilinear(self):
        assert within_move(P(0, 0), P(1, 1), F(100), "rectilinear") is False

    def test_axis_moves_rectilinear(self):
        assert within_move(P(0, 0), P(0, 3), F(9), "rectilinear") is True
        assert within_move(P(0, 0), P(3, 0), F(8), "rectilinear") is False


class TestCircleIntersections:
    def test_symmetric_pair(self):
        pts = circle_circle_candidates(P(0, 0), 2, P(2, 0), 2)
        assert len(pts) == 2
        ys = sorted(pts, key=lambda p: 0 if compare(p.y, F(0)) is Ordering.LESS else 1)
        assert all(p.x == F(1) for p in pts)
        assert compare(ys[0].y * ys[0].y, F(3)) is Ordering.EQUAL
        assert compare(ys[1].y, quadext(0, 1, 3)) is Ordering.EQUAL

    def test_disjoint(self):
        assert circle_circle_candidates(P(0, 0), 2, P(5, 0), 2) == []

    def test_tangent_single_point(self):
        pts = circle_circle_candidates(P(0, 0), 2, P(4, 0), 2)
        assert pts == [P(2, 0)]

    def test_coincident_centers_error(self):
        with pytest.raises(DomainError):
            circle_circle_candidates(P(1, 1), 2, P(1, 1), 3)

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
           st.integers(-6, 6), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_points_satisfy_both_circle_equations(self, x1, y1, x2, y2, r1, r2):
        if (x1, y1) == (x2, y2):
            return
        c1, c2 = P(x1, y1), P(x2, y2)
        for p in circle_circle_candidates(c1, r1, c2, r2):
            assert compare(dist2(p, c1), F(r1 * r1)) is Ordering.EQUAL
            assert compare(dist2(p, c2), F(r2 * r2)) is Ordering.EQUAL

    def test_squared_radius_form_for_irrational_radius(self):
        # circle around origin with squared radius 3 meets the unit-ring
        # of (2, 0): candidates where a move budget of sqrt(3) is tight
        pts = circle_circle_candidates_sq(P(0, 0), F(3), P(2, 0), F(4))
        assert pts
        for p in pts:
            assert compare(dist2(p, P(0, 0)), F(3)) is Ordering.EQUAL
            assert compare(dist2(p, P(2, 0)), F(4)) is Ordering.EQUAL
