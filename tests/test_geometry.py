import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diskdispersal.geometry import (
    SCALE_BITS,
    SHARED_POINTS,
    Point,
    close_pairs,
    dist2,
    is_packing,
    near,
    overlap,
    scale_points,
    within_move,
)
from diskdispersal.instance_io import Instance, Witness, validate_witness
from diskdispersal.numerics import (
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


def brute_near(pts, i, threshold, closed):
    """Reference for near: every point through the exact comparison, an
    undecided one counting as near."""
    out = []
    for j, q in enumerate(pts):
        o = compare(dist2(pts[i], q), threshold)
        if o in (Ordering.LESS, Ordering.INDETERMINATE) or (
                closed and o is Ordering.EQUAL):
            out.append(j)
    return out


def large_primes(start, count):
    """The first count primes from start, by trial division."""
    out, n = [], start
    while len(out) < count:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


def past_the_bound(seed, n=40):
    """n points in [0, 12]^2, half on integers and half with distinct prime
    denominators near 10^6, whose common denominator passes SCALE_BITS;
    every third point with a prime denominator has a partner exactly 2 to
    its right, on the same denominators."""
    rng = random.Random(seed)
    primes = iter(large_primes(10 ** 6, n))
    pts = []
    while len(pts) < n:
        if rng.random() < 0.5:
            pts.append(P(rng.randint(0, 12), rng.randint(0, 12)))
            continue
        p, q = next(primes), next(primes)
        a = Point(F(rng.randint(0, 10 * p), p), F(rng.randint(0, 12 * q), q))
        pts.append(a)
        if len(pts) % 3 == 0:
            pts.insert(rng.randrange(len(pts) + 1), Point(a.x + 2, a.y))
    return pts[:n]


def scale_reference(pts):
    """Reference for scale_points, coordinate by coordinate: the x of every
    point, then the y of every point, each on the scale when it is rational
    and keeps the common denominator within SCALE_BITS bits."""
    xy = [p.x for p in pts] + [p.y for p in pts]
    D, on = 1, []
    for v in xy:
        m = math.lcm(D, v.denominator) if isinstance(v, (F, int)) else None
        on.append(m is not None and m.bit_length() <= SCALE_BITS)
        D = m if on[-1] else D
    n = len(pts)
    X = [int(p.x * D) if on[i] and on[n + i] else None
         for i, p in enumerate(pts)]
    Y = [int(p.y * D) if on[i] and on[n + i] else None
         for i, p in enumerate(pts)]
    return D, X, Y


def boxes_apart(a, b, threshold):
    """The enclosures of a and b are farther apart than sqrt(threshold)."""
    gap2 = 0
    for u, v in ((a.x, b.x), (a.y, b.y)):
        iu, iv = to_interval(u), to_interval(v)
        gap = max(iv.lo - iu.hi, iu.lo - iv.hi, 0)
        gap2 += gap * gap
    return gap2 > threshold


class TestPoint:
    """A point is a frozen value with slots: one object per disk for the
    cyclic collector to track, and no per-point __dict__."""

    def test_has_no_dict(self):
        p = P(1, 2)
        assert not hasattr(p, "__dict__")
        assert Point.__slots__ == ("x", "y")

    def test_is_frozen(self):
        p = P(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = F(3)
        assert p == P(1, 2)

    def test_equality_and_hash_across_int_and_fraction(self):
        a, b = Point(1, 2), Point(F(1), F(2))
        assert a == b and hash(a) == hash(b)
        assert {a: 0}[b] == 0
        assert Point(1, 2) != Point(2, 1)

    def test_repr_and_is_rational(self):
        assert repr(Point(F(-7, 2), 0)) == "(-7/2, 0)"
        assert Point(1, F(1, 3)).is_rational()
        assert not Point(1, quadext(0, 1, 2)).is_rational()
        assert repr(Point(1, quadext(0, 1, 2))) == "(1, 0+1*sqrt(2))"

    @pytest.mark.parametrize("p", [
        Point(F(1, 3), F(-2)), Point(1, 2), Point(F(1), quadext(1, 1, 3)),
        Point(Interval(F(1), F(2)), F(0))])
    def test_pickle_and_deepcopy_round_trip(self, p):
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p),
                  copy.copy(p)):
            assert type(q) is Point and q == p and hash(q) == hash(p)
            assert repr(q) == repr(p)

    def test_validation_reuses_the_instance_memo(self):
        inst = Instance("euclidean", 1, F(4),
                        tuple(P(3 * i, 0) for i in range(12)))
        w = Witness({0: P(-1, 0)})
        assert validate_witness(inst, w).accepted
        memo = inst.__dict__["_conflicts_at"]
        assert validate_witness(inst, w).accepted
        assert inst.__dict__["_conflicts_at"] is memo
        clash = Witness({0: P(2, 0)})
        assert validate_witness(inst, clash).reason == "packing"
        assert inst.__dict__["_conflicts_at"] is memo


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
        moved = [Point(p.x + vx, p.y + vy) for p in disks]
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

    @pytest.mark.parametrize("kind", ["integer", "mixed", "interleaved",
                                      "crowded"])
    def test_seeded_sets_match_brute_force(self, kind):
        # dense sets with many close pairs and exact tangencies; in the
        # interleaved sets one radical or approximate point goes through the
        # exact comparison and must merge into lexicographic order; the
        # crowded sets put 20-60 points on quarters in a box of side 3 at a
        # negative offset, a quarter of the coordinates on cell boundaries,
        # so that cells hold many points and cells are found by floor
        # division of negative integers
        rng = random.Random(f"close-pairs-{kind}")
        for trial in range(40):
            n = rng.randint(2, 40)
            side = rng.randint(2, 12)
            if kind == "crowded":
                n = rng.randint(20, 60)
                ox, oy = rng.randint(-9, -3), rng.randint(-9, -3)
                pts = [P(ox + F(rng.randint(0, 12), 4),
                         oy + F(rng.randint(0, 12), 4)) for _ in range(n)]
            elif kind == "integer":
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
            for threshold in (F(4), F(4) - F(1, 10 ** 9), F(9, 4), F(1, 4)):
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


class TestScaledPoints:
    def test_one_common_denominator(self):
        # the radical point is off the scale; its rational x still counts
        # towards D
        pts = [P(F(1, 2), 3), Point(F(1, 3), quadext(0, 1, 2)),
               Point(2, F(5, 4))]
        assert scale_points(pts) == (12, [6, None, 24], [36, None, 15])

    def test_no_points(self):
        assert scale_points([]) == (1, [], [])

    def test_bulk_set_matches_reference(self):
        # from SHARED_POINTS points on, each distinct coordinate object is
        # converted once; the scale is the same as coordinate by coordinate
        rng = random.Random(3)
        primes = large_primes(10 ** 6, 6)
        pool = ([F(rng.randint(-40, 40), rng.choice([1, 2, 4]))
                 for _ in range(24)]
                + [F(rng.randint(1, p - 1), p) for p in primes]
                + [quadext(1, 1, 2), parse_scalar("0.5~")])
        for n in (SHARED_POINTS - 1, SHARED_POINTS):
            pts = [Point(rng.choice(pool), rng.choice(pool))
                   for _ in range(n)]
            D, X, Y = scale_points(pts)
            assert (D, X, Y) == scale_reference(pts)
            assert None in X and D.bit_length() > 40

    @pytest.mark.parametrize("seed", range(3))
    def test_denominators_past_the_bound_leave_the_scale(self, seed):
        pts = past_the_bound(seed)
        D, X, Y = scale_points(pts)
        assert (D, X, Y) == scale_reference(pts)
        assert None in X and any(x is not None for x in X)
        for p, x, y in zip(pts, X, Y):
            if x is not None:
                assert (F(x, D), F(y, D)) == (p.x, p.y)
            else:
                assert math.lcm(D, p.x.denominator,
                                p.y.denominator).bit_length() > SCALE_BITS

    @pytest.mark.parametrize("seed", range(3))
    def test_close_pairs_off_the_scale_match_brute_force(self, seed):
        pts = past_the_bound(seed)
        for threshold in (F(4), F(4) - F(1, 10 ** 9), F(9, 4)):
            for closed in (False, True):
                close, undecided = brute_close_pairs(pts, threshold, closed)
                assert not undecided
                assert list(close_pairs(pts, threshold, closed)) == close
        # the tangent partners count only when closed
        assert (set(close_pairs(pts, F(4), closed=True))
                > set(close_pairs(pts, F(4))))

    @pytest.mark.parametrize("seed", range(40))
    def test_mixed_set_order_and_undecided_pair(self, seed):
        # points on the scale and one point that is not rational, near 2
        # from another: a radical merges into lexicographic order; a ``~``
        # literal whose enclosure straddles 2 raises at the first undecided
        # pair of the lexicographic scan, after every close pair before it
        rng = random.Random(f"mixed-{seed}")
        pts = [P(F(rng.randint(0, 24), 2), F(rng.randint(0, 24), 2))
               for _ in range(rng.randint(2, 30))]
        i, j = rng.sample(range(len(pts)), 2)
        x, y = pts[j].x + 2, pts[j].y
        pts[i] = (Point(quadext(x, F(1, 8), 2), y) if seed % 2 else
                  Point(parse_scalar(f"{float(x):.7f}~"), y))
        for threshold in (F(4), F(9, 4)):
            for closed in (False, True):
                before, first = [], None
                for a in range(len(pts)):
                    for b in range(a + 1, len(pts)):
                        o = compare(dist2(pts[a], pts[b]), threshold)
                        if o is Ordering.INDETERMINATE:
                            first = first or (a, b)
                        elif first is None and (
                                o is Ordering.LESS
                                or (closed and o is Ordering.EQUAL)):
                            before.append((a, b))
                got = []
                if first is None:
                    got.extend(close_pairs(pts, threshold, closed))
                    assert got == before
                    continue
                with pytest.raises(IndeterminateError) as err:
                    got.extend(close_pairs(pts, threshold, closed))
                assert got == before
                a, b = first
                assert str(err.value) == f"distance of {pts[a]} and {pts[b]}"


class TestNear:
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_sets_match_brute_force(self, seed):
        # quarter-grid points in a box of side 6, and pairs planted to meet
        # a threshold with equality, each moved in x by its own 1/p, p a
        # prime above 2^21, which leaves all but two pairs off the 64-bit
        # scale; one point gets a radical or a ``~`` coordinate, with a
        # partner 2 to its right
        rng = random.Random(f"near-{seed}")
        primes = iter(large_primes(2 ** 21, 60))
        ties = undecided = 0
        for trial in range(8):
            pts = [P(F(rng.randint(0, 24), 4), F(rng.randint(0, 24), 4))
                   for _ in range(rng.randint(4, 16))]
            for _ in range(rng.randint(3, 6)):
                q = Point(F(rng.randint(0, 24), 4) + F(1, next(primes)),
                          F(rng.randint(0, 24), 4))
                vx, vy = rng.choice([(2, 0), (0, F(3, 2)), (F(3, 4), 1),
                                     (0, 3)])
                for r in (q, Point(q.x + vx, q.y + vy)):
                    pts.insert(rng.randrange(len(pts) + 1), r)
            i = rng.randrange(len(pts))
            x, y = pts[i].x, pts[i].y
            pts.append(Point(x + 2, y))
            pts[i] = (Point(quadext(x, 1, 3), y) if trial % 2 else
                      Point(parse_scalar(f"{float(x):.7f}~"), y))
            n = len(pts)
            scaled = scale_points(pts)
            assert None in scaled[1] and any(
                x is not None and pts[j].x.denominator > 4
                for j, x in enumerate(scaled[1]))
            for threshold in (F(4), F(9, 4), F(25, 16), F(9)):
                for i in range(n):
                    for j in range(n):
                        o = compare(dist2(pts[i], pts[j]), threshold)
                        ties += o is Ordering.EQUAL
                        undecided += o is Ordering.INDETERMINATE
                    for closed in (False, True):
                        assert (near(pts, scaled, i, threshold, closed)
                                == brute_near(pts, i, threshold, closed))
        assert ties and undecided

    def test_undecided_pair_is_near(self):
        # 2.000000000~ cannot be told from 2 at threshold 4, where
        # close_pairs raises
        pts = [P(0, 0), Point(parse_scalar("2.000000000~"), F(0)), P(5, 0)]
        assert compare(dist2(pts[0], pts[1]), F(4)) is Ordering.INDETERMINATE
        for closed in (False, True):
            for i in (0, 1):
                assert near(pts, scale_points(pts), i, F(4), closed) == [0, 1]
        with pytest.raises(IndeterminateError):
            list(close_pairs(pts, F(4)))


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
