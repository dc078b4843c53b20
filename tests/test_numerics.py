import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diskdispersal.geometry import Point, dist2
from diskdispersal.numerics import (
    DomainError,
    Interval,
    Ordering,
    QuadExt,
    compare,
    frac,
    format_scalar,
    parse_int,
    parse_scalar,
    quadext,
    sign_sqrt,
    sign_sqrt2,
    split_sqrt,
    sqrt_lower_upper,
    to_interval,
)

rationals = st.fractions(max_denominator=1000)


class TestCompare:
    def test_rational_identity(self):
        assert compare(F(3), F(3)) is Ordering.EQUAL

    def test_radical_vs_rational_by_squaring(self):
        # sqrt(3) < 2 because 3 < 4
        assert compare(quadext(0, 1, 3), F(2)) is Ordering.LESS

    def test_shared_offset_distinct_radicands(self):
        assert compare(quadext(1, 1, 2), quadext(1, 1, 3)) is Ordering.LESS

    def test_same_radicand_exact(self):
        a = quadext(F(1, 2), F(3), 5)
        b = quadext(F(1, 2), F(2), 5)
        assert compare(a, b) is Ordering.GREATER
        assert compare(a, a) is Ordering.EQUAL

    def test_equal_radicals_built_differently(self):
        # sqrt(8) is 2*sqrt(2): normalisation must unify the radicands
        assert compare(quadext(0, 1, 8), quadext(0, 2, 2)) is Ordering.EQUAL

    def test_equal_towers_of_different_shape(self):
        # neither side cancels structurally; only the sign decides
        r2, r3, r6 = (quadext(0, 1, c) for c in (2, 3, 6))
        assert compare(r2 * r3, r6) is Ordering.EQUAL
        assert compare((r2 + r3) * (r2 + r3), 5 + 2 * r6) is Ordering.EQUAL

    def test_mixed_radicands_against_close_rational(self):
        # sqrt(2)+sqrt(3) against a 40-digit rational approximation of
        # itself: 64-bit enclosures cannot separate them, the sign can
        close = F(31462643699419723423291350657155704455124, 10 ** 40)
        v = quadext(0, 1, 2) + quadext(0, 1, 3)
        assert compare(v, close) is Ordering.GREATER
        assert compare(v, close + F(1, 10 ** 40)) is Ordering.LESS

    def test_four_radicands_decide_quickly(self):
        # coordinates over four distinct radicands: the deepest tower two
        # stored points can produce
        a = Point(quadext(1, F(1, 3), 2), quadext(F(1, 7), F(2, 5), 3))
        b = Point(quadext(F(-1, 2), F(3, 4), 5), quadext(F(2, 9), F(-5, 11), 7))
        t0 = time.perf_counter()
        got = compare(dist2(a, b), 7)
        assert time.perf_counter() - t0 < 0.05
        iv = to_interval(dist2(a, b), 256)
        assert got is (Ordering.LESS if iv.hi < 7 else Ordering.GREATER)

    @given(rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_rational_antisymmetry(self, a, b):
        ab, ba = compare(a, b), compare(b, a)
        flip = {Ordering.LESS: Ordering.GREATER,
                Ordering.GREATER: Ordering.LESS,
                Ordering.EQUAL: Ordering.EQUAL}
        assert ba is flip[ab]

    @given(rationals, rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_rational_transitivity(self, a, b, c):
        if compare(a, b) is not Ordering.GREATER and \
                compare(b, c) is not Ordering.GREATER:
            assert compare(a, c) is not Ordering.GREATER

    @given(st.fractions(max_denominator=50), st.integers(2, 50))
    @settings(max_examples=200, deadline=None)
    def test_irrational_never_equals_rational(self, p, c):
        v = quadext(p, 1, c)
        if isinstance(v, F):  # c was a perfect square
            return
        assert compare(v, p) is not Ordering.EQUAL
        assert compare(v, p + F(17, 12)) is not Ordering.EQUAL


class TestIntegerSigns:
    """sign_sqrt and sign_sqrt2 against QuadExt.sign(), through compare."""

    # zero, one, square-free, perfect squares, squares times square-free
    RADICANDS = (0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 25, 50, 72, 10007)

    @staticmethod
    def _int(rng):
        return rng.choice((0, rng.randint(-9, 9),
                           rng.randint(-10 ** 6, 10 ** 6)))

    @staticmethod
    def _reference(value) -> int:
        return compare(value, F(0)).value

    def test_one_radical(self):
        rng = random.Random(17)
        for _ in range(2000):
            b, c = self._int(rng), rng.choice(self.RADICANDS)
            if rng.random() < 0.3:
                # a near -b*sqrt(c): exact cancellation when c is a square
                a = -math.isqrt(b * b * c) * (1 if b >= 0 else -1) \
                    + rng.choice((-1, 0, 1))
            else:
                a = self._int(rng)
            want = self._reference(quadext(a, b, c))
            assert sign_sqrt(a, b, c) == want, (a, b, c)

    def test_two_radicals(self):
        rng = random.Random(18)
        zeros = 0
        for n in range(2000):
            a, b, g, h = (self._int(rng) for _ in range(4))
            c1, c2 = (rng.choice(self.RADICANDS) for _ in range(2))
            mode = n % 5
            if mode == 0:
                c2 = c1
            elif mode == 1:
                # one rational operand
                if rng.random() < 0.5:
                    b = 0
                else:
                    h = 0
            elif mode == 2:
                # (a + b*sqrt(c1)) = -s*(g + h*sqrt(c1)) with sqrt(c2) = s
                s = rng.randint(1, 40)
                c2, a, b = s * s, -s * g, -s * h
            value = quadext(a, b, c1) + quadext(0, 1, c2) * quadext(g, h, c1)
            want = self._reference(value)
            zeros += want == 0
            assert sign_sqrt2(a, b, g, h, c1, c2) == want, (a, b, g, h, c1, c2)
        assert zeros >= 300

    def test_split_sqrt_matches_quadext(self):
        rng = random.Random(19)
        for _ in range(500):
            n, d = rng.randint(0, 10 ** 5), rng.randint(1, 10 ** 4)
            s, f, e = split_sqrt(n, d)
            assert F(s * s * f, e * e) == F(n, d)
            assert quadext(0, F(s, e), f) == quadext(0, 1, F(n, d))


class TestQuadExtArithmetic:
    def test_square_collapses_radical(self):
        v = quadext(0, 1, 3)
        assert v * v == F(3)

    def test_product_same_radicand(self):
        v = quadext(1, 1, 2) * quadext(1, -1, 2)  # (1+r)(1-r) = -1
        assert v == F(-1)

    def test_mixed_radicands_stay_exact(self):
        v = quadext(0, 1, 2) + quadext(0, 1, 3)
        assert v == QuadExt(quadext(0, 1, 2), F(1), F(3))
        # sqrt(2)+sqrt(3) is about 3.146
        assert compare(v, F(3)) is Ordering.GREATER
        assert compare(v, F(4)) is Ordering.LESS
        assert v - quadext(0, 1, 3) == quadext(0, 1, 2)

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            quadext(0, 1, -1)

    def test_int_on_the_left(self):
        assert 2 - quadext(1, 1, 3) == quadext(1, -1, 3)
        assert 2 * quadext(0, 1, 3) == quadext(0, 2, 3)
        assert 1 + quadext(0, 1, 3) == quadext(1, 1, 3)

    def test_cancelled_radical_is_a_fraction(self):
        v = quadext(1, 1, 3)
        assert type(v - v) is F and v - v == 0
        assert type(v * 0) is F and v * 0 == 0


_small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_radicals = st.builds(quadext, _small, _small.filter(bool),
                      st.sampled_from([2, 3, 5]))
_raw_intervals = st.lists(st.integers(-2000, 2000), min_size=2, max_size=2) \
    .map(lambda e: Interval(F(min(e), 64), F(max(e), 64), 16))
_scalars = st.one_of(st.integers(-20, 20), _small, _radicals, _raw_intervals)


def _same(u, v) -> bool:
    """Equal scalars; intervals are equal when their enclosures are."""
    if isinstance(u, Interval) or isinstance(v, Interval):
        return isinstance(u, Interval) and isinstance(v, Interval) \
            and (u.lo, u.hi) == (v.lo, v.hi)
    return u == v


class TestOperators:
    @given(_scalars, _scalars)
    @settings(max_examples=300, deadline=None)
    @example(2, quadext(1, 1, 3))
    @example(F(1, 2), quadext(0, 1, 2))
    @example(quadext(0, 1, 2), quadext(0, 1, 3))
    @example(3, Interval(F(1), F(2), 16))
    @example(quadext(1, 1, 5), Interval(F(-1), F(2), 16))
    def test_commute_and_antisymmetry(self, a, b):
        assert _same(a + b, b + a)
        assert _same(a - b, -(b - a))
        assert _same(a * b, b * a)


class TestSqrtBracket:
    def test_perfect_square(self):
        assert sqrt_lower_upper(F(4), 100) == (F(2), F(2))

    def test_zero(self):
        assert sqrt_lower_upper(F(0), 10) == (F(0), F(0))

    def test_three_brackets_tightly(self):
        lo, hi = sqrt_lower_upper(F(3), 1000)
        assert lo * lo <= 3 <= hi * hi
        assert hi - lo <= F(1, 1000)
        assert lo <= F(17320508, 10 ** 7) <= hi

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sqrt_lower_upper(F(-1), 10)

    @given(st.fractions(min_value=0, max_value=10 ** 6, max_denominator=999),
           st.integers(1, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    @example(F(1, 16), 1)  # root 1/4 is finer than the 1/1 grid
    def test_bracket_invariants(self, x, bound):
        lo, hi = sqrt_lower_upper(x, bound)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= F(1, bound)
        assert lo.denominator <= 2 * bound and hi.denominator <= 2 * bound


class TestIntervals:
    def test_enclosures_contain(self):
        coarse = to_interval(quadext(0, 1, 3), 64)
        fine = to_interval(quadext(0, 1, 3), 128)
        assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi
        assert fine.hi - fine.lo < F(1, 2 ** 120)
        assert fine.lo ** 2 <= 3 <= fine.hi ** 2

    def test_enclosure_chain_nested(self):
        v = quadext(2, 5, 7)
        prev = to_interval(v, 64)
        for bits in (128, 256, 512):
            nxt = to_interval(v, bits)
            assert prev.lo <= nxt.lo <= nxt.hi <= prev.hi
            prev = nxt

    def test_tower_enclosures_contain(self):
        # sqrt(2)*sqrt(3) is sqrt(6), held as a two-level tower
        v = quadext(0, 1, 2) * quadext(0, 1, 3)
        for bits in (64, 128, 256):
            iv = to_interval(v, bits)
            assert 0 < iv.lo and iv.lo ** 2 <= 6 <= iv.hi ** 2
            assert iv.hi - iv.lo < F(1, 2 ** (bits - 4))

    def test_exact_rational_is_point_interval(self):
        iv = to_interval(F(7, 3), 64)
        assert iv.lo == iv.hi == F(7, 3)

    def test_raw_interval_encloses_itself(self):
        raw = Interval(F(0), F(1), 16)
        assert to_interval(raw, 128) is raw

    def test_zero(self):
        # a point enclosure decides equality
        assert compare(Interval(F(0), F(0), 64), 0) is Ordering.EQUAL


class TestApproximateLiterals:
    def test_exact_side_enclosed_at_literal_precision(self):
        # a 40-decimal literal whose enclosure lies 1.7e-40 below sqrt(2):
        # 64 bits cannot separate them, the literal's 136 bits can
        lit = parse_scalar("1.4142135623730950488016887242096980785694~")
        assert compare(lit, quadext(0, 1, 2)) is Ordering.LESS
        assert compare(quadext(0, 1, 2), lit) is Ordering.GREATER

    def test_raw_straddle_is_indeterminate(self):
        # the ~ interval [1, 3] squared straddles 4 at every precision
        d = dist2(Point(F(0), F(0)), Point(Interval(F(1), F(3)), F(0)))
        assert compare(d, F(4)) is Ordering.INDETERMINATE


_radicands = st.sampled_from([2, 3, 5, 6, 7])
_coefs = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_radical_points = _radicands.flatmap(lambda c: st.builds(
    lambda px, qx, py, qy: Point(quadext(px, qx, c), quadext(py, qy, c)),
    _coefs, _coefs, _coefs, _coefs))


def _dist2_enclosure(a: Point, b: Point, bits: int) -> Interval:
    """dist2 by interval arithmetic on enclosures of the coordinates."""
    ax, ay, bx, by = (to_interval(v, bits) for v in (a.x, a.y, b.x, b.y))
    dx, dy = ax - bx, ay - by
    return dx * dx + dy * dy


class TestTowers:
    @given(_radical_points, _radical_points,
           st.one_of(st.just(F(4)), _coefs.map(abs)))
    @settings(max_examples=300, deadline=None)
    @example(Point(quadext(0, F(2, 5), 2), quadext(0, F(4, 5), 2)),
             Point(quadext(0, F(-4, 5), 3), quadext(0, F(2, 5), 3)), F(4))
    def test_dist2_matches_fine_enclosure(self, a, b, t):
        got = compare(dist2(a, b), t)
        assert got is not Ordering.INDETERMINATE
        ref = _dist2_enclosure(a, b, 600)
        if ref.hi < t:
            assert got is Ordering.LESS
        elif ref.lo > t:
            assert got is Ordering.GREATER
        elif ref.lo == ref.hi == t:
            assert got is Ordering.EQUAL


class TestSlackPredicates:
    def test_relaxed_separation_matches_reference(self):
        # D >= (2 - s*sqrt(2))^2 decided by the integer one-radical test
        # must agree with a direct high-precision comparison
        import random
        rng = random.Random(8)
        for _ in range(500):
            s = F(rng.randint(1, 64), 256)
            D = F(rng.randint(0, 6 * 256), 256)
            a = F(4) + 2 * s * s
            b = 4 * s
            t = a - D
            fast = t <= 0 or t * t <= 2 * b * b
            lo, hi = sqrt_lower_upper(F(2), 10 ** 12)
            # reference: compare against both enclosure ends
            ref_lo = D >= a - b * lo
            ref_hi = D >= a - b * hi
            if ref_lo == ref_hi:  # enclosure decides
                assert fast == ref_lo

    def test_relaxed_move_matches_reference(self):
        import random
        rng = random.Random(9)
        for _ in range(500):
            d2 = F(rng.randint(1, 9 * 16), 16)
            dl = F(rng.randint(1, 32), 128)
            V = F(rng.randint(0, 12 * 128), 128) ** 2
            a = d2 + 2 * dl * dl
            t = V - a
            fast = t <= 0 or t * t <= 8 * dl * dl * d2
            lo, hi = sqrt_lower_upper(2 * d2, 10 ** 12)
            ref_lo = V <= a + 2 * dl * lo
            ref_hi = V <= a + 2 * dl * hi
            if ref_lo == ref_hi:
                assert fast == ref_lo


class TestTextForms:
    @pytest.mark.parametrize("text,value", [
        ("3", F(3)),
        ("-7/2", F(-7, 2)),
        ("+5", F(5)),
    ])
    def test_rational_forms(self, text, value):
        assert parse_scalar(text) == value

    def test_quadext_form(self):
        v = parse_scalar("0+1*sqrt(3)")
        assert compare(v, quadext(0, 1, 3)) is Ordering.EQUAL

    def test_quadext_negative_coefficient(self):
        v = parse_scalar("1-1/2*sqrt(2)")
        assert compare(v, quadext(1, F(-1, 2), 2)) is Ordering.EQUAL

    def test_tilde_literal_is_enclosure(self):
        v = parse_scalar("1.7320508~")
        assert isinstance(v, Interval)
        assert v.lo <= F(17320508, 10 ** 7) <= v.hi
        assert v.hi - v.lo == 2 * F(1, 10 ** 7)

    def test_round_trip_canonical(self):
        for text in ("3", "-7/2", "0+1*sqrt(3)", "1-1/2*sqrt(2)",
                     "1.7320508~", "-2.50~"):
            v = parse_scalar(text)
            assert format_scalar(parse_scalar(format_scalar(v))) == \
                format_scalar(v)

    @pytest.mark.parametrize("value, text", [
        (Interval(-F(1, 2 ** 40), F(1, 2 ** 40), 40), "0.000000000000~"),
        # 0.00001~ squared is [0, 4e-10], rounded out to [0, 2^-19]
        (parse_scalar("0.00001~") * parse_scalar("0.00001~"), "0.000001~"),
        # a point has a literal at every length; the bits cap the digits
        (Interval(F(1, 4), F(1, 4), 8), "0.25000000~"),
        (parse_scalar("2.0~") + 1, None),
        (parse_scalar("2.0~") + F(1, 3), None),
    ])
    def test_computed_interval_literal_encloses_it(self, value, text):
        # a literal encloses one unit in its last digit on each side, so an
        # interval wider than 0.2 has none
        if text is None:
            assert value.hi - value.lo > F(1, 5)
            with pytest.raises(ValueError):
                format_scalar(value)
        else:
            assert format_scalar(value) == text
            back = parse_scalar(text)
            assert back.lo <= value.lo and value.hi <= back.hi
        # a message naming the point must not raise
        repr(Point(value, value))

    def test_bad_literals(self):
        for text in ("", "abc", "1/0", "sqrt(2)", "1+2*sqrt(-3)"):
            with pytest.raises(ValueError):
                parse_scalar(text)

    @pytest.mark.parametrize("text, value", [("7", 7), ("-12", -12),
                                             ("+3", 3), (" 40 ", 40)])
    def test_integer_literals(self, text, value):
        assert parse_int(text) == value

    @pytest.mark.parametrize("text", ["", "1_0", "\uff13", "\u0663", "1.0",
                                      "1/1", "- 1", "0x10"])
    def test_bad_integer_literals(self, text):
        # int() reads 1_0 and the digits of other scripts; the file
        # grammar reads none of these
        with pytest.raises(ValueError):
            parse_int(text)

    def test_frac_takes_no_text(self):
        # text goes through parse_rational, the one rational grammar
        with pytest.raises(TypeError):
            frac("1/2")
