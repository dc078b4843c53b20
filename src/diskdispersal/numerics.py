"""Exact and certified-approximate scalar arithmetic.

Three scalar kinds flow through the geometric predicates:

* ``Fraction`` -- arbitrary-precision rationals (the workhorse).
* ``QuadExt`` -- values of the form ``p + q*sqrt(c)`` with a square-free
  radicand c, where p and q are rationals or QuadExt values over smaller
  radicands: a tower of radicals.  The sign of any such value, and so every
  comparison between exact scalars, is decided exactly by squaring.
* ``Interval`` -- outward-rounded dyadic enclosures of values parsed from
  approximate decimal literals (``1.7320508~``) and of anything computed
  from one.

Scalars combine with the Python operators ``+``, ``-`` and ``*`` (an ``int``
or ``Fraction`` on the left reaches the scalar classes through the reflected
operators).  Exact operands give an exact result, which collapses to a
Fraction when its radical cancels; any Interval operand gives an Interval.
All values are immutable; every operation returns a new value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

__all__ = [
    "Ordering",
    "QuadExt",
    "Interval",
    "Scalar",
    "IndeterminateError",
    "DomainError",
    "frac",
    "quadext",
    "compare",
    "sqrt_lower_upper",
    "ceil_sqrt",
    "split_sqrt",
    "sign_sqrt",
    "sign_sqrt2",
    "to_interval",
    "sign_le",
    "sign_lt",
    "sign_eq",
    "approx_float",
    "parse_scalar",
    "parse_rational",
    "format_scalar",
]


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INDETERMINATE = 2


class IndeterminateError(ValueError):
    """A comparison with an approximate (``~``) value could not be decided:
    the enclosures of the two sides overlap."""


class DomainError(ValueError):
    """Operand outside the mathematical domain of the operation."""


def frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"not a rational value: {v!r}")


# ---------------------------------------------------------------------------
# square-free extraction (used to normalise radicands)

def _small_primes(bound: int) -> list[int]:
    sieve = bytearray(b"\x01") * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(bound ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i in range(2, bound + 1) if sieve[i]]


_PRIMES = _small_primes(10000)


def _extract_square(n: int) -> tuple[int, int]:
    """Write n = s*s*f with f square-free as far as trial division reaches.

    The residual cofactor is additionally tested for being a perfect square.
    A composite residual with a hidden square factor is left alone, which is
    sound: two equal radicals may then be stored over different radicands,
    and a value combining them is only a deeper tower, whose sign is still
    decided exactly.
    """
    if n < 0:
        raise DomainError("negative radicand")
    if n in (0, 1):
        return 1, n
    s, f = 1, 1
    for p in _PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            s *= p ** (e // 2)
            if e % 2:
                f *= p
    if n > 1:
        r = math.isqrt(n)
        if r * r == n:
            s *= r
        else:
            f *= n
    return s, f


# ---------------------------------------------------------------------------
# QuadExt

@dataclass(frozen=True)
class QuadExt:
    """Exact value p + q*sqrt(c); construct through :func:`quadext`.

    c is a square-free integer greater than 1 (held as a Fraction); p and q
    are Fractions or QuadExt values whose radicands are all smaller than c,
    and q is never a structural zero.  An operand with a smaller top
    radicand acts as a scalar of the base field, one with the same radicand
    combines fieldwise, and one with a larger radicand takes the top.

    Parsed coordinates and the points the solver builds have a single
    level.  The deepest tower a predicate builds comes from two stored
    points whose four coordinates have four distinct radicands: their
    squared distance, compared against a rational, has four levels.

    Different towers can hold the same value (sqrt(2)*sqrt(3) is not stored
    as sqrt(6)), so whether a value is zero is decided by :meth:`sign`,
    never by ``==``.
    """

    p: Union[Fraction, "QuadExt"]
    q: Union[Fraction, "QuadExt"]
    c: Fraction

    def __add__(self, other):
        if isinstance(other, (Fraction, int)):
            return QuadExt(self.p + other, self.q, self.c)
        if isinstance(other, QuadExt):
            if other.c == self.c:
                return _quad(self.p + other.p, self.q + other.q, self.c)
            if other.c < self.c:
                return QuadExt(self.p + other, self.q, self.c)
            return QuadExt(self + other.p, other.q, other.c)
        return _iv_add(*_enclosures(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return _quad(self.p * other, self.q * other, self.c)
        if isinstance(other, QuadExt):
            c = other.c
            if c == self.c:
                # (p1 + q1 r)(p2 + q2 r) with r^2 = c
                return _quad(self.p * other.p + self.q * other.q * c,
                             self.p * other.q + self.q * other.p, c)
            if c < self.c:
                return _quad(self.p * other, self.q * other, self.c)
            return _quad(self * other.p, self * other.q, c)
        return _iv_mul(*_enclosures(self, other))

    __rmul__ = __mul__

    def __neg__(self):
        return QuadExt(-self.p, -self.q, self.c)

    def sign(self) -> int:
        """The exact sign: that of q when p is zero or has q's sign;
        otherwise p and q*sqrt(c) have opposite signs and the larger
        magnitude wins, which p^2 - q^2*c decides in the base field."""
        sp, sq = _sign(self.p), _sign(self.q)
        if sp == 0 or sp == sq:
            return sq
        return sp * _sign(self.p * self.p - self.q * self.q * self.c)

    def __repr__(self):
        return f"QuadExt({self.p}, {self.q}, sqrt({self.c}))"


Scalar = Union[Fraction, QuadExt, "Interval"]


def _sign(x) -> int:
    """Sign of a Fraction, an int or a QuadExt."""
    if isinstance(x, QuadExt):
        return x.sign()
    n = x.numerator
    return (n > 0) - (n < 0)


def _quad(p, q, c: Fraction) -> Scalar:
    """p + q*sqrt(c) for an already square-free c; p itself when q = 0."""
    return QuadExt(p, q, c) if q else p


def quadext(p, q, c) -> Scalar:
    """Build p + q*sqrt(c), collapsing to a Fraction whenever possible.

    The radicand is normalised to a square-free positive integer so that
    equal radicals built along different routes unify.
    """
    p, q, c = frac(p), frac(q), frac(c)
    if c < 0:
        raise DomainError("negative radicand")
    if q == 0 or c == 0:
        return p
    s, f, e = split_sqrt(c.numerator, c.denominator)
    q2 = q * Fraction(s, e)
    if f == 1:
        return p + q2
    return QuadExt(p, q2, Fraction(f))


def split_sqrt(n: int, d: int) -> tuple[int, int, int]:
    """(s, f, e) with sqrt(n/d) = s*sqrt(f)/e, for integers n >= 0 and
    d > 0: n/d is m/e in lowest terms, s*s*f = m*e, and f is the radicand
    :func:`quadext` stores for n/d (0 when n is 0, 1 when n/d is the square
    of a rational)."""
    g = math.gcd(n, d)
    n, e = n // g, d // g
    s, f = _extract_square(n * e)
    return s, f, e


# ---------------------------------------------------------------------------
# Interval

def _round_down(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(math.floor(x * scale), scale)


def _round_up(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(math.ceil(x * scale), scale)


@dataclass(frozen=True)
class Interval:
    """Closed enclosure [lo, hi] with dyadic endpoints.

    ``bits`` records the fractional precision the endpoints were rounded at.
    An exact operand meeting an interval is enclosed at that precision, and
    at no less than 64 bits.
    """

    lo: Fraction
    hi: Fraction
    bits: int = 53

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"inverted interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other):
        return _iv_add(*_enclosures(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return _iv_mul(*_enclosures(self, other))

    __rmul__ = __mul__

    def __neg__(self):
        return Interval(-self.hi, -self.lo, self.bits)

    def __repr__(self):
        return f"Interval[{self.lo}, {self.hi}]@{self.bits}"


def _mk_interval(lo: Fraction, hi: Fraction, bits: int) -> Interval:
    return Interval(_round_down(lo, bits), _round_up(hi, bits), bits)


def to_interval(x: Scalar, bits: int = 64) -> Interval:
    """Enclose any scalar; exact rationals become degenerate point intervals
    and an Interval comes back as it is."""
    if isinstance(x, Interval):
        return x
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return Interval(x, x, bits)
    if isinstance(x, QuadExt):
        lo, hi = sqrt_lower_upper(x.c, 1 << bits)
        if isinstance(x.p, QuadExt) or isinstance(x.q, QuadExt):
            return _iv_add(to_interval(x.p, bits),
                           _iv_mul(to_interval(x.q, bits),
                                   Interval(lo, hi, bits)))
        t1, t2 = x.p + x.q * lo, x.p + x.q * hi
        if t1 > t2:
            t1, t2 = t2, t1
        return _mk_interval(t1, t2, bits)
    raise TypeError(f"not a scalar: {x!r}")


def _enclosures(a: Scalar, b: Scalar) -> tuple[Interval, Interval]:
    """Enclosures of a and b, at least one of them an Interval; an exact
    operand is enclosed at the larger of 64 bits and the intervals' bits."""
    bits = max([64] + [x.bits for x in (a, b) if isinstance(x, Interval)])
    return to_interval(a, bits), to_interval(b, bits)


def _iv_add(a: Interval, b: Interval) -> Interval:
    return _mk_interval(a.lo + b.lo, a.hi + b.hi, max(a.bits, b.bits))


def _iv_mul(a: Interval, b: Interval) -> Interval:
    prods = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _mk_interval(min(prods), max(prods), max(a.bits, b.bits))


# ---------------------------------------------------------------------------
# comparison

def compare(a, b) -> Ordering:
    """Three-way comparison.

    Exact operands (rationals and QuadExt towers) are always decided
    exactly.  When either side is an Interval, both are enclosed once (see
    :func:`_enclosures`), and the answer is INDETERMINATE when the
    enclosures overlap without both being the same point.
    """
    if isinstance(a, Interval) or isinstance(b, Interval):
        ia, ib = _enclosures(a, b)
        if ia.hi < ib.lo:
            return Ordering.LESS
        if ia.lo > ib.hi:
            return Ordering.GREATER
        if ia.lo == ia.hi == ib.lo == ib.hi:
            return Ordering.EQUAL
        return Ordering.INDETERMINATE
    return Ordering(_sign(a - b))


def _resolve(o: Ordering, what: str) -> Ordering:
    if o is Ordering.INDETERMINATE:
        raise IndeterminateError(what)
    return o


def sign_lt(a, b, what: str = "comparison") -> bool:
    return _resolve(compare(a, b), what) is Ordering.LESS


def sign_le(a, b, what: str = "comparison") -> bool:
    return _resolve(compare(a, b), what) in (Ordering.LESS, Ordering.EQUAL)


def sign_eq(a, b, what: str = "comparison") -> bool:
    return _resolve(compare(a, b), what) is Ordering.EQUAL


# ---------------------------------------------------------------------------
# certified square roots

def sqrt_lower_upper(x, denom_bound: int) -> tuple[Fraction, Fraction]:
    """Rational bracket lo <= sqrt(x) <= hi with hi - lo <= 1/denom_bound.

    lo*lo <= x <= hi*hi holds exactly, and lo and hi have denominators of at
    most denom_bound.  A perfect rational square collapses to a degenerate
    bracket when its root's denominator is at most denom_bound; otherwise it
    is bracketed on the 1/denom_bound grid like any other value.
    """
    x = frac(x)
    if x < 0:
        raise DomainError("sqrt of negative value")
    if denom_bound < 1:
        raise DomainError("denominator bound must be positive")
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d and rd <= denom_bound:
        e = Fraction(rn, rd)
        return e, e
    B = denom_bound
    t = math.isqrt(n * B * B // d)
    lo = Fraction(t, B)
    hi = Fraction(t + 1, B)
    # t = floor(B*sqrt(x)), as an integer m <= sqrt(y) iff m*m <= floor(y);
    # so lo^2 <= x < hi^2
    return lo, hi


def ceil_sqrt(t: Fraction) -> int:
    """The least integer r >= 0 with r*r >= t."""
    tn, td = t.numerator, t.denominator
    r = math.isqrt(max(0, -(-tn // td)))
    return r if r * r * td >= tn else r + 1


# ---------------------------------------------------------------------------
# signs of integer radical expressions

def sign_sqrt(a: int, b: int, c: int) -> int:
    """The sign of a + b*sqrt(c), for integers a and b and c >= 0: that of b
    when a is zero or has b's sign, else the sign of a times that of
    a^2 - b^2*c."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0) if c else 0
    if sa == 0 or sa == sb:
        return sb
    if sb == 0:
        return sa
    t = a * a - b * b * c
    return sa * ((t > 0) - (t < 0))


def sign_sqrt2(a: int, b: int, g: int, h: int, c1: int, c2: int) -> int:
    """The sign of (a + b*sqrt(c1)) + sqrt(c2)*(g + h*sqrt(c1)), for integers
    and c1, c2 >= 0: :func:`sign_sqrt` over the field of sqrt(c1), whose
    square difference (a + b*sqrt(c1))^2 - c2*(g + h*sqrt(c1))^2 is again of
    the form A + B*sqrt(c1)."""
    sp = sign_sqrt(a, b, c1)
    sq = sign_sqrt(g, h, c1) if c2 else 0
    if sp == 0 or sp == sq:
        return sq
    if sq == 0:
        return sp
    return sp * sign_sqrt(a * a + b * b * c1 - c2 * (g * g + h * h * c1),
                          2 * (a * b - c2 * g * h), c1)


# ---------------------------------------------------------------------------
# float approximation (for display only)

def approx_float(x: Scalar) -> float:
    if isinstance(x, (Fraction, int)):
        return x.numerator / x.denominator
    if isinstance(x, QuadExt):
        return approx_float(x.p) + approx_float(x.q) * math.sqrt(x.c)
    return float(x.midpoint())


# ---------------------------------------------------------------------------
# text forms

_RAT = r"[+-]?\d+(?:/\d+)?"
_QUAD_RE = re.compile(rf"^({_RAT})([+-])(\d+(?:/\d+)?)\*sqrt\(({_RAT})\)$")
_TILDE_RE = re.compile(r"^([+-]?\d+)\.(\d+)~$")
_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _rational(m: re.Match) -> Fraction:
    """The Fraction of a ``_RAT_RE`` match."""
    try:
        return Fraction(int(m.group(1)), int(m.group(2) or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {m.string!r}") from None


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar literal.

    Accepted forms: ``3``, ``-7/2``, ``1/2+3/4*sqrt(5)``, ``2-1*sqrt(3)``,
    and approximate decimals ``1.7320508~`` (enclosed as an interval one unit
    in the last given digit wide on each side).
    """
    text = text.strip()
    m = _RAT_RE.match(text)
    if m:
        return _rational(m)
    m = _QUAD_RE.match(text)
    if m:
        try:
            p = Fraction(m.group(1))
            q = Fraction(m.group(3))
            c = Fraction(m.group(4))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        if m.group(2) == "-":
            q = -q
        if c < 0:
            raise DomainError(f"negative radicand in {text!r}")
        return quadext(p, q, c)
    m = _TILDE_RE.match(text)
    if m:
        digits = len(m.group(2))
        mag = abs(Fraction(m.group(1))) + Fraction(int(m.group(2)), 10 ** digits)
        v = -mag if m.group(1).lstrip("+").startswith("-") else mag
        u = Fraction(1, 10 ** digits)
        bits = max(16, math.ceil(digits * 3.33) + 2)
        return Interval(v - u, v + u, bits)
    raise ValueError(f"bad scalar literal: {text!r}")


def parse_rational(text: str) -> Fraction:
    """Parse the plain rational literal of :func:`parse_scalar`,
    ``[+-]?\\d+(/\\d+)?``; any other spelling raises ValueError."""
    m = _RAT_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad rational literal: {text!r}")
    return _rational(m)


def format_scalar(x: Scalar) -> str:
    """Canonical text form, inverse of :func:`parse_scalar` on models.

    An interval is written as the ``~`` literal with the most fractional
    digits (1 to its bits) whose enclosure holds it, so a parsed literal
    keeps its text; ValueError when none does, as for one wider than 0.2.
    """
    if isinstance(x, (Fraction, int)):
        return str(x)
    if isinstance(x, QuadExt):
        if isinstance(x.p, QuadExt) or isinstance(x.q, QuadExt):
            # a tower has no literal form; write its enclosure
            return format_scalar(to_interval(x))
        sign = "-" if x.q < 0 else "+"
        return f"{x.p}{sign}{abs(x.q)}*sqrt({x.c})"
    # [hi - u, lo + u] is centred on the midpoint, so the multiple of u
    # nearest it fits if any does; when n + 1 digits fit, so do n
    def fit(n: int):
        u = Fraction(1, 10 ** n)
        m = round(x.midpoint() / u)
        return m if x.hi - u <= m * u <= x.lo + u else None

    n, m = 1, fit(1)
    if m is None:
        raise ValueError(f"no decimal literal encloses {x!r}")
    while n < x.bits and (wider := fit(n + 1)) is not None:
        n, m = n + 1, wider
    whole, digits = divmod(abs(m), 10 ** n)
    return f"{'-' if m < 0 else ''}{whole}.{digits:0{n}d}~"
