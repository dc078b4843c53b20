"""Exact and certified-approximate scalar arithmetic.

Three scalar kinds flow through the geometric predicates:

* ``Fraction`` -- arbitrary-precision rationals (the workhorse).
* ``QuadExt`` -- values of the form ``p + q*sqrt(c)`` with rational p, q and a
  single radicand c >= 0.  Comparisons against rationals, and against other
  QuadExt values over the same radicand, are decided exactly by a squaring
  case analysis.
* ``Interval`` -- outward-rounded dyadic enclosures, used as a sound fallback
  when a value mixes distinct radicands or was parsed from an approximate
  decimal literal.

Scalars combine with the Python operators ``+``, ``-`` and ``*`` (an ``int``
or ``Fraction`` on the left reaches the scalar classes through the reflected
operators).  Two QuadExt values over the same radicand stay exact, collapsing
to a Fraction when the radical cancels; mixed radicands, or any Interval
operand, fall back to an interval enclosure.  All values are immutable; every
operation returns a new value.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Union

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
    "refine",
    "sqrt_lower_upper",
    "to_interval",
    "sign_le",
    "sign_lt",
    "sign_eq",
    "approx_float",
    "parse_scalar",
    "parse_rational",
    "format_scalar",
    "precision_cap",
    "set_precision_cap",
]


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INDETERMINATE = 2


class IndeterminateError(ValueError):
    """A comparison could not be resolved at the configured precision cap."""


class DomainError(ValueError):
    """Operand outside the mathematical domain of the operation."""


_PRECISION_OVERRIDE: Optional[int] = None


def precision_cap() -> int:
    """Bit cap for interval escalation.

    Defaults to the DISKDISPERSAL_PREC_CAP environment variable (4096 when
    unset); :func:`set_precision_cap` installs a process-wide override.
    """
    if _PRECISION_OVERRIDE is not None:
        return _PRECISION_OVERRIDE
    try:
        return max(64, int(os.environ.get("DISKDISPERSAL_PREC_CAP", "4096")))
    except ValueError:
        return 4096


def set_precision_cap(bits: Optional[int]) -> Optional[int]:
    """Install (or clear, with None) the escalation cap; returns the old."""
    global _PRECISION_OVERRIDE
    old = _PRECISION_OVERRIDE
    _PRECISION_OVERRIDE = max(64, bits) if bits is not None else None
    return old


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
    sound: it only means two equal radicals may fail to unify and fall back
    to interval comparison.
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
    """Exact value p + q*sqrt(c); construct through :func:`quadext`."""

    p: Fraction
    q: Fraction
    c: Fraction

    def __add__(self, other):
        if isinstance(other, (Fraction, int)):
            return QuadExt(self.p + other, self.q, self.c)
        if isinstance(other, QuadExt) and other.c == self.c:
            return _quad(self.p + other.p, self.q + other.q, self.c)
        return _iv_add(to_interval(self), to_interval(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return _quad(self.p * other, self.q * other, self.c)
        if isinstance(other, QuadExt) and other.c == self.c:
            # (p1 + q1 r)(p2 + q2 r) with r^2 = c
            return _quad(self.p * other.p + self.q * other.q * self.c,
                         self.p * other.q + self.q * other.p, self.c)
        return _iv_mul(to_interval(self), to_interval(other))

    __rmul__ = __mul__

    def __neg__(self):
        return QuadExt(-self.p, -self.q, self.c)

    def sign(self) -> int:
        p, q, c = self.p, self.q, self.c
        if q == 0 or c == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 against q^2 * c
        lhs, rhs = p * p, q * q * c
        if p > 0:  # q < 0
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def __repr__(self):
        return f"QuadExt({self.p}, {self.q}, sqrt({self.c}))"


Scalar = Union[Fraction, QuadExt, "Interval"]


def _quad(p: Fraction, q: Fraction, c: Fraction) -> Scalar:
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
    # sqrt(n/d) = sqrt(n*d)/d
    s, f = _extract_square(c.numerator * c.denominator)
    q2 = q * Fraction(s, c.denominator)
    if f == 1:
        return p + q2
    return QuadExt(p, q2, Fraction(f))


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
    ``expr``, when present, recomputes an enclosure of the same underlying
    value at a requested precision; without it the interval is "raw" and
    cannot be refined.
    """

    lo: Fraction
    hi: Fraction
    bits: int = 53
    expr: Optional[Callable[[int], "Interval"]] = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"inverted interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other):
        return _iv_add(to_interval(self), to_interval(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return _iv_mul(to_interval(self), to_interval(other))

    __rmul__ = __mul__

    def __neg__(self):
        e = self.expr
        return Interval(-self.hi, -self.lo, self.bits,
                        (lambda b: -e(b)) if e else None)

    def __repr__(self):
        return f"Interval[{self.lo}, {self.hi}]@{self.bits}"


def _mk_interval(lo: Fraction, hi: Fraction, bits: int, expr=None) -> Interval:
    return Interval(_round_down(lo, bits), _round_up(hi, bits), bits, expr)


def to_interval(x: Scalar, bits: int = 64) -> Interval:
    """Enclose any scalar; exact rationals become degenerate point intervals."""
    if isinstance(x, Interval):
        return refine(x, bits) if bits > x.bits else x
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return Interval(x, x, bits, lambda b: Interval(x, x, b))
    if isinstance(x, QuadExt):
        def enclose(b: int, v: QuadExt = x) -> Interval:
            lo, hi = sqrt_lower_upper(v.c, 1 << b)
            t1, t2 = v.p + v.q * lo, v.p + v.q * hi
            if t1 > t2:
                t1, t2 = t2, t1
            return _mk_interval(t1, t2, b, enclose)

        return enclose(bits)
    raise TypeError(f"not a scalar: {x!r}")


def refine(x: Interval, bits: int) -> Interval:
    """Recompute at higher precision; the result is contained in the input.

    Raw intervals (no defining expression) come back unchanged.
    """
    if not isinstance(x, Interval):
        raise TypeError("refine expects an Interval")
    if x.expr is None or bits <= x.bits:
        return x
    fresh = x.expr(bits)
    lo, hi = max(x.lo, fresh.lo), min(x.hi, fresh.hi)
    if lo > hi:  # numerically impossible for a correct expr; guard anyway
        lo = hi = (max(x.lo, fresh.lo) + min(x.hi, fresh.hi)) / 2
    return Interval(lo, hi, bits, x.expr)


def _iv_add(a: Interval, b: Interval) -> Interval:
    bits = max(a.bits, b.bits)
    expr = (lambda p: _iv_add(refine(a, p), refine(b, p))) \
        if (a.expr or b.expr) else None
    return _mk_interval(a.lo + b.lo, a.hi + b.hi, bits, expr)


def _iv_mul(a: Interval, b: Interval) -> Interval:
    bits = max(a.bits, b.bits)
    prods = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    expr = (lambda p: _iv_mul(refine(a, p), refine(b, p))) \
        if (a.expr or b.expr) else None
    return _mk_interval(min(prods), max(prods), bits, expr)


# ---------------------------------------------------------------------------
# comparison

def compare(a, b) -> Ordering:
    """Three-way comparison, exact whenever the operand kinds allow it.

    Rational vs rational, QuadExt vs rational, and QuadExt vs QuadExt over
    the same radicand are decided exactly.  Anything involving an interval
    (including mixed radicands) escalates precision geometrically up to the
    configured cap before admitting INDETERMINATE.
    """
    if isinstance(a, Interval) or isinstance(b, Interval):
        return _compare_iv(a, b)
    d = a - b
    if isinstance(d, QuadExt):
        return Ordering(d.sign())
    if isinstance(d, Interval):
        return _compare_iv(a, b)
    return Ordering((d > 0) - (d < 0))


def _compare_iv(a: Scalar, b: Scalar) -> Ordering:
    """Compare enclosures, doubling the precision from 64 bits to the cap.

    It also gives up as soon as a step leaves both enclosures unchanged.
    The sqrt bracket of a radical at 2b bits lies inside the one at b bits
    and is strictly narrower, and interval arithmetic is inclusion-isotonic
    (operands inside the old ones give a result inside the old result).
    So refining can only narrow an enclosure, and it narrows every
    enclosure a radical still widens: one that stays unchanged has no
    radical left to refine.  Its width comes from raw intervals (parsed
    ``~`` literals), which no precision narrows, and every later step would
    leave it unchanged as well.  (One end of the bracket at 2b bits can
    equal that at b bits, when the root lies within 2^-2b of it; an
    enclosure that depends on that end alone then stops before the cap.
    The answer is INDETERMINATE, which is sound.)
    """
    bits = 64
    cap = precision_cap()
    ia, ib = to_interval(a, bits), to_interval(b, bits)
    while True:
        if ia.hi < ib.lo:
            return Ordering.LESS
        if ia.lo > ib.hi:
            return Ordering.GREATER
        if ia.lo == ia.hi == ib.lo == ib.hi:
            return Ordering.EQUAL
        if bits >= cap:
            return Ordering.INDETERMINATE
        bits *= 2
        ra, rb = refine(ia, bits), refine(ib, bits)
        if (ra.lo, ra.hi, rb.lo, rb.hi) == (ia.lo, ia.hi, ib.lo, ib.hi):
            return Ordering.INDETERMINATE
        ia, ib = ra, rb


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
    # floor-division introduces no error in the floor of the true root, but
    # guard the bracket anyway
    while hi * hi < x:
        hi += Fraction(1, B)
    while lo * lo > x:
        lo -= Fraction(1, B)
    return lo, hi


# ---------------------------------------------------------------------------
# float approximation (for deterministic ordering keys and display only)

def approx_float(x: Scalar) -> float:
    if isinstance(x, (Fraction, int)):
        return x.numerator / x.denominator
    if isinstance(x, QuadExt):
        return float(x.p) + float(x.q) * math.sqrt(float(x.c))
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
    """Canonical text form, inverse of :func:`parse_scalar` on models."""
    if isinstance(x, (Fraction, int)):
        return str(x)
    if isinstance(x, QuadExt):
        sign = "-" if x.q < 0 else "+"
        return f"{x.p}{sign}{abs(x.q)}*sqrt({x.c})"
    # interval: recover the decimal-with-tilde shape
    v = x.midpoint()
    u = x.width / 2
    if u > 0 and u.numerator == 1 and _is_pow10(u.denominator):
        digits = len(str(u.denominator)) - 1
        sign = "-" if v < 0 else ""
        av = abs(v)
        whole = av.numerator // av.denominator
        rem = av - whole
        fracpart = rem * 10 ** digits
        return f"{sign}{whole}.{fracpart.numerator // fracpart.denominator:0{digits}d}~"
    return f"{float(v):.12g}~"


def _is_pow10(n: int) -> bool:
    while n % 10 == 0:
        n //= 10
    return n == 1
