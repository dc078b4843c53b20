"""Exact witness checks written apart from the library.

Numbers are finite sums  sum_r c_r * sqrt(r)  with rational c_r and distinct
square-free integers r (r = 1 is the rational part), stored as {r: c_r}.
Sums and products stay in that form, and the sign of any such sum is
decided exactly by eliminating one prime at a time:  for a prime p,
X = A + B*sqrt(p) with A, B free of p, and when A and B differ in sign,
sign(X) = sign(A) * sign(A^2 - p*B^2).  Touching disks (distance exactly 2)
are therefore decided, where interval arithmetic could only bracket them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from diskdispersal.numerics import QuadExt

Num = dict   # {square-free radicand: Fraction coefficient}


class NotExact(ValueError):
    """A coordinate is an interval, not an exact value."""


@lru_cache(maxsize=None)
def _primes(n: int) -> tuple[int, ...]:
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _square_part(n: int) -> tuple[int, int]:
    """n = s*s*f with f square-free."""
    s, f = 1, 1
    ps = _primes(n)
    for p in set(ps):
        e = ps.count(p)
        s *= p ** (e // 2)
        f *= p ** (e % 2)
    return s, f


def num(x) -> Num:
    """The exact value of a library scalar: a Fraction or p + q*sqrt(c)."""
    if isinstance(x, (int, Fraction)):
        return {1: Fraction(x)}
    if isinstance(x, QuadExt):
        c = Fraction(x.c)
        # sqrt(a/b) = sqrt(a*b) / b
        s, f = _square_part(c.numerator * c.denominator)
        return add({1: x.p}, {f: x.q * Fraction(s, c.denominator)})
    raise NotExact(f"not an exact value: {x!r}")


def add(a: Num, b: Num) -> Num:
    out = dict(a)
    for r, c in b.items():
        out[r] = out.get(r, 0) + c
    return {r: c for r, c in out.items() if c}


def neg(a: Num) -> Num:
    return {r: -c for r, c in a.items()}


def sub(a: Num, b: Num) -> Num:
    return add(a, neg(b))


def mul(a: Num, b: Num) -> Num:
    out: dict = {}
    for r1, c1 in a.items():
        for r2, c2 in b.items():
            g = gcd(r1, r2)
            r = r1 * r2 // (g * g)
            out[r] = out.get(r, 0) + c1 * c2 * g
    return {r: c for r, c in out.items() if c}


def sign(a: Num) -> int:
    a = {r: c for r, c in a.items() if c}
    if not a:
        return 0
    radicals = [r for r in a if r != 1]
    if not radicals:
        c = a[1]
        return (c > 0) - (c < 0)
    p = max(max(_primes(r)) for r in radicals)
    rest = {r: c for r, c in a.items() if r % p}
    part = {r // p: c for r, c in a.items() if r % p == 0}
    s_rest, s_part = sign(rest), sign(part)
    if s_part == 0 or s_rest == s_part:
        return s_rest if s_rest else s_part
    if s_rest == 0:
        return s_part
    return s_rest * sign(sub(mul(rest, rest), mul({1: Fraction(p)},
                                                   mul(part, part))))


def dist2(a, b) -> Num:
    """Squared distance of two points given as pairs of Num."""
    dx, dy = sub(a[0], b[0]), sub(a[1], b[1])
    return add(mul(dx, dx), mul(dy, dy))


def check_witness(inst, moves: dict) -> str | None:
    """None when the moves turn the explicit instance into a packing within
    budget, else the first violation found, in words."""
    if inst.blocks:
        raise ValueError("exact check handles explicit disks only")
    if len(moves) > inst.k:
        return f"{len(moves)} moves exceed the budget {inst.k}"
    n = len(inst.disks)
    d2 = {1: Fraction(inst.d2)}
    final = [(num(p.x), num(p.y)) for p in inst.disks]
    for i, target in moves.items():
        if not 0 <= i < n:
            return f"move of disk {i}, which does not exist"
        t = (num(target.x), num(target.y))
        dx, dy = sub(t[0], final[i][0]), sub(t[1], final[i][1])
        if inst.variant == "rectilinear" and sign(dx) and sign(dy):
            return f"move of disk {i} is not axis-parallel"
        if sign(sub(d2, add(mul(dx, dx), mul(dy, dy)))) < 0:
            return f"move of disk {i} is longer than d"
        final[i] = t
    moved = set(moves)
    # pairs of unmoved disks are rational: compare them on integers
    fixed = [i for i in range(n) if i not in moved]
    scale = lcm(*(c.denominator for i in fixed
                  for c in (inst.disks[i].x, inst.disks[i].y)))
    pts = [(int(inst.disks[i].x * scale), int(inst.disks[i].y * scale))
           for i in fixed]
    bad = packing_violation(pts, 2 * scale)
    if bad is not None:
        return f"unmoved disks {fixed[bad[0]]} and {fixed[bad[1]]} overlap"
    four = {1: Fraction(4)}
    for i in sorted(moved):
        for j in range(n):
            if j == i or (j in moved and j < i):
                continue
            if sign(sub(dist2(final[i], final[j]), four)) < 0:
                return f"disks {i} and {j} overlap after the moves"
    return None


def packing_violation(pts, diameter: int):
    """First pair (by position in pts) of integer centers closer than
    diameter, or None.  Centers are bucketed on a grid of that width."""
    buckets: dict = {}
    for idx, (x, y) in enumerate(pts):
        buckets.setdefault((x // diameter, y // diameter), []).append(idx)
    lim = diameter * diameter
    best = None
    for (bx, by), members in buckets.items():
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                for j in buckets.get((bx + ox, by + oy), ()):
                    xj, yj = pts[j]
                    for i in members:
                        if i < j:
                            dx, dy = pts[i][0] - xj, pts[i][1] - yj
                            if dx * dx + dy * dy < lim and (
                                    best is None or (i, j) < best):
                                best = (i, j)
    return best
