"""Instance shrinking: distance-based disk removal and coordinate compaction.

Two reductions are provided:

* :func:`kernelize` keeps only disks whose center lies, or may lie, within
  (d+2)*(k+1) of some disk of a greedy conflict cover; everything farther
  can neither be forced to move nor be hit by anything that moves.  The
  surviving disk count is bounded by :func:`size_bound`.
* :func:`full_kernel` additionally groups the survivors into clusters that
  cannot interact under moves of length d (halo connectivity at radius
  d+1) and translates each cluster near the origin, spacing clusters a bit
  more than 2d+2 apart along the diagonal.  Intra-cluster geometry is
  preserved exactly, so the answer is unchanged while coordinates become
  small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import Disk, Point, dist2, near
from .instance_io import Instance
from .numerics import frac, sqrt_lower_upper
from .udg import IntersectionGraph, build_graph, approx_vc, components

__all__ = [
    "KernelReport",
    "derived_d",
    "kernelize",
    "size_bound",
    "shrink_parts",
    "halo_partition",
    "full_kernel",
    "shrink_kernel",
]


@dataclass(frozen=True)
class KernelReport:
    cover: tuple[int, ...]
    threshold: Fraction          # (d+2)*(k+1) with d the rational bound below
    d_bound: Fraction            # exact sqrt(d2) when it is rational with
                                 # denominator <= 2**32, else upper bound
    kept: tuple[int, ...]
    removed: tuple[int, ...]
    size_bound: int
    graph: IntersectionGraph     # of the kernel instance


def derived_d(d2) -> Fraction:
    """Rational d with d >= sqrt(d2), exact when d2 is a rational square
    whose root has a denominator of at most 2^32.

    Thresholds built from this upper bound keep at least every disk the
    true threshold would keep, which preserves equivalence.
    """
    lo, hi = sqrt_lower_upper(frac(d2), 1 << 32)
    return hi


def coordinate_stat(disks: Sequence[Disk]) -> int:
    """max(b + c) over all coordinates written as a + b/c, 0 <= b < c coprime.

    Integer coordinates contribute 1 (b=0, c=1).
    """
    best = 1
    for d in disks:
        for v in (d.x, d.y):
            if not isinstance(v, Fraction):
                continue
            fpart = v - (v.numerator // v.denominator)
            best = max(best, fpart.numerator + fpart.denominator
                       if fpart else 1)
    return best


def size_bound(k: int, d) -> int:
    """Upper bound on the kept disk count: 2k + 2k*ceil(((d+2)(k+1)+2)^2)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    d = frac(d)
    t = (d + 2) * (k + 1) + 2
    return 2 * k + 2 * k * math.ceil(t * t)


def kernelize(inst: Instance) -> Optional[tuple[Instance, KernelReport]]:
    """Distance-filter an explicit-disk instance.

    Returns None when the conflict matching already certifies a no-instance
    (more than k vertex-disjoint overlapping pairs).  Otherwise returns the
    reduced instance (a subsequence of the input disks, order preserved)
    plus a report.  A disk is kept when ``geometry.near`` finds it within
    the threshold of a cover disk, closed: disks exactly at the threshold
    distance are kept, and so is a ``~`` disk whose distance cannot be
    decided.  Keeping such a disk is sound: it has no edge, as an edge
    joins a cover disk to one decided within 2 <= threshold of it, so the
    graph and the cover are unchanged, and dropping any set of far disks
    keeps the answer.

    Every edge of the input's intersection graph survives: the greedy cover
    holds one endpoint, and the other lies within 2 of it, which is at most
    the threshold.  So the report's graph is the input graph renumbered
    through ``kept``, an increasing map that keeps the edges sorted.
    """
    if inst.blocks:
        raise ValueError("kernelize requires explicit disks; expand blocks first")
    g = build_graph(inst.disks, scaled=inst.scaled)
    cover = approx_vc(g, inst.k)
    if cover is None:
        return None
    d = derived_d(inst.d2)
    threshold = (d + 2) * (inst.k + 1)
    t2 = threshold * threshold
    kept = sorted(set().union(*(near(inst.disks, inst.scaled, c, t2, True)
                                for c in cover)))
    removed = sorted(set(range(len(inst.disks))).difference(kept))
    out = Instance(inst.variant, inst.k, inst.d2,
                   tuple(inst.disks[i] for i in kept), ())
    slot = {v: n for n, v in enumerate(kept)}
    report = KernelReport(
        cover=tuple(cover),
        threshold=threshold,
        d_bound=d,
        kept=tuple(kept),
        removed=tuple(removed),
        size_bound=size_bound(inst.k, d),
        graph=IntersectionGraph(len(kept), tuple((slot[i], slot[j])
                                                 for i, j in g.edges)),
    )
    return out, report


def shrink_parts(disks: Sequence[Disk], parts: Sequence[Sequence[int]],
                 r) -> list[Disk]:
    """Translate each part to the diagonal, preserving intra-part geometry.

    Part i (1-based) maps (x, y) to
    (x - x_left_i + (i-1)*(m+r), y - y_bottom_i + (i-1)*(m+r)) where m is a
    rational upper bound on the largest intra-part center distance.  The
    output keeps the input disk order.
    """
    r = frac(r)
    for d in disks:
        if not d.is_rational():
            raise ValueError("coordinate shrinking needs rational centers")
    seen: set[int] = set()
    for part in parts:
        for i in part:
            if i in seen or not (0 <= i < len(disks)):
                raise ValueError("parts must partition the disk indices")
            seen.add(i)
    if len(seen) != len(disks):
        raise ValueError("parts must partition the disk indices")

    m2 = Fraction(0)
    for part in parts:
        for a in range(len(part)):
            for b in range(a + 1, len(part)):
                m2 = max(m2, dist2(disks[part[a]], disks[part[b]]))
    m = derived_d(m2) if m2 else Fraction(0)

    out: list[Optional[Disk]] = [None] * len(disks)
    for pi, part in enumerate(parts):
        if not part:
            continue
        xs = [disks[i].x for i in part]
        ys = [disks[i].y for i in part]
        ox = min(xs) - pi * (m + r)
        oy = min(ys) - pi * (m + r)
        for i in part:
            out[i] = Point(disks[i].x - ox, disks[i].y - oy)
    return [p for p in out if p is not None]


def halo_partition(inst: Instance) -> list[list[int]]:
    """Group disks by connectivity of their radius-(d+1) enlargements, d
    being ``derived_d(inst.d2)``.

    Disks whose halos touch or overlap land in one part; different parts
    are separated by strictly more than 2d+2 between centers.
    """
    if inst.blocks:
        raise ValueError("halo partition requires explicit disks")
    g = build_graph(inst.disks, radius=derived_d(inst.d2) + 1,
                    include_touching=True, scaled=inst.scaled)
    return components(g)


def full_kernel(inst: Instance) -> Instance:
    """Distance filter, halo grouping, then coordinate compaction.

    A trivially-no input collapses to a canonical two-disk no-instance
    with k = 0 (equivalent: both answers are No).
    """
    kr = kernelize(inst)
    if kr is None:
        origin = Point(Fraction(0), Fraction(0))
        return Instance(inst.variant, 0, inst.d2, (origin, origin), ())
    return shrink_kernel(kr[0])


def shrink_kernel(kinst: Instance) -> Instance:
    """Halo grouping and coordinate compaction of a kernelized instance."""
    if not kinst.disks:
        return kinst
    d = derived_d(kinst.d2)
    parts = halo_partition(kinst)
    shrunk = shrink_parts(kinst.disks, parts, 2 * d + 2)
    return Instance(kinst.variant, kinst.k, kinst.d2, tuple(shrunk), ())
