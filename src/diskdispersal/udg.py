"""Unit-disk intersection graphs, greedy 2-approximate vertex cover,
connected components.

Vertices are disk indices in instance order.  An edge (i, j), i < j, is
present iff the two open disks overlap (center distance strictly below 2,
or below 2r for the generalised radius-r form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import Disk, ScaledPoints, close_pairs
from .numerics import frac

__all__ = ["IntersectionGraph", "build_graph", "approx_vc", "components"]


@dataclass(frozen=True)
class IntersectionGraph:
    n: int
    edges: tuple[tuple[int, int], ...]  # sorted, i < j


def build_graph(disks: Sequence[Disk], radius=Fraction(1), *,
                include_touching: bool = False,
                scaled: Optional[ScaledPoints] = None) -> IntersectionGraph:
    """Intersection graph over disks of the given common radius.

    The threshold on squared center distance is (2*radius)^2; strict by
    default, closed when include_touching is set (used for the enlarged
    halo graphs).  Edges come from :func:`geometry.close_pairs`, which
    takes ``scaled``, the disks' :func:`geometry.scale_points`, when given.
    """
    r = frac(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    threshold = (2 * r) * (2 * r)
    edges = tuple(close_pairs(disks, threshold, include_touching, scaled))
    return IntersectionGraph(len(disks), edges)


def approx_vc(g: IntersectionGraph, k: int) -> Optional[list[int]]:
    """Greedy maximal matching over ascending edges; cover = both endpoints.

    Returns None ("exceeds budget") as soon as the matching grows past k
    edges, which certifies every vertex cover is larger than k.
    """
    matched: set[int] = set()
    matching = 0
    for i, j in g.edges:
        if i in matched or j in matched:
            continue
        matching += 1
        if matching > k:
            return None
        matched.add(i)
        matched.add(j)
    return sorted(matched)


def components(g: IntersectionGraph) -> list[list[int]]:
    """Connected components, each sorted, listed by smallest member."""
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in g.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return [sorted(groups[r]) for r in sorted(groups)]
