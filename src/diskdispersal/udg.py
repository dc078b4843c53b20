"""Unit-disk intersection graphs, greedy 2-approximate vertex cover,
connected components.

Vertices are disk indices in instance order.  An edge (i, j), i < j, is
present iff the two open unit disks overlap: center distance strictly
below 2.  Other thresholds are one-off :func:`geometry.close_pairs`
queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import FOUR, Disk, ScaledPoints, close_pairs

__all__ = ["IntersectionGraph", "build_graph", "approx_vc", "components"]


@dataclass(frozen=True)
class IntersectionGraph:
    n: int
    edges: tuple[tuple[int, int], ...]  # sorted, i < j


def build_graph(disks: Sequence[Disk], scaled: Optional[ScaledPoints] = None
                ) -> IntersectionGraph:
    """The unit-disk graph: an edge for each pair with squared center
    distance strictly below 4.  Edges come from
    :func:`geometry.close_pairs`, which takes ``scaled``, the disks'
    :func:`geometry.scale_points`, when given.
    """
    return IntersectionGraph(len(disks),
                             tuple(close_pairs(disks, FOUR, False, scaled)))


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
