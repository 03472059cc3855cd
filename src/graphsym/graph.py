"""Immutable simple undirected graphs with dense 0-based vertex indices."""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple

from .errors import OutOfRange, SelfLoop


class Graph(NamedTuple):
    """A simple undirected graph.

    ``adjacency[v]`` is the strictly increasing tuple of neighbors of ``v``.
    Instances are immutable after construction and safe to share across
    threads; build them with :func:`from_edge_list` rather than directly.
    """

    n: int
    m: int
    adjacency: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adjacency[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, row in enumerate(self.adjacency):
            for v in row:
                if u < v:
                    yield (u, v)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(row) for row in self.adjacency))


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.

    Duplicate edges (in either orientation) are deduplicated; self-loops and
    out-of-range endpoints are errors.
    """
    if n < 0:
        raise OutOfRange(n, 0)
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not 0 <= u < n:
            raise OutOfRange(u, n)
        if not 0 <= v < n:
            raise OutOfRange(v, n)
        if u == v:
            raise SelfLoop(u)
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
    m = sum(len(row) for row in adjacency) // 2
    return Graph(n=n, m=m, adjacency=adjacency)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``vertices`` plus the old->new index map.

    New indices are assigned in increasing old-index order, so relative
    order is preserved.
    """
    kept = sorted(set(vertices))
    for v in kept:
        if not 0 <= v < g.n:
            raise OutOfRange(v, g.n)
    old_to_new = {v: i for i, v in enumerate(kept)}
    adjacency = tuple(
        tuple(old_to_new[u] for u in g.adjacency[v] if u in old_to_new) for v in kept
    )
    m = sum(len(row) for row in adjacency) // 2
    return Graph(n=len(kept), m=m, adjacency=adjacency), old_to_new


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union of two graphs: g's vertices keep their ids, h's follow."""
    shift = g.n
    adjacency = g.adjacency + tuple(tuple(map(shift.__add__, row)) for row in h.adjacency)
    return Graph(n=g.n + h.n, m=g.m + h.m, adjacency=adjacency)


def complement(g: Graph) -> Graph:
    """Complement graph: uv is an edge iff it is not one in g (u != v)."""
    full = set(range(g.n))
    adjacency = tuple(
        tuple(sorted(full - set(row) - {v})) for v, row in enumerate(g.adjacency)
    )
    m = g.n * (g.n - 1) // 2 - g.m
    return Graph(n=g.n, m=m, adjacency=adjacency)


def relabel(g: Graph, perm: list[int] | tuple[int, ...]) -> Graph:
    """Apply a permutation: vertex v of g becomes perm[v] of the result."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex range")
    adjacency: list[tuple[int, ...]] = [()] * g.n
    for v, row in enumerate(g.adjacency):
        adjacency[perm[v]] = tuple(sorted(perm[u] for u in row))
    return Graph(n=g.n, m=g.m, adjacency=tuple(adjacency))
