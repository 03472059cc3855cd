"""Immutable simple undirected graphs with dense 0-based vertex indices."""

from __future__ import annotations

from bisect import bisect_left
from operator import eq
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
        return tuple(sorted(map(len, self.adjacency)))


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.

    Duplicate edges (in either orientation) are deduplicated; self-loops and
    out-of-range endpoints are errors, raised for the first bad edge in
    input order, u before v.
    """
    if n < 0:
        raise OutOfRange(n, 0)
    rows: list = [[] for _ in range(n)]
    for u, v in edges:
        if not 0 <= u < n:
            raise OutOfRange(u, n)
        if not 0 <= v < n:
            raise OutOfRange(v, n)
        if u == v:
            raise SelfLoop(u)
        rows[u].append(v)
        rows[v].append(u)
    # each row is sorted in place, loses the neighbours a duplicate edge
    # repeated, and is freed as its tuple replaces it
    for u, row in enumerate(rows):
        row.sort()
        if len(row) > 1 and any(map(eq, row, row[1:])):
            row[:] = dict.fromkeys(row)
        rows[u] = tuple(row)
    adjacency = tuple(rows)
    return Graph(n=n, m=sum(map(len, adjacency)) // 2, adjacency=adjacency)


def relabel(g: Graph, perm: list[int] | tuple[int, ...]) -> Graph:
    """Apply a permutation: vertex v of g becomes perm[v] of the result."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex range")
    adjacency: list[tuple[int, ...]] = [()] * g.n
    for v, row in enumerate(g.adjacency):
        adjacency[perm[v]] = tuple(sorted(perm[u] for u in row))
    return Graph(n=g.n, m=g.m, adjacency=tuple(adjacency))
