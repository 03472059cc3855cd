from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import strategies as st

from graphsym import Component, from_edge_list, generators
from graphsym.cells import CellGraph, _lone_component
from graphsym.formats import GRAPH6_MAX_BODY_BYTES
from graphsym.graph import Graph
from graphsym.refinement import Partition

from .naive_refinement import refine_rounds


# One 100-vertex component for the generator: a complete head of 5 cells
# over a branched tree, whose sibling leaf cells of 30 and 20 vertices
# need different fills or refinement merges them.
BRANCHED_SPEC = {"components": [{"head": "complete", "tree": {"size": 5, "children": [
    {"size": 10, "children": [{"size": 30}, {"size": 20, "fill": "complete"}]},
    {"size": 15},
    {"size": 5, "children": [{"size": 15}]},
]}}]}


@pytest.fixture
def figure1() -> Graph:
    return generators.named("figure1")


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), unique=True,
                              max_size=len(possible)))
    else:
        edges = []
    return from_edge_list(n, edges)


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 10):
    """Uniformly shaped random labeled trees via random parent choices."""
    n = draw(st.integers(min_n, max_n))
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    return from_edge_list(n, edges)


@st.composite
def permutations_of(draw, n: int):
    return draw(st.permutations(list(range(n))))


def set_partitions(items: list):
    """All set partitions of a list (Bell-number many; keep items small)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def cell_tree(nest: tuple) -> tuple[tuple[int, ...], Component]:
    """Cell sizes and a rooted component from a ``(size, [child, ...])`` nest.

    Cell ids are assigned breadth-first from the root, 0, so the walk order
    is the ids in turn; sizes along every edge must divide, as recognition
    guarantees for an amenable graph.
    """
    nodes = [nest]
    parent: dict[int, int] = {}
    multiplicity: dict[int, int] = {}
    for x, (size, kids) in enumerate(nodes):  # nodes grows as the walk goes
        for kid in kids:
            y = len(nodes)
            nodes.append(kid)
            mult, rem = divmod(kid[0], size)
            assert mult >= 1 and rem == 0, f"sizes {size} -> {kid[0]} do not divide"
            parent[y], multiplicity[y] = x, mult
    cells = tuple(range(len(nodes)))
    comp = Component(cells=cells, root=0, order=cells, parent=parent,
                     multiplicity=multiplicity)
    return tuple(size for size, _kids in nodes), comp


def _graph6_body_bytes(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


def smallest_n_over_graph6_bound() -> int:
    """Least vertex count whose graph6 body passes GRAPH6_MAX_BODY_BYTES."""
    n = isqrt(12 * GRAPH6_MAX_BODY_BYTES)  # the body is about n^2 / 12 bytes
    while _graph6_body_bytes(n) <= GRAPH6_MAX_BODY_BYTES:
        n += 1
    while _graph6_body_bytes(n - 1) > GRAPH6_MAX_BODY_BYTES:
        n -= 1
    return n


def near_discrete() -> list[Graph]:
    """Three G(n, 3n) and three random recursive trees at n = 1500, seeds
    0-2: graphs whose stable partitions are mostly singleton cells."""
    n, out = 1500, []
    for seed in range(3):
        rng, edges = random.Random(seed), set()
        while len(edges) < 3 * n:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        out.append(from_edge_list(n, sorted(edges)))
    for seed in range(3):
        rng = random.Random(seed)
        out.append(from_edge_list(n, [(v, rng.randrange(v)) for v in range(1, n)]))
    return out


def validate_graph(g: Graph) -> None:
    """Check the structural invariants; raises AssertionError on violation.

    Every constructor in graphsym must produce graphs that pass this check.
    """
    assert g.n >= 0 and g.m >= 0
    assert len(g.adjacency) == g.n
    total = 0
    for v, row in enumerate(g.adjacency):
        total += len(row)
        for i, u in enumerate(row):
            assert 0 <= u < g.n, f"neighbor {u} of {v} out of range"
            assert u != v, f"self-loop at {v}"
            if i > 0:
                assert row[i - 1] < u, f"adjacency of {v} not strictly increasing"
            assert v in g.adjacency[u], f"edge {v}->{u} not symmetric"
    assert total == 2 * g.m, f"degree sum {total} != 2m = {2 * g.m}"


def induced(g: Graph, p: Partition, vertices) -> tuple[Graph, Partition]:
    """The subgraph of g induced on ``vertices``, renumbered in increasing
    order, and p restricted to it."""
    kept = sorted(vertices)
    new = {v: i for i, v in enumerate(kept)}
    edges = [(new[u], new[v]) for u in kept for v in g.adjacency[u] if v in new]
    return from_edge_list(len(kept), edges), Partition.from_colors([p.cell_of[v] for v in kept])


def every_component(cg: CellGraph, records) -> list[Component]:
    """records and a lone record for each singleton cell of cg, by lowest
    cell id: one record for each row of the JSON component list."""
    lone = [_lone_component(i) for i, size in enumerate(cg.cell_sizes) if size == 1]
    return sorted([*records, *lone], key=lambda c: c.cells[0])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g's vertices keep their ids, h's follow."""
    shifted = tuple(tuple(u + g.n for u in row) for row in h.adjacency)
    return Graph(n=g.n + h.n, m=g.m + h.m, adjacency=g.adjacency + shifted)


def complement(g: Graph) -> Graph:
    return from_edge_list(g.n, [e for e in combinations(range(g.n), 2) if not g.has_edge(*e)])


def refines(p: Partition, other: Partition) -> bool:
    """True iff every cell of p is contained in a cell of other."""
    if p.n != other.n:
        return False
    return all(len({other.cell_of[v] for v in cell}) == 1 for cell in p.cells)


def union_cr_equivalent(g: Graph, h: Graph) -> bool:
    """The CR test the textbook way, as the reference for cr_iso_test:
    refine the disjoint union with the round-based reference and check that
    every cell holds as many vertices of g as of h."""
    colors = refine_rounds(disjoint_union(g, h).adjacency, [0] * (g.n + h.n))
    return Counter(colors[:g.n]) == Counter(colors[g.n:])
