from __future__ import annotations

from math import isqrt

import pytest
from hypothesis import strategies as st

from graphsym import Component, from_edge_list, generators
from graphsym.formats import GRAPH6_MAX_BODY_BYTES
from graphsym.graph import Graph


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

    Cell ids are assigned breadth-first from the root, 0; sizes along every
    edge must divide, as recognition guarantees for an amenable graph.
    """
    nodes = [nest]
    parent: dict[int, int] = {}
    children: dict[int, tuple[int, ...]] = {}
    multiplicity: dict[int, int] = {}
    for x, (size, kids) in enumerate(nodes):  # nodes grows as the walk goes
        ids = []
        for kid in kids:
            y = len(nodes)
            nodes.append(kid)
            mult, rem = divmod(kid[0], size)
            assert mult >= 1 and rem == 0, f"sizes {size} -> {kid[0]} do not divide"
            parent[y], multiplicity[y] = x, mult
            ids.append(y)
        children[x] = tuple(ids)
    comp = Component(cells=tuple(range(len(nodes))), root=0, parent=parent,
                     children=children, multiplicity=multiplicity)
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
