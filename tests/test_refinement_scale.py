"""refine at 10^3-10^4 vertices against the round-based reference in
``naive_refinement``, and under relabelling; cr_iso_test against the
union reference at the same sizes."""

from __future__ import annotations

import random

import pytest

from graphsym import CrOutcome, cr_iso_test, from_edge_list, refine, relabel, stable_partition
from graphsym.generators import named
from graphsym.graph import Graph
from graphsym.refinement import _refine_colors

from .conftest import disjoint_union, union_cr_equivalent
from .naive_refinement import refine_rounds


def recursive_tree(rng: random.Random, n: int) -> Graph:
    return from_edge_list(n, [(v, rng.randrange(v)) for v in range(1, n)])


def gnm(rng: random.Random, n: int, m: int) -> Graph:
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return from_edge_list(n, sorted(edges))


def with_relabelled_copy(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return disjoint_union(g, relabel(g, perm))


# (name, graph builder, number of initial colours: 1 is the unit partition).
# G(n, 3n) refines to nearly all singleton cells, a random tree to thousands
# of cells, and a graph beside a relabelled copy to cells of even size.
CASES = [
    ("tree", lambda rng: recursive_tree(rng, 10_000), 1),
    ("tree-3-colours", lambda rng: recursive_tree(rng, 4_000), 3),
    ("gnm", lambda rng: gnm(rng, 10_000, 30_000), 1),
    ("gnm-1500-colours", lambda rng: gnm(rng, 3_000, 9_000), 1_500),
    ("tree-and-copy", lambda rng: with_relabelled_copy(rng, recursive_tree(rng, 3_000)), 1),
    ("gnm-and-copy", lambda rng: with_relabelled_copy(rng, gnm(rng, 1_000, 3_000)), 1),
]


@pytest.mark.parametrize("name, build, k", CASES, ids=[c[0] for c in CASES])
def test_refine_matches_round_based_reference(name, build, k):
    rng = random.Random(name)
    g = build(rng)
    colors = [rng.randrange(k) for _ in range(g.n)]
    p = stable_partition(g) if k == 1 else refine(g, colors)
    expected = refine_rounds(g.adjacency, colors)
    cells: list[list[int]] = [[] for _ in range(max(expected, default=-1) + 1)]
    for v, c in enumerate(expected):
        cells[c].append(v)
    assert (p.cell_of, p.cells) == (expected, tuple(map(tuple, cells)))

    perm = list(range(g.n))
    rng.shuffle(perm)
    moved = [0] * g.n
    for v, col in enumerate(colors):
        moved[perm[v]] = col
    h = relabel(g, perm)
    image = {frozenset(perm[v] for v in cell) for cell in p.cells}
    assert image == {frozenset(cell) for cell in refine(h, moved).cells}
    # raw ids, not just cells, survive relabelling
    raw_g = _refine_colors(g.adjacency, list(zip(colors, map(len, g.adjacency))))
    raw_h = _refine_colors(h.adjacency, list(zip(moved, map(len, h.adjacency))))
    assert [raw_h[perm[v]] for v in range(g.n)] == raw_g


def with_one_edge_moved(rng: random.Random, g: Graph) -> Graph:
    """g less one edge plus one non-edge, with the same number of edges;
    ValueError if g has no edge or no non-edge."""
    if g.m in (0, g.n * (g.n - 1) // 2):
        raise ValueError(f"no edge of a graph with {g.n} vertices and {g.m} edges can move")
    edges = list(g.edges())
    edges.pop(rng.randrange(len(edges)))
    while True:
        u, v = rng.sample(range(g.n), 2)
        if not g.has_edge(u, v):  # so not the edge just removed either
            return from_edge_list(g.n, edges + [(u, v)])


@pytest.mark.parametrize("g", [named("kn", 3), from_edge_list(3, [])], ids=["k3", "empty"])
def test_with_one_edge_moved_refuses_a_graph_with_nothing_to_move(g):
    """A complete or edgeless graph has no edge to move: refused at once,
    not a search without end for a non-edge."""
    with pytest.raises(ValueError, match="can move"):
        with_one_edge_moved(random.Random(0), g)


@pytest.mark.parametrize("name, build", [CASES[0][:2], CASES[2][:2]], ids=["tree", "gnm"])
def test_cr_iso_test_matches_the_union_reference(name, build):
    """cr_iso_test, each graph refined alone, against the refined disjoint
    union: a relabelled copy, and a relabelled copy with one edge moved."""
    rng = random.Random(name)
    g = build(rng)
    copy = relabel(g, rng.sample(range(g.n), g.n))
    moved = relabel(with_one_edge_moved(rng, g), rng.sample(range(g.n), g.n))
    assert cr_iso_test(g, copy).outcome is CrOutcome.CR_EQUIVALENT
    for h in (copy, moved):
        equivalent = cr_iso_test(g, h).outcome is CrOutcome.CR_EQUIVALENT
        assert equivalent == union_cr_equivalent(g, h), name
