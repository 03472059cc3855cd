from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsym import (
    CrOutcome,
    Partition,
    build_cell_graph,
    cr_iso_test,
    is_equitable,
    oracle,
    refine,
    relabel,
    stable_partition,
)
from graphsym.errors import InvalidPartition, NotEquitable
from graphsym.generators import named
from graphsym.refinement import first_deviation

from .conftest import disjoint_union, graphs, refines, set_partitions


def as_sets(p: Partition) -> set[frozenset[int]]:
    return {frozenset(c) for c in p.cells}


def test_figure1_stable_partition(figure1):
    p = stable_partition(figure1)
    assert as_sets(p) == {
        frozenset({0}),
        frozenset({2, 3, 6, 7}),
        frozenset({1, 4, 5, 8}),
        frozenset({9, 10}),
    }


def test_c5_stays_one_cell():
    p = stable_partition(named("cn", 5))
    assert len(p.cells) == 1


def test_p3_splits_by_degree():
    p = stable_partition(named("pn", 3))
    assert as_sets(p) == {frozenset({1}), frozenset({0, 2})}


def test_refine_with_noncontiguous_colors():
    g = named("pn", 4)
    p = refine(g, [7, 100, 100, 7])
    assert as_sets(p) == {frozenset({0, 3}), frozenset({1, 2})}


def test_invalid_partition_rejected():
    with pytest.raises(InvalidPartition):
        refine(named("kn", 3), Partition.from_cells([[0], [1]], n=2))
    with pytest.raises(InvalidPartition):
        Partition.from_cells([[0], [0, 1]])


def test_is_equitable_examples(figure1):
    assert is_equitable(named("cn", 6), Partition.from_colors([0] * 6))
    assert not is_equitable(named("pn", 3), Partition.from_colors([0] * 3))
    assert is_equitable(figure1, stable_partition(figure1))


def test_partition_json(figure1):
    assert stable_partition(figure1).to_json() == {
        "cells": [[0], [1, 4, 5, 8], [2, 3, 6, 7], [9, 10]]
    }


def test_cr_iso_identical():
    assert cr_iso_test(named("kn", 3), named("kn", 3)).outcome is CrOutcome.CR_EQUIVALENT


def test_cr_blind_spot_c6_vs_2c3():
    c3 = named("cn", 3)
    two_c3 = disjoint_union(c3, c3)
    verdict = cr_iso_test(named("cn", 6), two_c3)
    assert verdict.outcome is CrOutcome.CR_EQUIVALENT


def test_cr_distinguishes_k3_p3():
    verdict = cr_iso_test(named("kn", 3), named("pn", 3))
    assert verdict.outcome is CrOutcome.DISTINGUISHED


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_stable_partition_is_equitable_and_idempotent(g):
    p = stable_partition(g)
    assert is_equitable(g, p)
    assert refine(g, p) == p


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1), st.randoms(use_true_random=False))
def test_equivariance_under_relabeling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabeled = relabel(g, perm)
    image = {frozenset(perm[v] for v in cell) for cell in stable_partition(g).cells}
    assert image == as_sets(stable_partition(relabeled))


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=6))
def test_coarsest_among_equitable(g):
    # brute-force oracle: every equitable partition refines the stable one
    stable = stable_partition(g)
    for cells in set_partitions(list(range(g.n))):
        q = Partition.from_cells(cells, g.n)
        if is_equitable(g, q):
            assert refines(q, stable)


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=6))
def test_refine_is_coarsest_refinement_of_initial(g):
    if g.n < 2:
        return
    initial = Partition.from_cells([[0], list(range(1, g.n))], g.n)
    result = refine(g, initial)
    assert is_equitable(g, result)
    assert refines(result, initial)
    for cells in set_partitions(list(range(g.n))):
        q = Partition.from_cells(cells, g.n)
        if is_equitable(g, q) and refines(q, initial):
            assert refines(q, result)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7))
def test_automorphisms_preserve_stable_cells(g):
    p = stable_partition(g)
    for perm in oracle.automorphisms(g, limit_n=7).elements:
        assert all(p.cell_of[v] == p.cell_of[perm[v]] for v in range(g.n))


def per_vertex_deviation(g, p: Partition) -> tuple[int, int] | None:
    """The first vertex whose neighbour count per cell differs from that of
    its cell's lowest vertex, with that cell; None if there is none."""
    def profile(v):
        return Counter(p.cell_of[u] for u in g.adjacency[v])

    for v in range(g.n):
        c = p.cell_of[v]
        if profile(v) != profile(min(p.cells[c])):
            return v, c
    return None


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=1, max_n=10), st.data())
def test_first_deviation_matches_per_vertex_reference(g, data):
    k = data.draw(st.integers(1, g.n))
    colors = data.draw(st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n))
    p = Partition.from_colors(colors)
    expected = per_vertex_deviation(g, p)
    assert first_deviation(g, p) == expected
    if expected is None:
        build_cell_graph(g, p)
    else:
        with pytest.raises(NotEquitable) as info:
            build_cell_graph(g, p)
        assert (info.value.vertex, info.value.cell) == expected
