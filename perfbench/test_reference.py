"""The benchmark's answer checks: each rejects a wrong answer, and each
independent computation agrees with brute force on small graphs.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graphsym import oracle  # noqa: E402
from graphsym.graph import from_edge_list  # noqa: E402

import draw  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402


def brute(n, edges):
    g = from_edge_list(n, edges)
    return oracle.dist_number_bf(g), oracle.fix_number_bf(g)


def answers(amenable=True, dist=3, fix=4):
    return SimpleNamespace(name="test", expected=ref.Expected(amenable, dist, fix))


# ------------------------------------------------- checks reject wrong answers


def test_two_merged_cells_are_rejected():
    path = [(0, 1), (1, 2), (2, 3), (3, 4)]
    cells = ref.naive_cells(5, ref.adjacency(5, path))
    assert cells == ((0, 4), (1, 3), (2,))
    ref.check_cells(cells, ((0, 4), (1, 3), (2,)), "P5")
    with pytest.raises(ref.Mismatch):
        ref.check_cells(cells, ((0, 4), (1, 2, 3)), "P5")


@pytest.mark.parametrize("op, key", [("dist", "dist_number"), ("fix", "fix_number")])
@pytest.mark.parametrize("delta", [-1, 1])
def test_cli_number_off_by_one_is_rejected(op, key, delta):
    w = answers()
    right = w.expected.dist if op == "dist" else w.expected.fix
    run.check_cli(ref, w, op, json.dumps({key: right}))
    with pytest.raises(ref.Mismatch):
        run.check_cli(ref, w, op, json.dumps({key: right + delta}))


@pytest.mark.parametrize("op, right, wrong", [
    ("iso", "Isomorphic", "NotIsomorphic"),
    ("iso", "Isomorphic", "HeuristicEquivalent"),
    ("iso_distinct", "NotIsomorphic", "Isomorphic"),
])
def test_cli_flipped_iso_verdict_is_rejected(op, right, wrong):
    run.check_cli(ref, answers(), op, json.dumps({"verdict": right}))
    with pytest.raises(ref.Mismatch):
        run.check_cli(ref, answers(), op, json.dumps({"verdict": wrong}))


@pytest.mark.parametrize("amenable", [True, False])
def test_cli_flipped_amenability_is_rejected(amenable):
    w = answers(amenable=amenable)
    run.check_cli(ref, w, "amenable", json.dumps({"amenable": amenable}))
    with pytest.raises(ref.Mismatch):
        run.check_cli(ref, w, "amenable", json.dumps({"amenable": not amenable}))


def test_unreadable_cli_output_is_rejected():
    with pytest.raises(ref.Mismatch):
        run.check_cli(ref, answers(), "dist", "Traceback (most recent call last):")


def test_in_process_answers_are_checked():
    expected = ref.Expected(True, 3, 4)
    amenable = SimpleNamespace(amenable=True)
    run.check_answers(ref, expected, amenable, SimpleNamespace(dist_number=3, fix_number=4), "g")
    for dist, fix in ((2, 4), (3, 5)):
        with pytest.raises(ref.Mismatch):
            run.check_answers(ref, expected, amenable, SimpleNamespace(dist_number=dist, fix_number=fix), "g")
    with pytest.raises(ref.Mismatch):
        run.check_answers(ref, expected, SimpleNamespace(amenable=False), None, "g")
    with pytest.raises(ref.Mismatch):  # analyze refused although the verdict was amenable
        run.check_answers(ref, expected, amenable, None, "g")
    refused = ref.Expected(False, None, None)
    run.check_answers(ref, refused, SimpleNamespace(amenable=False), None, "g")
    with pytest.raises(ref.Mismatch):  # analyze must refuse a graph that is not amenable
        run.check_answers(ref, refused, SimpleNamespace(amenable=False),
                          SimpleNamespace(dist_number=1, fix_number=0), "g")


# ------------------------------------ independent answers agree with brute force


@pytest.mark.parametrize("seed", range(40))
def test_tree_answers_match_brute_force(seed):
    rng = random.Random(seed)
    parent = draw.draw_tree(rng, rng.randint(1, 8))
    expected = ref.tree_expected(parent)
    assert (expected.dist, expected.fix) == brute(len(parent), draw.tree_edges(parent))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_bicentral_paths(n):
    parent = [-1] + list(range(n - 1))
    assert len(ref.centres(ref.adjacency(n, draw.tree_edges(parent)))) == 2
    expected = ref.tree_expected(parent)
    assert (expected.dist, expected.fix) == brute(n, draw.tree_edges(parent))


@pytest.mark.parametrize("sizes, isolated", [
    ((1, 2), 0), ((1, 2, 4), 1), ((2, 4), 2), ((1, 3), 4), ((3,), 0), ((2, 6), 0),
])
def test_chain_answers_match_brute_force(sizes, isolated):
    chains = (draw.Chain(sizes),)
    d = draw.build_chains(random.Random(0), chains, sum(sizes) + isolated)
    assert ref.naive_cells(d.n, ref.adjacency(d.n, d.edges)) == ref.canonical(d.cells)
    expected = ref.chain_expected(d.chains, d.isolated)
    assert (expected.dist, expected.fix) == brute(d.n, d.edges)


def test_twin_answers_match_brute_force():
    rng = random.Random(5)
    seen = 0
    while seen < 30:
        n = rng.randint(1, 8)
        edges = draw.draw_gnm(rng, n, rng.randint(0, n * (n - 1) // 2))
        adj = ref.adjacency(n, edges)
        cells = ref.naive_cells(n, adj)
        if not ref.cells_are_twin_classes(cells, adj):
            continue
        seen += 1
        expected = ref.twin_expected(cells)
        assert (expected.dist, expected.fix) == brute(n, edges)


def test_moved_edge_changes_degree_sequence():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(3, 9)
        edges = draw.draw_gnm(rng, n, rng.randint(1, n * (n - 1) // 2 - 1))
        _, copy = draw.relabel(rng, n, edges)
        degrees = sorted(len(row) for row in ref.adjacency(n, edges))
        assert sorted(len(row) for row in ref.adjacency(n, copy)) == degrees
        try:
            other = draw.move_edge(rng, n, copy)
        except ValueError:
            continue
        assert len(set(other)) == len(other) == len(edges)
        assert sorted(len(row) for row in ref.adjacency(n, other)) != degrees
