"""Exhaustive checks on all 1253 graphs of networkx's graph atlas (n <= 7).

The atlas lists every isomorphism class on up to seven vertices once, so a
graph is amenable exactly when no other atlas graph of its order is colour
refinement (CR) equivalent to it.  CR classes are decided here by networkx's
Weisfeiler-Lehman hash at n iterations, where 1-WL has stabilised, and not
by graphsym's own refinement.
"""

from __future__ import annotations

import random
import warnings
from collections import Counter
from itertools import combinations, product

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from graphsym import (
    CrOutcome, IsoVerdict, Partition, amenable_iso, check_amenable, cr_iso_test, from_edge_list,
    oracle, refine, stable_partition,
)
from graphsym.generators import random_amenable
from graphsym.graph import relabel
from graphsym.refinement import _quotient, _refine_colors
from graphsym.symmetry import analyze

from .conftest import union_cr_equivalent
from .naive_refinement import refine_rounds


@pytest.fixture(scope="module")
def atlas():
    """(graph, amenable by definition, verdict) per atlas graph, and the CR classes."""
    graphs, keys = [], []
    with warnings.catch_warnings():  # networkx 3.5 notes a change of its hash values
        warnings.simplefilter("ignore", UserWarning)
        for G in nx.graph_atlas_g():
            n = G.number_of_nodes()
            graphs.append(from_edge_list(n, list(G.edges())))
            # n iterations, at least the one networkx requires
            keys.append((n, nx.weisfeiler_lehman_graph_hash(G, iterations=max(n, 1))))
    count = Counter(keys)
    rows = [(g, count[key] == 1, check_amenable(g)) for g, key in zip(graphs, keys)]
    classes: dict[tuple, list] = {}
    for g, key in zip(graphs, keys):
        classes.setdefault(key, []).append(g)
    return rows, [c for c in classes.values() if len(c) > 1]


def test_atlas_verdicts_match_the_definition(atlas):
    rows, shared = atlas
    assert len(rows) == 1253
    assert [verdict.amenable for _g, _ok, verdict in rows] == [ok for _g, ok, _v in rows]
    assert sum(ok for _g, ok, _v in rows) == 1201
    assert sorted(len(c) for c in shared) == [2] * 26


def test_degree_start_gives_the_unit_start_partition(atlas):
    """stable_partition starts from the degree partition and leaves one of
    its cells unqueued; the round-based reference starts from one cell.
    _quotient returns the raw ids of that partition beside their rows, one
    per cell."""
    rows, _shared = atlas
    draws = [random_amenable(n, seed=seed)[0] for seed in range(40) for n in (10, 50, 200)]
    for g in [g for g, _ok, _verdict in rows] + draws:
        p = stable_partition(g)
        assert p == refine(g, Partition.from_colors([0] * g.n)), g
        assert p.cell_of == refine_rounds(g.adjacency, [0] * g.n), g
        raw, q = _quotient(g)
        assert Partition.from_colors(raw) == p, g
        assert sorted(q) == list(range(len(p.cells))), g
        assert all(q[raw[cell[0]]][0] == len(cell) for cell in p.cells), g


def test_raw_ids_survive_relabelling(atlas):
    """The refinement core's raw cell ids, not just its cells, move with the
    vertices: raw(relabel(g, perm))[perm[v]] == raw(g)[v]."""
    rows, _shared = atlas
    rng = random.Random(3)
    draws = [random_amenable(n, seed=seed)[0] for seed in range(40) for n in (10, 50, 200, 1000)]
    for g in [g for g, _ok, _verdict in rows] + draws:
        perm = rng.sample(range(g.n), g.n)
        h = relabel(g, perm)
        raw_g = _refine_colors(g.adjacency, list(map(len, g.adjacency)))[0]
        raw_h = _refine_colors(h.adjacency, list(map(len, h.adjacency)))[0]
        assert [raw_h[perm[v]] for v in range(g.n)] == raw_g, g


def test_atlas_dist_and_fix_match_brute_force(atlas):
    rows, _shared = atlas
    for g, ok, verdict in rows:
        if ok:
            report = analyze(g, verdict=verdict)
            assert (report.dist_number, report.fix_number) == (
                oracle.dist_number_bf(g), oracle.fix_number_bf(g)), g


def test_atlas_cr_equivalent_pairs_are_heuristic_equivalent(atlas):
    _rows, shared = atlas
    for g, h in shared:
        assert amenable_iso(g, h) is IsoVerdict.HEURISTIC_EQUIVALENT
        assert amenable_iso(h, g) is IsoVerdict.HEURISTIC_EQUIVALENT


def test_atlas_relabelled_copies(atlas):
    """Isomorphic is certified exactly on the amenable graphs; the others,
    CR-equivalent to their copy, are HeuristicEquivalent."""
    rows, _shared = atlas
    rng = random.Random(0)
    for g, ok, _verdict in rows:
        perm = list(range(g.n))
        rng.shuffle(perm)
        expected = IsoVerdict.ISOMORPHIC if ok else IsoVerdict.HEURISTIC_EQUIVALENT
        assert amenable_iso(g, relabel(g, perm)) is expected, g


def test_amenable_iso_judges_g_on_its_stable_partition(atlas, monkeypatch):
    """When CR does not tell g and h apart, amenable_iso judges g on the
    partition its own refinement gave, exactly stable_partition(g)."""
    from graphsym import amenability, stable_partition

    judged = []
    judge = amenability._judge

    def spy(g, p):
        judged.append((g, p))
        return judge(g, p)

    monkeypatch.setattr(amenability, "_judge", spy)
    rows, shared = atlas
    rng = random.Random(1)
    pairs = [(g, relabel(g, rng.sample(range(g.n), g.n))) for g, _ok, _verdict in rows]
    pairs += [(g, h) for cls in shared for g in cls for h in cls if g is not h]
    for g, h in pairs:
        amenable_iso(g, h)
    assert len(judged) == len(pairs) == 1253 + 52
    for g, p in judged:
        assert p == stable_partition(g), g


def _nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def test_is_distinguishing_matches_group_scan(atlas):
    """oracle.is_distinguishing, a search under colour keys, against the
    scan over the enumerated group, for every 2-colouring of every atlas
    graph on up to six vertices."""
    checks = 0
    for g, _ok, _verdict in atlas[0]:
        if g.n > 6:
            continue
        scan = oracle._make_checker(g, [0] * g.n)
        for coloring in product(range(2), repeat=g.n):
            assert oracle.is_distinguishing(g, coloring) == scan(coloring), (g, coloring)
            checks += 1
    assert checks == 11291


def test_dist_count_matches_the_product_scan(atlas):
    """oracle.dist_count_bf, which scans first-use colourings with twins
    apart, against a count over all c^n labellings, with and without the
    stable partition, for every atlas graph on up to six vertices."""
    for g, _ok, _verdict in atlas[0]:
        if g.n > 6:
            continue
        for p in (None, stable_partition(g)):
            base = p.cell_of if p is not None else [0] * g.n
            order = oracle.automorphisms(g, p).order
            check = oracle._make_checker(g, base)
            for c in (1, 2, 3):
                total = sum(1 for coloring in product(range(c), repeat=g.n) if check(coloring))
                assert oracle.dist_count_bf(g, p, c=c) * order == total, (g, p, c)


def test_atlas_oracle_search_matches_vf2(atlas):
    """The oracle's vertex-image search against networkx's VF2 matcher:
    group orders, an isomorphism onto a relabelled copy, and the iso
    decision on each graph with its copy and on every pair of atlas graphs
    with equal degree sequences."""
    rows, _shared = atlas
    rng = random.Random(2)
    pairs = []
    by_degrees: dict[tuple, list] = {}
    for g, _ok, _verdict in rows:
        G = _nx(g)
        assert oracle.automorphisms(g).order == sum(
            1 for _ in GraphMatcher(G, G).isomorphisms_iter()), g
        h = relabel(g, rng.sample(range(g.n), g.n))
        image = oracle.find_isomorphism(g, h)
        assert image is not None and sorted(image) == list(range(g.n)), g
        assert sorted(tuple(sorted((image[u], image[v]))) for u, v in g.edges()) == sorted(
            h.edges()), g
        pairs.append(((g, G), (h, _nx(h))))
        by_degrees.setdefault(g.degree_sequence(), []).append((g, G))
    pairs += [pair for group in by_degrees.values() for pair in combinations(group, 2)]
    assert len(pairs) == 1253 + 3375
    for (g, G), (h, H) in pairs:
        assert (oracle.find_isomorphism(g, h) is not None) == nx.is_isomorphic(G, H), (g, h)


def test_atlas_cr_iso_test_matches_the_union_reference(atlas):
    """cr_iso_test, each graph refined alone and the quotients compared,
    against the refined disjoint union: each atlas graph with a relabelled
    copy, and every pair of atlas graphs with equal degree sequences."""
    rows, _shared = atlas
    rng = random.Random(4)
    pairs = [(g, relabel(g, rng.sample(range(g.n), g.n))) for g, _ok, _verdict in rows]
    by_degrees: dict[tuple, list] = {}
    for g, _ok, _verdict in rows:
        by_degrees.setdefault(g.degree_sequence(), []).append(g)
    pairs += [pair for group in by_degrees.values() for pair in combinations(group, 2)]
    assert len(pairs) == 1253 + 3375
    outcomes = Counter()
    for g, h in pairs:
        verdict = cr_iso_test(g, h)
        equivalent = verdict.outcome is CrOutcome.CR_EQUIVALENT
        assert equivalent == union_cr_equivalent(g, h), (g, h)
        outcomes[equivalent] += 1
    assert outcomes[False] > 0 and outcomes[True] > 1253
