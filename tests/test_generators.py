from __future__ import annotations

import json
import random

import pytest

from graphsym import (
    IsoVerdict,
    Partition,
    amenable_iso,
    analyze,
    check_amenable,
    from_edge_list,
    stable_partition,
)
from graphsym import generators
from graphsym.errors import BadParams, BadSpec, BudgetExhausted
from graphsym.formats import MAX_VERTICES
from graphsym.generators import generate, named, random_amenable, validate_spec

from .conftest import BRANCHED_SPEC

JELLYFISH_SPEC = {"components": [{"head": "five_cycle", "tree": {"size": 5, "children": [
    {"size": 5},
    {"size": 5, "children": [{"size": 10}]},
]}}]}


def _one_cell(head: str, size: int) -> dict:
    return {"components": [{"head": head, "tree": {"size": size}}]}


def test_generate_branched_spec():
    g, intended = generate(BRANCHED_SPEC, seed=0)
    assert g.n == 100
    assert validate_spec(g, intended)
    assert check_amenable(g).amenable


def test_generate_single_complete_cell_is_kn():
    g, intended = generate(_one_cell("complete", 6), seed=0)
    assert g == named("kn", 6)
    assert validate_spec(g, intended)


def test_generate_jellyfish_spec():
    g, intended = generate(JELLYFISH_SPEC, seed=3)
    assert g.n == 25
    assert validate_spec(g, intended)
    assert amenable_iso(g, named("jellyfish_fig3")) is IsoVerdict.ISOMORPHIC


def test_recovered_forest_matches_spec_tree():
    g, intended = generate(JELLYFISH_SPEC, seed=3)
    verdict = check_amenable(g)
    comp = verdict.components[0]
    sizes = {c: len(intended.cells[c]) for c in comp.cells}
    assert sizes[comp.root] == 5
    children = {x: [c for c, p in comp.parent.items() if p == x] for x in comp.cells}
    child_profiles = sorted(
        (sizes[child], tuple(sorted(sizes[gc] for gc in children[child])))
        for child in children[comp.root]
    )
    assert child_profiles == [(5, ()), (5, (10,))]


def test_generate_deterministic():
    assert generate(BRANCHED_SPEC, seed=42) == generate(BRANCHED_SPEC, seed=42)
    g1, _ = generate(BRANCHED_SPEC, seed=42)
    g2, _ = generate(BRANCHED_SPEC, seed=43)
    assert g1 != g2  # star assignment reshuffles


def test_generate_reads_the_spec_by_value():
    leaf = {"size": 2}
    shared = {"components": [{"head": "empty", "tree": {"size": 1, "children": [leaf, leaf]}}]}
    copied = json.loads(json.dumps(shared))
    for seed in range(3):
        assert generate(shared, seed=seed) == generate(copied, seed=seed)
    g, _ = generate(shared)
    assert g.m == 4  # both leaf cells hang off the root: no vertex is isolated


def test_generate_leaves_its_argument_unchanged():
    spec = {"components": [*JELLYFISH_SPEC["components"], *BRANCHED_SPEC["components"]],
            "wiring": [{"components": [1, 0], "cells": [2, 1]}]}
    before = json.loads(json.dumps(spec))
    generate(spec, seed=5)
    assert spec == before


def test_generate_walks_a_deep_tree_without_recursion():
    tree: dict = {"size": 1}
    for _ in range(2999):
        tree = {"size": 1, "children": [tree]}
    g, _ = generate({"components": [{"head": "complete", "tree": tree}]})
    assert g == named("pn", 3000)


def test_validate_spec_rejects_merged_cells():
    g = from_edge_list(2, [])
    intended = Partition.from_colors(range(2))
    assert not validate_spec(g, intended)  # refinement merges identical isolated vertices
    assert validate_spec(named("kn", 4), Partition.from_colors([0] * 4))


def _with_join(join) -> dict:
    return {"components": [{"head": "empty", "tree": {"size": 2}},
                           {"head": "complete", "tree": {"size": 3}}],
            "wiring": [join]}


BAD_SPECS = [
    _one_cell("five_cycle", 4),
    _one_cell("matching", 5),
    {"components": [{"head": "empty", "tree": {"size": 3, "children": [{"size": 2}]}}]},
    {"components": [{"head": "empty", "tree": {"size": 2, "children": [{"size": 3}]}}]},
    {"components": []},
    {"components": [{"head": "empty", "root_size": 3, "tree": {"size": 2}}]},
    {"components": [{"head": "empty", "tree": {"size": 2, "fill": "full"}}]},
    {"components": [{"head": "star", "tree": {"size": 2}}]},
    _one_cell("empty", 0),
    _one_cell("empty", 2.0),
    _one_cell("empty", "2"),
    _one_cell("empty", True),
    {"components": [{"head": "empty", "root_size": True, "tree": {"size": 1}}]},
    {"components": [{"head": "empty", "tree": {"size": 2, "children": {"size": 2}}}]},
    {"components": [{"head": "empty", "tree": [2]}]},
    {"components": [{"head": "empty"}]},
    {"components": {"head": "empty", "tree": {"size": 2}}},
    {},
    [],
    _with_join({"components": [0, 0], "cells": [0, 0]}),
    _with_join({"components": [0, 2], "cells": [0, 0]}),
    _with_join({"components": [0, 1], "cells": [1, 0]}),
    _with_join({"components": [0, 1], "cells": [0.5, 0]}),
    _with_join({"components": ["0", 1], "cells": [0, 0]}),
    _with_join({"components": [0, 1, 1], "cells": [0, 0]}),
    _with_join({"components": [0, 1]}),
    _with_join([0, 1]),
    {**_with_join({"components": [0, 1], "cells": [0, 0]}), "wiring": {}},
    # past the size limits, refused before anything is built
    _one_cell("empty", MAX_VERTICES + 1),
    {"components": [{"head": "empty", "tree": {"size": MAX_VERTICES}},
                    {"head": "complete", "tree": {"size": 1}}]},
    _one_cell("complete", 3000),
    {"components": [{"head": "empty", "tree": {"size": 1, "children": [
        {"size": 3000, "fill": "complete"}]}}]},
    {"components": [{"head": "empty", "tree": {"size": 2100}},
                    {"head": "complete", "tree": {"size": 1, "children": [{"size": 2100}]}}],
     "wiring": [{"components": [0, 1], "cells": [0, 1]}]},
]


def test_bad_specs():
    for spec in BAD_SPECS:
        with pytest.raises(BadSpec):
            generate(spec)


def test_implied_size_is_what_generate_builds():
    """The vertex and edge counts checked against the limits are those of
    the graph built: sampled specs join each pair of components at most
    once, so no edge is built twice."""
    rng = random.Random(0)
    specs = [generators._sample_spec(rng, n, n + 2) for n in (5, 12, 40, 255, 600) * 12]
    for spec in filter(None, specs):
        g, _ = generate(spec)
        assert generators._implied_size(*generators._read(spec)) == (g.n, g.m), spec


def test_named_families():
    assert named("rk2", 3).n == 6 and named("rk2", 3).m == 3
    assert named("kab", 2, 3).m == 6
    assert len(stable_partition(named("figure1")).cells) == 4
    report = analyze(named("jellyfish_fig3"))
    assert (report.dist_number, report.fix_number) == (2, 5)
    with pytest.raises(BadParams):
        named("mystery")
    with pytest.raises(BadParams):
        named("kn")  # missing parameter
    with pytest.raises(BadParams):
        named("cn", 2)


def test_random_amenable_validates_and_is_deterministic():
    for seed in range(25):
        g, p = random_amenable(12, seed=seed)
        assert g.n <= 14
        assert stable_partition(g) == p
        assert check_amenable(g).amenable
    g1, _ = random_amenable(12, seed=7)
    g2, _ = random_amenable(12, seed=7)
    assert g1 == g2


def test_random_amenable_degenerate_and_large():
    with pytest.raises(BadParams):
        random_amenable(MAX_VERTICES + 1)
    g, _ = random_amenable(1, seed=0)
    assert g.n <= 3
    g, p = random_amenable(2000, seed=1)
    assert 1900 <= g.n <= 2002
    assert stable_partition(g) == p


def test_budget_exhausted(monkeypatch):
    monkeypatch.setattr(generators, "_ATTEMPTS", 0)
    with pytest.raises(BudgetExhausted):
        random_amenable(5, seed=0)
