from __future__ import annotations

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
from graphsym.generators import (
    CellNode,
    ComponentSpec,
    GraphSpec,
    generate,
    named,
    random_amenable,
    validate_spec,
)

BRANCHED_TREE = CellNode(size=5, children=(
    CellNode(size=10, children=(
        CellNode(size=30), CellNode(size=20, fill="complete"),
    )),
    CellNode(size=15),
    CellNode(size=5, children=(CellNode(size=15),)),
))
JELLYFISH_TREE = CellNode(size=5, children=(
    CellNode(size=5),
    CellNode(size=5, children=(CellNode(size=10),)),
))


def test_generate_branched_spec():
    spec = GraphSpec(components=(ComponentSpec(head="complete", tree=BRANCHED_TREE),))
    g, intended = generate(spec, seed=0)
    assert g.n == 100
    assert validate_spec(g, intended)
    assert check_amenable(g).amenable


def test_generate_single_complete_cell_is_kn():
    spec = GraphSpec(components=(ComponentSpec(head="complete", tree=CellNode(size=6)),))
    g, intended = generate(spec, seed=0)
    assert g == named("kn", 6)
    assert validate_spec(g, intended)


def test_generate_jellyfish_spec():
    spec = GraphSpec(components=(ComponentSpec(head="five_cycle", tree=JELLYFISH_TREE),))
    g, intended = generate(spec, seed=3)
    assert g.n == 25
    assert validate_spec(g, intended)
    assert amenable_iso(g, named("jellyfish_fig3")) is IsoVerdict.ISOMORPHIC


def test_recovered_forest_matches_spec_tree():
    spec = GraphSpec(components=(ComponentSpec(head="five_cycle", tree=JELLYFISH_TREE),))
    g, intended = generate(spec, seed=3)
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
    spec = GraphSpec(components=(ComponentSpec(head="complete", tree=BRANCHED_TREE),))
    assert generate(spec, seed=42) == generate(spec, seed=42)
    g1, _ = generate(spec, seed=42)
    g2, _ = generate(spec, seed=43)
    assert g1 != g2  # star assignment reshuffles


def test_validate_spec_rejects_merged_cells():
    g = from_edge_list(2, [])
    intended = Partition.discrete(2)
    assert not validate_spec(g, intended)  # refinement merges identical isolated vertices
    assert validate_spec(named("kn", 4), Partition.unit(4))


def test_spec_json_roundtrip():
    spec = GraphSpec(
        components=(
            ComponentSpec(head="five_cycle", tree=JELLYFISH_TREE),
            ComponentSpec(head="matching", tree=CellNode(size=4)),
        ),
    )
    assert GraphSpec.from_json(spec.to_json()) == spec


def test_bad_specs():
    with pytest.raises(BadSpec):
        ComponentSpec(head="five_cycle", tree=CellNode(size=4)).validate()
    with pytest.raises(BadSpec):
        ComponentSpec(head="matching", tree=CellNode(size=5)).validate()
    with pytest.raises(BadSpec):
        ComponentSpec(
            head="empty",
            tree=CellNode(size=3, children=(CellNode(size=2),)),
        ).validate()
    with pytest.raises(BadSpec):
        ComponentSpec(
            head="empty",
            tree=CellNode(size=2, children=(CellNode(size=3),)),
        ).validate()
    with pytest.raises(BadSpec):
        GraphSpec(components=()).validate()


def test_named_families():
    assert named("rk2", 3).n == 6 and named("rk2", 3).m == 3
    assert named("kab", 2, 3).m == 6
    assert stable_partition(named("figure1")).num_cells == 4
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
    g, _ = random_amenable(1, seed=0)
    assert g.n <= 3
    g, p = random_amenable(2000, seed=1)
    assert 1900 <= g.n <= 2002
    assert stable_partition(g) == p


def test_budget_exhausted(monkeypatch):
    monkeypatch.setattr(generators, "_ATTEMPTS", 0)
    with pytest.raises(BudgetExhausted):
        random_amenable(5, seed=0)
