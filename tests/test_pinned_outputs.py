"""Pinned digests of the JSON answers, so that a change meant to keep every
output byte for byte is checked by the suite rather than by hand.

For each input the digest covers ``json.dumps(..., sort_keys=True)`` of the
amenability verdict, the ``graphsym cells`` payload and, for an amenable
graph, ``analyze(...).to_json()``.  A change that alters an answer on
purpose recomputes the digests and says why.  The ``--json`` text the CLI
writes from row templates is checked against the same ``json.dumps``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random

import networkx as nx
import pytest

from graphsym import check_amenable, from_edge_list
from graphsym.cells import anisotropic_components, cell_graph_of_equitable, component_rows
from graphsym.cli import _cmd_amenable, _cmd_cells, _cmd_symmetry, run
from graphsym.formats import format_edge_list
from graphsym.generators import named, random_amenable
from graphsym.refinement import stable_partition
from graphsym.symmetry import analyze

from .conftest import complement, disjoint_union, near_discrete


def _answers(g) -> str:
    verdict = check_amenable(g)
    cg = cell_graph_of_equitable(g, stable_partition(g))
    cells = cg.to_json()
    cells["components"] = component_rows(cg.cell_sizes, anisotropic_components(cg))
    symmetry = analyze(g, verdict=verdict).to_json() if verdict.amenable else None
    return json.dumps([verdict.to_json(), cells, symmetry], sort_keys=True)


def _digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(_answers(g).encode())
        h.update(b"\n")
    return h.hexdigest()


def _atlas():
    return [from_edge_list(G.number_of_nodes(), list(G.edges())) for G in nx.graph_atlas_g()]


def _random_amenable():
    return [random_amenable(4 + seed % 57, seed=seed)[0] for seed in range(200)]


def _gnm():
    """G(n, m) draws, n 8-12 and m n-1.6n: among them graphs failing each of
    conditions A, B, C and D (checked by the test)."""
    out = []
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(8, 12)
        m = rng.randint(n, 8 * n // 5)
        out.append(from_edge_list(n, rng.sample([(i, j) for i in range(n)
                                                 for j in range(i + 1, n)], m)))
    return out


def _failing_unions():
    """Graphs failing a condition in two places, which pins the choice of the
    failure reported first: each failing G(n, m) draw beside its complement,
    and beside every other failing draw."""
    failing = [g for g in _gnm() if not check_amenable(g).amenable]
    return [disjoint_union(g, complement(g)) for g in failing] + [
        disjoint_union(a, b) for a in failing for b in failing if a is not b]


PINNED = {
    "atlas": (_atlas, "182bc268f0ff343472988a88584b3097dceb8f609c2747f3d44d4d757d91bfe0"),
    "random_amenable": (
        _random_amenable, "072800034ae892a0efe14d7ea1fda2c6e12653f2592f76dda762caac12c4a81a"),
    "gnm": (_gnm, "9931c2971e8e185b4295467a804ece3c3876d57d378107ca9da781dd72257d65"),
    "failing_unions": (
        _failing_unions, "3843ecf84ff82644dd3d8eb5f7a892c31dd899b6c2be68b747b4ae0b9efbae5d"),
    "near_discrete": (
        near_discrete, "72f79f78d7df80c4b0df76fd8e7097113223ba03897659b1b9d992ecaed4dade"),
}


@pytest.mark.parametrize("family", sorted(PINNED))
def test_outputs_match_pinned_digest(family):
    draw, digest = PINNED[family]
    assert _digest(draw()) == digest


def test_gnm_draws_fail_every_condition():
    failed = {v.failure.condition for v in map(check_amenable, _gnm()) if not v.amenable}
    assert failed == {"A", "B", "C", "D"}


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, check_circular=False)


def _heterogeneous():
    """Graphs with a heterogeneous cell that is a component of its own: a
    5-cycle and a perfect matching, alone and beside singleton cells."""
    c5, matching = named("cn", 5), from_edge_list(4, [(0, 1), (2, 3)])
    tree = from_edge_list(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])  # asymmetric
    return [c5, matching, disjoint_union(c5, tree), disjoint_union(tree, matching)]


WRITER_FAMILIES = {"atlas": _atlas, "random_amenable": _random_amenable, "gnm": _gnm,
                   "near_discrete": near_discrete, "heterogeneous": _heterogeneous,
                   "empty": lambda: [from_edge_list(0, [])]}
_JSON = argparse.Namespace(json=True, components=True, field="dist_number")


@pytest.mark.parametrize("family", sorted(WRITER_FAMILIES))
def test_json_text_is_the_payload_encoded(family):
    """The --json text of ``amenable``, ``cells`` and ``dist --components``,
    and each record's row, is json.dumps of its to_json()."""
    lone_heterogeneous = 0
    for g in WRITER_FAMILIES[family]():
        verdict = check_amenable(g)
        cg = cell_graph_of_equitable(g, stable_partition(g))
        records = anisotropic_components(cg)
        for r in records:
            assert r.json_text() == _dumps(r.to_json())
            lone_heterogeneous += len(r.cells) == 1 and r.heterogeneous
        cells = {**cg.to_json(), "components": component_rows(cg.cell_sizes, records)}
        assert _cmd_cells(g, _JSON) == (_dumps(cells), None)
        if not verdict.amenable:  # no per-cell list: the CLI encodes the dict
            assert _cmd_amenable(g, _JSON) == (verdict.to_json(), None)
            continue
        assert _cmd_amenable(g, _JSON) == (_dumps(verdict.to_json()), None)
        report = analyze(g, verdict=verdict)
        for r in report.components:
            assert r.json_text() == _dumps(r.to_json())
        assert _cmd_symmetry(g, _JSON) == (_dumps(report.to_json()), None)
    if family == "heterogeneous":
        assert lone_heterogeneous == 4


def test_cli_json_of_a_large_tree(tmp_path, capsys):
    """A random recursive tree of 5 * 10^4 vertices, through the CLI."""
    rng, n = random.Random(5), 50_000
    g = from_edge_list(n, [(v, rng.randrange(v)) for v in range(1, n)])
    path = tmp_path / "tree.txt"
    path.write_text(format_edge_list(g))
    verdict = check_amenable(g)
    cg, records = verdict.cell_graph, verdict.components
    for argv, payload in (
        (["amenable"], verdict.to_json()),
        (["cells"], {**cg.to_json(), "components": component_rows(cg.cell_sizes, records)}),
        (["dist", "--components"], analyze(g, verdict=verdict).to_json()),
    ):
        assert run(["--json", *argv, str(path)]) == 0
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n", argv
