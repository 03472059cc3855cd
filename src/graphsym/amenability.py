"""Recognition of amenable graphs and the isomorphism test built on it.

A graph is amenable exactly when color refinement decides isomorphism
against every other graph.  The recognizer checks, over the stable
partition: (A) every cell induces an empty, complete, matching, co-matching
or 5-cycle graph; (B) every cell pair induces an empty, complete, star or
co-star bipartite graph with star centers on the smaller cell; (C) every
anisotropic component is a tree with non-decreasing sizes away from a
minimum-size root (the pair kinds make each size divide the next); (D)
each component has at most one heterogeneous cell, of minimum size.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .cells import (
    CellGraph,
    CellKind,
    Component,
    PairKind,
    anisotropic_components,
    cell_graph_of_equitable,
    components_text,
)
from .graph import Graph
from .refinement import Partition, _quotient, stable_partition


class Failure(NamedTuple):
    condition: str  # the letter of the condition that fails, "A" to "D"
    cell: int | None = None
    pair: tuple[int, int] | None = None
    component: int | None = None
    reason: str | None = None

    def to_json(self) -> dict:
        out: dict = {"condition": self.condition}
        for key in ("cell", "pair", "component", "reason"):
            val = getattr(self, key)
            if val is not None:
                out[key] = list(val) if isinstance(val, tuple) else val
        return out

    def __str__(self) -> str:
        """The certificate as text, e.g. ``condition A fails at cell 0``."""
        text = f"condition {self.condition} fails"
        if self.component is not None:
            return f"{text} in component {self.component}: {self.reason}"
        if self.pair is not None:
            return f"{text} at cell pair {self.pair[0]}, {self.pair[1]}"
        return f"{text} at cell {self.cell}"


class AmenabilityVerdict(NamedTuple):
    amenable: bool
    cell_graph: CellGraph | None = None
    components: tuple[Component, ...] | None = None  # None unless amenable
    failure: Failure | None = None

    def json_text(self) -> str:
        """The verdict's JSON text: its components, or its failure."""
        if self.amenable:
            return '{"amenable": true, "components": %s}' % components_text(
                self.cell_graph.cell_sizes, self.components)
        import json  # only a failed verdict is encoded by json

        return '{"amenable": false, "failure": %s}' % json.dumps(
            self.failure.to_json(), sort_keys=True)


def check_amenable(g: Graph) -> AmenabilityVerdict:
    """Decide amenability; the verdict carries structure or the first failure.

    Conditions are checked in the fixed order A, B, C, D, scanning cells,
    pairs and components by lowest index; only the first violation is
    reported.
    """
    return _judge(g, stable_partition(g))


def _judge(g: Graph, p: Partition) -> AmenabilityVerdict:
    """check_amenable over g's stable partition p."""
    cg = cell_graph_of_equitable(g, p)

    # every cell kind but OTHER satisfies A, and every pair kind but OTHER B
    if CellKind.OTHER in cg.cell_kinds:
        return AmenabilityVerdict(amenable=False, failure=Failure(
            condition="A", cell=cg.cell_kinds.index(CellKind.OTHER)))
    bad_pairs = [key for key, kind in cg.pair_kinds.items() if kind is PairKind.OTHER]
    if bad_pairs:
        return AmenabilityVerdict(amenable=False, failure=Failure(
            condition="B", pair=min(bad_pairs)))

    components = anisotropic_components(cg)
    findings = [(cond, comp.cells[0], idx, reason)
                for idx, comp in enumerate(components)
                for cond, reason, _cells in comp.findings]
    if findings:
        cond, low, idx, reason = min(findings, key=lambda f: f[0])  # C before D, stable
        idx += low - cg.nonsingleton.index(low)  # the singleton cells below low
        return AmenabilityVerdict(amenable=False, failure=Failure(
            condition=cond, component=idx, reason=reason))
    return AmenabilityVerdict(amenable=True, cell_graph=cg, components=components)


class IsoVerdict(Enum):
    ISOMORPHIC = "Isomorphic"
    NOT_ISOMORPHIC = "NotIsomorphic"
    HEURISTIC_EQUIVALENT = "HeuristicEquivalent"


def amenable_iso(g: Graph, h: Graph) -> IsoVerdict:
    """Isomorphism test that is exact whenever either input is amenable.

    NotIsomorphic is always sound.  Isomorphic is certified by amenability
    of one input; HeuristicEquivalent means color refinement found no
    difference but neither graph is amenable.

    Two stages: sorted degree sequences that differ answer NotIsomorphic
    before either graph is refined, since the degree partition is where
    refinement starts and so the quotients would differ too; otherwise both
    quotients are built and compared.  g is judged on its own stable
    partition, and only g: if h were amenable, CR equivalence would make g
    isomorphic to h and hence amenable too.
    """
    if g.degree_sequence() != h.degree_sequence():
        return IsoVerdict.NOT_ISOMORPHIC
    return iso_from_quotients(g, *_quotient(g), _quotient(h)[1])


def iso_from_quotients(g: Graph, raw: list[int], q_g: dict, q_h: dict) -> IsoVerdict:
    """amenable_iso from g, ``_quotient(g)`` = (raw, q_g) and h's quotient
    q_h, so that h can be loaded and refined elsewhere, as ``graphsym iso``
    does.  g's stable partition is numbered from raw only when the quotients
    agree, since only then is g judged."""
    if q_g != q_h:
        return IsoVerdict.NOT_ISOMORPHIC
    if _judge(g, Partition.from_colors(raw)).amenable:
        return IsoVerdict.ISOMORPHIC
    return IsoVerdict.HEURISTIC_EQUIVALENT
