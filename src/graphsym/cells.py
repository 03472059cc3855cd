"""Cell graph over an equitable partition: kinds, degree constants, anisotropic trees.

All classification is driven by the degree constants d[i, j] (neighbors a
vertex of cell i has in cell j), which determine the induced subgraphs
exactly because equitable cells are regular and cell pairs are biregular:
a 1-regular graph is a perfect matching, a 2-regular graph on 5 vertices is
the 5-cycle, and a star union with s centers and st leaves must have its
centers on the smaller side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import NotEquitable
from .graph import Graph
from .refinement import Partition, first_deviation


class CellKind(Enum):
    EMPTY = "empty"
    COMPLETE = "complete"
    MATCHING = "matching"
    CO_MATCHING = "co_matching"
    FIVE_CYCLE = "five_cycle"
    OTHER = "other"


class PairKind(Enum):
    ISO_EMPTY = "iso_empty"
    ISO_COMPLETE = "iso_complete"
    ANISO_STARS = "aniso_stars"
    ANISO_CO_STARS = "aniso_co_stars"
    OTHER = "other"


HOMOGENEOUS_KINDS = {CellKind.EMPTY, CellKind.COMPLETE}
ANISOTROPIC_KINDS = {PairKind.ANISO_STARS, PairKind.ANISO_CO_STARS}


@dataclass(frozen=True)
class PairClass:
    """Classification of one unordered cell pair; center_cell is set for star kinds."""

    kind: PairKind
    center_cell: int | None = None


@dataclass(frozen=True)
class CellGraph:
    """Sizes, kinds and degree constants over the cells of an equitable partition.

    ``d`` is sparse: it holds every ordered pair with at least one edge plus
    all diagonal entries; a missing off-diagonal key means 0.
    """

    partition: Partition
    cell_sizes: tuple[int, ...]
    d: dict[tuple[int, int], int]
    cell_kinds: tuple[CellKind, ...]
    pair_classes: dict[tuple[int, int], PairClass]

    @property
    def num_cells(self) -> int:
        return len(self.cell_sizes)

    def degree_constant(self, i: int, j: int) -> int:
        return self.d.get((i, j), 0)

    def is_heterogeneous(self, i: int) -> bool:
        return self.cell_kinds[i] not in HOMOGENEOUS_KINDS

    def pair_class(self, i: int, j: int) -> PairClass:
        key = (i, j) if i < j else (j, i)
        return self.pair_classes.get(key, PairClass(kind=PairKind.ISO_EMPTY))

    def to_json(self) -> dict:
        return {
            "cells": [
                {"id": i, "size": self.cell_sizes[i], "kind": self.cell_kinds[i].value,
                 "vertices": list(self.partition.cells[i])}
                for i in range(self.num_cells)
            ],
            "pairs": [
                {"i": i, "j": j, "d_ij": self.degree_constant(i, j),
                 "d_ji": self.degree_constant(j, i), "kind": pc.kind.value,
                 **({"centers": pc.center_cell} if pc.center_cell is not None else {})}
                for (i, j), pc in sorted(self.pair_classes.items())
            ],
        }


@dataclass(frozen=True)
class Component:
    """One connected component of the anisotropic pairs, rooted, with what
    breaks conditions C and D in it.

    The root is a minimum-size cell, preferring the heterogeneous cell when
    it attains the minimum, with the lowest cell id breaking remaining ties.
    parent, children and multiplicity come from a breadth-first walk from
    the root and are empty when the component is not a tree; bad_edges are
    the walk's tree edges along which cell sizes decrease or do not divide.
    """

    cells: tuple[int, ...]
    root: int
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]]
    multiplicity: dict[int, int]  # child cell id -> |child| / |parent|
    het_cells: tuple[int, ...] = ()
    is_tree: bool = True
    bad_edges: tuple[tuple[str, int, int], ...] = ()  # (reason, parent, child)

    @property
    def heterogeneous(self) -> bool:
        return bool(self.het_cells)

    def findings(self) -> list[tuple[str, str, tuple[int, ...]]]:
        """(condition, reason, cells involved) for each violation of C, then D."""
        out: list[tuple[str, str, tuple[int, ...]]] = []
        if not self.is_tree:
            out.append(("C", "not a tree", self.cells))
        for reason, parent, child in self.bad_edges:
            text = (
                f"cell sizes decrease along {parent} -> {child}"
                if reason == "monotone"
                else f"size of cell {parent} does not divide size of cell {child}"
            )
            out.append(("C", text, (parent, child)))
        if len(self.het_cells) > 1:
            out.append(("D", "more than one heterogeneous cell", self.het_cells))
        elif self.het_cells and self.het_cells[0] != self.root:
            out.append(("D", "heterogeneous cell is not of minimum size", self.het_cells))
        return out

    def to_json(self) -> dict:
        out: dict = {
            "cells": list(self.cells),
            "root": self.root,
            "parents": {str(c): p for c, p in sorted(self.parent.items())},
            "multiplicities": {str(c): m for c, m in sorted(self.multiplicity.items())},
            "heterogeneous": self.heterogeneous,
        }
        findings = self.findings()
        if findings:
            out["findings"] = [
                {"condition": cond, "reason": reason, "cells": list(cells)}
                for cond, reason, cells in findings
            ]
        return out


@dataclass(frozen=True)
class AnisotropicForest:
    components: tuple[Component, ...]

    def to_json(self) -> dict:
        return {"components": [c.to_json() for c in self.components]}


def build_cell_graph(g: Graph, p: Partition) -> CellGraph:
    """Compute degree constants and classify cells and pairs.

    Raises NotEquitable if any vertex deviates from its cell's profile.
    """
    deviation = first_deviation(g, p)
    if deviation is not None:
        raise NotEquitable(*deviation)
    return cell_graph_of_equitable(g, p)


def cell_graph_of_equitable(g: Graph, p: Partition) -> CellGraph:
    """build_cell_graph for a partition known to be equitable, such as one
    fresh from refine: d is read from the lowest vertex of each cell."""
    cell_of = p.cell_of
    sizes = tuple(len(c) for c in p.cells)
    k = len(sizes)
    d: dict[tuple[int, int], int] = {}
    for i in range(k):
        profile: dict[int, int] = {}
        for u in g.adjacency[p.cells[i][0]]:
            c = cell_of[u]
            profile[c] = profile.get(c, 0) + 1
        d[(i, i)] = profile.get(i, 0)
        for j, count in profile.items():
            if j != i:
                d[(i, j)] = count

    cell_kinds = tuple(_classify_cell(sizes[i], d[(i, i)]) for i in range(k))

    pair_classes: dict[tuple[int, int], PairClass] = {}
    for (i, j), dij in d.items():
        if i >= j or dij == 0:
            continue
        pair_classes[(i, j)] = _classify_pair(i, j, sizes[i], sizes[j], dij, d[(j, i)])
    return CellGraph(
        partition=p, cell_sizes=sizes, d=d, cell_kinds=cell_kinds,
        pair_classes=pair_classes,
    )


def _classify_cell(size: int, dii: int) -> CellKind:
    if dii == 0:
        return CellKind.EMPTY
    if dii == size - 1:
        return CellKind.COMPLETE
    if dii == 1 and size >= 4:
        return CellKind.MATCHING
    if dii == size - 2 and size >= 4:
        return CellKind.CO_MATCHING
    if size == 5 and dii == 2:
        return CellKind.FIVE_CYCLE
    return CellKind.OTHER


def _classify_pair(i: int, j: int, si: int, sj: int, dij: int, dji: int) -> PairClass:
    # orient so `small` is the lower-size cell (ties keep the lower id)
    if sj < si:
        small, s_small, d_large_to_small = j, sj, dij
    else:
        small, s_small, d_large_to_small = i, si, dji
    if d_large_to_small == 0:
        return PairClass(kind=PairKind.ISO_EMPTY)
    if d_large_to_small == s_small:
        return PairClass(kind=PairKind.ISO_COMPLETE)
    if d_large_to_small == 1:
        return PairClass(kind=PairKind.ANISO_STARS, center_cell=small)
    if d_large_to_small == s_small - 1:
        return PairClass(kind=PairKind.ANISO_CO_STARS, center_cell=small)
    return PairClass(kind=PairKind.OTHER)


def anisotropic_components(cg: CellGraph) -> AnisotropicForest:
    """Connected components of the anisotropic pairs, rooted and checked.

    Components are ordered by lowest cell id.  Structural problems are
    recorded on each Component (see Component.findings), never raised;
    check_amenable judges conditions C and D from them.
    """
    sizes = cg.cell_sizes
    adj: list[list[int]] = [[] for _ in range(cg.num_cells)]
    for (i, j), pc in sorted(cg.pair_classes.items()):
        if pc.kind in ANISOTROPIC_KINDS:
            adj[i].append(j)  # sorted keys keep every list ascending
            adj[j].append(i)
    seen = [False] * cg.num_cells
    comps: list[Component] = []
    for start in range(cg.num_cells):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        degree_sum = 0
        while stack:
            x = stack.pop()
            degree_sum += len(adj[x])
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comp.sort()
        het = tuple(c for c in comp if cg.is_heterogeneous(c))
        min_size = min(sizes[c] for c in comp)
        root = next((c for c in het if sizes[c] == min_size), None)
        if root is None:
            root = next(c for c in comp if sizes[c] == min_size)
        is_tree = degree_sum == 2 * (len(comp) - 1)
        parent: dict[int, int] = {}
        children: dict[int, tuple[int, ...]] = {}
        multiplicity: dict[int, int] = {}
        bad_edges: list[tuple[str, int, int]] = []
        order = [root] if is_tree else []
        for x in order:  # breadth-first; order grows as the walk goes
            kids = tuple(y for y in adj[x] if y != parent.get(x))
            children[x] = kids
            for y in kids:
                parent[y] = x
                order.append(y)
                if sizes[y] < sizes[x]:
                    bad_edges.append(("monotone", x, y))
                elif sizes[y] % sizes[x]:
                    bad_edges.append(("divisibility", x, y))
                else:
                    multiplicity[y] = sizes[y] // sizes[x]
        comps.append(Component(
            cells=tuple(comp), root=root, parent=parent, children=children,
            multiplicity=multiplicity, het_cells=het, is_tree=is_tree,
            bad_edges=tuple(bad_edges),
        ))
    return AnisotropicForest(components=tuple(comps))
