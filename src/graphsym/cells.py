"""Cell graph over an equitable partition: kinds, degree constants, anisotropic trees.

All classification is driven by the degree constants d[i, j] (neighbors a
vertex of cell i has in cell j), which determine the induced subgraphs
exactly because equitable cells are regular and cell pairs are biregular:
a 1-regular graph is a perfect matching, a 2-regular graph on 5 vertices is
the 5-cycle, and a star union with s centers and st leaves must have its
centers on the smaller side.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import NotEquitable
from .graph import Graph
from .refinement import Partition, first_deviation, neighbour_counts


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


class PairClass(NamedTuple):
    """Classification of one unordered cell pair; center_cell is set for star kinds."""

    kind: PairKind
    center_cell: int | None = None


# Only star pairs carry data, so every other pair shares one instance.
_ISO_EMPTY = PairClass(kind=PairKind.ISO_EMPTY)
_ISO_COMPLETE = PairClass(kind=PairKind.ISO_COMPLETE)
_OTHER_PAIR = PairClass(kind=PairKind.OTHER)


def _heterogeneous(kind: CellKind) -> bool:
    # identity tests: hashing an Enum member runs Python code
    return kind is not CellKind.EMPTY and kind is not CellKind.COMPLETE


class CellGraph(NamedTuple):
    """Sizes, kinds and degree constants over the cells of an equitable partition.

    Singleton cells are kept in bulk: ``d`` holds the rows of the
    ``nonsingleton`` cells only (d[i, i] and each d[i, j] > 0; a missing key
    means 0) and ``pair_classes`` the pairs of two such cells with an edge.
    The methods answer for singleton cells, all EMPTY, from the graph.
    """

    graph: Graph
    partition: Partition
    cell_sizes: tuple[int, ...]
    nonsingleton: tuple[int, ...]  # ids of the cells of two or more vertices, ascending
    d: dict[tuple[int, int], int]
    cell_kinds: tuple[CellKind, ...]
    pair_classes: dict[tuple[int, int], PairClass]

    @property
    def num_cells(self) -> int:
        return len(self.cell_sizes)

    def degree_constant(self, i: int, j: int) -> int:
        sizes, cells = self.cell_sizes, self.partition.cells
        if sizes[i] > 1:
            return self.d.get((i, j), 0)
        if sizes[j] > 1:  # double counting: |i| d[i, j] = |j| d[j, i], and |i| = 1
            return sizes[j] * self.d.get((j, i), 0)
        return int(self.graph.has_edge(cells[i][0], cells[j][0]))

    def pair_class(self, i: int, j: int) -> PairClass:
        pc = self.pair_classes.get((i, j) if i < j else (j, i))  # two nonsingleton cells
        return pc or (_ISO_COMPLETE if i != j and self.degree_constant(i, j) else _ISO_EMPTY)

    def to_json(self) -> dict:
        cell_of = self.partition.cell_of
        pairs = {(a, b) if a < b else (b, a) for a, b in (
            (cell_of[u], cell_of[v]) for u, v in self.graph.edges()) if a != b}
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
                for i, j in sorted(pairs) for pc in (self.pair_class(i, j),)
            ],
        }


class Component(NamedTuple):
    """One connected component of the anisotropic pairs, rooted, with what
    breaks conditions C and D in it.

    The root is a minimum-size cell, preferring the heterogeneous cell when
    it attains the minimum, with the lowest cell id breaking remaining ties.
    order is the breadth-first walk from the root (the root first, every
    cell after its parent), and parent and multiplicity come from it; all
    three are empty when the component is not a tree.  bad_edges are the
    walk's tree edges along which cell sizes decrease or do not divide.
    """

    cells: tuple[int, ...]
    root: int
    order: tuple[int, ...]
    parent: dict[int, int]
    multiplicity: dict[int, int]  # child cell id -> |child| / |parent|
    het_cells: tuple[int, ...] = ()
    bad_edges: tuple[tuple[str, int, int], ...] = ()  # (reason, parent, child)

    @property
    def is_tree(self) -> bool:
        return bool(self.order)

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
        findings = self.findings() if len(self.cells) > 1 else ()  # a lone cell has none
        if findings:
            out["findings"] = [
                {"condition": cond, "reason": reason, "cells": list(cells)}
                for cond, reason, cells in findings
            ]
        return out


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
    fresh from refine: d is read from the lowest vertex of each nonsingleton
    cell, and a pair of two such cells is classified when the higher is read."""
    cell_of, cells = p.cell_of, p.cells
    sizes = tuple(map(len, cells))
    nonsingleton = tuple(i for i, size in enumerate(sizes) if size > 1)
    kinds = [CellKind.EMPTY] * len(sizes)
    d: dict[tuple[int, int], int] = {}
    pair_classes: dict[tuple[int, int], PairClass] = {}
    for i in nonsingleton:
        profile = neighbour_counts(g, cell_of, cells[i][0])
        d[(i, i)] = profile.pop(i, 0)
        kinds[i] = _classify_cell(sizes[i], d[(i, i)])
        for j, count in profile.items():
            d[(i, j)] = count
            if j < i and sizes[j] > 1:  # equitable: d[j, i] > 0 too, read with cell j
                pair_classes[(j, i)] = _classify_pair(
                    j, i, sizes[j], sizes[i], d[(j, i)], count
                )
    return CellGraph(
        graph=g, partition=p, cell_sizes=sizes, nonsingleton=nonsingleton, d=d,
        cell_kinds=tuple(kinds), pair_classes=pair_classes,
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
        return _ISO_EMPTY
    if d_large_to_small == s_small:
        return _ISO_COMPLETE
    if d_large_to_small == 1:
        return PairClass(kind=PairKind.ANISO_STARS, center_cell=small)
    if d_large_to_small == s_small - 1:
        return PairClass(kind=PairKind.ANISO_CO_STARS, center_cell=small)
    return _OTHER_PAIR


class Components(Sequence):
    """Per-component records by lowest cell id: ``records`` for the nonsingleton
    cells, then on first read ``lone(cell)`` for each singleton cell."""

    def __init__(self, cg: CellGraph, records: tuple, lone: Callable[[int], object]) -> None:
        self.cg, self.records, self._lone = cg, records, lone

    @cached_property
    def _all(self) -> tuple:
        singles = [self._lone(i) for i, size in enumerate(self.cg.cell_sizes) if size == 1]
        return tuple(sorted([*self.records, *singles], key=lambda r: r.cells[0]))

    def __len__(self) -> int:
        return len(self._all)

    def __getitem__(self, index):
        return self._all[index]


def _lone_component(cell: int, heterogeneous: bool = False) -> Component:
    # a cell without anisotropic pairs: a tree without edges, rooted at itself
    return Component(cells=(cell,), root=cell, order=(cell,), parent={}, multiplicity={},
                     het_cells=(cell,) if heterogeneous else ())


def anisotropic_components(cg: CellGraph) -> Components:
    """Connected components of the anisotropic pairs, rooted and checked.

    Components are ordered by lowest cell id.  Only nonsingleton cells are
    walked; a singleton cell is its own component, made when read.
    Structural problems are recorded on each Component (see
    Component.findings), never raised; check_amenable judges C and D from them.
    """
    sizes, kinds = cg.cell_sizes, cg.cell_kinds
    adj: dict[int, list[int]] = {i: [] for i in cg.nonsingleton}
    for i, j in sorted(key for key, pc in cg.pair_classes.items() if pc.center_cell is not None):
        adj[i].append(j)  # sorted keys keep every list ascending
        adj[j].append(i)
    seen: set[int] = set()
    comps: list[Component] = []
    for start in cg.nonsingleton:
        if not adj[start]:
            comps.append(_lone_component(start, _heterogeneous(kinds[start])))
            continue
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        degree_sum = 0
        while stack:
            x = stack.pop()
            degree_sum += len(adj[x])
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comp.sort()
        het = tuple(c for c in comp if _heterogeneous(kinds[c]))
        min_size = min(sizes[c] for c in comp)
        root = next((c for c in het if sizes[c] == min_size), None)
        if root is None:
            root = next(c for c in comp if sizes[c] == min_size)
        parent: dict[int, int] = {}
        multiplicity: dict[int, int] = {}
        bad_edges: list[tuple[str, int, int]] = []
        order = [root] if degree_sum == 2 * (len(comp) - 1) else []  # only a tree is walked
        for x in order:  # breadth-first; order grows as the walk goes
            up = parent.get(x)
            for y in adj[x]:
                if y == up:
                    continue
                parent[y] = x
                order.append(y)
                if sizes[y] < sizes[x]:
                    bad_edges.append(("monotone", x, y))
                elif sizes[y] % sizes[x]:
                    bad_edges.append(("divisibility", x, y))
                else:
                    multiplicity[y] = sizes[y] // sizes[x]
        comps.append(Component(
            cells=tuple(comp), root=root, order=tuple(order), parent=parent,
            multiplicity=multiplicity, het_cells=het, bad_edges=tuple(bad_edges),
        ))
    return Components(cg, tuple(comps), _lone_component)
