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


# identity tests: hashing an Enum member runs Python code
def _heterogeneous(kind: CellKind) -> bool:
    return kind is not CellKind.EMPTY and kind is not CellKind.COMPLETE


def _anisotropic(kind: PairKind) -> bool:
    return kind is PairKind.ANISO_STARS or kind is PairKind.ANISO_CO_STARS


class CellGraph(NamedTuple):
    """Sizes, kinds and degree constants over the cells of an equitable partition.

    Singleton cells are kept in bulk: ``d`` holds the rows of the
    ``nonsingleton`` cells only (d[i, i] and each d[i, j] > 0; a missing key
    means 0) and ``pair_kinds`` the pairs of two such cells with an edge.
    The methods answer for singleton cells, all EMPTY, from the graph.
    """

    graph: Graph
    partition: Partition
    cell_sizes: tuple[int, ...]
    nonsingleton: tuple[int, ...]  # ids of the cells of two or more vertices, ascending
    d: dict[tuple[int, int], int]
    cell_kinds: tuple[CellKind, ...]
    pair_kinds: dict[tuple[int, int], PairKind]

    def degree_constant(self, i: int, j: int) -> int:
        sizes, cells = self.cell_sizes, self.partition.cells
        if sizes[i] > 1:
            return self.d.get((i, j), 0)
        if sizes[j] > 1:  # double counting: |i| d[i, j] = |j| d[j, i], and |i| = 1
            return sizes[j] * self.d.get((j, i), 0)
        return int(self.graph.has_edge(cells[i][0], cells[j][0]))

    def pair_kind(self, i: int, j: int) -> PairKind:
        kind = self.pair_kinds.get((i, j) if i < j else (j, i))  # two nonsingleton cells
        return kind or (
            PairKind.ISO_COMPLETE if i != j and self.degree_constant(i, j) else PairKind.ISO_EMPTY)

    def center_cell(self, i: int, j: int) -> int:
        """The cell of pair i, j that holds the star centers when the pair is
        anisotropic: the smaller cell, the lower id on ties."""
        return min((self.cell_sizes[i], i), (self.cell_sizes[j], j))[1]

    def to_json(self) -> dict:
        cell_of = self.partition.cell_of
        pairs = {(a, b) if a < b else (b, a) for a, b in (
            (cell_of[u], cell_of[v]) for u, v in self.graph.edges()) if a != b}
        return {
            "cells": [
                {"id": i, "size": self.cell_sizes[i], "kind": self.cell_kinds[i].value,
                 "vertices": list(self.partition.cells[i])}
                for i in range(len(self.cell_sizes))
            ],
            "pairs": [
                {"i": i, "j": j, "d_ij": self.degree_constant(i, j),
                 "d_ji": self.degree_constant(j, i), "kind": kind.value,
                 **({"centers": self.center_cell(i, j)} if _anisotropic(kind) else {})}
                for i, j in sorted(pairs) for kind in (self.pair_kind(i, j),)
            ],
        }


class Component(NamedTuple):
    """One connected component of the anisotropic pairs, rooted, with what
    breaks conditions C and D in it.

    The root is a minimum-size cell, preferring the heterogeneous cell when
    it attains the minimum, with the lowest cell id breaking remaining ties.
    order is the breadth-first walk from the root (the root first, every
    cell after its parent), and parent and multiplicity come from it; all
    three are empty when the component is not a tree.  decreasing are the
    walk's tree edges along which cell sizes decrease; along the others the
    parent's size divides the child's, by double counting: |large| d[large,
    small] = |small| d[small, large], with d[large, small] = 1 or |small| - 1.
    """

    cells: tuple[int, ...]
    root: int
    order: tuple[int, ...]
    parent: dict[int, int]
    multiplicity: dict[int, int]  # child cell id -> |child| / |parent|
    het_cells: tuple[int, ...] = ()
    decreasing: tuple[tuple[int, int], ...] = ()  # (parent, child)

    @property
    def is_tree(self) -> bool:
        return bool(self.order)

    def findings(self) -> list[tuple[str, str, tuple[int, ...]]]:
        """(condition, reason, cells involved) for each violation of C, then D."""
        out: list[tuple[str, str, tuple[int, ...]]] = []
        if not self.is_tree:
            out.append(("C", "not a tree", self.cells))
        for parent, child in self.decreasing:
            out.append(("C", f"cell sizes decrease along {parent} -> {child}", (parent, child)))
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
            "heterogeneous": bool(self.het_cells),
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
    pair_kinds: dict[tuple[int, int], PairKind] = {}
    for i in nonsingleton:
        profile = neighbour_counts(g, cell_of, cells[i][0])
        d[(i, i)] = profile.pop(i, 0)
        kinds[i] = _classify_cell(sizes[i], d[(i, i)])
        for j, count in profile.items():
            d[(i, j)] = count
            if j < i and sizes[j] > 1:  # equitable: d[j, i] > 0 too, read with cell j
                pair_kinds[(j, i)] = (  # by the degree into the smaller cell, j on ties
                    _classify_pair(sizes[i], d[(j, i)]) if sizes[i] < sizes[j]
                    else _classify_pair(sizes[j], count))
    return CellGraph(
        graph=g, partition=p, cell_sizes=sizes, nonsingleton=nonsingleton, d=d,
        cell_kinds=tuple(kinds), pair_kinds=pair_kinds,
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


def _classify_pair(s_small: int, into_small: int) -> PairKind:
    # into_small = d[large, small], positive as the pair has an edge
    if into_small == s_small:
        return PairKind.ISO_COMPLETE
    if into_small == 1:
        return PairKind.ANISO_STARS
    if into_small == s_small - 1:
        return PairKind.ANISO_CO_STARS
    return PairKind.OTHER


def _lone_component(cell: int, heterogeneous: bool = False) -> Component:
    # a cell without anisotropic pairs: a tree without edges, rooted at itself
    return Component(cells=(cell,), root=cell, order=(cell,), parent={}, multiplicity={},
                     het_cells=(cell,) if heterogeneous else ())


def _lone_row(cell: int) -> dict:  # _lone_component(cell).to_json()
    return {"cells": [cell], "root": cell, "parents": {}, "multiplicities": {},
            "heterogeneous": False}


def component_rows(sizes: Sequence[int], records: Sequence,
                   lone_row: Callable[[int], dict] = _lone_row) -> list[dict]:
    """The JSON list of every component by lowest cell id, in one pass over
    the cell ids: each record's ``to_json()`` at its lowest cell, and
    ``lone_row(cell)`` for each singleton cell, which has no record."""
    at = {r.cells[0]: r for r in records}
    return [lone_row(i) if size == 1 else at[i].to_json()
            for i, size in enumerate(sizes) if size == 1 or i in at]


def anisotropic_components(cg: CellGraph) -> tuple[Component, ...]:
    """Connected components of the anisotropic pairs among the cells of two
    or more vertices, rooted and checked, ordered by lowest cell id.

    A singleton cell is a component of its own with no record: it adds
    D = 1 and Fix = 0, and component_rows writes its JSON row.  Structural
    problems are recorded on each Component (see
    Component.findings), never raised; check_amenable judges C and D from them.
    """
    sizes, kinds = cg.cell_sizes, cg.cell_kinds
    adj: dict[int, list[int]] = {i: [] for i in cg.nonsingleton}
    for i, j in sorted(key for key, kind in cg.pair_kinds.items() if _anisotropic(kind)):
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
        decreasing: list[tuple[int, int]] = []
        order = [root] if degree_sum == 2 * (len(comp) - 1) else []  # only a tree is walked
        for x in order:  # breadth-first; order grows as the walk goes
            up = parent.get(x)
            for y in adj[x]:
                if y == up:
                    continue
                parent[y] = x
                order.append(y)
                if sizes[y] < sizes[x]:
                    decreasing.append((x, y))
                else:
                    multiplicity[y] = sizes[y] // sizes[x]
        comps.append(Component(
            cells=tuple(comp), root=root, order=tuple(order), parent=parent,
            multiplicity=multiplicity, het_cells=het, decreasing=tuple(decreasing),
        ))
    return tuple(comps)
