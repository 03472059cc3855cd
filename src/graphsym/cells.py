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
    """Sizes and kinds over the cells of an equitable partition.

    Singleton cells are kept in bulk: ``cell_kinds`` holds EMPTY for each,
    and ``pair_kinds`` only the pairs of two ``nonsingleton`` cells with an
    edge.  A pair that involves a singleton cell is ISO_EMPTY without an
    edge and ISO_COMPLETE with one.
    """

    graph: Graph
    partition: Partition
    cell_sizes: tuple[int, ...]
    nonsingleton: tuple[int, ...]  # ids of the cells of two or more vertices, ascending
    cell_kinds: tuple[CellKind, ...]
    pair_kinds: dict[tuple[int, int], PairKind]

    def to_json(self) -> dict:
        """Every cell, and every cell pair with an edge with its degree
        constants, read from the profile of each cell's lowest vertex."""
        cell_of, cells, sizes = self.partition.cell_of, self.partition.cells, self.cell_sizes
        d = [neighbour_counts(self.graph, cell_of, cell[0]) for cell in cells]
        return {
            "cells": [
                {"id": i, "size": sizes[i], "kind": self.cell_kinds[i].value,
                 "vertices": list(cell)}
                for i, cell in enumerate(cells)
            ],
            "pairs": [
                {"i": i, "j": j, "d_ij": d[i][j], "d_ji": d[j][i], "kind": kind.value,
                 **({"centers": min((sizes[i], i), (sizes[j], j))[1]}
                    if _anisotropic(kind) else {})}
                for i in range(len(cells)) for j in sorted(d[i]) if i < j
                # a singleton cell with an edge into a cell is adjacent to all of it
                for kind in (self.pair_kinds.get((i, j), PairKind.ISO_COMPLETE),)
            ],
        }


class Component(NamedTuple):
    """One connected component of the anisotropic pairs, rooted, with what
    breaks conditions C and D in it.

    The root is a minimum-size cell, preferring the heterogeneous cell when
    it attains the minimum, with the lowest cell id breaking remaining ties.
    order is the breadth-first walk from the root (the root first, every
    cell after its parent), and parent and multiplicity come from it; all
    three are empty when the component is not a tree.  findings are
    (condition, reason, cells involved) for each violation, C before D: a
    component that is not a tree, each tree edge along which cell sizes
    decrease, and more than one heterogeneous cell or a lone one off the
    root.  Along the other edges the parent's size divides the child's, by
    double counting: |large| d[large, small] = |small| d[small, large], with
    d[large, small] = 1 or |small| - 1.
    """

    cells: tuple[int, ...]
    root: int
    order: tuple[int, ...]
    parent: dict[int, int]
    multiplicity: dict[int, int]  # child cell id -> |child| / |parent|
    heterogeneous: bool = False  # a cell of the component is heterogeneous
    findings: tuple[tuple[str, str, tuple[int, ...]], ...] = ()

    @property
    def is_tree(self) -> bool:
        return bool(self.order)

    def to_json(self) -> dict:
        out: dict = {
            "cells": list(self.cells),
            "root": self.root,
            "parents": {str(c): p for c, p in sorted(self.parent.items())},
            "multiplicities": {str(c): m for c, m in sorted(self.multiplicity.items())},
            "heterogeneous": self.heterogeneous,
        }
        if self.findings:
            out["findings"] = [
                {"condition": cond, "reason": reason, "cells": list(cells)}
                for cond, reason, cells in self.findings
            ]
        return out


def build_cell_graph(g: Graph, p: Partition) -> CellGraph:
    """Classify the cells and cell pairs of an equitable partition.

    Raises NotEquitable if any vertex deviates from its cell's profile.
    """
    deviation = first_deviation(g, p)
    if deviation is not None:
        raise NotEquitable(*deviation)
    return cell_graph_of_equitable(g, p)


def cell_graph_of_equitable(g: Graph, p: Partition) -> CellGraph:
    """build_cell_graph for a partition known to be equitable, such as one
    fresh from refine.  The degree constants d[i, j] of each nonsingleton
    cell i are the profile of its lowest vertex, and a pair j < i of two
    such cells is classified when i is read, by the degree into the smaller
    cell, j on ties.  When that is i, d[j, i] = |i| d[i, j] / |j| by double
    counting."""
    cell_of, cells = p.cell_of, p.cells
    sizes = tuple(map(len, cells))
    nonsingleton = tuple(i for i, size in enumerate(sizes) if size > 1)
    kinds = [CellKind.EMPTY] * len(sizes)
    pair_kinds: dict[tuple[int, int], PairKind] = {}
    for i in nonsingleton:
        profile = neighbour_counts(g, cell_of, cells[i][0])
        kinds[i] = _classify_cell(sizes[i], profile.pop(i, 0))
        for j, count in profile.items():
            if j < i and sizes[j] > 1:
                pair_kinds[(j, i)] = (
                    _classify_pair(sizes[i], sizes[i] * count // sizes[j]) if sizes[i] < sizes[j]
                    else _classify_pair(sizes[j], count))
    return CellGraph(
        graph=g, partition=p, cell_sizes=sizes, nonsingleton=nonsingleton,
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
                     heterogeneous=heterogeneous)


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
    problems are recorded in each Component's findings, never raised;
    check_amenable judges C and D from them.
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
        root = min(comp, key=lambda c: (sizes[c], not _heterogeneous(kinds[c]), c))
        parent: dict[int, int] = {}
        multiplicity: dict[int, int] = {}
        order = [root] if degree_sum == 2 * (len(comp) - 1) else []  # only a tree is walked
        findings = [] if order else [("C", "not a tree", tuple(comp))]
        for x in order:  # breadth-first; order grows as the walk goes
            up = parent.get(x)
            for y in adj[x]:
                if y == up:
                    continue
                parent[y] = x
                order.append(y)
                if sizes[y] < sizes[x]:
                    findings.append(("C", f"cell sizes decrease along {x} -> {y}", (x, y)))
                else:
                    multiplicity[y] = sizes[y] // sizes[x]
        het = tuple(c for c in comp if _heterogeneous(kinds[c]))
        if len(het) > 1:
            findings.append(("D", "more than one heterogeneous cell", het))
        elif het and het[0] != root:
            findings.append(("D", "heterogeneous cell is not of minimum size", het))
        comps.append(Component(
            cells=tuple(comp), root=root, order=tuple(order), parent=parent,
            multiplicity=multiplicity, heterogeneous=bool(het), findings=tuple(findings),
        ))
    return tuple(comps)
