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


# The JSON text of each row, as json.dumps(row, sort_keys=True) writes it:
# its values are ints, booleans, enum values, fixed ASCII reasons, lists of
# ints (which print as their JSON) and maps of ints, so nothing in them
# needs escaping.  A list of thousands of rows is written without a dict.
_CELL_ROW = '{"id": %d, "kind": "%s", "size": %d, "vertices": %s}'
_PAIR_ROW = '{"d_ij": %d, "d_ji": %d, "i": %d, "j": %d, "kind": "%s"}'
_STAR_PAIR_ROW = '{"centers": %d, ' + _PAIR_ROW[1:]
_ONE_CELL_ROW = ('{"cells": [%d], "heterogeneous": %s, "multiplicities": {}, "parents": {}, '
                 '"root": %d}')
_RECORD = ('{"cells": %s, %s"heterogeneous": %s, "multiplicities": %s, "parents": %s, '
           '"root": %d}')  # the second %s holds the findings, if any
_FINDING_ROW = '{"cells": %s, "condition": "%s", "reason": "%s"}'


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

    def cells_text(self) -> str:
        """The JSON list of every cell: id, size, kind and vertices."""
        sizes, kinds = self.cell_sizes, self.cell_kinds
        return "[%s]" % ", ".join([
            _CELL_ROW % (i, kinds[i].value, sizes[i], list(cell))
            for i, cell in enumerate(self.partition.cells)])

    def pairs_text(self) -> str:
        """The JSON list of every cell pair with an edge: its degree
        constants and kind, read from the profile of each cell's lowest
        vertex, and its star centers' cell when it is anisotropic."""
        return "[%s]" % ", ".join([
            _PAIR_ROW % (d_ij, d_ji, i, j, kind) if centers is None
            else _STAR_PAIR_ROW % (centers, d_ij, d_ji, i, j, kind)
            for i, j, d_ij, d_ji, kind, centers in self._pairs()])

    def _pairs(self) -> list[tuple[int, int, int, int, str, int | None]]:
        """(i, j, d[i, j], d[j, i], kind value, centers) of every cell pair
        i < j with an edge, by i and then j; centers is the star centers'
        cell, the smaller one and the lower id on ties, and None unless the
        pair is anisotropic."""
        cell_of, cells, sizes = self.partition.cell_of, self.partition.cells, self.cell_sizes
        d = [neighbour_counts(self.graph, cell_of, cell[0]) for cell in cells]
        return [
            (i, j, d[i][j], d[j][i], kind.value,
             min((sizes[i], i), (sizes[j], j))[1] if _anisotropic(kind) else None)
            for i in range(len(cells)) for j in sorted(d[i]) if i < j
            # a singleton cell with an edge into a cell is adjacent to all of it
            for kind in (self.pair_kinds.get((i, j), PairKind.ISO_COMPLETE),)
        ]


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

    def json_text(self) -> str:
        """The record's JSON text.  Its maps are keyed by cell ids as
        strings, in string order ("10" before "9"), as sort_keys writes them."""
        het = "true" if self.heterogeneous else "false"
        if len(self.cells) == 1:  # no parent and no finding
            return _ONE_CELL_ROW % (self.cells[0], het, self.root)
        findings = ", ".join([_FINDING_ROW % (list(cells), cond, reason)
                              for cond, reason, cells in self.findings])
        return _RECORD % (list(self.cells), findings and '"findings": [%s], ' % findings, het,
                          _map_text(self.multiplicity), _map_text(self.parent), self.root)


def _map_text(cell_map: dict[int, int]) -> str:
    return "{%s}" % ", ".join(['"%s": %d' % item
                               for item in sorted([(str(c), v) for c, v in cell_map.items()])])


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


def _lone_text(cell: int) -> str:  # _lone_component(cell).json_text()
    return _ONE_CELL_ROW % (cell, "false", cell)


def components_text(sizes: Sequence[int], records: Sequence,
                    lone_row: Callable[[int], str] = _lone_text,
                    row: Callable = Component.json_text) -> str:
    """The JSON list of every component by lowest cell id, in one pass over
    the cell ids: ``row(record)`` at each record's lowest cell, and
    ``lone_row(cell)`` for each singleton cell, which has no record."""
    at = {r.cells[0]: r for r in records}
    return "[%s]" % ", ".join([lone_row(i) if size == 1 else row(at[i])
                               for i, size in enumerate(sizes) if size == 1 or i in at])


def anisotropic_components(cg: CellGraph) -> tuple[Component, ...]:
    """Connected components of the anisotropic pairs among the cells of two
    or more vertices, rooted and checked, ordered by lowest cell id.

    A singleton cell is a component of its own with no record: it adds
    D = 1 and Fix = 0, and components_text writes its JSON row.  Structural
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
