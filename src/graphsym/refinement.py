"""Color refinement (1-WL): coarsest equitable refinement and the CR isomorphism test."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import InvalidPartition
from .graph import Graph, disjoint_union


@dataclass(frozen=True)
class Partition:
    """A partition of the vertex set 0..n-1.

    Canonical form: cells are numbered by their minimum vertex, and each
    cell lists its members in increasing order.  Use :meth:`from_cells` or
    :meth:`from_colors`; the constructor trusts its arguments.
    """

    cell_of: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.cell_of)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def cell_size(self, c: int) -> int:
        return len(self.cells[c])

    @classmethod
    def from_colors(cls, colors: Sequence[int]) -> "Partition":
        """Group vertices by color value; colors need not be contiguous."""
        groups: dict[int, list[int]] = {}
        for v, col in enumerate(colors):
            groups.setdefault(col, []).append(v)
        return cls._canonical(list(groups.values()), len(colors))

    @classmethod
    def from_cells(cls, cells: Sequence[Sequence[int]], n: int | None = None) -> "Partition":
        members = [v for cell in cells for v in cell]
        if n is None:
            n = len(members)
        if sorted(members) != list(range(n)):
            raise InvalidPartition(f"cells do not partition 0..{n - 1}")
        return cls._canonical([list(c) for c in cells if c], n)

    @classmethod
    def unit(cls, n: int) -> "Partition":
        return cls._canonical([list(range(n))] if n else [], n)

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls._canonical([[v] for v in range(n)], n)

    @classmethod
    def _canonical(cls, raw_cells: list[list[int]], n: int) -> "Partition":
        ordered = sorted((sorted(c) for c in raw_cells), key=lambda c: c[0])
        cell_of = [0] * n
        for i, cell in enumerate(ordered):
            for v in cell:
                cell_of[v] = i
        return cls(cell_of=tuple(cell_of), cells=tuple(tuple(c) for c in ordered))

    def restrict(self, vertices: Sequence[int], old_to_new: dict[int, int]) -> "Partition":
        """Partition induced on a vertex subset, relabeled via old_to_new."""
        groups: dict[int, list[int]] = {}
        for v in vertices:
            groups.setdefault(self.cell_of[v], []).append(old_to_new[v])
        return Partition._canonical(list(groups.values()), len(vertices))

    def refines(self, other: "Partition") -> bool:
        """True iff every cell of self is contained in a cell of other."""
        if self.n != other.n:
            return False
        return all(
            len({other.cell_of[v] for v in cell}) == 1 for cell in self.cells
        )

    def to_json(self) -> dict:
        return {"cells": [list(c) for c in self.cells]}


class CrOutcome(Enum):
    DISTINGUISHED = "Distinguished"
    CR_EQUIVALENT = "CrEquivalent"


@dataclass(frozen=True)
class CrVerdict:
    outcome: CrOutcome
    witness_cell: int | None = None

    def to_json(self) -> dict:
        out: dict = {"outcome": self.outcome.value}
        if self.witness_cell is not None:
            out["witness_cell"] = self.witness_cell
        return out


def _check_initial(g: Graph, initial: Partition) -> None:
    if initial.n != g.n:
        raise InvalidPartition(
            f"partition covers {initial.n} vertices, graph has {g.n}"
        )


def _refine_colors(adj: Sequence[Sequence[int]], colors: Sequence[int]) -> list[int]:
    """Worklist refinement core; returns a raw (non-canonical) cell id per vertex.

    Splitters are whole current cells; when a cell splits, the largest
    fragment keeps the old id and, if the old id is no longer queued, is the
    one fragment not re-queued.  Every vertex therefore re-enters the queue
    only in cells at most half the size of the previous one, which gives the
    (n + m) log n bound.
    """
    n = len(colors)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda v: (colors[v], v))
    verts = order[:]
    pos = [0] * n
    for i, v in enumerate(verts):
        pos[v] = i
    cell_of = [0] * n
    cell_start: list[int] = []
    cell_size: list[int] = []
    prev = None
    for i, v in enumerate(verts):
        if colors[v] != prev:
            cell_start.append(i)
            cell_size.append(0)
            prev = colors[v]
        cid = len(cell_start) - 1
        cell_of[v] = cid
        cell_size[cid] += 1

    work: deque[int] = deque(range(len(cell_start)))
    in_work = [True] * len(cell_start)
    cnt = [0] * n

    while work:
        s = work.popleft()
        in_work[s] = False
        members = verts[cell_start[s]: cell_start[s] + cell_size[s]]
        touched: dict[int, list[int]] = {}
        for v in members:
            for u in adj[v]:
                if cnt[u] == 0:
                    touched.setdefault(cell_of[u], []).append(u)
                cnt[u] += 1
        for c, tm in touched.items():
            size_c = cell_size[c]
            if size_c > 1:
                groups: dict[int, list[int]] = {}
                for u in tm:
                    groups.setdefault(cnt[u], []).append(u)
                if len(groups) > 1 or len(tm) < size_c:
                    frag_items = sorted(groups.items())
                    start_c = cell_start[c]
                    end = start_c + size_c
                    for _, grp in reversed(frag_items):
                        for u in grp:
                            end -= 1
                            pu = pos[u]
                            w = verts[end]
                            verts[end] = u
                            verts[pu] = w
                            pos[u] = end
                            pos[w] = pu
                    bounds: list[tuple[int, int]] = []
                    off = start_c
                    untouched = size_c - len(tm)
                    if untouched:
                        bounds.append((off, untouched))
                        off += untouched
                    for _, grp in frag_items:
                        bounds.append((off, len(grp)))
                        off += len(grp)
                    largest = max(range(len(bounds)), key=lambda i: bounds[i][1])
                    for i, (st, sz) in enumerate(bounds):
                        if i == largest:
                            cell_start[c] = st
                            cell_size[c] = sz
                        else:
                            nid = len(cell_start)
                            cell_start.append(st)
                            cell_size.append(sz)
                            for k in range(st, st + sz):
                                cell_of[verts[k]] = nid
                            work.append(nid)
                            in_work.append(True)
        for tm in touched.values():
            for u in tm:
                cnt[u] = 0
    return cell_of


def refine(g: Graph, initial: Partition | Sequence[int]) -> Partition:
    """Coarsest equitable partition of g refining ``initial``.

    ``initial`` may be a Partition or a per-vertex color sequence.  The
    result is deterministic: cells are numbered by minimum vertex index.
    """
    if not isinstance(initial, Partition):
        initial = Partition.from_colors(initial)
    _check_initial(g, initial)
    raw = _refine_colors(g.adjacency, initial.cell_of)
    return Partition.from_colors(raw)


def stable_partition(g: Graph) -> Partition:
    """Coarsest equitable partition of g (refinement of the unit partition)."""
    return refine(g, Partition.unit(g.n))


def first_deviation(g: Graph, p: Partition) -> tuple[int, int] | None:
    """The first vertex, with its cell, whose per-cell neighbor counts differ
    from those of the lowest vertex in its cell; None if p is equitable."""
    _check_initial(g, p)
    cell_of = p.cell_of
    reference: dict[int, dict[int, int]] = {}
    profile: dict[int, int] = {}
    for v in range(g.n):
        profile.clear()
        for u in g.adjacency[v]:
            c = cell_of[u]
            profile[c] = profile.get(c, 0) + 1
        c = cell_of[v]
        ref = reference.get(c)
        if ref is None:
            reference[c] = dict(profile)
        elif ref != profile:
            return v, c
    return None


def is_equitable(g: Graph, p: Partition) -> bool:
    """True iff all vertices of each cell have identical per-cell neighbor counts."""
    return first_deviation(g, p) is None


def cr_partition(g: Graph, h: Graph) -> tuple[CrVerdict, Partition]:
    """The CR verdict on g and h plus the stable partition of their disjoint
    union, in which g's vertices keep their ids and h's follow them."""
    union, _origin = disjoint_union(g, h)
    p = stable_partition(union)
    for i, cell in enumerate(p.cells):
        from_g = sum(1 for v in cell if v < g.n)
        if 2 * from_g != len(cell):
            return CrVerdict(outcome=CrOutcome.DISTINGUISHED, witness_cell=i), p
    return CrVerdict(outcome=CrOutcome.CR_EQUIVALENT), p


def cr_iso_test(g: Graph, h: Graph) -> CrVerdict:
    """The color-refinement isomorphism test on the disjoint union.

    Distinguished is always sound (the graphs are not isomorphic).
    CrEquivalent is definitive only when at least one input is amenable;
    see the amenability module.
    """
    return cr_partition(g, h)[0]
