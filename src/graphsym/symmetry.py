"""Distinguishing and fixing numbers of amenable graphs.

Per anisotropic component the computation never materializes the modified
component graph: ``head``, the one table of head invariants, reads them
off the root cell's kind and size, and the leg values come from recursions
that fold over the walk order recognition stored on the Component, children
before parents, with child cells as the isomorphism classes and
multiplicities equal to the size ratios recorded there.  Counts are
evaluated in saturating arithmetic capped just above the decision
threshold so the linearithmic budget holds; the big-integer recursion that
checks them lives in the oracle module.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt
from typing import NamedTuple, Sequence

from .amenability import AmenabilityVerdict, check_amenable
from .cells import CellGraph, CellKind, Component, component_rows
from .errors import BadCap, InternalError, NotAmenable
from .graph import Graph


def min_c_binom(r: int) -> int:
    """Least c with C(c, 2) >= r, in integer arithmetic only."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    c = max(2, isqrt(2 * r))
    while c * (c - 1) // 2 < r:  # from below: C(c - 1, 2) < c^2 / 2 <= r
        c += 1
    return c


def _binom_capped(f: int, m: int, cap: int) -> int:
    """C(f, m) clamped at cap.

    Uses the symmetric index so partial products are non-decreasing, making
    the early clamp sound.
    """
    if m < 0 or m > f:
        return 0
    m = min(m, f - m)
    val = 1
    for k in range(1, m + 1):
        val = val * (f - m + k) // k
        if val >= cap:
            return cap
    return val


def head(kind: CellKind, size: int) -> tuple[CellKind, int, int]:
    """(shape, D, Fix) of the head a root cell of this kind and size gives,
    the shape being the kind the root's normalizing complement gives it.
    Raises InternalError when the size cannot have its kind."""
    if kind is CellKind.EMPTY or kind is CellKind.COMPLETE:
        if size < 1:
            raise InternalError("empty complete head")
        return CellKind.COMPLETE, size, size - 1
    if kind is CellKind.FIVE_CYCLE:
        if size != 5:
            raise InternalError(f"five-cycle head of size {size}")
        return kind, 3, 2
    if kind is CellKind.MATCHING or kind is CellKind.CO_MATCHING:
        if size < 4 or size % 2:
            raise InternalError(f"co-matching head of size {size}")
        return CellKind.CO_MATCHING, min_c_binom(size // 2), size // 2
    raise InternalError(f"root cell has unsupported kind {kind.value} (upstream amenability bug)")


def leg_dist_count(sizes: Sequence[int], comp: Component, c: int, cap: int) -> int:
    """Number of inequivalent distinguishing leg labelings with <= c colors.

    ``sizes`` are the cell sizes of the cell graph holding ``comp``.
    Saturating evaluation: every intermediate is clamped at cap, so the
    result equals cap exactly when the true count is at least cap.  With
    cap > d* + the component's vertex count, the predicate (true count >= d*)
    is decided exactly.
    """
    total = sum(sizes[x] for x in comp.order)
    if cap <= total:
        raise BadCap(cap, total)
    if c < 1:
        raise ValueError(f"color count must be positive, got {c}")
    root, parent, mult = comp.root, comp.parent, comp.multiplicity
    val = dict.fromkeys(comp.order, min(c, cap))
    for y in reversed(comp.order):  # children first, so val[y] is final here
        if y != root:
            x = parent[y]
            val[x] = min(val[x] * _binom_capped(val[y], mult[y], cap), cap)
    return val[root]


def leg_fix(comp: Component) -> int:
    """Fixing number of one leg, via the child-class recursion.

    Leaves cost nothing; a class of m rigid children costs m - 1, and a
    class of m non-rigid children costs m times the child cost.
    """
    root, parent, mult = comp.root, comp.parent, comp.multiplicity
    val = dict.fromkeys(comp.order, 0)
    for y in reversed(comp.order):  # children first, so val[y] is final here
        if y != root:
            m = mult[y]
            val[parent[y]] += (m - 1) if val[y] == 0 else m * val[y]
    return val[root]


class ComponentReport(NamedTuple):
    cells: tuple[int, ...]
    root: int
    head: tuple[CellKind, int]  # the head's shape and the root's size
    d_head: int
    fix_head: int
    leg_fix: int
    dist: int
    fix: int

    def to_json(self) -> dict:
        return {
            "cells": list(self.cells), "root": self.root,
            "head": {"shape": self.head[0].value, "size": self.head[1]}, "d_head": self.d_head,
            "fix_head": self.fix_head, "leg_fix": self.leg_fix,
            "dist": self.dist, "fix": self.fix,
        }


def _singleton_row(cell: int) -> dict:  # a head K1 without legs, as ComponentReport.to_json
    return {"cells": [cell], "root": cell, "head": {"shape": "complete", "size": 1},
            "d_head": 1, "fix_head": 0, "leg_fix": 0, "dist": 1, "fix": 0}


class SymmetryReport(NamedTuple):
    dist_number: int
    fix_number: int
    components: tuple[ComponentReport, ...]  # of the cells of two or more vertices
    cell_sizes: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "dist_number": self.dist_number,
            "fix_number": self.fix_number,
            "components": component_rows(self.cell_sizes, self.components, _singleton_row),
        }


def _least_colors(sizes: Sequence[int], comp: Component, d_star: int) -> int:
    """Least c whose leg count reaches d_star.

    Binary search over [1, component size], justified by monotonicity of
    the leg count in c.
    """
    n_i = sum(sizes[x] for x in comp.cells)
    cap = d_star + n_i + 1

    def reaches(c: int) -> bool:
        return leg_dist_count(sizes, comp, c, cap) >= d_star

    if not reaches(n_i):
        raise InternalError(
            f"leg count below D(head) = {d_star} even with {n_i} colors"
        )
    return 1 + bisect_left(range(1, n_i), True, key=reaches)


def component_report(cg: CellGraph, comp: Component) -> ComponentReport:
    """D and Fix of one component from its head and its leg tree.

    D is the least c whose leg count reaches D(head); Fix is Fix(head) when
    the legs are rigid, else |head| times the leg fixing number.  The
    component must pass recognition's checks of conditions C and D.
    """
    if comp.findings or not comp.is_tree:
        cond, reason, _cells = comp.findings[0] if comp.findings else ("C", "not a tree", ())
        raise InternalError("component rooted at cell %d fails condition %s: %s"
                            % (comp.root, cond, reason))
    size = cg.cell_sizes[comp.root]
    shape, d_head, fix_head = head(cg.cell_kinds[comp.root], size)
    legs = leg_fix(comp)
    return ComponentReport(
        cells=comp.cells, root=comp.root, head=(shape, size),
        d_head=d_head, fix_head=fix_head, leg_fix=legs,
        dist=_least_colors(cg.cell_sizes, comp, d_head),
        fix=fix_head if legs == 0 else size * legs,
    )


def _shape_key(cg: CellGraph, comp: Component, ids: dict[tuple, int]) -> int:
    """What component_report depends on: the root cell's kind plus an AHU id
    (Aho, Hopcroft and Ullman 1974) of the size-labelled rooted tree.

    ``ids`` interns ``(size, sorted child ids)`` per cell, so equal ids mean
    isomorphic size-labelled subtrees, and then ``(kind value, root id)``,
    which is the key.  Keys are ints, flat however deep the tree, and
    hashing one runs no Python code, as hashing a CellKind would.
    """
    sizes, root, parent = cg.cell_sizes, comp.root, comp.parent
    kids: dict[int, list[int]] = {x: [] for x in comp.order}  # child labels
    for x in reversed(comp.order):  # the root comes last
        label = ids.setdefault((sizes[x], tuple(sorted(kids[x]))), len(ids))
        if x != root:
            kids[parent[x]].append(label)
    return ids.setdefault((cg.cell_kinds[root].value, label), len(ids))


def analyze(g: Graph, *, verdict: AmenabilityVerdict | None = None) -> SymmetryReport:
    """Full per-component symmetry report for an amenable graph.

    Raises NotAmenable (carrying the verdict) otherwise.  A precomputed
    verdict may be passed to avoid re-running recognition.  The report has
    one ComponentReport per component of cells of two or more vertices, and
    each shape of such a component is computed once per call; a singleton
    cell adds D = 1 and Fix = 0 and has no report, only its JSON row.
    """
    if verdict is None:
        verdict = check_amenable(g)
    if not verdict.amenable:
        raise NotAmenable(verdict)
    cg = verdict.cell_graph
    assert cg is not None and verdict.components is not None
    ids: dict[tuple, int] = {}
    memo: dict[int, ComponentReport] = {}
    reports = []
    for comp in verdict.components:
        key = _shape_key(cg, comp, ids)
        cached = memo.get(key)
        if cached is None:
            report = memo[key] = component_report(cg, comp)
        else:  # cells and root come first; the other fields are the shape's
            report = ComponentReport(comp.cells, comp.root, *cached[2:])
        reports.append(report)
    return SymmetryReport(
        dist_number=max((r.dist for r in reports), default=min(g.n, 1)),
        fix_number=sum(r.fix for r in reports),
        components=tuple(reports), cell_sizes=cg.cell_sizes,
    )


def dist_number(g: Graph) -> int:
    """D(G) for amenable G; 0 and 1 vertex graphs return 0 and 1."""
    return analyze(g).dist_number


def fix_number(g: Graph) -> int:
    """Fix(G) for amenable G; rigid graphs return 0."""
    return analyze(g).fix_number
