"""Distinguishing and fixing numbers of amenable graphs.

Per anisotropic component the computation never materializes the modified
component graph: the head invariants come from the root cell's kind and
size, and the leg values come from postorder recursions over the component
tree, with child cells as the isomorphism classes and multiplicities equal
to the size ratios.  Counts are evaluated in saturating arithmetic capped
just above the decision threshold so the linearithmic budget holds; the
big-integer recursion that checks them lives in the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Sequence

from .amenability import AmenabilityVerdict, check_amenable
from .cells import CellGraph, CellKind, Component
from .errors import BadCap, InternalError, NotAmenable, UnsupportedRootKind
from .graph import Graph


class HeadShape(Enum):
    COMPLETE = "complete"
    FIVE_CYCLE = "five_cycle"
    CO_MATCHING = "co_matching"


@dataclass(frozen=True)
class HeadKind:
    """What the root cell looks like after its normalizing complement."""

    shape: HeadShape
    size: int

    def __post_init__(self):
        if self.shape is HeadShape.FIVE_CYCLE and self.size != 5:
            raise InternalError(f"five-cycle head of size {self.size}")
        if self.shape is HeadShape.CO_MATCHING and (self.size < 4 or self.size % 2):
            raise InternalError(f"co-matching head of size {self.size}")
        if self.shape is HeadShape.COMPLETE and self.size < 1:
            raise InternalError("empty complete head")

    @property
    def r(self) -> int:
        """Number of matched pairs; co-matching heads only."""
        return self.size // 2

    def to_json(self) -> dict:
        return {"shape": self.shape.value, "size": self.size}


@dataclass(frozen=True)
class SaturatingCount:
    """A count clamped at ``cap``; value == cap means the true count is >= cap."""

    value: int
    cap: int

    @property
    def saturated(self) -> bool:
        return self.value == self.cap


@dataclass(frozen=True)
class CellTree:
    """Rooted tree of cells with sizes: the shape one leg recursion runs over."""

    sizes: tuple[int, ...]
    root: int
    children: tuple[tuple[int, ...], ...]

    @property
    def total_size(self) -> int:
        return sum(self.sizes)

    @property
    def num_cells(self) -> int:
        return len(self.sizes)

    def multiplicity(self, parent: int, child: int) -> int:
        sp, sc = self.sizes[parent], self.sizes[child]
        if sc < sp or sc % sp:
            raise InternalError(f"bad multiplicity {sc}/{sp} on tree edge")
        return sc // sp

    @classmethod
    def from_nested(cls, nested: tuple) -> "CellTree":
        """Build from ``(size, [child, ...])`` nests; ids are assigned preorder."""
        sizes: list[int] = []
        children: list[tuple[int, ...]] = []

        def walk(node: tuple) -> int:
            size, kids = node
            idx = len(sizes)
            sizes.append(size)
            children.append(())
            children[idx] = tuple(walk(kid) for kid in kids)
            return idx

        walk(nested)
        return cls(sizes=tuple(sizes), root=0, children=tuple(children))

    @classmethod
    def from_component(cls, cg: CellGraph, comp: Component) -> "CellTree":
        local = {cell: i for i, cell in enumerate(comp.cells)}
        sizes = tuple(cg.cell_sizes[cell] for cell in comp.cells)
        children = tuple(
            tuple(local[y] for y in comp.children.get(cell, ()))
            for cell in comp.cells
        )
        return cls(sizes=sizes, root=local[comp.root], children=children)


def _postorder(children: Sequence[Sequence[int]], root: int) -> list[int]:
    out: list[int] = []
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        x, expanded = stack.pop()
        if expanded:
            out.append(x)
            continue
        stack.append((x, True))
        for y in reversed(children[x]):
            stack.append((y, False))
    return out


def min_c_binom(r: int) -> int:
    """Least c with C(c, 2) >= r, in integer arithmetic only."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    c = max(2, isqrt(2 * r))
    while c * (c - 1) // 2 < r:
        c += 1
    while c > 2 and (c - 1) * (c - 2) // 2 >= r:
        c -= 1
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


def head_of_component(cg: CellGraph, comp: Component) -> HeadKind:
    """Head shape after complementing an empty or matching root cell."""
    kind = cg.cell_kinds[comp.root]
    size = cg.cell_sizes[comp.root]
    if kind in (CellKind.EMPTY, CellKind.COMPLETE):
        return HeadKind(shape=HeadShape.COMPLETE, size=size)
    if kind is CellKind.FIVE_CYCLE:
        return HeadKind(shape=HeadShape.FIVE_CYCLE, size=size)
    if kind in (CellKind.MATCHING, CellKind.CO_MATCHING):
        return HeadKind(shape=HeadShape.CO_MATCHING, size=size)
    raise UnsupportedRootKind(comp.root, kind.value)


def head_invariants(head: HeadKind) -> tuple[int, int]:
    """(distinguishing number, fixing number) of the head graph."""
    if head.shape is HeadShape.COMPLETE:
        return head.size, head.size - 1
    if head.shape is HeadShape.FIVE_CYCLE:
        return 3, 2
    return min_c_binom(head.r), head.r


def leg_dist_count(tree: CellTree, c: int, cap: int) -> SaturatingCount:
    """Number of inequivalent distinguishing leg labelings with <= c colors.

    Saturating evaluation: every intermediate is clamped at cap.  The
    returned value is exact when below cap; with cap > d* + total cell
    count, the predicate (true count >= d*) is decided exactly.
    """
    if cap <= tree.total_size:
        raise BadCap(cap, tree.total_size)
    if c < 1:
        raise ValueError(f"color count must be positive, got {c}")
    val = [0] * tree.num_cells
    for x in _postorder(tree.children, tree.root):
        kids = tree.children[x]
        if not kids:
            val[x] = min(c, cap)
            continue
        acc = min(c, cap)
        for y in kids:
            acc = min(acc * _binom_capped(val[y], tree.multiplicity(x, y), cap), cap)
        val[x] = acc
    return SaturatingCount(value=val[tree.root], cap=cap)


def leg_fix(tree: CellTree) -> int:
    """Fixing number of one leg, via the child-class recursion.

    Leaves cost nothing; a class of m rigid children costs m - 1, and a
    class of m non-rigid children costs m times the child cost.
    """
    val = [0] * tree.num_cells
    for x in _postorder(tree.children, tree.root):
        total = 0
        for y in tree.children[x]:
            m = tree.multiplicity(x, y)
            total += (m - 1) if val[y] == 0 else m * val[y]
        val[x] = total
    return val[tree.root]


@dataclass(frozen=True)
class ComponentReport:
    cells: tuple[int, ...]
    root: int
    head: HeadKind
    d_head: int
    fix_head: int
    leg_fix: int
    dist: int
    fix: int

    def to_json(self) -> dict:
        return {
            "cells": list(self.cells), "root": self.root,
            "head": self.head.to_json(), "d_head": self.d_head,
            "fix_head": self.fix_head, "leg_fix": self.leg_fix,
            "dist": self.dist, "fix": self.fix,
        }


@dataclass(frozen=True)
class SymmetryReport:
    dist_number: int
    fix_number: int
    components: tuple[ComponentReport, ...]

    def to_json(self) -> dict:
        return {
            "dist_number": self.dist_number,
            "fix_number": self.fix_number,
            "components": [c.to_json() for c in self.components],
        }


def _least_colors(tree: CellTree, d_star: int) -> int:
    """Least c whose leg count reaches d_star.

    Binary search over [1, tree size], justified by monotonicity of the
    leg count in c.
    """
    n_i = tree.total_size
    cap = d_star + n_i + 1

    def reaches(c: int) -> bool:
        return leg_dist_count(tree, c, cap).value >= d_star

    lo, hi = 1, n_i
    if not reaches(hi):
        raise InternalError(
            f"leg count below D(head) = {d_star} even with {hi} colors"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def component_report(cg: CellGraph, comp: Component) -> ComponentReport:
    """D and Fix of one component from its head and its leg tree.

    D is the least c whose leg count reaches D(head); Fix is Fix(head) when
    the legs are rigid, else |head| times the leg fixing number.
    """
    head = head_of_component(cg, comp)
    d_head, fix_head = head_invariants(head)
    tree = CellTree.from_component(cg, comp)
    legs = leg_fix(tree)
    return ComponentReport(
        cells=comp.cells, root=comp.root, head=head,
        d_head=d_head, fix_head=fix_head, leg_fix=legs,
        dist=_least_colors(tree, d_head),
        fix=fix_head if legs == 0 else head.size * legs,
    )


def analyze(g: Graph, *, verdict: AmenabilityVerdict | None = None) -> SymmetryReport:
    """Full per-component symmetry report for an amenable graph.

    Raises NotAmenable (carrying the verdict) otherwise.  A precomputed
    verdict may be passed to avoid re-running recognition.
    """
    if verdict is None:
        verdict = check_amenable(g)
    if not verdict.amenable:
        raise NotAmenable(verdict)
    if g.n == 0:
        return SymmetryReport(dist_number=0, fix_number=0, components=())
    cg = verdict.cell_graph
    assert cg is not None
    reports = [component_report(cg, comp) for comp in verdict.components]
    return SymmetryReport(
        dist_number=max(r.dist for r in reports),
        fix_number=sum(r.fix for r in reports),
        components=tuple(reports),
    )


def dist_number(g: Graph) -> int:
    """D(G) for amenable G; 0 and 1 vertex graphs return 0 and 1."""
    return analyze(g).dist_number


def fix_number(g: Graph) -> int:
    """Fix(G) for amenable G; rigid graphs return 0."""
    return analyze(g).fix_number
