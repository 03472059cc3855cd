"""Brute-force ground truth on small instances.

Everything here is exhaustive search with pruning that never changes the
answer: automorphism enumeration by backtracking, distinguishing numbers by
scanning colorings (canonical up to color renaming, with twin pairs forced
apart), fixing numbers by subset enumeration with a twin prefilter, and the
standalone rooted-tree recursions.  None of it shares code with the fast
pipeline, so the two sides can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Sequence

from .cells import CellKind, Component, PairKind, build_cell_graph
from .errors import (
    DivisibilityViolated,
    InternalError,
    NotAmenableComponent,
    TooLarge,
)
from .graph import Graph, from_edge_list
from .refinement import Partition

AUT_LIMIT_DEFAULT = 10
SEARCH_LIMIT_DEFAULT = 8
_GROUP_CAP = 20000  # above this, per-coloring checks search instead of scanning


@dataclass(frozen=True)
class AutGroup:
    """A fully enumerated automorphism group."""

    elements: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm) -> bool:
        return tuple(perm) in set(self.elements)


@dataclass(frozen=True)
class RootedTree:
    """Rooted tree as a parent array; parent[root] == -1."""

    parent: tuple[int, ...]
    root: int

    def __post_init__(self):
        n = len(self.parent)
        if not 0 <= self.root < n or self.parent[self.root] != -1:
            raise ValueError("root must be in range with parent -1")
        for v, p in enumerate(self.parent):
            if v == self.root:
                continue
            if not 0 <= p < n:
                raise ValueError(f"parent of {v} out of range")
        # every vertex must reach the root (no cycles)
        for v in range(n):
            seen = 0
            x = v
            while x != self.root:
                x = self.parent[x]
                seen += 1
                if seen > n:
                    raise ValueError("parent array contains a cycle")

    @property
    def n(self) -> int:
        return len(self.parent)

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if v != self.root:
                out[p].append(v)
        return out


def rooted_tree_graph(t: RootedTree) -> tuple[Graph, Partition]:
    """The tree as a plain graph plus the partition individualizing the root.

    Cell-preserving automorphisms of the pair are exactly the rooted
    automorphisms.
    """
    edges = [(v, p) for v, p in enumerate(t.parent) if v != t.root]
    g = from_edge_list(t.n, edges)
    if t.n == 1:
        return g, Partition.from_cells([[t.root]])
    rest = [v for v in range(t.n) if v != t.root]
    return g, Partition.from_cells([[t.root], rest])


# ---------------------------------------------------------------- search core


def _adj_sets(g: Graph) -> list[frozenset[int]]:
    return [frozenset(row) for row in g.adjacency]


def _search_automorphisms(g: Graph, colors, *, collect: bool,
                          cap: int | None = None, skip_identity: bool = False):
    """Backtracking over color- and adjacency-consistent vertex images.

    With collect=True returns a list of permutations (or None if ``cap`` was
    exceeded).  With collect=False returns the first complete automorphism
    found (skipping the identity when asked) or None.
    """
    n = g.n
    adj = _adj_sets(g)
    key = [(colors[v], len(adj[v])) for v in range(n)]
    sizes: dict[tuple, int] = {}
    for k in key:
        sizes[k] = sizes.get(k, 0) + 1
    order = sorted(range(n), key=lambda v: (sizes[key[v]], key[v], v))
    image = [-1] * n
    used = [False] * n
    used_images: set[int] = set()
    identity = tuple(range(n))
    found: list[tuple[int, ...]] = []

    def extend(i: int):
        if i == n:
            perm = tuple(image)
            if skip_identity and perm == identity:
                return None
            if collect:
                found.append(perm)
                if cap is not None and len(found) > cap:
                    return "overflow"
                return None
            return perm
        v = order[i]
        kv = key[v]
        av = adj[v]
        for w in range(n):
            if used[w] or key[w] != kv:
                continue
            aw = adj[w]
            cnt = 0
            ok = True
            for u in av:
                iu = image[u]
                if iu >= 0:
                    if iu not in aw:
                        ok = False
                        break
                    cnt += 1
            if not ok or len(aw & used_images) != cnt:
                continue
            image[v] = w
            used[w] = True
            used_images.add(w)
            result = extend(i + 1)
            used[w] = False
            used_images.discard(w)
            image[v] = -1
            if result is not None:
                return result
        return None

    result = extend(0)
    if collect:
        return None if result == "overflow" else found
    return result


def automorphisms(g: Graph, p: Partition | None = None,
                  limit_n: int = AUT_LIMIT_DEFAULT) -> AutGroup:
    """Exact full enumeration of Aut(G), or of the cell-preserving Aut(G, P).

    Pruning uses degrees (forced for any automorphism) and the given cells
    only, so runs without ``p`` stay independent of color refinement.
    """
    if g.n > limit_n:
        raise TooLarge(g.n, limit_n)
    colors = p.cell_of if p is not None else [0] * g.n
    elements = _search_automorphisms(g, colors, collect=True)
    assert elements is not None
    elements.sort()
    return AutGroup(elements=tuple(elements))


def _find_preserving(g: Graph, colors) -> tuple[int, ...] | None:
    """Some nontrivial automorphism preserving the given colors, or None."""
    return _search_automorphisms(g, colors, collect=False, skip_identity=True)


def is_rigid(g: Graph, p: Partition | None = None) -> bool:
    colors = p.cell_of if p is not None else [0] * g.n
    return _find_preserving(g, colors) is None


def find_isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """An isomorphism g -> h by exhaustive backtracking, or None.

    Encoded as automorphism search on the disjoint union with the two sides
    swapped by construction: map vertex v of g to image[v] - g.n.
    """
    if g.n != h.n or g.m != h.m or g.degree_sequence() != h.degree_sequence():
        return None
    n = g.n
    adj = _adj_sets(g)
    adj_h = _adj_sets(h)
    degrees_h: dict[int, list[int]] = {}
    for w in range(n):
        degrees_h.setdefault(len(adj_h[w]), []).append(w)
    image = [-1] * n
    used = [False] * n
    used_images: set[int] = set()
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))

    def extend(i: int):
        if i == n:
            return tuple(image)
        v = order[i]
        av = adj[v]
        for w in degrees_h.get(len(av), ()):
            if used[w]:
                continue
            aw = adj_h[w]
            cnt = 0
            ok = True
            for u in av:
                iu = image[u]
                if iu >= 0:
                    if iu not in aw:
                        ok = False
                        break
                    cnt += 1
            if not ok or len(aw & used_images) != cnt:
                continue
            image[v] = w
            used[w] = True
            used_images.add(w)
            result = extend(i + 1)
            used[w] = False
            used_images.discard(w)
            image[v] = -1
            if result is not None:
                return result
        return None

    return extend(0)


# ------------------------------------------------------- distinguishing side


def _twin_classes(g: Graph, base) -> list[list[int]]:
    """Classes of >= 2 mutually swappable vertices (equal base color and
    equal open or closed neighborhoods)."""
    adj = _adj_sets(g)
    groups: dict[tuple, list[int]] = {}
    for v in range(g.n):
        groups.setdefault((0, base[v], adj[v]), []).append(v)
        groups.setdefault((1, base[v], adj[v] | {v}), []).append(v)
    out = [cls for cls in groups.values() if len(cls) >= 2]
    return out


def _earlier_twins(g: Graph, base) -> list[list[int]]:
    """For each vertex, the lower-indexed vertices it forms a twin pair with."""
    out: list[list[int]] = [[] for _ in range(g.n)]
    for cls in _twin_classes(g, base):
        for i, v in enumerate(cls):
            out[v].extend(u for u in cls[:i])
    for row in out:
        row.sort()
    return out


def _make_checker(g: Graph, base):
    """Returns is_distinguishing(coloring): no nontrivial automorphism
    preserves both the base colors and the coloring."""
    n = g.n
    group = _search_automorphisms(g, base, collect=True, cap=_GROUP_CAP)
    if group is not None:
        nontrivial = sorted(
            (p for p in group if p != tuple(range(n))),
            key=lambda p: sum(1 for v in range(n) if p[v] != v),
        )

        def check(coloring) -> bool:
            for perm in nontrivial:
                if all(coloring[perm[v]] == coloring[v] for v in range(n)):
                    return False
            return True

        return check

    def check_by_search(coloring) -> bool:
        colors = [(base[v], coloring[v]) for v in range(n)]
        return _find_preserving(g, colors) is None

    return check_by_search


def is_distinguishing(g: Graph, coloring, p: Partition | None = None) -> bool:
    """Exact check of one labeling: breaks every nontrivial (cell-preserving)
    automorphism."""
    base = p.cell_of if p is not None else [0] * g.n
    colors = [(base[v], coloring[v]) for v in range(g.n)]
    return _find_preserving(g, colors) is None


def _exists_distinguishing(g: Graph, base, c: int, checker) -> bool:
    """Scan colorings with at most c colors for a distinguishing one.

    Canonical first-use color order (distinguishing-ness is invariant under
    recoloring bijections) and twin separation (equal-colored twins admit a
    color-preserving swap) prune without losing completeness.
    """
    n = g.n
    twins = _earlier_twins(g, base)
    coloring = [0] * n

    def dfs(v: int, max_used: int) -> bool:
        if v == n:
            return checker(coloring)
        banned = {coloring[u] for u in twins[v]}
        for col in range(min(c - 1, max_used + 1) + 1):
            if col in banned:
                continue
            coloring[v] = col
            if dfs(v + 1, max(max_used, col)):
                return True
        return False

    return dfs(0, -1)


def dist_number_bf(g: Graph, p: Partition | None = None,
                   limit: int = SEARCH_LIMIT_DEFAULT) -> int:
    """Least c admitting a distinguishing c-labeling, by exhaustive scan."""
    if g.n > limit:
        raise TooLarge(g.n, limit)
    if g.n == 0:
        return 0
    base = p.cell_of if p is not None else [0] * g.n
    if _find_preserving(g, base) is None:
        return 1
    checker = _make_checker(g, base)
    for c in range(2, g.n + 1):
        if _exists_distinguishing(g, base, c, checker):
            return c
    raise InternalError("no distinguishing labeling with n colors; bug")


def dist_count_bf(g: Graph, p: Partition | None = None, c: int = 2,
                  limit: int = SEARCH_LIMIT_DEFAULT) -> int:
    """Number of pairwise inequivalent distinguishing labelings with <= c colors.

    Counts all distinguishing labelings and divides by |Aut(g, p)|, which is
    exact because the action on distinguishing labelings is free; the
    divisibility is asserted.
    """
    if g.n > limit:
        raise TooLarge(g.n, limit)
    base = p.cell_of if p is not None else [0] * g.n
    group = _search_automorphisms(g, base, collect=True)
    assert group is not None
    order = len(group)
    nontrivial = sorted(
        (perm for perm in group if perm != tuple(range(g.n))),
        key=lambda perm: sum(1 for v in range(g.n) if perm[v] != v),
    )
    total = 0
    for coloring in product(range(c), repeat=g.n):
        if not any(
            all(coloring[perm[v]] == coloring[v] for v in range(g.n))
            for perm in nontrivial
        ):
            total += 1
    if total % order:
        raise DivisibilityViolated(
            f"{total} distinguishing labelings not divisible by |Aut| = {order}"
        )
    return total // order


# ---------------------------------------------------------------- fixing side


def fix_number_bf(g: Graph, p: Partition | None = None,
                  limit: int = SEARCH_LIMIT_DEFAULT) -> int:
    """Smallest set whose pointwise stabilizer in Aut(g, p) is trivial.

    Subsets are enumerated by increasing size; a subset leaving two twins
    uncovered is rejected without search.
    """
    if g.n > limit:
        raise TooLarge(g.n, limit)
    n = g.n
    base = p.cell_of if p is not None else [0] * n
    if _find_preserving(g, base) is None:
        return 0
    twin_classes = _twin_classes(g, base)

    def fixes(subset: tuple[int, ...]) -> bool:
        inside = set(subset)
        for cls in twin_classes:
            if sum(1 for v in cls if v not in inside) >= 2:
                return False
        colors = list(base)
        for i, v in enumerate(subset):
            colors[v] = -(i + 1)  # unique color forces the vertex to stay put
        return _find_preserving(g, colors) is None

    for k in range(1, n):
        for subset in combinations(range(n), k):
            if fixes(subset):
                return k
    return n - 1  # fixing all but one vertex always works


# ------------------------------------------------------------- rooted trees


def _ahu_codes(t: RootedTree) -> list[tuple]:
    """Canonical bottom-up subtree encodings; equal code iff isomorphic."""
    children = t.children()
    codes: list[tuple] = [()] * t.n
    for x in _postorder_tree(children, t.root):
        codes[x] = tuple(sorted(codes[y] for y in children[x]))
    return codes


def _postorder_tree(children: Sequence[Sequence[int]], root: int) -> list[int]:
    out: list[int] = []
    stack = [(root, False)]
    while stack:
        x, expanded = stack.pop()
        if expanded:
            out.append(x)
            continue
        stack.append((x, True))
        for y in reversed(children[x]):
            stack.append((y, False))
    return out


def _child_classes(children: list[int], codes: list[tuple]) -> list[tuple[int, int]]:
    """(representative child, multiplicity) per isomorphism class."""
    by_code: dict[tuple, list[int]] = {}
    for y in children:
        by_code.setdefault(codes[y], []).append(y)
    return [(ys[0], len(ys)) for ys in by_code.values()]


def tree_dist_count(t: RootedTree, c: int) -> int:
    """Inequivalent distinguishing labelings of a rooted tree with <= c colors.

    The recursion groups child subtrees into isomorphism classes by AHU
    codes; independent of the symmetry module's code path.
    """
    children = t.children()
    codes = _ahu_codes(t)
    count: list[int] = [0] * t.n
    for x in _postorder_tree(children, t.root):
        acc = c
        for rep, mult in _child_classes(children[x], codes):
            acc *= comb(count[rep], mult)
        count[x] = acc
    return count[t.root]


def leg_dist_count_exact(tree, c: int) -> int:
    """Big-integer leg count over a cell tree (``sizes``, ``root``, ``children``).

    The same recursion as the saturating count of the symmetry module, with
    child cells as the classes and size ratios as multiplicities, evaluated
    here exactly and without the fast path's code, so the two can be
    compared.
    """
    if c < 1:
        raise ValueError(f"color count must be positive, got {c}")
    sizes, children = tree.sizes, tree.children
    val = [0] * len(sizes)
    for x in _postorder_tree(children, tree.root):
        acc = c
        for y in children[x]:
            mult, rem = divmod(sizes[y], sizes[x])
            if rem or mult < 1:
                raise ValueError(f"cell sizes {sizes[x]} -> {sizes[y]} give no multiplicity")
            acc *= comb(val[y], mult)
        val[x] = acc
    return val[tree.root]


def tree_fix(t: RootedTree) -> int:
    """Fixing number of a rooted tree via the class recursion."""
    children = t.children()
    codes = _ahu_codes(t)
    fix: list[int] = [0] * t.n
    for x in _postorder_tree(children, t.root):
        total = 0
        for rep, mult in _child_classes(children[x], codes):
            total += (mult - 1) if fix[rep] == 0 else mult * fix[rep]
        fix[x] = total
    return fix[t.root]


# ------------------------------------------------------------------ forests


def forest_dist(components: list[tuple[Graph, int]],
                limit: int = SEARCH_LIMIT_DEFAULT) -> int:
    """D of a disjoint union given one graph per isomorphism class.

    Each class of r copies needs r inequivalent distinguishing labelings of
    its graph; the answer is the least color count serving every class.
    """
    if not components:
        return 0
    hi = sum(g.n * r for g, r in components)
    for c in range(1, hi + 1):
        if all(dist_count_bf(g, c=c, limit=limit) >= r for g, r in components):
            return c
    raise InternalError("no color count served the forest; bug")


def forest_fix(components: list[tuple[Graph, int]],
               limit: int = SEARCH_LIMIT_DEFAULT) -> int:
    """Fix of a disjoint union given one graph per isomorphism class.

    Non-rigid classes pay Fix per copy; rigid classes pay copies - 1.
    """
    total = 0
    for g, r in components:
        f = fix_number_bf(g, limit=limit)
        total += r * f if f > 0 else r - 1
    return total


# ------------------------------------------------- jellyfish materialization


def materialize_jellyfish(g: Graph, p: Partition, comp: Component) -> Graph:
    """Explicitly build the normalized component graph the fast path reasons about.

    On the component's vertices (reindexed in increasing order): the root
    cell is complemented when empty or a matching, every other cell is
    emptied, complete joins are emptied, and co-star pairs are replaced by
    their stars.  Cell-preserving automorphisms are unchanged by each step.
    """
    cg = build_cell_graph(g, p)
    verts = sorted(v for cell in comp.cells for v in p.cells[cell])
    local = {v: i for i, v in enumerate(verts)}
    edges: list[tuple[int, int]] = []

    for cell in comp.cells:
        members = p.cells[cell]
        kind = cg.cell_kinds[cell]
        if cell == comp.root:
            if kind in (CellKind.EMPTY, CellKind.MATCHING):
                for u, v in combinations(members, 2):
                    if not g.has_edge(u, v):
                        edges.append((local[u], local[v]))
            elif kind in (CellKind.COMPLETE, CellKind.CO_MATCHING, CellKind.FIVE_CYCLE):
                for u, v in combinations(members, 2):
                    if g.has_edge(u, v):
                        edges.append((local[u], local[v]))
            else:
                raise NotAmenableComponent(f"root cell kind {kind.value}")
        else:
            if kind not in (CellKind.EMPTY, CellKind.COMPLETE):
                raise NotAmenableComponent(
                    f"non-root cell {cell} has kind {kind.value}"
                )
            # empty either way after the normalizing complement

    for x, y in combinations(comp.cells, 2):
        pc = cg.pair_class(x, y)
        if pc.kind is PairKind.ANISO_STARS:
            for u in p.cells[x]:
                for v in p.cells[y]:
                    if g.has_edge(u, v):
                        edges.append((local[u], local[v]))
        elif pc.kind is PairKind.ANISO_CO_STARS:
            for u in p.cells[x]:
                for v in p.cells[y]:
                    if not g.has_edge(u, v):
                        edges.append((local[u], local[v]))
        elif pc.kind is PairKind.OTHER:
            raise NotAmenableComponent(f"pair ({x}, {y}) is unclassified")
        # isotropic pairs contribute nothing

    return from_edge_list(len(verts), edges)
