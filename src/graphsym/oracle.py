"""Brute-force ground truth on small instances.

Everything here is exhaustive search with pruning that never changes the
answer: automorphism enumeration by backtracking, distinguishing numbers by
scanning colorings (canonical up to color renaming, with twin pairs forced
apart), fixing numbers by subset enumeration with a twin prefilter, and the
standalone rooted-tree recursions; the jellyfish normal form of a component
is read off edge counts.  It shares only the records (Graph, Partition,
Component) with the fast pipeline, none of its refinement, cell graph or
classification, so the two sides can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice, product
from math import comb, perm
from typing import Sequence

from .cells import Component
from .errors import InternalError, NotAmenableComponent, TooLarge
from .graph import Graph, from_edge_list
from .refinement import Partition

SEARCH_LIMIT_DEFAULT = 8
_GROUP_CAP = 20000  # above this, per-coloring checks search instead of scanning


@dataclass(frozen=True)
class AutGroup:
    """A fully enumerated automorphism group."""

    elements: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


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
            if v != self.root and not 0 <= p < n:
                raise ValueError(f"parent of {v} out of range")
        if len(self.order) != n:  # a vertex the root does not reach is on a cycle
            raise ValueError("parent array contains a cycle")

    @property
    def n(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if v != self.root:
                out[p].append(v)
        return out

    @cached_property
    def order(self) -> list[int]:
        """The vertices the root reaches, breadth-first: each after its parent."""
        order = [self.root]
        for x in order:  # order grows as the walk goes
            order.extend(self.children[x])
        return order


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


def _maps(g: Graph, h: Graph, key_g, key_h, order):
    """Every bijection g -> h that keeps the keys and adjacency, by backtracking.

    Vertices of g are mapped in ``order``; each is tried against the unused
    vertices of h with its key, in ascending id, and a candidate is kept only
    if it is adjacent to exactly the images of g's already mapped neighbours.
    Where a mapped neighbour has fewer neighbours than h has vertices with
    the key, the candidates are its image's neighbours instead, which hold
    every one that can be kept; both lists ascend, so the yield order is the
    same.  One candidate iterator per mapped vertex sits on an explicit
    stack, so the depth is not bounded by recursion.  Yields ``image``
    tuples, where ``image[v]`` is the vertex of h that v maps to.
    """
    n = g.n
    adj = _adj_sets(g)
    adj_h = adj if h is g else _adj_sets(h)
    candidates: dict = {}
    for w in range(n):
        candidates.setdefault(key_h[w], []).append(w)
    if n == 0:
        yield ()
        return
    # anchor[k]: that neighbour of order[k], the one of least degree, or -1;
    # every caller's keys carry the degree, so its image has the same degree
    anchor = [-1] * n
    mapped: set[int] = set()
    for k, v in enumerate(order):
        best = len(candidates.get(key_g[v], ()))
        for u in g.adjacency[v]:
            if u in mapped and len(g.adjacency[u]) < best:
                anchor[k], best = u, len(g.adjacency[u])
        mapped.add(v)
    image = [-1] * n
    used_images: set[int] = set()
    stack = [iter(candidates.get(key_g[order[0]], ()))]
    while stack:
        v = order[len(stack) - 1]
        if image[v] >= 0:  # step past the image tried last
            used_images.discard(image[v])
            image[v] = -1
        av, kv = adj[v], key_g[v]
        for w in stack[-1]:
            if w in used_images or key_h[w] != kv:
                continue
            aw = adj_h[w]
            cnt = 0
            for u in av:
                iu = image[u]
                if iu >= 0:
                    if iu not in aw:
                        break
                    cnt += 1
            else:  # mapped neighbours land in aw; no other mapped vertex does
                if len(aw & used_images) == cnt:
                    break
        else:
            stack.pop()
            continue
        image[v] = w
        used_images.add(w)
        if len(stack) == n:
            yield tuple(image)
        else:
            u = anchor[len(stack)]
            stack.append(iter(h.adjacency[image[u]] if u >= 0
                              else candidates.get(key_g[order[len(stack)]], ())))


def _automorphisms_of(g: Graph, colors):
    """Every automorphism of g preserving ``colors``, via ``_maps``; the
    rarest (color, degree) keys are mapped first."""
    key = [(colors[v], len(row)) for v, row in enumerate(g.adjacency)]
    sizes: dict[tuple, int] = {}
    for k in key:
        sizes[k] = sizes.get(k, 0) + 1
    order = sorted(range(g.n), key=lambda v: (sizes[key[v]], key[v], v))
    return _maps(g, g, key, key, order)


def automorphisms(g: Graph, p: Partition | None = None,
                  limit_n: int = SEARCH_LIMIT_DEFAULT) -> AutGroup:
    """Exact full enumeration of Aut(G), or of the cell-preserving Aut(G, P).

    Pruning uses degrees (forced for any automorphism) and the given cells
    only, so runs without ``p`` stay independent of color refinement.
    """
    if g.n > limit_n:
        raise TooLarge(g.n, limit_n)
    colors = p.cell_of if p is not None else [0] * g.n
    return AutGroup(elements=tuple(sorted(_automorphisms_of(g, colors))))


def _find_preserving(g: Graph, colors) -> tuple[int, ...] | None:
    """Some nontrivial automorphism preserving the given colors, or None."""
    identity = tuple(range(g.n))
    return next((perm for perm in _automorphisms_of(g, colors) if perm != identity), None)


def find_isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """An isomorphism g -> h by exhaustive backtracking, or None.

    Vertices of g are taken in order of decreasing degree and matched
    against the vertices of h with the same degree.
    """
    if g.n != h.n or g.m != h.m or g.degree_sequence() != h.degree_sequence():
        return None
    key_g = [len(row) for row in g.adjacency]
    key_h = [len(row) for row in h.adjacency]
    order = sorted(range(g.n), key=lambda v: (-key_g[v], v))
    return next(_maps(g, h, key_g, key_h, order), None)


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
    group = list(islice(_automorphisms_of(g, base), _GROUP_CAP + 1))
    if len(group) <= _GROUP_CAP:
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


def _first_use_colorings(g: Graph, base, c: int):
    """Yield (coloring, k) for each coloring with at most c colors in
    canonical first-use order and twins colored apart, k the colors it uses.

    Every other labeling renames one of these, which keeps it distinguishing
    or not, or colors two twins alike, which a swap preserves; so at most n
    colors are tried, whatever c.  The stack holds, per colored vertex, its
    remaining colors and the colors used before it; one list is rewritten.
    """
    n = g.n
    twins = _earlier_twins(g, base)
    coloring = [0] * n
    if n == 0:
        yield coloring, 0
        return

    def colors_for(v: int, used: int):
        banned = {coloring[u] for u in twins[v]}
        return (col for col in range(min(c, used + 1)) if col not in banned)

    stack = [(colors_for(0, 0), 0)]
    while stack:
        cols, used = stack[-1]
        col = next(cols, None)
        if col is None:
            stack.pop()
            continue
        v = len(stack) - 1
        coloring[v] = col
        used = max(used, col + 1)
        if v + 1 == n:
            yield coloring, used
        else:
            stack.append((colors_for(v + 1, used), used))


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
        if any(checker(coloring) for coloring, _k in _first_use_colorings(g, base, c)):
            return c
    raise InternalError("no distinguishing labeling with n colors; bug")


def dist_count_bf(g: Graph, p: Partition | None = None, c: int = 2,
                  limit: int = SEARCH_LIMIT_DEFAULT) -> int:
    """Number of pairwise inequivalent distinguishing labelings with <= c colors.

    Counts all distinguishing labelings, each first-use coloring with k
    colors standing for the c!/(c-k)! labelings it renames to, and divides
    by |Aut(g, p)|, which is exact because the action on distinguishing
    labelings is free; a remainder is reported as a bug.
    """
    if g.n > limit:
        raise TooLarge(g.n, limit)
    base = p.cell_of if p is not None else [0] * g.n
    order = sum(1 for _ in _automorphisms_of(g, base))
    check = _make_checker(g, base)
    total = sum(perm(c, k) for coloring, k in _first_use_colorings(g, base, c) if check(coloring))
    if total % order:
        raise InternalError(f"{total} distinguishing labelings not divisible by |Aut| = {order}")
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


def _ahu_codes(t: RootedTree) -> list[int]:
    """Canonical bottom-up subtree codes; equal code iff isomorphic.

    Each code is interned as an int, the sorted codes of its children the
    key, so codes stay flat however deep the tree.
    """
    ids: dict[tuple, int] = {}
    codes = [0] * t.n
    for x in reversed(t.order):  # children before parents
        codes[x] = ids.setdefault(tuple(sorted(codes[y] for y in t.children[x])), len(ids))
    return codes


def _child_classes(children: list[int], codes: list[int]) -> list[tuple[int, int]]:
    """(representative child, multiplicity) per isomorphism class."""
    by_code: dict[int, list[int]] = {}
    for y in children:
        by_code.setdefault(codes[y], []).append(y)
    return [(ys[0], len(ys)) for ys in by_code.values()]


def tree_dist_count(t: RootedTree, c: int) -> int:
    """Inequivalent distinguishing labelings of a rooted tree with <= c colors.

    The recursion groups child subtrees into isomorphism classes by AHU
    codes; independent of the symmetry module's code path.
    """
    codes = _ahu_codes(t)
    count: list[int] = [0] * t.n
    for x in reversed(t.order):
        acc = c
        for rep, mult in _child_classes(t.children[x], codes):
            acc *= comb(count[rep], mult)
        count[x] = acc
    return count[t.root]


def leg_dist_count_exact(sizes: Sequence[int], comp: Component, c: int) -> int:
    """Big-integer leg count over a component's tree, with ``sizes`` the cell
    sizes of its cell graph.

    The same recursion as the saturating count of the symmetry module, with
    child cells as the classes and size ratios as multiplicities, evaluated
    here exactly and without the fast path's code, so the two can be
    compared: children lists are built from ``comp.parent`` and
    multiplicities recomputed from ``sizes``, rather than read from the
    component's walk order and ``comp.multiplicity``.
    """
    if c < 1:
        raise ValueError(f"color count must be positive, got {c}")
    children: dict[int, list[int]] = {x: [] for x in comp.cells}
    for y, x in comp.parent.items():
        children[x].append(y)
    order = [comp.root]
    for x in order:  # breadth-first; order grows as the walk goes
        order.extend(children[x])
    val: dict[int, int] = {}
    for x in reversed(order):
        acc = c
        for y in children[x]:
            mult, rem = divmod(sizes[y], sizes[x])
            if rem or mult < 1:
                raise ValueError(f"cell sizes {sizes[x]} -> {sizes[y]} give no multiplicity")
            acc *= comb(val[y], mult)
        val[x] = acc
    return val[comp.root]


def tree_fix(t: RootedTree) -> int:
    """Fixing number of a rooted tree via the class recursion."""
    codes = _ahu_codes(t)
    fix: list[int] = [0] * t.n
    for x in reversed(t.order):
        total = 0
        for rep, mult in _child_classes(t.children[x], codes):
            total += (mult - 1) if fix[rep] == 0 else mult * fix[rep]
        fix[x] = total
    return fix[t.root]


# ------------------------------------------------- jellyfish materialization


def materialize_jellyfish(g: Graph, p: Partition, comp: Component) -> Graph:
    """The normalized component graph the fast path reasons about, built
    explicitly on the component's vertices, renumbered in increasing order.

    Each cell and cell pair is judged by how many of its vertex pairs are
    edges of g, which over an equitable p decides its kind.  The root cell
    is complemented when fewer than half are (empty or a matching); every
    other cell is emptied.  A pair keeps its edges when some but at most
    half are (stars), is complemented when more than half but not all are
    (co-stars), and is emptied otherwise.  No step changes the
    cell-preserving automorphisms.  Raises NotAmenableComponent for a cell
    or pair of no amenable kind.
    """
    verts = sorted(v for cell in comp.cells for v in p.cells[cell])
    local = {v: i for i, v in enumerate(verts)}
    edges: list[tuple[int, int]] = []

    def keep(pairs: list[tuple[int, int]], edge: bool) -> None:
        edges.extend((local[u], local[v]) for u, v in pairs if g.has_edge(u, v) == edge)

    for cell in comp.cells:
        pairs = list(combinations(p.cells[cell], 2))
        s, full = len(p.cells[cell]), len(pairs)
        e = sum(g.has_edge(u, v) for u, v in pairs)
        kinds = (0, full)  # empty or complete: every cell but the root is emptied
        if cell == comp.root:  # a matching or its complement, or the 5-cycle
            kinds += (s // 2, full - s // 2) if s >= 4 and s % 2 == 0 else (5,) if s == 5 else ()
        if e not in kinds:
            raise NotAmenableComponent(f"cell {cell} has {e} of {full} pairs as edges")
        if cell == comp.root:
            keep(pairs, 2 * e >= full)

    for x, y in combinations(comp.cells, 2):
        pairs = list(product(p.cells[x], p.cells[y]))
        small, large = sorted((len(p.cells[x]), len(p.cells[y])))
        e = sum(g.has_edge(u, v) for u, v in pairs)
        if e not in (0, len(pairs), large, large * (small - 1)):
            raise NotAmenableComponent(f"pair ({x}, {y}) has {e} of {len(pairs)} pairs as edges")
        if 0 < e < len(pairs):
            keep(pairs, 2 * e <= len(pairs))

    return from_edge_list(len(verts), edges)
