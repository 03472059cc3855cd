"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 5-8 are property-style sweeps over generated corpora; the numeric
regressions pin the worked-example values and closed forms exactly.
"""

from __future__ import annotations

import random
import time
from math import comb

import pytest

from graphsym import (
    CrOutcome,
    Partition,
    analyze,
    check_amenable,
    cr_iso_test,
    dist_number,
    fix_number,
    from_edge_list,
    leg_dist_count,
    leg_fix,
    min_c_binom,
    oracle,
    refinement,
    stable_partition,
)
from graphsym.errors import NotAmenable
from graphsym.generators import named, random_amenable

from .conftest import cell_tree, disjoint_union, every_component, induced

LEG_REGRESSION_NEST = (5, [(10, [(30, []), (20, [])]), (15, []), (5, [(15, [])])])
CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus():
    """Validated random amenable graphs with n <= 12, plus their verdicts."""
    graphs = []
    seed = 0
    while len(graphs) < CORPUS_SIZE:
        n_target = 6 + (len(graphs) % 5)
        g, p = random_amenable(n_target, seed=seed)
        seed += 1
        verdict = check_amenable(g)
        assert verdict.amenable and g.n <= 12
        graphs.append((g, p, verdict))
    return graphs


def _component_shape(verdict, comp) -> tuple:
    sizes = verdict.cell_graph.cell_sizes

    def subtree(cell: int) -> tuple:
        kids = tuple(sorted(subtree(c) for c, p in comp.parent.items() if p == cell))
        return (sizes[cell], kids)

    head = verdict.cell_graph.cell_kinds[comp.root].value
    return (head, subtree(comp.root))


def test_criterion_1_figure1_regression():
    g = named("figure1")
    stable_partition(g)  # warm caches before timing
    t0 = time.perf_counter()
    p = stable_partition(g)
    verdict = check_amenable(g)
    elapsed = time.perf_counter() - t0

    assert {frozenset(c) for c in p.cells} == {
        frozenset({0}), frozenset({2, 3, 6, 7}),
        frozenset({1, 4, 5, 8}), frozenset({9, 10}),
    }
    assert verdict.amenable
    comps = every_component(verdict.cell_graph, verdict.components)
    assert len(comps) == 3 and len(verdict.components) == 2
    by_cells = {tuple(sorted(len(p.cells[c]) for c in comp.cells)) for comp in comps}
    assert by_cells == {(1,), (4,), (2, 4)}
    star_comp = next(c for c in comps if len(c.cells) == 2)
    assert len(p.cells[star_comp.root]) == 2
    assert star_comp.multiplicity[next(iter(star_comp.parent))] == 2
    assert elapsed < 0.010, f"figure-1 pipeline took {elapsed * 1000:.2f} ms"
    print(f"\nACCEPTANCE 1 PASS: figure-1 regression ({elapsed * 1000:.2f} ms)")


def test_criterion_2_leg_recursion_values():
    sizes, comp = cell_tree(LEG_REGRESSION_NEST)
    assert oracle.leg_dist_count_exact(sizes, comp, 3) == 324
    cap = 10**9
    value = leg_dist_count(sizes, comp, 3, cap)
    assert value == 324 and value != cap  # exact, not saturated
    assert leg_fix(comp) == 10
    print("\nACCEPTANCE 2 PASS: leg count 324 at c=3 and leg fix 10")


def test_criterion_3_closed_forms():
    for n in range(2, 9):
        kn, pn = named("kn", n), named("pn", n)
        assert (dist_number(kn), fix_number(kn)) == (n, n - 1)
        assert (dist_number(pn), fix_number(pn)) == (2, 1)

        knn = named("kab", n, n)
        if n == 2:
            # the 4-cycle is the complement of a matching, hence amenable:
            # the fast path itself must produce the closed forms
            assert check_amenable(knn).amenable
            assert (dist_number(knn), fix_number(knn)) == (3, 2)
        else:
            with pytest.raises(NotAmenable):
                dist_number(knn)
        assert oracle.dist_number_bf(knn, limit=16) == n + 1
        assert oracle.fix_number_bf(knn, limit=16) == 2 * (n - 1)

        rk2 = named("rk2", n)
        assert dist_number(rk2) == min({c for c in range(2, 20) if comb(c, 2) >= n})
        assert dist_number(rk2) == min_c_binom(n)
        assert fix_number(rk2) == n

    c5 = named("cn", 5)
    assert (dist_number(c5), fix_number(c5)) == (3, 2)
    print("\nACCEPTANCE 3 PASS: closed forms for K_n, P_n, K_{n,n}, C5, rK2 (n = 2..8)")


def test_criterion_4_jellyfish_regression():
    report = analyze(named("jellyfish_fig3"))
    assert (report.dist_number, report.fix_number) == (2, 5)
    print("\nACCEPTANCE 4 PASS: 25-vertex jellyfish has D = 2, Fix = 5")


def test_criterion_5_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    shapes = set()
    for g, _, verdict in corpus:
        for comp in every_component(verdict.cell_graph, verdict.components):
            shapes.add(_component_shape(verdict, comp))
        report = analyze(g, verdict=verdict)
        assert report.dist_number == oracle.dist_number_bf(g, limit=12)
        assert report.fix_number == oracle.fix_number_bf(g, limit=12)
    elapsed = time.perf_counter() - t0
    assert len(corpus) >= 500
    assert len(shapes) >= 20, f"only {len(shapes)} distinct component shapes"
    assert elapsed < 300, f"sweep took {elapsed:.0f} s"
    print(
        f"\nACCEPTANCE 5 PASS: {len(corpus)} graphs, {len(shapes)} shapes, "
        f"fast path == brute force ({elapsed:.1f} s)"
    )


def test_criterion_6_structural_invariants(corpus):
    for g, p, verdict in corpus:
        full = oracle.automorphisms(g, limit_n=12)
        celled = oracle.automorphisms(g, p, limit_n=12)
        assert full.elements == celled.elements
        product = 1
        for comp in every_component(verdict.cell_graph, verdict.components):
            verts = sorted(v for c in comp.cells for v in p.cells[c])
            sub, local = induced(g, p, verts)
            gi = oracle.automorphisms(sub, local, limit_n=12)
            ji_graph = oracle.materialize_jellyfish(g, p, comp)
            ji = oracle.automorphisms(ji_graph, local, limit_n=12)
            assert gi.elements == ji.elements
            product *= gi.order
        assert product == full.order
        report = analyze(g, verdict=verdict)
        assert report.dist_number <= report.fix_number + 1
    print(f"\nACCEPTANCE 6 PASS: group product law and jellyfish equivalence on {len(corpus)} graphs")


def _random_cell_tree(rng: random.Random, max_cells: int = 30):
    """(sizes, Component) of a random divisible cell tree of depth <= 6."""
    cells = 0

    def grow(size: int, depth: int) -> tuple:
        nonlocal cells
        cells += 1
        kids: list[tuple] = []
        if cells < max_cells and depth < 6:
            for _ in range(rng.randint(0, 2)):
                if cells >= max_cells:
                    break
                kids.append(grow(size * rng.randint(1, 3), depth + 1))
        return (size, kids)

    return cell_tree(grow(rng.randint(1, 3), 0))


def test_criterion_7_saturation_soundness():
    rng = random.Random(20240901)
    checked = 0
    for _ in range(1000):
        sizes, comp = _random_cell_tree(rng)
        d_star = rng.randint(1, 50)
        cap = d_star + sum(sizes) + 1
        for c in range(1, 5):
            value = leg_dist_count(sizes, comp, c, cap)
            exact = oracle.leg_dist_count_exact(sizes, comp, c)
            assert (value >= d_star) == (exact >= d_star)
            if value < cap:
                assert value == exact
            checked += 1
    print(f"\nACCEPTANCE 7 PASS: saturating counts match exact on {checked} (tree, c, d*) triples")


def test_criterion_8_cr_blind_spots():
    two_c3 = disjoint_union(named("cn", 3), named("cn", 3))
    verdict = cr_iso_test(named("cn", 6), two_c3)
    assert verdict.outcome is CrOutcome.CR_EQUIVALENT

    amen = check_amenable(named("cn", 6))
    assert not amen.amenable and amen.failure.condition == "A"

    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 50)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
        tree = from_edge_list(n, edges)
        assert check_amenable(tree).amenable
    print("\nACCEPTANCE 8 PASS: C6/2C3 blind spot, C6 rejected, 100 random trees amenable")


def test_criterion_9_scaling():
    sizes = [10_000, 20_000, 40_000, 80_000, 160_000]
    dist_number(random_amenable(2000, seed=99)[0])  # warm up
    times = []
    for i, size in enumerate(sizes):
        g, _ = random_amenable(size, seed=1000 + i)
        dist_s, fix_s = [], []
        for _ in range(2):  # best of two damps timer noise
            t0 = time.perf_counter()
            dist_number(g)
            t1 = time.perf_counter()
            fix_number(g)
            t2 = time.perf_counter()
            dist_s.append(t1 - t0)
            fix_s.append(t2 - t1)
        best_d, best_f = min(dist_s), min(fix_s)
        assert best_d < 5.0, f"dist at n={g.n} took {best_d:.2f} s"
        assert best_f < 5.0, f"fix at n={g.n} took {best_f:.2f} s"
        times.append((g.n, best_d + best_f))
    ratios = [times[i + 1][1] / times[i][1] for i in range(1, len(times) - 1)]
    assert all(r <= 3.0 for r in ratios), f"doubling ratios {ratios}"
    table = ", ".join(f"n={n}: {t:.2f}s" for n, t in times)
    print(f"\nACCEPTANCE 9 PASS: {table}; doubling ratios {[f'{r:.2f}' for r in ratios]}")


class _CountingRow(tuple):
    """An adjacency row that counts the entries each iteration reads."""

    visits = 0

    def __iter__(self):
        _CountingRow.visits += len(self)
        return super().__iter__()


def test_criterion_9_refinement_work():
    """Criterion 9's draws, counted instead of timed: the refinement core
    reads at most 2m (1 + floor(log2 n)) neighbour entries, the smaller-half
    bound, whatever the host's load."""
    counts = []
    for i, size in enumerate([10_000, 20_000, 40_000, 80_000, 160_000]):
        g, _ = random_amenable(size, seed=1000 + i)
        rows = tuple(map(_CountingRow, g.adjacency))
        _CountingRow.visits = 0
        raw = refinement._refine_colors(rows, list(map(len, rows)))[0]
        assert Partition.from_colors(raw) == stable_partition(g)
        bound = 2 * g.m * g.n.bit_length()  # bit_length is 1 + floor(log2 n)
        assert _CountingRow.visits <= bound, f"n={g.n}: {_CountingRow.visits} visits > {bound}"
        counts.append(f"n={g.n}: {_CountingRow.visits / (2 * g.m):.2f} x 2m")
    print(f"\nACCEPTANCE 9 WORK PASS: {', '.join(counts)}")
