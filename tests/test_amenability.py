from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from graphsym import (
    CrOutcome,
    IsoVerdict,
    PairKind,
    amenable_iso,
    build_cell_graph,
    check_amenable,
    cr_iso_test,
    from_edge_list,
    oracle,
    relabel,
    stable_partition,
)
from graphsym.generators import named, random_amenable

from .conftest import disjoint_union, graphs, trees


def test_figure1_amenable(figure1):
    verdict = check_amenable(figure1)
    assert verdict.amenable
    assert [c.cells for c in verdict.components] == [(1, 3), (2,)]  # singleton cell 0 has none
    assert len(json.loads(verdict.json_text())["components"]) == 3
    assert verdict.failure is None


def test_c6_fails_condition_a():
    verdict = check_amenable(named("cn", 6))
    assert not verdict.amenable
    assert verdict.failure.condition == "A"
    assert verdict.failure.cell == 0
    assert verdict.cell_graph is None and verdict.components is None


def test_condition_b_failure():
    # 2-regular bipartite join between equal cells is neither star nor complete
    edges = []
    for i in range(4):
        edges += [(i, 4 + i), (i, 4 + (i + 1) % 4), (i, 8 + i)]
    verdict = check_amenable(from_edge_list(12, edges))
    assert verdict.failure.condition == "B"
    assert verdict.failure.pair == (0, 1)


def test_condition_c_failure():
    # star chain whose sizes go 3 -> 6 -> 3: no minimum-size root is monotone
    edges = [(0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)]
    for c, excl in {9: (3, 4), 10: (5, 6), 11: (7, 8)}.items():
        edges += [(c, b) for b in range(3, 9) if b not in excl]
    verdict = check_amenable(from_edge_list(12, edges))
    assert verdict.failure.condition == "C"
    assert "decrease" in verdict.failure.reason


def test_condition_c_failure_cycle_of_cells():
    edges = [(0, 2), (0, 3), (1, 4), (1, 5)]
    edges += [(2 + i, 6 + 2 * i) for i in range(4)]
    edges += [(2 + i, 7 + 2 * i) for i in range(4)]
    edges += [(0, c) for c in range(6, 10)]
    edges += [(1, c) for c in range(10, 14)]
    verdict = check_amenable(from_edge_list(14, edges))
    assert verdict.failure.condition == "C"
    assert verdict.failure.reason == "not a tree"


def test_condition_d_failure_het_not_minimal():
    edges = [(2, 3), (4, 5), (0, 2), (0, 3), (1, 4), (1, 5)]
    for i, m in enumerate((2, 3, 4, 5)):
        edges += [(m, 6 + 2 * i), (m, 7 + 2 * i)]
    verdict = check_amenable(from_edge_list(14, edges))
    assert verdict.failure.condition == "D"
    assert "minimum" in verdict.failure.reason


def test_condition_d_failure_two_heterogeneous():
    edges = [(0, 1), (2, 3)]
    edges += [(2 * i, 2 * i + 1) for i in range(2, 6)]
    edges += [(i, 4 + 2 * i) for i in range(4)]
    edges += [(i, 5 + 2 * i) for i in range(4)]
    verdict = check_amenable(from_edge_list(12, edges))
    assert verdict.failure.condition == "D"
    assert "more than one" in verdict.failure.reason


def test_equal_size_star_pair_accepted():
    # P4: perfect matching between the end cell and the middle cell
    g = named("pn", 4)
    verdict = check_amenable(g)
    assert verdict.amenable
    cg = build_cell_graph(g, stable_partition(g))
    assert cg.pair_kinds[(0, 1)] is PairKind.ANISO_STARS


def test_small_named_families():
    for g in (named("kn", 1), named("kn", 5), named("pn", 7), named("cn", 4),
              named("cn", 5), named("rk2", 3), named("kab", 1, 3),
              named("jellyfish_fig3")):
        assert check_amenable(g).amenable
    for g in (named("cn", 7), named("kab", 3, 3), named("kab", 4, 4)):
        assert not check_amenable(g).amenable


def test_empty_and_single_vertex():
    assert check_amenable(from_edge_list(0, [])).amenable
    assert check_amenable(from_edge_list(1, [])).amenable


@settings(max_examples=80, deadline=None)
@given(trees(max_n=40))
def test_every_tree_is_amenable(t):
    assert check_amenable(t).amenable


def test_amenable_iso_examples(figure1):
    shifted = relabel(figure1, [(v + 5) % figure1.n for v in range(figure1.n)])
    assert amenable_iso(figure1, shifted) is IsoVerdict.ISOMORPHIC

    c3 = named("cn", 3)
    two_c3 = disjoint_union(c3, c3)
    assert amenable_iso(named("cn", 6), two_c3) is IsoVerdict.HEURISTIC_EQUIVALENT

    assert amenable_iso(named("pn", 4), named("kab", 1, 3)) is IsoVerdict.NOT_ISOMORPHIC


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_verdict_is_permutation_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    v1, v2 = check_amenable(g), check_amenable(relabel(g, perm))
    assert v1.amenable == v2.amenable
    if not v1.amenable:
        assert v1.failure.condition == v2.failure.condition


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7), graphs(max_n=7))
def test_not_isomorphic_is_sound(g, h):
    if amenable_iso(g, h) is IsoVerdict.NOT_ISOMORPHIC:
        assert oracle.find_isomorphism(g, h) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 400), graphs(max_n=8))
def test_exact_under_amenability(seed, h):
    g, _ = random_amenable(8, seed=seed)
    verdict = amenable_iso(g, h)
    truth = oracle.find_isomorphism(g, h) is not None
    if verdict is IsoVerdict.ISOMORPHIC:
        assert truth
    elif verdict is IsoVerdict.NOT_ISOMORPHIC:
        assert not truth
    else:  # amenable g makes the test exact, so this cannot happen
        raise AssertionError("amenable input returned a heuristic verdict")


def test_amenable_iso_refines_once(monkeypatch):
    from graphsym import refinement

    g, _ = random_amenable(12, seed=3)
    calls = []
    core = refinement._refine_colors

    def counted(adj, colors):
        calls.append(len(colors))
        return core(adj, colors)

    monkeypatch.setattr(refinement, "_refine_colors", counted)
    perm = list(range(g.n))[::-1]
    assert amenable_iso(g, relabel(g, perm)) is IsoVerdict.ISOMORPHIC
    assert calls == [g.n, g.n]
    calls.clear()
    c3 = named("cn", 3)
    two_c3 = disjoint_union(c3, c3)
    assert amenable_iso(named("cn", 6), two_c3) is IsoVerdict.HEURISTIC_EQUIVALENT
    assert calls == [6, 6]


def test_the_iso_path_numbers_g_only_when_the_quotients_agree(monkeypatch):
    """iso_from_quotients never refines, and numbers g's stable partition
    (Partition.from_colors) once when the quotients agree, never when they
    differ.  cr_iso_test numbers neither graph, and amenable_iso never h.
    A pair with differing degree sequences is rejected by both tests before
    either graph is refined."""
    from graphsym import amenability, refinement

    g, _ = random_amenable(12, seed=3)
    c3 = named("cn", 3)
    p2_c4 = disjoint_union(named("pn", 2), named("cn", 4))  # the degrees of P6, not its quotient
    cases = [(g, relabel(g, list(range(g.n))[::-1]), IsoVerdict.ISOMORPHIC),
             (g, named("kn", g.n), IsoVerdict.NOT_ISOMORPHIC),
             (named("pn", 6), p2_c4, IsoVerdict.NOT_ISOMORPHIC),
             (named("cn", 6), disjoint_union(c3, c3), IsoVerdict.HEURISTIC_EQUIVALENT)]
    quotients = [(g, h, *refinement._quotient(g), refinement._quotient(h)[1], expected)
                 for g, h, expected in cases]
    numbered = []
    number = refinement.Partition.from_colors

    def counted(_cls, colors):
        numbered.append(list(colors))
        return number(colors)

    def refines(*_args):
        raise AssertionError("refined")

    monkeypatch.setattr(refinement.Partition, "from_colors", classmethod(counted))
    rejected = 0
    for g, h, raw, q_g, q_h, expected in quotients:
        once = [] if expected is IsoVerdict.NOT_ISOMORPHIC else [raw]
        with monkeypatch.context() as patched:
            patched.setattr(refinement, "_refine_colors", refines)
            assert amenability.iso_from_quotients(g, raw, q_g, q_h) is expected
            if g.degree_sequence() != h.degree_sequence():
                rejected += 1
                assert cr_iso_test(g, h).outcome is CrOutcome.DISTINGUISHED
                assert amenable_iso(g, h) is expected
        assert numbered == once
        numbered.clear()
        cr_iso_test(g, h)
        assert numbered == []
        assert amenable_iso(g, h) is expected
        assert numbered == once  # g's raw ids, and h's never
        numbered.clear()
    assert rejected == 1
