import math

import numpy as np
import pytest

from gnncompress import (build_graph, choose_substitution, graph_size,
                         incidence, reduce_graph, refine, verify_reduct)
from gnncompress.reduction import Substitution, build_report
from conftest import A1, A2, B1, B3, random_substitution, star_of_stars


def edge_multiset(red):
    h = red.graph
    return {(int(red.node_ids[s]), int(red.node_ids[d])): int(m)
            for s, d, m in zip(h.out_src_flat, h.out_dst, h.out_mult)}


@pytest.fixture
def fig1_p1(fig1):
    return refine(fig1, depth=1).at(1)


def test_incidence_fig1(fig1, fig1_p1):
    assert incidence(fig1, fig1_p1, B1) == 2
    assert incidence(fig1, fig1_p1, B3) == 1


def test_incidence_no_in_edges():
    g = build_graph([(0, 1, 1)], ["a", "a", "a"])
    p = refine(g, depth=1).at(1)
    assert incidence(g, p, 2) == 0


def test_min_incidence_picks_b3(fig1, fig1_p1):
    sub = choose_substitution(fig1, fig1_p1, "min-incidence")
    assert set(sub.rep_of_class) == {A1, A2, B3}


def test_first_node_is_rho1(fig1, fig1_p1):
    sub = choose_substitution(fig1, fig1_p1, "first-node")
    assert set(sub.rep_of_class) == {A1, A2, B1}


def test_singleton_classes_keep_sole_member(fig1):
    p = refine(fig1).final  # stable: {a1},{a2,a3},{b1,b2},{b3}
    for policy in ("min-incidence", "first-node"):
        sub = choose_substitution(fig1, p, policy)
        assert sub.rep_of_node[A1] == A1
        assert sub.rep_of_node[B3] == B3


def test_substitution_fixes_representatives(fig1, fig1_p1):
    sub = choose_substitution(fig1, fig1_p1, "min-incidence")
    for w in sub.rep_of_class:
        assert sub.rep_of_node[w] == w


def test_reduce_rho1(fig1, fig1_p1):
    sub = choose_substitution(fig1, fig1_p1, "first-node", depth=1)
    red = reduce_graph(fig1, sub)
    assert set(red.node_ids) == {A1, A2, B1}
    # Figure-consistent reduct per the formal edge rule: inc(a1) = {a2}
    # survives, so a2 -> a1 is present alongside the drawn four edges.
    assert edge_multiset(red) == {
        (A1, A2): 1, (A2, A1): 1, (A2, A2): 1, (A1, B1): 1, (A2, B1): 1}
    assert graph_size(red.graph) == (3, 5)


def test_reduce_rho2(fig1, fig1_p1):
    sub = choose_substitution(fig1, fig1_p1, "min-incidence", depth=1)
    red = reduce_graph(fig1, sub)
    assert set(red.node_ids) == {A1, A2, B3}
    assert edge_multiset(red) == {
        (A1, A2): 1, (A2, A1): 1, (A2, A2): 1, (A2, B3): 2}
    assert graph_size(red.graph) == (3, 4)


def test_rho2_strictly_smaller_non_isomorphic(fig1, fig1_p1):
    red1 = reduce_graph(fig1, choose_substitution(fig1, fig1_p1, "first-node"))
    red2 = reduce_graph(fig1, choose_substitution(fig1, fig1_p1, "min-incidence"))
    assert graph_size(red2.graph)[1] == graph_size(red1.graph)[1] - 1


def test_colors_preserved(fig1, fig1_p1):
    red = reduce_graph(fig1, choose_substitution(fig1, fig1_p1, "min-incidence"))
    payloads = [red.graph.color_payload(i) for i in range(3)]
    assert payloads == ["a", "a", "b"]


@pytest.mark.parametrize("m,n", [(3, 4), (2, 2), (10, 7)])
def test_star_of_stars_reduct(m, n):
    g = star_of_stars(m, n)
    part = refine(g, depth=2).at(2)
    sub = choose_substitution(g, part, "min-incidence", depth=2)
    red = reduce_graph(g, sub)
    assert graph_size(red.graph) == (3, 2)
    mults = sorted(int(x) for x in red.graph.out_mult)
    assert mults == sorted([m, n])


def test_verify_reduct_fig1(fig1, fig1_p1):
    for policy in ("min-incidence", "first-node"):
        sub = choose_substitution(fig1, fig1_p1, policy, depth=1)
        red = reduce_graph(fig1, sub)
        assert verify_reduct(fig1, red.graph, red.rep_index_of_node, depth=1).ok


def test_verify_reduct_detects_corruption(fig1, fig1_p1):
    sub = choose_substitution(fig1, fig1_p1, "min-incidence", depth=1)
    red = reduce_graph(fig1, sub)
    h = red.graph
    h.out_mult = h.out_mult.copy()
    h.out_mult[h.out_mult == 2] = 1  # corrupt the weight-2 edge
    h.in_mult = h.in_mult.copy()
    h.in_mult[h.in_mult == 2] = 1
    res = verify_reduct(fig1, h, red.rep_index_of_node, depth=1)
    assert not res.ok
    assert res.witness_node is not None and res.witness_round is not None


def test_stable_reduct_verifies_at_inf(fig1):
    part = refine(fig1).final
    sub = choose_substitution(fig1, part, "min-incidence", depth=math.inf)
    red = reduce_graph(fig1, sub)
    assert verify_reduct(fig1, red.graph, red.rep_index_of_node).ok


def test_policies_agree_in_size_at_stability(fig1):
    from gnncompress.synth import random_graph
    graphs = [fig1] + [random_graph(20, 55, n_colors=2, max_mult=2, seed=s)
                       for s in range(5)]
    for g in graphs:
        part = refine(g).final
        sizes = set()
        for policy in ("min-incidence", "first-node"):
            red = reduce_graph(g, choose_substitution(g, part, policy))
            sizes.add(graph_size(red.graph))
        assert len(sizes) == 1


def test_reduct_idempotent_at_stability(fig1):
    part = refine(fig1).final
    red = reduce_graph(fig1, choose_substitution(fig1, part, "min-incidence"))
    part2 = refine(red.graph).final
    red2 = reduce_graph(red.graph, choose_substitution(red.graph, part2, "min-incidence"))
    assert graph_size(red2.graph) == graph_size(red.graph)


def test_discrete_partition_reduces_to_self():
    g = build_graph([(0, 1, 1), (1, 2, 2)], ["a", "b", "c"])
    part = refine(g).final
    assert part.num_classes == 3
    red = reduce_graph(g, choose_substitution(g, part, "min-incidence"))
    assert red.graph == g
    assert np.array_equal(red.node_ids, np.arange(3))


def test_graded_reduct_caps_multiplicity():
    g = build_graph([(0, 2, 1), (1, 2, 1)], ["a", "a", "b"])
    part = refine(g, depth=1, grade=1).at(1)
    assert part.num_classes == 2  # {0,1}, {2}
    sub = choose_substitution(g, part, "min-incidence", depth=1, grade=1)
    red = reduce_graph(g, sub)
    assert list(red.graph.out_mult) == [1]  # 1+1 capped at grade 1
    assert verify_reduct(g, red.graph, red.rep_index_of_node, depth=1, grade=1).ok


def test_graded_reduct_caps_before_overflow():
    # edges from one class whose sum passes 2**62 (the second sum also wraps
    # int64) merge into one reduct edge of multiplicity 2 at grade 2
    for mults in ([2**61] * 3, [2**62 - 1] * 5):
        k = len(mults)
        g = build_graph([(i, k, m) for i, m in enumerate(mults)], ["a"] * k + ["b"])
        part = refine(g, depth=1, grade=2).at(1)
        sub = choose_substitution(g, part, "min-incidence", depth=1, grade=2)
        red = reduce_graph(g, sub)
        assert edge_multiset(red) == {(0, k): 2}
        assert verify_reduct(g, red.graph, red.rep_index_of_node, depth=1, grade=2).ok


def test_report_ratios(fig1, fig1_p1):
    red = reduce_graph(fig1, choose_substitution(fig1, fig1_p1, "min-incidence"))
    rep = build_report(fig1, red, rounds=1)
    assert rep.reduced_nodes == 3 and rep.original_nodes == 6
    assert rep.node_ratio == 0.5
    assert math.isclose(rep.edge_ratio, 4 / 11)


def test_random_substitution_construction(fig1, fig1_p1):
    rng = np.random.default_rng(3)
    reps = random_substitution(fig1_p1, rng)
    sub = Substitution(reps, reps[fig1_p1.class_of], depth=1, grade=math.inf,
                       policy="random")
    red = reduce_graph(fig1, sub)
    assert verify_reduct(fig1, red.graph, red.rep_index_of_node, depth=1).ok
