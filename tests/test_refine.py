import math

import numpy as np
import pytest

from gnncompress import (ValidationError, build_graph, classes, naive_color,
                         naive_partition, refine)
from gnncompress.refine import refine_step
from conftest import (A1, A2, A3, B1, B2, B3, bisimulation_partition,
                      partition_blocks, refines, same_partition)


def test_fig1_round1(fig1):
    r = refine(fig1, depth=1)
    assert partition_blocks(r.at(1).class_of) == {
        frozenset({A1}), frozenset({A2, A3}), frozenset({B1, B2, B3})}


def test_fig1_round2_splits_b3(fig1):
    r = refine(fig1, depth=2)
    assert partition_blocks(r.at(2).class_of) == {
        frozenset({A1}), frozenset({A2, A3}), frozenset({B1, B2}), frozenset({B3})}


def test_fig1_stable_round(fig1):
    r = refine(fig1)
    assert r.stable_round == 2
    assert r.class_counts == [2, 3, 4, 4]
    # rounds past stabilization return the stable partition
    assert np.array_equal(classes(r, 5).class_of, classes(r, 2).class_of)


def test_fig1_graded_round1(fig1):
    r = refine(fig1, depth=1, grade=1)
    assert partition_blocks(r.at(1).class_of) == {
        frozenset({A1, A2, A3}), frozenset({B1, B2, B3})}


def test_depth_zero_is_initial_colors(fig1):
    r = refine(fig1, depth=0)
    assert r.at(0).num_classes == 2
    with pytest.raises(ValueError):
        r.at(1)


def test_single_color_cycle_stable_at_zero():
    k = 7
    g = build_graph([(i, (i + 1) % k, 1) for i in range(k)], ["x"] * k)
    r = refine(g)
    assert r.stable_round == 0
    assert r.at(0).num_classes == 1


def test_round_beyond_finite_depth_errors(fig1):
    r = refine(fig1, depth=1)
    with pytest.raises(ValueError):
        r.at(2)


def test_early_stop_within_finite_depth(fig1):
    r = refine(fig1, depth=10)
    assert r.stable_round == 2
    assert len(r.partitions) == 4
    # rounds 4..10 are valid queries and equal the stable partition
    assert np.array_equal(r.at(7).class_of, r.at(2).class_of)


def test_refinement_monotone(fig1):
    r = refine(fig1)
    for a, b in zip(r.partitions, r.partitions[1:]):
        assert refines(b.class_of, a.class_of)


def test_idempotent_at_fixpoint(fig1):
    r = refine(fig1)
    stable = r.partitions[r.stable_round]
    again = refine_step(fig1, stable)
    assert np.array_equal(again.class_of, stable.class_of)


def test_naive_color_fig1_b3(fig1):
    assert naive_color(fig1, B3, 1) == ("b", (("a", 2),))


def test_naive_color_no_in_edges():
    g = build_graph([(0, 1, 1)], ["x", "y"])
    assert naive_color(g, 0, 1) == ("x", ())
    assert naive_color(g, 0, 2) == (("x", ()), ())


def test_naive_color_depth_budget(fig1):
    with pytest.raises(ValueError):
        naive_color(fig1, 0, 50)


def test_naive_color_graded_cap():
    g = build_graph([(0, 1, 5)], ["a", "b"])
    assert naive_color(g, 1, 1, grade=1) == ("b", (("a", 1),))
    assert naive_color(g, 1, 1, grade=3) == ("b", (("a", 3),))


def test_naive_partition_matches_refine_on_fig1(fig1):
    for d in (1, 2, 3):
        for c in (1, 2, math.inf):
            a = naive_partition(fig1, d, c)
            b = refine(fig1, depth=d, grade=c).at(d)
            assert same_partition(a.class_of, b.class_of), (d, c)


def test_bisimulation_oracle_matches_grade_one(fig1):
    stable = refine(fig1, grade=1).final
    oracle = bisimulation_partition(fig1)
    assert same_partition(stable.class_of, oracle.class_of)


def test_mean_of_fig1_partition_canonical_ids(fig1):
    # class ids are assigned by first occurrence in node order
    r = refine(fig1, depth=2)
    assert list(r.at(2).class_of) == [0, 1, 1, 2, 2, 3]


def test_refine_counts_near_multiplicity_limit():
    # node 5: one in-edge of 2**62 - 5; node 6: five in-edges of 2**62 - 1,
    # whose int64 sum wraps to the same 2**62 - 5
    edges = [(0, 5, 2**62 - 5)] + [(i, 6, 2**62 - 1) for i in range(5)]
    g = build_graph(edges, ["a"] * 5 + ["b", "b"])
    with pytest.raises(ValidationError, match="overflow"):
        refine(g, depth=1)
    for grade in (1, 3, 2**62 - 1):     # capped counts stay below the limit
        assert same_partition(refine(g, depth=1, grade=grade).at(1).class_of,
                              naive_partition(g, 1, grade).class_of), grade


def test_empty_graph_refine():
    g = build_graph([], [])
    r = refine(g)
    assert r.stable_round == 0
    assert r.final.num_classes == 0
