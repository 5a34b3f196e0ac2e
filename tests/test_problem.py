import math

import numpy as np
import pytest

from gnncompress import (LearningProblem, ValidationError, build_graph,
                         chain_config, compress_problem, equivalence_report,
                         evaluate_compressed_loss, evaluate_loss, graph_size,
                         sample_gnn)
from conftest import A1, B1, B2, B3, FIG1_COLORS, FIG1_EDGES


def fig1_problem(train, loss_kind="xent", dims=(2, 2), width=math.inf, agg="sum"):
    g = build_graph(FIG1_EDGES, FIG1_COLORS)
    feats = np.ones((6, dims[0]))
    return LearningProblem(g, feats, train, loss_kind,
                           chain_config(list(dims), width=width, agg=agg))


def test_compress_fig1_weights():
    p = fig1_problem({B1: "y", B2: "y"})
    cp = compress_problem(p, policy="min-incidence", depth=1)
    rep_b3 = int(np.flatnonzero(cp.node_ids == B3)[0])
    assert cp.train_weighted == {rep_b3: [("y", 2)]}
    assert cp.total_weight == 2


def test_compress_empty_train():
    p = fig1_problem({})
    cp = compress_problem(p, depth=1)
    assert cp.train_weighted == {}
    assert graph_size(cp.graph) == (3, 4)


def test_discrete_partition_weights_all_one():
    g = build_graph([(0, 1, 1), (1, 2, 2)], ["a", "b", "c"])
    feats = np.eye(3)
    p = LearningProblem(g, feats, {0: "u", 2: "w"}, "xent", chain_config([3, 2]))
    cp = compress_problem(p)
    assert cp.graph == g
    assert all(w == 1 for pairs in cp.train_weighted.values() for _, w in pairs)


def test_mixed_features_within_color_rejected():
    g = build_graph([(0, 1, 1)], ["a", "a"])
    feats = np.array([[0.0], [1.0]])
    p = LearningProblem(g, feats, {}, "xent", chain_config([1, 2]))
    with pytest.raises(ValidationError):
        compress_problem(p)
    # the error names the lowest color id that mixes features
    g = build_graph([(0, 1, 1)], ["b", "a", "b", "a", "c"])
    for feats, name in (([0, 0, 1, 1, 0], "'b'"), ([0, 0, 0, 1, 0], "'a'")):
        p = LearningProblem(g, np.array(feats, dtype=float)[:, None], {}, "xent")
        with pytest.raises(ValidationError, match=f"initial color {name} mixes"):
            compress_problem(p, depth=1)


def test_train_node_out_of_range_rejected():
    g = build_graph([(0, 1, 1)], ["a", "b"])
    with pytest.raises(ValidationError):
        LearningProblem(g, np.ones((2, 1)), {5: "y"}, "xent")


def test_evaluate_loss_empty_train_zero():
    p = fig1_problem({})
    assert evaluate_loss(p, sample_gnn(p.hypothesis, 0)) == 0.0


def test_squared_loss_zero_on_exact_prediction():
    g = build_graph([(0, 1, 1)], ["a", "b"])
    p = LearningProblem(g, np.ones((2, 2)), {0: np.array([1.0, 1.0])}, "sq",
                        chain_config([2, 2]))
    from gnncompress import Gnn
    gnn = Gnn(p.hypothesis, [np.eye(2)], [np.zeros((2, 2))], [np.zeros(2)])
    assert evaluate_loss(p, gnn) == 0.0


def test_fig1_loss_equality_five_seeds():
    p = fig1_problem({B1: "y", B2: "y"})
    cp = compress_problem(p, policy="min-incidence")
    for seed in range(5):
        gnn = sample_gnn(p.hypothesis, seed)
        a, b = evaluate_loss(p, gnn), evaluate_compressed_loss(cp, gnn)
        assert abs(a - b) <= 1e-6 * (1 + abs(a))


def test_weight_one_identity_reduct_equals_original():
    g = build_graph([(0, 1, 1), (1, 2, 2)], ["a", "b", "c"])
    p = LearningProblem(g, np.eye(3), {0: "u", 2: "w"}, "xent", chain_config([3, 2]))
    cp = compress_problem(p)
    for seed in range(3):
        gnn = sample_gnn(p.hypothesis, seed)
        assert math.isclose(evaluate_loss(p, gnn),
                            evaluate_compressed_loss(cp, gnn), rel_tol=1e-12)


def test_mixed_targets_within_class():
    # two training nodes in one class with different labels
    p = fig1_problem({B1: "y", B2: "z"}, dims=(2, 2))
    cp = compress_problem(p, depth=1)
    rep = int(np.flatnonzero(cp.node_ids == B3)[0])
    assert sorted(cp.train_weighted[rep]) == [("y", 1), ("z", 1)]
    for seed in range(3):
        gnn = sample_gnn(p.hypothesis, seed)
        a, b = evaluate_loss(p, gnn), evaluate_compressed_loss(cp, gnn)
        assert abs(a - b) <= 1e-6 * (1 + abs(a))


def test_regression_loss_equality():
    p = fig1_problem({B1: np.array([0.3, -1.0]), B2: np.array([0.3, -1.0]),
                      A1: np.array([2.0, 0.0])}, loss_kind="sq", dims=(2, 3, 2))
    cp = compress_problem(p)
    for seed in range(5):
        gnn = sample_gnn(p.hypothesis, seed)
        a, b = evaluate_loss(p, gnn), evaluate_compressed_loss(cp, gnn)
        assert abs(a - b) <= 1e-6 * (1 + abs(a))


def test_equivalence_report_exact_passes():
    p = fig1_problem({B1: "y", B2: "y"})
    cp = compress_problem(p)
    report = equivalence_report(p, cp, n_gnns=5, seed=0)
    assert report.passed and not report.approximate


def test_nonfinite_regression_targets_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="not finite"):
            fig1_problem({B1: np.array([0.3, bad])}, loss_kind="sq")


def test_equivalence_report_fails_on_nan_discrepancy():
    # max(0.0, nan) is 0.0: a NaN loss must not read as a zero discrepancy
    p = fig1_problem({B1: np.array([0.3, -1.0]), B2: np.array([0.3, -1.0])},
                     loss_kind="sq")
    cp = compress_problem(p)
    assert equivalence_report(p, cp, n_gnns=2, seed=0).passed
    (rep,) = cp.train_weighted
    cp.train_weighted[rep] = [(np.array([math.nan, -1.0]), 2)]
    report = equivalence_report(p, cp, n_gnns=2, seed=0)
    assert not report.passed
    assert math.isinf(report.max_loss_discrepancy)


def test_equivalence_report_flags_wider_hypothesis():
    p = fig1_problem({B1: "y", B2: "y"}, dims=(2, 3, 2), width=math.inf)
    cp = compress_problem(p, grade=1)
    report = equivalence_report(p, cp, n_gnns=5, seed=0)
    assert report.approximate
    assert "width exceeds" in report.note


def test_width_one_gnns_pass_on_grade_one_compression():
    for agg in ("sum", "mean", "max"):
        p = fig1_problem({B1: "y", B2: "y"}, dims=(2, 3, 2), width=1, agg=agg)
        cp = compress_problem(p, grade=1)
        report = equivalence_report(p, cp, n_gnns=5, seed=3)
        assert report.passed, agg


def test_weight_conservation():
    p = fig1_problem({B1: "y", B2: "z", B3: "y", A1: "y"})
    cp = compress_problem(p)
    assert cp.total_weight == 4


def test_compress_twice_same_size():
    p = fig1_problem({B1: "y", B2: "y"})
    cp = compress_problem(p, depth=1)
    p2 = LearningProblem(cp.graph, cp.features,
                         {int(k): v[0][0] for k, v in cp.train_weighted.items()},
                         "xent", p.hypothesis)
    cp2 = compress_problem(p2, depth=1)
    assert graph_size(cp2.graph) == graph_size(cp.graph)


def test_depth_inf_compression():
    p = fig1_problem({B1: "y"}, dims=(2, 2))
    cp = compress_problem(p, depth=math.inf)
    assert cp.rounds == 2  # stable coloring number of the worked example
    assert graph_size(cp.graph) == (4, 6)
