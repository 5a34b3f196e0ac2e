import dataclasses
import math
import weakref

import numpy as np
import pytest

from gnncompress import (LearningProblem, ValidationError, build_graph,
                         chain_config, compress_problem, equivalence_report,
                         evaluate_compressed_loss, evaluate_loss, forward,
                         one_hot_features, sample_gnn)
from gnncompress import gnn as gnn_module
from gnncompress import problem as problem_module
from gnncompress.problem import TrainingSet, push_forward, training_set
from conftest import (A1, B1, B2, B3, FIG1_COLORS, FIG1_EDGES, pointwise_loss,
                      random_graph, reference_push_forward)


def fig1_problem(train, loss_kind="xent", dims=(2, 2), width=math.inf, agg="sum"):
    g = build_graph(FIG1_EDGES, FIG1_COLORS)
    feats = np.ones((6, dims[0]))
    return LearningProblem(g, feats, train, loss_kind,
                           chain_config(list(dims), width=width, agg=agg))


def test_compress_fig1_weights():
    p = fig1_problem({B1: "y", B2: "y"})
    cp = compress_problem(p, depth=1)
    rep_b3 = int(np.flatnonzero(cp.node_ids == B3)[0])
    assert cp.train_weighted == {rep_b3: [("y", 2)]}
    assert sum(w for pairs in cp.train_weighted.values() for _, w in pairs) == 2


def test_compress_empty_train():
    p = fig1_problem({})
    cp = compress_problem(p, depth=1)
    assert cp.train_weighted == {}
    assert (cp.graph.node_count, cp.graph.simple_edge_count) == (3, 4)


def test_discrete_partition_weights_all_one():
    g = build_graph([(0, 1, 1), (1, 2, 2)], ["a", "b", "c"])
    feats = np.eye(3)
    p = LearningProblem(g, feats, {0: "u", 2: "w"}, "xent", chain_config([3, 2]))
    cp = compress_problem(p)
    assert cp.graph == g
    assert all(w == 1 for pairs in cp.train_weighted.values() for _, w in pairs)


@pytest.mark.parametrize("loss_kind", ["xent", "sq"])
def test_reduct_keeping_every_node_shares_the_features(loss_kind):
    # a reduct that merges nothing holds the original's graph and its
    # read-only feature array, not copies, with the losses a copy gives;
    # one that merges holds its own rows
    g = build_graph([(0, 1, 1), (1, 2, 2), (2, 3, 1)], ["a", "b", "a", "c"])
    x = np.eye(3)[[0, 1, 0, 2]]
    train = ({0: "u", 2: "w", 3: "u"} if loss_kind == "xent"
             else {0: [1.0, 2.0], 2: [0.5, -0.0], 3: [-1.5, 3.0]})
    config = chain_config([3, 4, 2])
    problem = LearningProblem(g, x, train, loss_kind, config)
    cp = compress_problem(problem)
    assert cp.graph is g and np.array_equal(cp.node_ids, np.arange(4))
    assert np.shares_memory(cp.features, problem.features)
    assert not cp.features.flags.writeable
    copied = dataclasses.replace(cp, features=np.array(problem.features))
    assert not copied.features.flags.writeable
    fresh = LearningProblem(g, x.copy(), train, loss_kind, config)
    for seed in range(3):
        gnn = sample_gnn(config, seed)
        assert evaluate_compressed_loss(cp, gnn) == evaluate_compressed_loss(copied, gnn)
        assert evaluate_loss(problem, gnn) == evaluate_loss(fresh, gnn)
    report = equivalence_report(problem, cp, n_gnns=3)
    assert report.passed and report.max_loss_discrepancy == 0.0
    # a problem replaced with the caller's array holds it read-only, so
    # its compression shares it too, and the caller's array stays writeable
    replaced = dataclasses.replace(problem, features=x)
    cp = compress_problem(replaced)
    assert cp.features is replaced.features and not cp.features.flags.writeable
    assert np.shares_memory(cp.features, x) and x.flags.writeable

    fig1 = fig1_problem({B1: "y"})
    merged = compress_problem(fig1, depth=1)
    assert len(merged.node_ids) < 6
    assert not np.shares_memory(merged.features, fig1.features)


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


def test_training_set_columns_are_checked_like_a_dict():
    g = build_graph([(0, 1, 1)], ["a", "a", "a"])

    def problem(node, target, weight):
        train = TrainingSet(*(np.array(x, ndmin=1) for x in (node, target, weight)), ("y",))
        return LearningProblem(g, np.ones((3, 1)), train, "xent")

    assert problem(2, 0, 7).train.weight.tolist() == [7]
    for row, message in (((-1, 0, 1), "training node -1 outside \\[0, 3\\)"),
                         ((5, 0, 1), "training node 5 outside \\[0, 3\\)"),
                         ((0, 3, 1), "training target id 3 outside \\[0, 1\\)"),
                         ((0, 0, 0), "training weight 0 outside \\[1, inf\\)"),
                         (([0, 1], 0, 1), "weights: not 1-D integers of length 2"),
                         (([[0]], [[0]], [[1]]), "nodes: not 1-D integers of length 1"),
                         ((0, 0.5, 1), "target ids: not 1-D integers of length 1"),
                         ((1.0, 0, 1), "nodes: not 1-D integers of length 1")):
        with pytest.raises(ValidationError, match=message):
            problem(*row)


def test_evaluate_loss_empty_train_zero():
    p = fig1_problem({})
    loss = evaluate_loss(p, sample_gnn(p.hypothesis, 0))
    assert type(loss) is float and loss == 0.0


def test_squared_loss_zero_on_exact_prediction():
    g = build_graph([(0, 1, 1)], ["a", "b"])
    p = LearningProblem(g, np.ones((2, 2)), {0: np.array([1.0, 1.0])}, "sq",
                        chain_config([2, 2]))
    from gnncompress import Gnn
    gnn = Gnn(p.hypothesis, [np.eye(2)], [np.zeros((2, 2))], [np.zeros(2)])
    assert evaluate_loss(p, gnn) == 0.0


def test_fig1_loss_equality_five_seeds():
    p = fig1_problem({B1: "y", B2: "y"})
    cp = compress_problem(p)
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
    assert report.passed


def test_nonfinite_regression_targets_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="not finite"):
            fig1_problem({B1: np.array([0.3, bad])}, loss_kind="sq")


def test_regression_targets_must_be_nonempty_vectors():
    # a scalar target broadcast (k, 1) outputs against (k,) targets into a
    # (k, k) difference: a wrong loss, without an error
    g = build_graph([(0, 1, 1), (1, 2, 1), (2, 3, 1)], ["a"] * 4)
    x = np.ones((4, 1))
    for train in ({0: 0.5, 2: 1.5, 3: -1.0}, {0: np.float64(0.5)}, {0: [[0.5]]},
                  {0: np.ones((1, 2))}, {0: []}):
        for config in (None, chain_config([1, 1])):
            with pytest.raises(ValidationError, match="must be a non-empty vector"):
                LearningProblem(g, x, train, "sq", config)
    p = LearningProblem(g, x, {0: [0.5], 2: [1.5], 3: [-1.0]}, "sq", chain_config([1, 1]))
    gnn = sample_gnn(p.hypothesis, 0)
    out = forward(g, x, gnn)[:, 0]
    want = sum((out[v] - t) ** 2 for v, t in ((0, 0.5), (2, 1.5), (3, -1.0)))
    assert math.isclose(evaluate_loss(p, gnn), want, rel_tol=1e-12)


def test_problem_leaves_train_dict_unchanged():
    g = build_graph([(0, 1, 1)], ["a", "b"])
    for train, kind in (({0: [0.5]}, "sq"), ({1: "y", 0: "x"}, "xent")):
        given = dict(train)
        p = LearningProblem(g, np.ones((2, 1)), train, kind)
        assert train == given and list(train) == list(given)
        assert all(type(train[v]) is type(given[v]) for v in train)
        assert len(p.train) == len(train)


def test_push_forward_matches_reference():
    # seeded property: the array push-forward's rows, targets read through
    # the palette, equal the dict loop's rows in order
    rng = np.random.default_rng(16)
    signed_zeros = 0
    for trial in range(60):
        kind = ("xent", "sq")[trial % 2]
        n = int(rng.integers(1, 40))
        rep_of_node = rng.integers(0, int(rng.integers(1, n + 1)), n)
        if kind == "xent":
            pool = ["a", "b", "B", "ab", "", "é"]
        else:
            dim = int(rng.integers(1, 4))
            pool = [np.zeros(dim), -np.zeros(dim), np.full(dim, 0.5),
                    rng.normal(size=dim), np.where(rng.random(dim) < 0.5, 0.0, -0.0)]
        picked = rng.permutation(n)[:int(rng.integers(0, n + 1))]
        train = {int(v): pool[int(rng.integers(0, len(pool)))] for v in picked}

        def key(t):
            return t.tobytes() if isinstance(t, np.ndarray) else t

        pushed = push_forward(training_set(train, n, kind), rep_of_node)
        got = [(rep, key(pushed.palette[t]), w) for rep, t, w in
               zip(pushed.nodes.tolist(), pushed.target.tolist(), pushed.weight.tolist())]
        want = [(rep, key(t), w) for rep, pairs in
                reference_push_forward(train, rep_of_node).items() for t, w in pairs]
        assert got == want
        if kind == "sq":
            keys = {key(t) for t in pushed.palette}
            signed_zeros += {np.zeros(dim).tobytes(), (-np.zeros(dim)).tobytes()} <= keys
    assert signed_zeros > 0    # 0.0 and -0.0 met as distinct targets


def test_equivalence_report_fails_on_nan_discrepancy():
    # max(0.0, nan) is 0.0: a NaN loss must not read as a zero discrepancy
    train = {B1: np.array([0.3, -1.0]), B2: np.array([0.3, -1.0])}
    p = fig1_problem(train, loss_kind="sq")
    cp = compress_problem(p)
    assert equivalence_report(p, cp, n_gnns=2, seed=0).passed
    (rep,) = cp.train_weighted
    assert cp.train_weighted[rep][0][1] == 2
    nan = np.array([math.nan, -1.0])
    cp = dataclasses.replace(cp, train=dataclasses.replace(cp.train, palette=nan[None, :]))
    report = equivalence_report(p, cp, n_gnns=2, seed=0)
    assert not report.passed
    assert math.isinf(report.max_loss_discrepancy)
    assert math.isnan(evaluate_compressed_loss(cp, sample_gnn(p.hypothesis, 0)))
    assert_losses_match_per_term_fold(p, train, cp, seed=0, train_h={B1: nan, B2: nan})


def test_equivalence_report_flags_wider_hypothesis():
    p = fig1_problem({B1: "y", B2: "y"}, dims=(2, 3, 2), width=math.inf)
    cp = compress_problem(p, grade=1)
    with pytest.raises(ValueError, match="width inf exceeds compression depth 2 and grade 1"):
        equivalence_report(p, cp, n_gnns=5, seed=0)


def test_equivalence_report_flags_deeper_hypothesis():
    p = fig1_problem({B1: "y", B2: "y"}, dims=(2, 2, 2, 2))
    cp = compress_problem(p, depth=2)
    with pytest.raises(ValueError, match="depth 3 and width inf exceeds compression depth 2"):
        equivalence_report(p, cp, n_gnns=2, seed=0)
    assert equivalence_report(p, compress_problem(p, depth=3), n_gnns=2).passed


def test_width_one_gnns_pass_on_grade_one_compression():
    for agg in ("sum", "mean", "max"):
        p = fig1_problem({B1: "y", B2: "y"}, dims=(2, 3, 2), width=1, agg=agg)
        cp = compress_problem(p, grade=1)
        report = equivalence_report(p, cp, n_gnns=5, seed=3)
        assert report.passed, agg


def test_weight_conservation():
    p = fig1_problem({B1: "y", B2: "z", B3: "y", A1: "y"})
    cp = compress_problem(p)
    assert sum(w for pairs in cp.train_weighted.values() for _, w in pairs) == 4


def test_compress_twice_same_size():
    p = fig1_problem({B1: "y", B2: "y"})
    cp = compress_problem(p, depth=1)
    p2 = LearningProblem(cp.graph, cp.features,
                         {int(k): v[0][0] for k, v in cp.train_weighted.items()},
                         "xent", p.hypothesis)
    cp2 = compress_problem(p2, depth=1)
    assert cp2.graph.node_count == cp.graph.node_count
    assert cp2.graph.simple_edge_count == cp.graph.simple_edge_count


def test_depth_inf_compression():
    p = fig1_problem({B1: "y"}, dims=(2, 2))
    cp = compress_problem(p, depth=math.inf)
    assert cp.rounds == 2  # stable coloring number of the worked example
    assert (cp.graph.node_count, cp.graph.simple_edge_count) == (4, 6)


real_forward, real_sample_gnn = forward, sample_gnn


def reference_losses(problem, train, cp, gnn, train_h=None):
    """Both training losses as per-term folds from 0.0, read from the
    {node: target} dict a test built: its nodes ascending, then the
    representatives of its reference push-forward (of train_h, if given)
    ascending with their pairs in order."""
    vocab = sorted(set(train.values())) if problem.loss_kind == "xent" else []
    out_g = forward(problem.graph, problem.features, gnn)
    out_h = forward(cp.graph, cp.features, gnn)
    loss_g = 0.0
    for v in sorted(train):
        loss_g += pointwise_loss(problem.loss_kind, train[v], out_g[v], vocab)
    loss_h = 0.0
    pushed = reference_push_forward(train if train_h is None else train_h, cp.rep_of_node)
    for rep, pairs in pushed.items():
        for target, weight in pairs:
            loss_h += weight * pointwise_loss(cp.loss_kind, target, out_h[rep], vocab)
    return loss_g, loss_h, out_g, out_h


def assert_losses_match_per_term_fold(problem, train, cp, seed, train_h=None):
    gnns = [sample_gnn(problem.hypothesis, seed + i) for i in range(2)]
    max_loss = max_out = 0.0
    for gnn in gnns:
        loss_g, loss_h, out_g, out_h = reference_losses(problem, train, cp, gnn, train_h)
        a, b = evaluate_loss(problem, gnn), evaluate_compressed_loss(cp, gnn)
        assert type(a) is float and type(b) is float
        assert (a.hex(), b.hex()) == (loss_g.hex(), loss_h.hex())
        d = abs(loss_g - loss_h) / (1.0 + abs(loss_g))
        max_loss = max(max_loss, d) if math.isfinite(d) else math.inf
        for v, rep in enumerate(cp.rep_of_node):
            row = float(np.abs(out_g[v] - out_h[rep]).max() / (1.0 + np.abs(out_g[v]).max()))
            max_out = max(max_out, row) if math.isfinite(row) else math.inf
    report = equivalence_report(problem, cp, n_gnns=len(gnns), seed=seed)
    assert report.max_loss_discrepancy.hex() == max_loss.hex()
    assert report.max_output_discrepancy.hex() == max_out.hex()


def random_problem(seed, loss_kind, dim=3, train_share=0.5):
    """One- or two-colored random multigraph whose training targets come
    from a pool of three, so equivalent training nodes often share one
    and carry weights above 1; returns the problem and its training dict."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    g = random_graph(n, int(rng.integers(n, 3 * n)), n_colors=int(rng.integers(1, 3)),
                     max_mult=2, seed=seed)
    x, _ = one_hot_features(g)
    pool = (["a", "b", "c"] if loss_kind == "xent"
            else [rng.normal(size=dim) for _ in range(3)])
    q = 3 if loss_kind == "xent" else dim
    train = {int(v): pool[int(rng.integers(0, 3))]
             for v in np.flatnonzero(rng.random(n) < train_share)}
    return LearningProblem(g, x, train, loss_kind, chain_config([x.shape[1], 4, q])), train


def test_losses_equal_per_term_fold_bitwise(monkeypatch):
    heavy = 0
    cases = [random_problem(40 + i, "xent") for i in range(10)]
    cases += [random_problem(60 + dim, "sq", dim=dim) for dim in range(1, 21)]
    for i, (problem, train) in enumerate(cases):
        cp = compress_problem(problem)
        heavy += sum(w > 1 for pairs in cp.train_weighted.values() for _, w in pairs)
        assert_losses_match_per_term_fold(problem, train, cp, seed=i)
    assert heavy > 0  # the corpus has weights above 1
    for kind in ("xent", "sq"):
        problem, train = random_problem(90, kind, train_share=0.0)
        assert train == {} and not problem.train
        assert_losses_match_per_term_fold(problem, train, compress_problem(problem), seed=0)

    # xent logits whose row maximum is a +0.0/-0.0 tie, in both orders. The
    # affine layers never return -0.0, so the outputs are mapped row by row:
    # equal rows stay equal, and the orders pin the folded row maxima.
    def tied(g, x, gnn, first=None):
        z = real_forward(g, x, gnn, first=first)
        zero = np.where(z[:, 0] > 0, -0.0, 0.0)
        return np.column_stack([zero, -zero, -1.0 - np.abs(z[:, 2:])])

    monkeypatch.setattr(problem_module, "forward", tied)
    monkeypatch.setitem(globals(), "forward", tied)
    for i in range(4):
        problem, train = random_problem(40 + i, "xent")
        assert_losses_match_per_term_fold(problem, train, compress_problem(problem), seed=i)
    monkeypatch.undo()

    # GNNs whose first output overflows: rows mix finite entries with inf
    # (xent, sq) or NaN (sq), and NaN must win the folded maxima
    def overflowing(config, seed):
        gnn = real_sample_gnn(config, seed)
        for w in (gnn.w_self[-1], gnn.w_agg[-1]):
            w[0] *= 1e308
        return gnn

    monkeypatch.setattr(problem_module, "sample_gnn", overflowing)
    monkeypatch.setitem(globals(), "sample_gnn", overflowing)
    inf = nan = mixed = False
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (problem, train) in enumerate(
                [random_problem(40 + i, "xent") for i in range(4)]
                + [random_problem(61 + i, "sq", dim=1 + i) for i in range(4)]):
            z = real_forward(problem.graph, problem.features, overflowing(problem.hypothesis, i))
            finite = np.isfinite(z)
            inf |= np.isinf(z).any()
            nan |= np.isnan(z).any()
            mixed |= (finite.any(axis=1) & ~finite.all(axis=1)).any()
            assert_losses_match_per_term_fold(problem, train, compress_problem(problem),
                                              seed=i)
    assert inf and nan and mixed


WIDTHS = (1, 2, math.inf)


def count_aggregates(monkeypatch):
    """Count _aggregate calls: the problems' layer-0 fills, and the layers
    forward aggregates itself."""
    calls = {"fill": [], "layer": 0}
    real = gnn_module._aggregate

    def fill(g, x, kind, width, *rest, **kw):
        calls["fill"].append((kind, width))
        return real(g, x, kind, width, *rest, **kw)

    def layer(*args, **kw):
        calls["layer"] += 1
        return real(*args, **kw)

    monkeypatch.setattr(problem_module, "_aggregate", fill)
    monkeypatch.setattr(gnn_module, "_aggregate", layer)
    return calls


def problems_with(seed, kind, agg, width):
    """A random problem under a two-layer hypothesis of the given first-layer
    aggregation and width, and its compression at that depth and width."""
    base, _ = random_problem(seed, kind)
    q = base.hypothesis.output_dim
    config = chain_config([base.features.shape[1], 4, q], width=width, agg=agg)
    problem = LearningProblem(base.graph, base.features, base.train, kind, config)
    return problem, compress_problem(problem)


def plain_loss(owner, gnn):
    """The loss of a forward that aggregates every layer itself."""
    return problem_module._weighted_loss(owner.loss_kind, owner.train,
                                         real_forward(owner.graph, owner.features, gnn))


@pytest.mark.parametrize("agg", ["sum", "mean", "max"])
@pytest.mark.parametrize("width", WIDTHS)
def test_losses_reuse_the_first_layer_aggregate(monkeypatch, agg, width):
    calls = count_aggregates(monkeypatch)
    for seed, kind in ((40, "xent"), (61, "sq")):
        problem, cp = problems_with(seed, kind, agg, width)
        for owner, evaluate in ((problem, evaluate_loss), (cp, evaluate_compressed_loss)):
            calls["fill"].clear()
            for gnn in [sample_gnn(problem.hypothesis, s) for s in range(3)]:
                expected = plain_loss(owner, gnn)
                for _ in range(2):
                    before = calls["layer"]
                    assert evaluate(owner, gnn).hex() == expected.hex()
                    assert calls["layer"] - before == 1     # layer 1 only
            # one fill per problem, however many GNNs of this shape
            assert calls["fill"] == [(agg, width)]


def test_first_layer_aggregates_are_kept_per_kind_and_width(monkeypatch):
    calls = count_aggregates(monkeypatch)
    for seed, kind in ((41, "xent"), (62, "sq")):
        problem, cp = problems_with(seed, kind, "sum", math.inf)
        configs = [chain_config([problem.features.shape[1], 4, problem.hypothesis.output_dim],
                                width=width, agg=agg)
                   for agg in ("sum", "mean", "max") for width in WIDTHS]
        # a problem that does not compress shares the original's aggregates
        shared = cp.graph is problem.graph
        for owner, evaluate in ((problem, evaluate_loss), (cp, evaluate_compressed_loss)):
            calls["fill"].clear()
            for _ in range(2):
                for i, config in enumerate(configs):
                    gnn = sample_gnn(config, i)
                    assert evaluate(owner, gnn).hex() == plain_loss(owner, gnn).hex()
            filled = [] if shared and owner is cp else configs
            assert calls["fill"] == [(c.agg, c.width) for c in filled]


def test_problem_features_are_read_only_views():
    g = build_graph(FIG1_EDGES, FIG1_COLORS)
    x = np.ones((6, 2))
    p = LearningProblem(g, x, {B1: "y"}, "xent", chain_config([2, 2]))
    assert x.flags.writeable and np.shares_memory(p.features, x)
    assert p.features.strides == x.strides
    cp = compress_problem(p)
    for features in (p.features, cp.features):
        with pytest.raises(ValueError, match="read-only"):
            features[0, 0] = 2.0
    x[:] = 1.0      # the caller's array stays writeable


def test_problems_and_training_sets_are_frozen():
    problem, cp = problems_with(43, "xent", "sum", 2)
    for value in (problem, cp, problem.train, cp.train):
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))


def rebuilt(owner):
    """A new problem built by owner's constructor from owner's fields."""
    return type(owner)(**{f.name: getattr(owner, f.name)
                          for f in dataclasses.fields(owner) if f.init})


@pytest.mark.parametrize("agg", ["sum", "mean", "max"])
@pytest.mark.parametrize("width", WIDTHS)
def test_first_layer_aggregate_follows_new_features_and_graphs(monkeypatch, agg, width):
    # a problem changed with dataclasses.replace is a new problem: it fills
    # a fresh layer-0 aggregate, which goes with it, and the original keeps
    # its own entries
    calls = count_aggregates(monkeypatch)
    problem, cp = problems_with(42, "xent", agg, width)
    gnn = sample_gnn(problem.hypothesis, 0)
    rng = np.random.default_rng(7)
    for owner, evaluate in ((problem, evaluate_loss), (cp, evaluate_compressed_loss)):
        n, p = owner.features.shape
        before = evaluate(owner, gnn)
        entries = dict(owner._first)
        other = random_graph(n, 2 * n, n_colors=2, max_mult=2, seed=8)
        for change in ({"features": rng.normal(size=(n, p))}, {"graph": other}):
            replaced = dataclasses.replace(owner, **change)
            assert replaced._first is not owner._first and replaced._first == {}
            calls["fill"].clear()
            losses = [evaluate(replaced, gnn) for _ in range(2)]
            assert calls["fill"] == [(agg, width)]
            expected = evaluate(rebuilt(replaced), gnn)
            assert expected != before
            assert [loss.hex() for loss in losses] == [expected.hex()] * 2
            assert expected.hex() == plain_loss(replaced, gnn).hex()
            gone = weakref.ref(replaced._first[agg, width])
            del replaced
            assert gone() is None
            assert owner._first.keys() == entries.keys()
            assert all(owner._first[key] is value for key, value in entries.items())
            assert evaluate(owner, gnn).hex() == before.hex()


def test_first_layer_aggregates_go_with_their_features():
    # features given read-only, writeable, then read-only again: each
    # replaced problem fills its own entries, one per width, and dropping
    # it frees the features; no entry of the original refers to them
    problem, cp = problems_with(43, "xent", "sum", 2)
    gnns = [sample_gnn(dataclasses.replace(problem.hypothesis, width=width), 0)
            for width in (2, math.inf)]
    rng = np.random.default_rng(11)

    for owner, evaluate in ((problem, evaluate_loss), (cp, evaluate_compressed_loss)):
        for gnn in gnns:
            evaluate(owner, gnn)
        entries = dict(owner._first)
        assert len(entries) == 2
        for writeable in (False, True, False):
            features = rng.normal(size=owner.features.shape)
            features.flags.writeable = writeable
            replaced = dataclasses.replace(owner, features=features)
            assert replaced._first == {}
            for gnn in gnns:
                assert evaluate(replaced, gnn).hex() == plain_loss(replaced, gnn).hex()
            assert replaced._first.keys() == entries.keys()
            gone = weakref.ref(features)
            del replaced, features
            assert gone() is None
            assert owner._first == entries
            assert all(owner._first[k] is v for k, v in entries.items())


def test_a_problem_that_does_not_compress_shares_its_first_layer_aggregate(monkeypatch):
    # every node its own class: the reduct is the graph itself, and both
    # problems' losses read one layer-0 aggregate, filled once; capping a
    # multiplicity at width 1 makes another graph, which aggregates apart
    calls = count_aggregates(monkeypatch)
    g = build_graph([(0, 1, 1), (1, 2, 2), (2, 0, 1)], ["a", "b", "c"])
    x, _ = one_hot_features(g)
    for width, shared in ((math.inf, True), (2, True), (1, False)):
        problem = LearningProblem(g, x, {0: "a", 1: "b"}, "xent",
                                  chain_config([3, 4, 3], width=width))
        cp = compress_problem(problem)
        assert cp.features is problem.features and (cp.graph is g) == shared
        gnn = sample_gnn(problem.hypothesis, 0)
        calls["fill"].clear()
        assert evaluate_loss(problem, gnn) == evaluate_compressed_loss(cp, gnn)
        first = problem_module._first_aggregate
        assert (first(problem, gnn) is first(cp, gnn)) == shared, width
        assert len(calls["fill"]) == (1 if shared else 2), width


def test_equivalence_report_needs_a_sample():
    # every node sent to representative 0, whose color half the nodes lack:
    # two samples see it, and a report of no samples must not pass it
    g = build_graph([(0, 1, 1), (1, 2, 1), (2, 3, 1)], ["a", "a", "b", "b"])
    x, _ = one_hot_features(g)
    p = LearningProblem(g, x, {1: "y", 3: "z"}, "xent", chain_config([2, 2]))
    cp = compress_problem(p)
    cp = dataclasses.replace(cp, rep_of_node=np.zeros(4, dtype=np.int64))
    assert not equivalence_report(p, cp, n_gnns=2).passed
    for n_gnns in (0, -3):
        with pytest.raises(ValueError, match="n_gnns must be >= 1"):
            equivalence_report(p, cp, n_gnns=n_gnns)


def test_learning_problem_checks():
    g = build_graph([(0, 1, 1), (1, 2, 1)], ["a", "b", "b"])
    x = np.ones((3, 2))
    bad = [((np.ones(3), {}, "xent", None), "feature matrix must be"),
           ((np.ones((2, 2)), {}, "xent", None), "feature matrix must be"),
           ((np.full((3, 2), math.nan), {}, "xent", None), "features must be finite"),
           ((x, {}, "hinge", None), "unknown loss kind"),
           ((x, {}, "xent", chain_config([3, 2])), "input dim does not match"),
           ((x, {0: [1.0, 2.0, 3.0]}, "sq", chain_config([2, 2])),
            "regression targets have dimension 3, hypothesis outputs 2"),
           ((x, {0: "u", 1: "v", 2: "w"}, "xent", chain_config([2, 2])),
            "3 labels exceed hypothesis output dim 2")]
    for args, message in bad:
        with pytest.raises(ValidationError, match=message):
            LearningProblem(g, *args)
    for train, kind, message in (({0: [1.0], 1: [1.0, 2.0]}, "sq", "mixed dimension: 1 and 2"),
                                 ({0: 1}, "xent", "must be label tokens")):
        with pytest.raises(ValidationError, match=message):
            training_set(train, 3, kind)


def test_missing_inputs_are_value_errors():
    g = build_graph([(0, 1, 1)], ["a", "b"])
    bare = LearningProblem(g, np.ones((2, 2)), {0: "y"}, "xent")
    with pytest.raises(ValueError, match="pass depth explicitly"):
        compress_problem(bare)
    with pytest.raises(ValueError, match="no hypothesis"):
        equivalence_report(bare, compress_problem(bare, depth=1))
    p = fig1_problem({B1: "y"})
    cp = dataclasses.replace(compress_problem(p), features=None)
    with pytest.raises(ValueError, match="no feature matrix"):
        evaluate_compressed_loss(cp, sample_gnn(p.hypothesis, 0))
