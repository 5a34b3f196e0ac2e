import importlib
import math
import re

import numpy as np
import pytest

from gnncompress import (Gnn, GnnConfig, build_graph,
                         choose_substitution, forward, naive_partition,
                         one_hot_features, reduce_graph, refine, sample_gnn)
from gnncompress.gnn import _aggregate
from gnncompress.graph import ColoredMultigraph
from conftest import class_members, random_graph

gnn_module = importlib.import_module("gnncompress.gnn")
graph_module = importlib.import_module("gnncompress.graph")


def identity_gnn(p):
    cfg = GnnConfig([p, p])
    return Gnn(cfg, [np.eye(p)], [np.zeros((p, p))], [np.zeros(p)])


def agg_only_gnn(p, agg="sum", width=math.inf):
    cfg = GnnConfig([p, p], width, agg)
    return Gnn(cfg, [np.zeros((p, p))], [np.eye(p)], [np.zeros(p)])


def test_identity_layer_passthrough():
    g = random_graph(12, 30, n_colors=2, max_mult=3, seed=5)
    x = np.random.default_rng(0).normal(size=(12, 4))
    out = forward(g, x, identity_gnn(4))
    assert np.array_equal(out, x)


def test_sum_agg_multiplicity_weighted():
    g = build_graph([(0, 1, 4)], ["c", "b"])
    x = np.array([[2.0, -1.0], [0.5, 0.5]])
    out = forward(g, x, agg_only_gnn(2))
    assert np.allclose(out[1], 4 * x[0])
    assert np.allclose(out[0], 0.0)  # empty in-neighborhood -> zero vector


def test_star_reduct_matches_uncompressed_star():
    # one hub with 4 distinct leaf nodes == reduct edge of multiplicity 4
    star = build_graph([(i, 4, 1) for i in range(4)], ["c"] * 4 + ["b"])
    compact = build_graph([(0, 1, 4)], ["c", "b"])
    xs, _ = one_hot_features(star)
    xc, _ = one_hot_features(compact)
    gnn = agg_only_gnn(2)
    assert np.allclose(forward(star, xs, gnn)[4], forward(compact, xc, gnn)[1])


def test_width_one_counts_value_once():
    g = build_graph([(0, 1, 5)], ["c", "b"])
    x = np.array([[3.0], [1.0]])
    out = forward(g, x, agg_only_gnn(1, "sum", width=1))
    assert np.allclose(out[1], [3.0])  # {{w:5}} aggregated as its support


def test_width_semantics_on_capped_multigraph():
    # graphs differing only above the cap look identical to a width-2 GNN
    g_hi = build_graph([(0, 1, 9)], ["c", "b"])
    g_lo = build_graph([(0, 1, 2)], ["c", "b"])
    x = np.array([[1.0, 2.0], [0.0, 0.0]])
    for agg in ("sum", "mean", "max"):
        gnn = agg_only_gnn(2, agg, width=2)
        assert np.allclose(forward(g_hi, x, gnn), forward(g_lo, x, gnn)), agg


def test_mean_max_sum_coincide_on_single_unit_neighbor():
    g = build_graph([(0, 1, 1)], ["c", "b"])
    x = np.array([[0.7, -0.2], [9.0, 9.0]])
    outs = [forward(g, x, agg_only_gnn(2, agg))[1] for agg in ("sum", "mean", "max")]
    assert np.allclose(outs[0], outs[1]) and np.allclose(outs[1], outs[2])


def test_mean_is_capped_total_normalized():
    g = build_graph([(0, 2, 3), (1, 2, 1)], ["c", "c", "b"])
    x = np.array([[2.0], [6.0], [0.0]])
    out = forward(g, x, agg_only_gnn(1, "mean"))
    assert np.allclose(out[2], (3 * 2.0 + 6.0) / 4)
    out1 = forward(g, x, agg_only_gnn(1, "mean", width=1))
    assert np.allclose(out1[2], (2.0 + 6.0) / 2)


def test_equivariance_under_relabeling():
    g = build_graph([(0, 1, 2), (1, 2, 1), (2, 0, 1)], ["a", "b", "a"])
    perm = [2, 0, 1]  # new id of old node i
    g2 = build_graph([(2, 0, 2), (0, 1, 1), (1, 2, 1)], ["b", "a", "a"])
    x = np.random.default_rng(1).normal(size=(3, 2))
    x2 = np.empty_like(x)
    for old, new in enumerate(perm):
        x2[new] = x[old]
    gnn = sample_gnn(GnnConfig([2, 3, 2]), seed=11)
    out, out2 = forward(g, x, gnn), forward(g2, x2, gnn)
    for old, new in enumerate(perm):
        assert np.allclose(out[old], out2[new])


def test_zero_layer_config_rejected():
    with pytest.raises(ValueError):
        GnnConfig(())


def test_a_config_is_its_dims_one_aggregation_and_a_width():
    config = GnnConfig([3, 5, 2], 2, "mean")
    assert (config.dims, config.width, config.agg) == ((3, 5, 2), 2, "mean")
    assert (config.depth, config.input_dim, config.output_dim) == (2, 3, 2)
    with pytest.raises(ValueError, match="at least one layer"):
        GnnConfig([3])


def test_config_dims_are_a_tuple():
    config = GnnConfig([3, 2])
    assert config.dims == (3, 2)
    assert config == GnnConfig((3, 2)) and hash(config) == hash(GnnConfig((3, 2)))
    with pytest.raises(AttributeError):
        config.dims.append(0)


def test_config_dims_are_integers():
    for dims in ((3, 2.5), (3, 2.0), (3, True), (3, "2")):
        with pytest.raises(ValueError, match="must be integers"):
            GnnConfig(dims)
    config = GnnConfig((np.int64(3), 2))
    assert config == GnnConfig((3, 2)) and hash(config) == hash(GnnConfig((3, 2)))
    assert [type(d) for d in config.dims] == [int, int]


def test_layer_and_input_checks():
    for dims, agg, message in (([0, 2], "sum", "dimensions must be >= 1"),
                               ([2, 0], "sum", "dimensions must be >= 1"),
                               ([2, 3, 0, 2], "sum", "dimensions must be >= 1"),
                               ([2, 2], "min", "unknown aggregation")):
        with pytest.raises(ValueError, match=message):
            GnnConfig(dims, agg=agg)
    g = build_graph([(0, 1, 1)], ["a", "b"])
    with pytest.raises(ValueError, match="input features must be finite"):
        forward(g, np.array([[0.0], [math.inf]]), identity_gnn(1))


def test_sample_gnn_deterministic():
    cfg = GnnConfig([4, 16, 16, 3])
    a, b = sample_gnn(cfg, 0), sample_gnn(cfg, 0)
    for wa, wb in zip(a.w_self, b.w_self):
        assert np.array_equal(wa, wb)
    c = sample_gnn(cfg, 1)
    assert not np.array_equal(a.w_self[0], c.w_self[0])
    assert [w.shape for w in a.w_self] == [(16, 4), (16, 16), (3, 16)]


def test_one_hot_matches_per_node_loop():
    g = random_graph(30, 60, n_colors=5, max_mult=2, seed=4)
    # the same graph over a palette that also holds a color no node has
    palette = ("unused", *g.palette)
    ids = g.colors + 1
    h = ColoredMultigraph.from_edge_arrays(g.node_count, g.out_src_flat, g.out_dst,
                                           g.out_mult, ids, palette)
    for graph in (g, h):
        x, vocab = one_hot_features(graph)
        want = np.zeros((graph.node_count, len(vocab)))
        for v in range(graph.node_count):
            want[v, vocab.index(graph.color_payload(v))] = 1.0
        assert np.array_equal(x, want)


def test_outputs_match_on_equal_naive_colors():
    # depth-d GNN output agrees across nodes with equal depth-d terms
    rng = np.random.default_rng(8)
    for trial in range(10):
        g = random_graph(20, 50, n_colors=2, max_mult=2, seed=100 + trial)
        x, _ = one_hot_features(g)
        d = int(rng.integers(1, 4))
        gnn = sample_gnn(GnnConfig([x.shape[1]] * (d + 1)), seed=trial)
        out = forward(g, x, gnn)
        for group in class_members(naive_partition(g, d)):
            assert np.allclose(out[group], out[group[0]], atol=1e-9)


def test_graded_outputs_match_on_equal_graded_colors():
    rng = np.random.default_rng(9)
    for trial in range(10):
        g = random_graph(16, 60, n_colors=2, max_mult=3, seed=300 + trial)
        x, _ = one_hot_features(g)
        d = int(rng.integers(1, 3))
        c = int(rng.integers(1, 3))
        gnn = sample_gnn(GnnConfig([x.shape[1]] * (d + 1), width=c), seed=trial)
        out = forward(g, x, gnn)
        for group in class_members(naive_partition(g, d, grade=c)):
            assert np.allclose(out[group], out[group[0]], atol=1e-9)


def test_reduct_outputs_match_per_node():
    for trial in range(10):
        g = random_graph(24, 80, n_colors=2, max_mult=2, seed=500 + trial)
        d = 1 + trial % 3
        part = refine(g, depth=d).at(d)
        red = reduce_graph(g, choose_substitution(g, part))
        x, _ = one_hot_features(g)
        xr = x[red.node_ids]
        gnn = sample_gnn(GnnConfig([x.shape[1]] * (d + 1)), seed=trial)
        out_g = forward(g, x, gnn)
        out_h = forward(red.graph, xr, gnn)
        diff = np.abs(out_g - out_h[red.rep_index_of_node]).max(axis=1)
        scale = 1.0 + np.abs(out_g).max(axis=1)
        assert (diff <= 1e-6 * scale).all()


def reference_aggregate(g, x, kind, width):
    """Per-node aggregation straight from the definition, in ascending
    neighbour order: count each distinct neighbour row (by its bytes),
    cap the count at the width, add the capped rows in order of first
    occurrence. The oracle the vectorized evaluator must match bit for bit."""
    n, p = x.shape
    out = np.zeros((n, p), dtype=np.float64)
    for v in range(n):
        lo, hi = g.in_indptr[v], g.in_indptr[v + 1]
        if lo == hi:
            continue
        if kind == "max":
            acc = np.full(p, -np.inf)
            for w in g.in_src[lo:hi]:
                acc = np.maximum(acc, x[w])
            out[v] = acc
            continue
        counts: dict[bytes, int] = {}
        vecs: dict[bytes, np.ndarray] = {}
        for w, m in zip(g.in_src[lo:hi], g.in_mult[lo:hi]):
            key = x[w].tobytes()
            if key in counts:
                counts[key] += int(m)
            else:
                counts[key] = int(m)
                vecs[key] = x[w]
        acc = np.zeros(p, dtype=np.float64)
        total = 0
        for key, cnt in counts.items():
            capped = min(cnt, int(width))
            acc += capped * vecs[key]
            total += capped
        if kind == "mean":
            acc /= total
        out[v] = acc
    return out


def per_edge_aggregate(g, x, kind):
    """Width-inf aggregation straight from the definition: each node adds
    mult * x[w] over its in-edges in ascending order, from 0.0, one edge
    at a time; mean divides by the total multiplicity."""
    if kind == "max":
        return reference_aggregate(g, x, "max", math.inf)
    n, p = x.shape
    out = np.zeros((n, p), dtype=np.float64)
    for v in range(n):
        lo, hi = g.in_indptr[v], g.in_indptr[v + 1]
        if lo == hi:
            continue
        acc = np.zeros(p, dtype=np.float64)
        total = 0
        for w, m in zip(g.in_src[lo:hi], g.in_mult[lo:hi]):
            acc += m * x[w]
            total += int(m)
        if kind == "mean":
            acc /= total
        out[v] = acc
    return out


def reference_forward(g, x, gnn):
    width = gnn.config.width
    for i in range(gnn.config.depth):
        if math.isinf(width):
            agg = per_edge_aggregate(g, x, gnn.config.agg)
        else:
            agg = reference_aggregate(g, x, gnn.config.agg, width)
        x = x @ gnn.w_self[i].T + agg @ gnn.w_agg[i].T + gnn.bias[i]
        if i < gnn.config.depth - 1:
            x = np.maximum(x, 0.0)
    return x


def verify_shaped_cases(agg, width):
    """(graph, x, gnn) at the shapes verify and the epochs use: a 60-layer
    chain of width 1, one-hot inputs, one output column (one label),
    hidden features that relu zeroes, F-ordered, column-sliced and
    column-strided inputs, and a graph without edges. Rows repeat per colour, so a finite width
    changes the sums."""
    rng = np.random.default_rng(1300)
    path = build_graph([(v, v + 1, 1) for v in range(29)], ["c"] * 30)
    g = random_graph(30, 60, n_colors=3, max_mult=4, seed=1300)
    chain = sample_gnn(GnnConfig([1] * 60 + [4], width=width, agg=agg), seed=1)
    yield path, one_hot_features(path)[0], chain
    yield g, rng.normal(size=(3, 1))[g.colors], chain
    one_hot = one_hot_features(g)[0]
    gnn = sample_gnn(GnnConfig([3, 5, 3], width=width, agg=agg), seed=2)
    yield g, one_hot, gnn
    yield g, one_hot, sample_gnn(GnnConfig([3, 5, 1], width=width, agg=agg), seed=3)
    # a bias lowered by 1 makes relu zero most hidden features
    shifted = Gnn(gnn.config, gnn.w_self, gnn.w_agg, [gnn.bias[0] - 1.0, gnn.bias[1]])
    first = Gnn(GnnConfig(gnn.config.dims[:2], width, agg), gnn.w_self[:1], gnn.w_agg[:1],
                shifted.bias[:1])
    hidden = np.maximum(forward(g, one_hot, first), 0.0)    # relu, as the first of a chain
    assert 0 < (hidden == 0).sum() < hidden.size
    yield g, one_hot, shifted
    wide = rng.normal(size=(3, 5))[g.colors]
    yield g, np.asfortranarray(wide[:, :3]), gnn
    yield g, wide[:, 1:4], gnn
    # every other column against one output column: matmul's loop for a
    # non-unit inner stride and BLAS round this product differently
    yield g, wide[:, ::2], sample_gnn(GnnConfig([3, 1, 2], width=width, agg=agg), seed=4)
    yield build_graph([], ["a", "b", "a"]), rng.normal(size=(3, 3)), gnn


@pytest.mark.parametrize("agg", ["sum", "mean", "max"])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_finite_width_forward_matches_reference_bitwise(agg, width):
    sources_seen = 0
    for trial in range(12):
        rng = np.random.default_rng(700 + trial)
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 3 * n))
        g = random_graph(n, m, n_colors=3, max_mult=5, seed=700 + trial)
        sources_seen += int((np.diff(g.in_indptr) == 0).sum())
        # rows repeat per colour, so the width cap changes the sums
        x = rng.normal(size=(3, 4))[[int(g.color_payload(v)) for v in range(n)]]
        gnn = sample_gnn(GnnConfig([4, 5, 3], width=width, agg=agg), seed=trial)
        assert forward(g, x, gnn).tobytes() == reference_forward(g, x, gnn).tobytes()
    assert sources_seen > 0  # the corpus has nodes with no in-edges
    for g, x, gnn in verify_shaped_cases(agg, width):
        assert forward(g, x, gnn).tobytes() == reference_forward(g, x, gnn).tobytes()


@pytest.mark.parametrize("agg", ["sum", "mean", "max"])
def test_forward_width_inf_matches_per_edge_reference_bitwise(agg):
    multi = 0
    for trial in range(12):
        rng = np.random.default_rng(900 + trial)
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 4 * n))
        g = random_graph(n, m, n_colors=3, max_mult=5, seed=900 + trial)
        multi += int((g.in_mult > 1).sum())
        x = rng.normal(size=(n, 4))
        gnn = sample_gnn(GnnConfig([4, 5, 3], agg=agg), seed=trial)
        assert forward(g, x, gnn).tobytes() == reference_forward(g, x, gnn).tobytes()
    assert multi > 0  # the corpus has edges of multiplicity above 1
    for g, x, gnn in verify_shaped_cases(agg, math.inf):
        assert forward(g, x, gnn).tobytes() == reference_forward(g, x, gnn).tobytes()


@pytest.mark.parametrize("width", [1, 2, math.inf])
def test_max_aggregation_matches_scatter_form_bitwise(width):
    # Features of -1.0, -0.0 and 0.0 make most maxima signed zeros: -0.0 and
    # 0.0 compare equal, so which of them a fold keeps shows in the sign
    # bit. In-degrees past 16 keep long runs of such ties in the corpus,
    # where a fold that visits the edges out of order keeps another one.
    seen = {"no in-edges": 0, "-0.0": 0, "0.0": 0, "long": 0, "-nan": 0}
    for trial in range(20):
        rng = np.random.default_rng(1100 + trial)
        n = int(rng.integers(10, 40))
        g = random_graph(n, int(rng.integers(n // 2, 30 * n)), max_mult=2, seed=1100 + trial)
        x = rng.choice([-1.0, -0.0, 0.0], size=(n, 3))
        scatter = np.full((n, 3), -np.inf)
        np.maximum.at(scatter, g.in_dst_flat, x[g.in_src])
        has_in = np.diff(g.in_indptr) > 0
        scatter[~has_in] = 0.0
        out = _aggregate(g, x, "max", width)
        assert out.tobytes() == scatter.tobytes()
        zero = out[has_in] == 0
        seen["no in-edges"] += int((~has_in).sum())
        seen["-0.0"] += int((zero & np.signbit(out[has_in])).sum())
        seen["0.0"] += int((zero & ~np.signbit(out[has_in])).sum())
        seen["long"] += int((np.diff(g.in_indptr) > 16).sum())
        # NaNs of both signs against ±inf: np.maximum propagates a NaN, so
        # which NaN a node keeps, and its sign, depend on the fold's order
        nonfinite = rng.choice([np.inf, -np.inf, np.nan, -np.nan], size=(n, 3))
        out = _aggregate(g, nonfinite, "max", width)
        assert out.tobytes() == reference_aggregate(g, nonfinite, "max", width).tobytes()
        seen["-nan"] += int((np.isnan(out) & np.signbit(out)).sum())
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("agg", ["sum", "mean", "max"])
@pytest.mark.parametrize("width", [1, 2, math.inf])
def test_aggregate_into_out_matches_fresh_array(agg, width):
    rng = np.random.default_rng(1500)
    for g in (random_graph(25, 70, n_colors=3, max_mult=4, seed=1500),
              build_graph([], ["a", "b", "a"])):
        x = rng.choice([-0.0, 0.0, 1.0, -2.5], size=(g.node_count, 3))
        out = np.full((g.node_count, 3), np.nan)
        assert _aggregate(g, x, agg, width, out=out) is out
        assert out.tobytes() == _aggregate(g, x, agg, width).tobytes()


@pytest.mark.parametrize("agg", ["sum", "mean", "max"])
@pytest.mark.parametrize("width", [1, 2, math.inf])
def test_forward_with_first_layer_aggregate_matches_bitwise(agg, width):
    rng = np.random.default_rng(1550)
    g = random_graph(25, 70, n_colors=3, max_mult=4, seed=1550)
    x = rng.choice([-0.0, 0.0, 1.0, -2.5], size=(g.node_count, 3))
    for dims in ([3, 2], [3, 4, 2]):
        gnn = sample_gnn(GnnConfig(dims, width=width, agg=agg), seed=len(dims))
        first = _aggregate(g, x, agg, width)
        assert forward(g, x, gnn, first=first).tobytes() == forward(g, x, gnn).tobytes()
        # a strided first is read as its values
        strided = np.asfortranarray(first)
        assert forward(g, x, gnn, first=strided).tobytes() == forward(g, x, gnn).tobytes()
    with pytest.raises(ValueError, match="first-layer aggregate shape"):
        forward(g, x, gnn, first=first[:, :2])


@pytest.mark.parametrize("dims", [[3, 2], [3, 8, 1], [3, 1, 16, 4]])
def test_forward_output_owns_its_memory(dims):
    # forward's per-call block must not stay alive through the output
    g = random_graph(20, 50, n_colors=3, max_mult=3, seed=1600)
    x, _ = one_hot_features(g)
    out = forward(g, x, sample_gnn(GnnConfig(dims), seed=0))
    assert out.base is None and out.flags.c_contiguous and out.shape == (20, dims[-1])


def test_feature_shape_mismatch_rejected():
    g = build_graph([(0, 1, 1)], ["a", "b"])
    gnn = identity_gnn(3)
    with pytest.raises(ValueError):
        forward(g, np.zeros((2, 2)), gnn)


SPREAD, _, LAST_MULTIPLIER = graph_module._HASH_MULTIPLIERS
# "all": every row key is equal. "some": a first finalizer multiplier of
# 2**32 keeps only the low 32 bits of (k ^ k >> 30), so 0.0, -0.0 and 2.0
# collide, and rows that differ only in such values collide too, while
# random values keep distinct keys.
ROW_COLLISIONS = {"all": (np.uint64(0),) * 3,
                  "some": (SPREAD, np.uint64(1 << 32), LAST_MULTIPLIER)}


@pytest.fixture
def row_grouping(monkeypatch):
    """Records the number of distinct row keys of each hashed grouping and
    the row count of each intern_colors call: in an aggregation, only the
    exact fallback of the row grouping makes those."""
    seen = {"keys": [], "fallbacks": []}
    group_keys, intern = gnn_module._group_keys, gnn_module.intern_colors

    def recording_group_keys(key):
        labels, lead = group_keys(key)
        seen["keys"].append(int(labels.max()) + 1)
        return labels, lead

    def counting_intern(values):
        seen["fallbacks"].append(len(values))
        return intern(values)

    monkeypatch.setattr(gnn_module, "_group_keys", recording_group_keys)
    monkeypatch.setattr(gnn_module, "intern_colors", counting_intern)
    return seen


@pytest.mark.parametrize("collide", sorted(ROW_COLLISIONS))
@pytest.mark.parametrize("agg", ["sum", "mean"])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_row_grouping_falls_back_to_exact_on_collisions(width, agg, collide, monkeypatch,
                                                        row_grouping):
    # Palette rows 0 and 1 (and, at p = 3, rows 2 and 3) differ only in a
    # -0.0 against a 0.0, so a grouping that trusted its colliding keys
    # would merge them.
    rng = np.random.default_rng(1400 + width)
    cases = []
    for p in (1, 3):
        palette = np.zeros((6, p))
        palette[0, 1:] = palette[1, 1:] = rng.normal(size=p - 1)
        palette[1, 0] = -0.0
        palette[2:4, 0] = 2.0
        palette[3, 1:] = -0.0
        palette[4:] = rng.normal(size=(2, p))
        g = random_graph(30, 150, n_colors=6, max_mult=3, seed=1400 + p)
        cases.append((g, palette[g.colors]))
    unpatched = [_aggregate(g, x, agg, width) for g, x in cases]
    assert not row_grouping["fallbacks"]
    monkeypatch.setattr(graph_module, "_HASH_MULTIPLIERS", ROW_COLLISIONS[collide])
    row_grouping["keys"].clear()
    patched = [_aggregate(g, x, agg, width) for g, x in cases]
    assert row_grouping["fallbacks"] == [30, 30]
    if collide == "all":
        assert row_grouping["keys"] == [1, 1]
    else:
        assert min(row_grouping["keys"]) > 1
    for (g, x), got, plain in zip(cases, patched, unpatched):
        want = reference_aggregate(g, x, agg, width)
        assert got.tobytes() == plain.tobytes() == want.tobytes()


def per_array_draws(config, seed):
    """sample_gnn's parameters drawn one array at a time, W_self, W_agg and
    bias per layer: the reference for its single draw."""
    rng = np.random.default_rng(seed)
    arrays = []
    for p, q in zip(config.dims, config.dims[1:]):
        arrays += [rng.uniform(-1.0, 1.0, (q, p)), rng.uniform(-1.0, 1.0, (q, p)),
                   rng.uniform(-1.0, 1.0, q)]
    return arrays


@pytest.mark.parametrize("dims", [[4, 16, 16, 3], [16, 16, 4], [1] * 400 + [4]],
                         ids=["4-16-16-3", "16-16-4", "1x400-4"])
def test_sample_gnn_matches_per_array_draws(dims):
    config = GnnConfig(dims)
    for seed in (0, 7):
        gnn = sample_gnn(config, seed)
        got = [a for layer in zip(gnn.w_self, gnn.w_agg, gnn.bias) for a in layer]
        want = per_array_draws(config, seed)
        assert [a.shape for a in got] == [a.shape for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def gnn_arrays(gnn):
    return {name: [a.copy() for a in getattr(gnn, name)] for name in ("w_self", "w_agg", "bias")}


@pytest.mark.parametrize("part", ["w_self", "w_agg", "bias"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gnn_rejects_non_finite_parameters(part, bad):
    gnn = sample_gnn(GnnConfig([2, 3, 2]), 0)
    arrays = gnn_arrays(gnn)
    arrays[part][1].flat[-1] = bad
    with pytest.raises(ValueError, match="layer 1: non-finite parameter"):
        Gnn(gnn.config, **arrays)


def test_gnn_rejects_wrong_shapes_and_parameter_counts():
    gnn = sample_gnn(GnnConfig([2, 3, 2]), 0)
    for part, shape in (("w_self", (3, 3)), ("w_agg", (2, 3)), ("bias", (3, 1))):
        arrays = gnn_arrays(gnn)
        arrays[part][0] = np.zeros(shape)
        with pytest.raises(ValueError, match=f"layer 0: .* shape {re.escape(str(shape))}"):
            Gnn(gnn.config, **arrays)
    for part in ("w_self", "w_agg", "bias"):
        for count in (1, 3):
            arrays = gnn_arrays(gnn)
            arrays[part] = (arrays[part] * 2)[:count]
            with pytest.raises(ValueError, match="parameter count"):
                Gnn(gnn.config, **arrays)
