import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnncompress import FormatError, ValidationError, build_graph, graph_size
from gnncompress.graph import ColorTable, ColoredMultigraph
from conftest import A1, A2, A3, B2, random_graph, star_of_stars, transpose


def in_neighbors(g, v):
    lo, hi = g.in_indptr[v], g.in_indptr[v + 1]
    return list(zip(g.in_src[lo:hi].tolist(), g.in_mult[lo:hi].tolist()))


def test_duplicate_edges_merge():
    g = build_graph([(0, 1, 1), (0, 1, 2)], {0: "a", 1: "b"})
    assert in_neighbors(g, 1) == [(0, 3)]
    assert graph_size(g) == (2, 1)


def test_fig1_in_neighbors(fig1):
    assert in_neighbors(fig1, B2) == [(A1, 1), (A3, 1)]
    assert in_neighbors(fig1, A2) == [(A1, 1), (A3, 1)]
    assert graph_size(fig1) == (6, 11)


def test_single_node_no_edges():
    g = build_graph([], {0: "a"})
    assert graph_size(g) == (1, 0)
    assert in_neighbors(g, 0) == []


def test_empty_graph():
    g = build_graph([], [])
    assert graph_size(g) == (0, 0)


def test_isolated_node_empty_multiset():
    g = build_graph([(0, 1, 1)], ["a", "a", "a"])
    assert in_neighbors(g, 2) == []


def test_multiplicity_zero_rejected():
    with pytest.raises(FormatError):
        build_graph([(0, 1, 0)], ["a", "b"])


def test_node_out_of_range_rejected():
    with pytest.raises(ValidationError):
        build_graph([(0, 5, 1)], ["a", "b"])


def test_color_mapping_must_be_dense():
    with pytest.raises(ValidationError):
        build_graph([(0, 1, 1)], {0: "a", 2: "b"})


def test_fig3_multigraph_neighbors():
    g = star_of_stars(3, 4)
    # reduce by hand: the right-hand multigraph has b1 <- c11 with mult 4
    h = build_graph([(2, 1, 3), (1, 0, 4)], ["c11", "b1", "v"])
    assert in_neighbors(h, 0) == [(1, 4)]
    assert graph_size(g) == (16, 15)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_transpose_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    m = int(rng.integers(1, 3 * n + 1))
    g = random_graph(n, m, n_colors=3, max_mult=4, seed=seed)
    t = transpose(g)
    assert transpose(t) == g
    # the in-CSR of g is the out-CSR of its transpose
    for a, b in ((t.out_indptr, g.in_indptr), (t.out_dst, g.in_src), (t.out_mult, g.in_mult)):
        assert np.array_equal(a, b)


def test_multiplicity_overflow_is_hard_error():
    for edges in ([(0, 1, 2**61)] * 2,
                  [(0, 1, 2**62 - 1)] * 5,     # the int64 sum wraps to 2**62 - 5
                  [(0, 1, 2**62)],
                  [(0, 1, 2**63 - 1)] * 3):
        with pytest.raises(ValidationError, match="overflow"):
            build_graph(edges, ["a", "b"])


def test_in_out_multiplicity_totals(fig1):
    for v in range(fig1.node_count):
        lo, hi = fig1.in_indptr[v], fig1.in_indptr[v + 1]
        in_total = int(fig1.in_mult[lo:hi].sum())
        out_total = int(fig1.out_mult[fig1.out_dst == v].sum())
        assert in_total == out_total


def test_large_shuffled_edge_arrays_match_a_dict_build():
    # 40,000 shuffled edge slots over 2,500 nodes, a quarter of them
    # repeated pairs, merged and capped at a finite cap
    rng = np.random.default_rng(7)
    n, cap = 2500, 5
    src = rng.integers(0, n, 30_000)
    dst = rng.integers(0, n, 30_000)
    repeat = rng.integers(0, len(src), 10_000)
    src, dst = np.concatenate([src, src[repeat]]), np.concatenate([dst, dst[repeat]])
    mult = rng.integers(1, 4, len(src))
    shuffle = rng.permutation(len(src))
    src, dst, mult = src[shuffle], dst[shuffle], mult[shuffle]

    merged = {}
    for s, d, m in zip(src.tolist(), dst.tolist(), mult.tolist()):
        merged[s, d] = merged.get((s, d), 0) + m
    assert len(merged) < len(src)
    out_pairs = sorted(merged)
    in_pairs = sorted(merged, key=lambda p: (p[1], p[0]))
    expected = {
        "out_indptr": np.searchsorted([s for s, _ in out_pairs], np.arange(n + 1)),
        "out_dst": [d for _, d in out_pairs],
        "out_mult": [min(merged[p], cap) for p in out_pairs],
        "in_indptr": np.searchsorted([d for _, d in in_pairs], np.arange(n + 1)),
        "in_src": [s for s, _ in in_pairs],
        "in_mult": [min(merged[p], cap) for p in in_pairs],
    }
    table = ColorTable()
    table.intern("x")
    colors = np.zeros(n, dtype=np.int64)
    for order in (slice(None), slice(None, None, -1)):
        g = ColoredMultigraph.from_edge_arrays(n, src[order], dst[order], mult[order],
                                               colors, table, cap=cap)
        for name, want in expected.items():
            got = getattr(g, name)
            assert got.dtype == np.int64 and np.array_equal(got, want), name
        for indptr, entries in ((g.out_indptr, g.out_dst), (g.in_indptr, g.in_src)):
            row = np.repeat(np.arange(n), np.diff(indptr))
            assert (np.diff(row * n + entries) > 0).all()     # ascending within each row
