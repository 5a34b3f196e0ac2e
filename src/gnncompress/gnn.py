"""Deterministic reference evaluator for aggregate-combine GNNs.

Every layer aggregates the feature vectors of a node's in-neighbors
(multiplicity-weighted) and combines the result with the node's own
feature through one affine map plus activation. A finite width c caps
how often the aggregation counts each distinct neighbor *vector* (rows
compared by their bytes): the multiset of vectors is restricted to at
most c copies per value before aggregating, so evaluation is invariant
under that restriction. The capped counts come from the same checked
kernel that refinement uses. This evaluator is the oracle behind all
equivalence checks, so determinism matters more than speed: each node
sums its terms in order of first occurrence, which is ascending neighbor
id, and all arithmetic is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import ColoredMultigraph, _count_runs
from .refine import INF, _check_extent

AGG_KINDS = ("sum", "mean", "max")
ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class LayerConfig:
    in_dim: int
    out_dim: int
    agg: str = "sum"
    activation: str = "relu"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dimensions must be >= 1")
        if self.agg not in AGG_KINDS:
            raise ValueError(f"unknown aggregation {self.agg!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class GnnConfig:
    """Topology of a GNN: layer shapes plus the aggregation width."""

    layers: tuple[LayerConfig, ...]
    width: float = INF

    def __post_init__(self):
        if len(self.layers) == 0:
            raise ValueError("a GNN needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")
        _check_extent(self.width, "width", 1)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


def chain_config(dims: list[int], width=INF, agg: str = "sum") -> GnnConfig:
    """Convenience builder: relu between layers, identity on the last."""
    layers = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        act = "identity" if i == len(dims) - 2 else "relu"
        layers.append(LayerConfig(a, b, agg, act))
    return GnnConfig(tuple(layers), width)


@dataclass
class Gnn:
    """A concrete parameterization: per layer W_self (q x p), W_agg (q x p)
    and bias (q)."""

    config: GnnConfig
    w_self: list[np.ndarray]
    w_agg: list[np.ndarray]
    bias: list[np.ndarray]

    def __post_init__(self):
        L = self.config.depth
        if not (len(self.w_self) == len(self.w_agg) == len(self.bias) == L):
            raise ValueError("parameter count does not match layer count")
        for i, layer in enumerate(self.config.layers):
            q, p = layer.out_dim, layer.in_dim
            if self.w_self[i].shape != (q, p):
                raise ValueError(f"layer {i}: W_self shape {self.w_self[i].shape} != {(q, p)}")
            if self.w_agg[i].shape != (q, p):
                raise ValueError(f"layer {i}: W_agg shape {self.w_agg[i].shape} != {(q, p)}")
            if self.bias[i].shape != (q,):
                raise ValueError(f"layer {i}: bias shape {self.bias[i].shape} != {(q,)}")
            for arr in (self.w_self[i], self.w_agg[i], self.bias[i]):
                if not np.isfinite(arr).all():
                    raise ValueError(f"layer {i}: non-finite parameter")


def _aggregate(g: ColoredMultigraph, x: np.ndarray, kind: str, width) -> np.ndarray:
    n, p = x.shape
    if not len(g.in_src):
        return np.zeros((n, p), dtype=np.float64)
    if kind == "max":
        # max ranges over the support set, so the width cap never matters
        has_in = np.diff(g.in_indptr) > 0
        starts = g.in_indptr[:-1][has_in]
        rows = x[g.in_src]
        top = np.maximum.reduceat(rows, starts, axis=0)
        if np.signbit(x[x == 0]).any():
            # Of equal values a scan over the in-edges keeps the later one,
            # and reduceat's vector loops may not. Only the sign of a zero
            # maximum shows it, so such a maximum is the segment's last zero.
            position = np.where(rows == 0, np.arange(len(rows))[:, None], -1)
            last = np.maximum.reduceat(position, starts, axis=0)
            segment, column = np.nonzero(top == 0)
            top[segment, column] = rows[last[segment, column], column]
        out = np.zeros((n, p), dtype=np.float64)
        out[has_in] = top
        return out
    dst, src, counts = g.in_dst_flat, g.in_src, g.in_mult
    if not math.isinf(width):
        # Finite width: count each distinct neighbor row (by its bytes), capped
        # at c, and keep the first in-edge of each row as the one that adds it.
        rows = np.ascontiguousarray(x).view(np.dtype((np.void, p * x.itemsize))).ravel()
        uniq, row_id = np.unique(rows, return_inverse=True)
        r = len(uniq)
        pairs, counts, first = _count_runs(dst * r + row_id[src], counts, width)
        order = np.argsort(first)
        dst, src, counts = pairs[order] // r, src[first[order]], counts[order]
    # bincount adds out[i] += w[i] in input order, from 0.0, so each node sums
    # its in-edges in ascending order; a column at a time keeps temporaries
    # at one float per edge
    out = np.empty((n, p), dtype=np.float64)
    for j, column in enumerate(x.T):
        out[:, j] = np.bincount(dst, column[src] * counts, minlength=n)
    if kind == "mean":
        # a node without in-edges holds 0.0, which a total of 1 leaves as it is
        out /= np.maximum(np.bincount(dst, counts, minlength=n), 1.0)[:, None]
    return out


def forward(g: ColoredMultigraph, x: np.ndarray, gnn: Gnn) -> np.ndarray:
    """Compose all layers over the graph; returns the final feature matrix.

    Each layer computes activation(W_self·x[v] + W_agg·agg(in-neighbors)
    + bias). Empty in-neighborhoods aggregate to the zero vector for all
    three aggregation kinds.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("input features must be finite")
    if x.shape != (g.node_count, gnn.config.input_dim):
        raise ValueError(f"feature shape {x.shape} != {(g.node_count, gnn.config.input_dim)}")
    for layer, w_self, w_agg, bias in zip(gnn.config.layers, gnn.w_self, gnn.w_agg, gnn.bias):
        agg = _aggregate(g, x, layer.agg, gnn.config.width)
        x = x @ w_self.T + agg @ w_agg.T + bias
        if layer.activation == "relu":
            np.maximum(x, 0.0, out=x)
    return x


def sample_gnn(config: GnnConfig, seed: int) -> Gnn:
    """Draw parameters uniform in [-1, 1] from a PCG64 stream.

    Per layer, in order: W_self, then W_agg, then bias. The same seed
    yields byte-identical parameters on every platform.
    """
    rng = np.random.default_rng(seed)
    w_self, w_agg, bias = [], [], []
    for layer in config.layers:
        q, p = layer.out_dim, layer.in_dim
        w_self.append(rng.uniform(-1.0, 1.0, (q, p)))
        w_agg.append(rng.uniform(-1.0, 1.0, (q, p)))
        bias.append(rng.uniform(-1.0, 1.0, q))
    return Gnn(config, w_self, w_agg, bias)


def one_hot_features(g: ColoredMultigraph, vocab: list | None = None) -> tuple[np.ndarray, list]:
    """One-hot encoding of node colors; the default vocabulary is the
    color payloads in sorted-repr order so it is stable across graphs
    sharing the same color set."""
    if vocab is None:
        vocab = sorted(g.color_table.payloads, key=repr)
    index = {payload: i for i, payload in enumerate(vocab)}
    used, inverse = np.unique(g.colors, return_inverse=True)
    column = np.array([index[g.color_table.payload(int(c))] for c in used], dtype=np.int64)
    x = np.zeros((g.node_count, len(vocab)), dtype=np.float64)
    x[np.arange(g.node_count), column[inverse]] = 1.0
    return x, vocab
