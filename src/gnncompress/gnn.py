"""Deterministic reference evaluator for aggregate-combine GNNs.

Every layer aggregates the feature vectors of a node's in-neighbors
(multiplicity-weighted) and combines the result with the node's own
feature through one affine map. One aggregation kind serves every layer,
and relu follows every layer but the last. A finite width c caps
how often the aggregation counts each distinct neighbor *vector* (rows
compared by their bytes): the multiset of vectors is restricted to at
most c copies per value before aggregating, so evaluation is invariant
under that restriction. The capped counts come from the same checked
kernel that refinement uses. This evaluator is the oracle behind all
equivalence checks, so determinism matters more than speed: each node
folds its terms (a sum, or np.maximum from -inf for max) in order of
first occurrence, which is ascending neighbor id, and all arithmetic is
float64.

At a finite width, rows are grouped by a 64-bit key that chains their
uint64 bit patterns through graph._hash_step, a splitmix64 step; one sort
of the keys groups them. The grouping is exact, not probabilistic: equal
rows always get equal keys, and every row is then compared bit for bit
with the first row of its group. Any mismatch, which takes a hash
collision, makes the layer intern each row's bit patterns as a Python
tuple of ints instead (intern_colors). Rows are compared as bits, so
-0.0 and 0.0 are different rows, as they are as tuples.

forward allocates one block per call for everything its layers write
except the returned output, and reuses it layer after layer. Arrays made
afresh in each layer grew and shrank the heap within every call, and
glibc then handed the top of the heap back to the system and faulted it
in again on the next call: about 1,300 minor page faults per call of the
original road-d3 problem in some benchmark processes and none in others.
One block the size of the whole pass raises glibc's dynamic mmap and trim
thresholds to that size, so the memory stays in the heap between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (INF, ColoredMultigraph, _check_extent, _count_runs, _group_keys,
                    _hash_step, intern_colors)

AGG_KINDS = ("sum", "mean", "max")


@dataclass(frozen=True)
class GnnConfig:
    """Topology of a GNN: dims[0] is the input width, then each layer's
    output width, held as a tuple; one aggregation kind and one width
    serve every layer, and relu follows every layer but the last."""

    dims: tuple[int, ...]
    width: float = INF
    agg: str = "sum"

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if len(self.dims) < 2:
            raise ValueError("a GNN needs at least one layer")
        if min(self.dims) < 1:
            raise ValueError("layer dimensions must be >= 1")
        if self.agg not in AGG_KINDS:
            raise ValueError(f"unknown aggregation {self.agg!r}")
        _check_extent(self.width, "width", 1)

    @property
    def depth(self) -> int:
        return len(self.dims) - 1

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]


def chain_config(dims: list[int], width=INF, agg: str = "sum") -> GnnConfig:
    return GnnConfig(dims, width, agg)


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
        for i, (p, q) in enumerate(zip(self.config.dims, self.config.dims[1:])):
            if self.w_self[i].shape != (q, p):
                raise ValueError(f"layer {i}: W_self shape {self.w_self[i].shape} != {(q, p)}")
            if self.w_agg[i].shape != (q, p):
                raise ValueError(f"layer {i}: W_agg shape {self.w_agg[i].shape} != {(q, p)}")
            if self.bias[i].shape != (q,):
                raise ValueError(f"layer {i}: bias shape {self.bias[i].shape} != {(q,)}")
        params = [*self.w_self, *self.w_agg, *self.bias]     # layer i at i, L + i, 2L + i
        if not np.isfinite(np.concatenate([a.ravel() for a in params])).all():  # one pass
            i = min(j % L for j, a in enumerate(params) if not np.isfinite(a).all())
            raise ValueError(f"layer {i}: non-finite parameter")


def _row_labels(x: np.ndarray) -> np.ndarray:
    """Labels of the rows of the float64 matrix x, equal labels <=> equal
    bits; each label is below len(x).

    A row's key chains its uint64 bit patterns through _hash_step, and one
    sort of the keys groups the rows. Equal rows get equal keys, so only
    rows that share a key can be wrongly grouped: each is compared with the
    first row of its group, bit for bit. On any mismatch each row's bit
    patterns are interned as a tuple of ints instead.
    """
    bits = np.ascontiguousarray(x).view(np.uint64)
    key = np.zeros(len(bits), dtype=np.uint64)
    tmp = np.empty_like(key)
    for column in bits.T:
        _hash_step(key, column, key, tmp)
    labels, lead = _group_keys(key)
    if lead is None or np.array_equal(bits[lead], bits):
        return labels
    return intern_colors(list(map(tuple, bits.tolist())))[0]


def _aggregate(g: ColoredMultigraph, x: np.ndarray, kind: str, width,
               edges=None, out=None) -> np.ndarray:
    """Aggregate the in-neighbor rows of x per node, into ``out`` when it is
    given (a C-ordered n x p array). ``edges`` is (target, source,
    multiplicity as float64, a work buffer of one float per edge) of g's
    in-edges, which forward builds once for all its layers."""
    n, p = x.shape
    if out is None:
        out = np.empty((n, p), dtype=np.float64)
    if edges is None:
        edges = g.in_dst_flat, g.in_src, g.in_mult.astype(np.float64), np.empty(len(g.in_src))
    dst, src, weights, term = edges
    if not math.isinf(width) and kind != "max":
        # Finite width: count each distinct neighbor row (by its bits), capped
        # at c, and keep the first in-edge of each row as the one that adds it.
        # max ranges over the support set, so the cap never matters there.
        _, counts, first = _count_runs(dst * n + _row_labels(x)[src], g.in_mult, width,
                                       return_first=True)
        capped = np.zeros(len(src), dtype=np.float64)
        capped[first] = counts
        keep = np.flatnonzero(capped)       # the first in-edges, ascending
        dst, src, weights, term = dst[keep], src[keep], capped[keep], term[:len(keep)]
    # Each node folds its in-edges in ascending order: bincount adds
    # out[i] += w[i] in input order from 0.0, and maximum.at on a column
    # applies np.maximum(out[i], term[i]) in input order from -inf. A column
    # at a time keeps temporaries at one float per node.
    for j in range(p):
        np.take(x[:, j], src, out=term, mode="clip")
        if kind == "max":
            out[:, j] = -np.inf
            with np.errstate(invalid="ignore"):     # maximum.at warns on a NaN term
                np.maximum.at(out[:, j], dst, term)
        else:
            term *= weights
            out[:, j] = np.bincount(dst, term, minlength=n)
    if kind == "max":
        out[g.in_indptr[:-1] == g.in_indptr[1:]] = 0.0
    elif kind == "mean":
        # a node without in-edges holds 0.0, which a total of 1 leaves as it is
        out /= np.maximum(np.bincount(dst, weights, minlength=n), 1.0)[:, None]
    return out


def forward(g: ColoredMultigraph, x: np.ndarray, gnn: Gnn,
            first: np.ndarray | None = None) -> np.ndarray:
    """Compose all layers over the graph; returns the final feature matrix.

    Each layer computes W_self·x[v] + W_agg·agg(in-neighbors) + bias,
    with the config's one aggregation kind, and relu follows every layer
    but the last. Empty in-neighborhoods aggregate to the zero vector for
    all three aggregation kinds.

    ``first``, when given, is layer 0's aggregate of x,
    ``_aggregate(g, x, agg, width)`` with the config's kind and width,
    and layer 0 uses it instead of aggregating. x takes no
    parameter, so a caller that evaluates many GNNs on one problem can
    compute it once; forward checks only its shape.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("input features must be finite")
    if x.shape != (g.node_count, gnn.config.input_dim):
        raise ValueError(f"feature shape {x.shape} != {(g.node_count, gnn.config.input_dim)}")
    if first is not None:
        first = np.ascontiguousarray(first, dtype=np.float64)
        if first.shape != x.shape:
            raise ValueError(f"first-layer aggregate shape {first.shape} != {x.shape}")
    # Every array the layers write, except the returned output, lives in
    # one block per call (see the module docstring): the float
    # multiplicities and a work buffer, one float per in-edge each, then
    # three slots of n x d floats, d the widest layer.
    n, m = g.node_count, len(g.in_src)
    d = max(gnn.config.dims)
    work = np.empty(2 * m + 3 * n * d)
    weights, term = work[:m], work[m:2 * m]
    np.copyto(weights, g.in_mult)
    edges = g.in_dst_flat, g.in_src, weights, term
    slots = work[2 * m:].reshape(3, n * d)
    dims, last = gnn.config.dims, gnn.config.depth - 1
    for i, (p, q, w_self, w_agg, bias) in enumerate(
            zip(dims, dims[1:], gnn.w_self, gnn.w_agg, gnn.bias)):
        if i == 0 and first is not None:
            agg = first
        else:
            agg = _aggregate(g, x, gnn.config.agg, gnn.config.width, edges,
                             slots[0, :n * p].reshape(n, p))
        # Slot 0 holds agg, unless it is first; the block keeps its size
        # either way, as allocator thresholds depend on it (see the module
        # docstring). The layer's output and its second product take
        # turns in slots 1 and 2, so the product lands where the layer's
        # input was. np.dot gives matmul's bits on C-ordered float64
        # operands and skips its overhead at inner dimension 1; the caller's
        # x may be strided, where the two round differently, so layer 0
        # keeps matmul. agg must stay C-ordered for the same reason.
        out = None if i == last else slots[1 + i % 2, :n * q].reshape(n, q)
        x = (np.matmul if i == 0 else np.dot)(x, w_self.T, out=out)
        x += np.dot(agg, w_agg.T, out=slots[2 - i % 2, :n * q].reshape(n, q))
        x += bias
        if i < last:
            np.maximum(x, 0.0, out=x)
    return x


def sample_gnn(config: GnnConfig, seed: int) -> Gnn:
    """Draw parameters uniform in [-1, 1] from a PCG64 stream.

    Per layer, in order: W_self, then W_agg, then bias. The same seed
    yields byte-identical parameters on every platform.
    """
    q_p = list(zip(config.dims[1:], config.dims))
    # one draw of all parameters gives the values of one draw per array
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, sum(q * (2 * p + 1) for q, p in q_p))
    w_self, w_agg, bias = [], [], []
    at = 0
    for q, p in q_p:
        w_self.append(draws[at:at + q * p].reshape(q, p))
        w_agg.append(draws[at + q * p:at + 2 * q * p].reshape(q, p))
        bias.append(draws[at + 2 * q * p:at + q * (2 * p + 1)])
        at += q * (2 * p + 1)
    return Gnn(config, w_self, w_agg, bias)


def one_hot_features(g: ColoredMultigraph) -> tuple[np.ndarray, list]:
    """One-hot encoding of node colors; the vocabulary is the color
    payloads in sorted-repr order so it is stable across graphs sharing
    the same color set."""
    vocab = sorted(g.palette, key=repr)
    index = {payload: i for i, payload in enumerate(vocab)}
    used, inverse = np.unique(g.colors, return_inverse=True)
    column = np.array([index[g.palette[c]] for c in used.tolist()], dtype=np.int64)
    x = np.zeros((g.node_count, len(vocab)), dtype=np.float64)
    x[np.arange(g.node_count), column[inverse]] = 1.0
    return x, vocab
