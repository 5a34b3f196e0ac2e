"""Colored directed multigraphs with integer edge multiplicities.

Nodes are dense integers in [0, n). Each node carries a color taken from
an interning table (equal payloads <=> equal color ids). Adjacency is
stored in both directions as CSR-style arrays so that in-neighborhoods
(needed by refinement) and out-edges (needed by reduction) are both O(1)
to slice. Graphs are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import FormatError, ValidationError

# Largest multiplicity we accept; sums beyond this raise instead of wrapping.
_MULT_LIMIT = 2**62
_OVERFLOW_MESSAGE = "multiplicity overflow: a summed count reaches 2**62"


def _count_runs(keys: np.ndarray, weights: np.ndarray, cap=math.inf, scratch=None,
                return_first=False):
    """Sum the positive int64 weights of equal int64 keys, capped at ``cap``.

    Returns the distinct keys ascending and the sum of each key's weights;
    with ``return_first``, also the input position of each key's first
    occurrence. A finite cap saturates the sums at the cap; a sum that
    stays at or past _MULT_LIMIT raises ValidationError instead of
    wrapping. This is the one "sort by key, sum each run, cap at the
    grade" of the package: edge merging, refinement signatures, reduct
    multiplicities and finite-width aggregation all count through it.

    ``scratch``, an int64 array of shape (2, >= len(keys)), receives the
    sorted keys and weights, so that a caller counting round after round
    reuses them instead of having the allocator map them afresh each
    time. The keys may be held in scratch[1]: they are read before the
    weights are written. The returned arrays never share its memory.

    The sort stays stable (timsort): the keys of refinement and
    aggregation arrive grouped by row, with each row's keys ascending or
    nearly so, and on such runs timsort is about twice as fast as the
    default vectorized sort. Callers with shuffled keys sort them first.
    """
    order = np.argsort(keys, kind="stable")
    if scratch is None:
        sorted_keys, w = keys[order], weights[order]
    else:
        # mode="clip" writes straight into out; order is always in range
        sorted_keys = np.take(keys, order, out=scratch[0, :len(keys)], mode="clip")
        w = np.take(weights, order, out=scratch[1, :len(keys)], mode="clip")
    new_run = np.ones(len(keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    sums = np.add.reduceat(w, starts)
    if len(w) and int(w.max()) * len(w) >= _MULT_LIMIT:
        # int64 sums may have wrapped. A float64 sum is off by far less
        # than a third, so below 1.5 * 2**62 the int64 sum is exact and
        # above it the true sum is past the limit.
        approx = np.add.reduceat(w.astype(np.float64), starts)
        sums[approx >= 1.5 * _MULT_LIMIT] = _MULT_LIMIT
    if not math.isinf(cap):
        np.minimum(sums, min(int(cap), _MULT_LIMIT), out=sums)
    if len(sums) and sums.max() >= _MULT_LIMIT:
        raise ValidationError(_OVERFLOW_MESSAGE)
    if return_first:
        return sorted_keys[starts], sums, order[starts]
    return sorted_keys[starts], sums


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending, by a sort and an adjacent
    comparison (np.unique(x) without return_* takes a slower hash set)."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _row_of_entry(indptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a CSR structure with these row offsets."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


class ColorTable:
    """Bidirectional payload <-> dense color id map (injective per run)."""

    def __init__(self):
        self._id_of = {}
        self._payloads = []

    def intern(self, payload) -> int:
        cid = self._id_of.get(payload)
        if cid is None:
            cid = len(self._payloads)
            self._id_of[payload] = cid
            self._payloads.append(payload)
        return cid

    def intern_all(self, payloads: list) -> np.ndarray:
        """Intern each payload in turn; returns their color ids (int64)."""
        for p in dict.fromkeys(payloads):
            self.intern(p)
        return np.fromiter(map(self._id_of.__getitem__, payloads), dtype=np.int64,
                           count=len(payloads))

    def payload(self, cid: int):
        return self._payloads[cid]

    @property
    def payloads(self) -> list:
        return list(self._payloads)

    def __len__(self) -> int:
        return len(self._payloads)


class ColoredMultigraph:
    """Directed node-colored multigraph.

    Stored as two sorted CSR adjacency structures which encode the same
    edge multiset: ``out_*`` grouped by source (targets ascending) and
    ``in_*`` grouped by target (sources ascending). Multiplicities are
    int64 counts >= 1; an absent pair means multiplicity 0.
    """

    def __init__(self, node_count, out_indptr, out_dst, out_mult,
                 in_indptr, in_src, in_mult, colors, color_table):
        self.node_count = int(node_count)
        self.out_indptr = out_indptr
        self.out_dst = out_dst
        self.out_mult = out_mult
        self.in_indptr = in_indptr
        self.in_src = in_src
        self.in_mult = in_mult
        self.colors = colors
        self.color_table = color_table

    # -- construction ------------------------------------------------

    @classmethod
    def from_edge_arrays(cls, n: int, src, dst, mult, color_ids, color_table,
                         cap=math.inf) -> "ColoredMultigraph":
        """Build from parallel edge arrays; duplicate (src, dst) pairs are
        merged by summing multiplicities, saturating at ``cap`` when finite."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        mult = np.asarray(mult, dtype=np.int64)
        color_ids = np.asarray(color_ids, dtype=np.int64)
        if len(color_ids) != n:
            raise ValidationError(f"expected {n} colors, got {len(color_ids)}")
        if len(src):
            if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
                raise ValidationError("edge endpoint out of range")
            if mult.min() <= 0:
                raise FormatError("edge multiplicity must be >= 1")
        # Shuffled keys: the vectorized sort first, so that _count_runs's
        # stable sort meets sorted input.
        keys = src * n + dst
        order = np.argsort(keys)
        pairs, out_mult = _count_runs(keys[order], mult[order], cap)
        out_src, out_dst = np.divmod(pairs, n)

        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(out_src, minlength=n), out=out_indptr[1:])

        # in-direction: same unique pairs re-sorted by (dst, src); the keys
        # are distinct, so any sort gives the one order
        in_order = np.argsort(out_dst * n + out_src)
        in_src = out_src[in_order]
        in_mult = out_mult[in_order]
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(out_dst, minlength=n), out=in_indptr[1:])

        return cls(n, out_indptr, out_dst, out_mult,
                   in_indptr, in_src, in_mult, color_ids, color_table)

    # -- flattened views (cached) -------------------------------------

    @cached_property
    def in_dst_flat(self) -> np.ndarray:
        """Target node of every in-CSR entry (parallel to in_src/in_mult)."""
        return _row_of_entry(self.in_indptr)

    @cached_property
    def out_src_flat(self) -> np.ndarray:
        """Source node of every out-CSR entry (parallel to out_dst/out_mult)."""
        return _row_of_entry(self.out_indptr)

    @property
    def simple_edge_count(self) -> int:
        return len(self.out_dst)

    def color_payload(self, v: int):
        return self.color_table.payload(int(self.colors[v]))

    def payload_per_node(self) -> list:
        payloads = self.color_table.payloads
        return [payloads[c] for c in self.colors.tolist()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredMultigraph):
            return NotImplemented
        return (self.node_count == other.node_count
                and np.array_equal(self.out_indptr, other.out_indptr)
                and np.array_equal(self.out_dst, other.out_dst)
                and np.array_equal(self.out_mult, other.out_mult)
                and self.payload_per_node() == other.payload_per_node())

    __hash__ = None

    def __repr__(self) -> str:
        return f"ColoredMultigraph(nodes={self.node_count}, simple_edges={self.simple_edge_count})"


def build_graph(edges: Iterable[tuple], colors) -> ColoredMultigraph:
    """Build a graph from (src, dst, multiplicity) triples and node colors.

    ``colors`` is either a sequence of payloads indexed by node or a mapping
    whose keys are exactly 0..n-1. Duplicate edges are merged by summing
    multiplicities; multiplicity 0 is rejected.
    """
    if isinstance(colors, Mapping):
        n = len(colors)
        if set(colors.keys()) != set(range(n)):
            raise ValidationError("color mapping must cover exactly the node ids 0..n-1")
        payloads = [colors[v] for v in range(n)]
    else:
        payloads = list(colors)
        n = len(payloads)

    table = ColorTable()
    color_ids = table.intern_all(payloads)

    edges = list(edges)
    if edges:
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        mult = np.array([e[2] for e in edges], dtype=np.int64)
    else:
        src = dst = mult = np.empty(0, dtype=np.int64)
    return ColoredMultigraph.from_edge_arrays(n, src, dst, mult, color_ids, table)


def graph_size(g: ColoredMultigraph) -> tuple[int, int]:
    """(number of nodes, number of simple edges): multiplicities ignored."""
    return g.node_count, g.simple_edge_count
