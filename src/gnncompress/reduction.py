"""Substitutions and multigraph reducts.

A substitution picks one representative node per refinement class; the
reduct keeps exactly the representatives, and the multiplicity of edge
v -> w sums the multiplicities from all members of v's class into w
(capped at the grade c when finite). Choosing representatives of minimal
incidence yields a reduct of minimal size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ColorTable, ColoredMultigraph, _sorted_distinct
from .refine import INF, Partition, refine

POLICIES = ("min-incidence", "first-node")


@dataclass
class Substitution:
    """Map from refinement classes to representative nodes.

    rep_of_class[k] is a member of class k; rep_of_node[v] is the
    representative of v's class, so rep_of_node[w] == w for every
    representative w.
    """

    rep_of_class: np.ndarray
    rep_of_node: np.ndarray
    grade: float


def incidence_all(g: ColoredMultigraph, partition: Partition) -> np.ndarray:
    """Per node, the number of distinct partition classes containing one
    of its in-neighbors."""
    k = partition.num_classes
    key = g.in_dst_flat * k + partition.class_of[g.in_src]
    return np.bincount(_sorted_distinct(key) // k, minlength=g.node_count)


def choose_substitution(g: ColoredMultigraph, partition: Partition,
                        policy: str = "min-incidence", grade=INF) -> Substitution:
    """Pick one representative per class: the member of least cost, ties
    going to the smallest node id.

    min-incidence: the cost is the number of distinct in-neighbor classes,
    which yields a minimal-size reduct. first-node: every cost is 0, so the
    smallest node id in the class.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if policy == "min-incidence":
        cost = incidence_all(g, partition)
    else:
        cost = np.zeros(g.node_count, dtype=np.int64)
    order = np.lexsort((cost, partition.class_of))     # stable: ties by node id
    ordered = partition.class_of[order]
    first = np.diff(ordered, prepend=-1) != 0           # the head of each class
    rep_of_class = np.empty(partition.num_classes, dtype=np.int64)
    rep_of_class[ordered[first]] = order[first]
    return Substitution(rep_of_class, rep_of_class[partition.class_of], grade)


@dataclass
class Reduct:
    """Reduced multigraph plus the maps relating it to the original.

    The reduct graph uses dense ids 0..R-1; node_ids[i] is the original
    node id of reduct node i (representatives keep their identity through
    this map). rep_index_of_node maps every original node to its
    representative's dense id.
    """

    graph: ColoredMultigraph
    node_ids: np.ndarray
    rep_index_of_node: np.ndarray


def reduce_graph(g: ColoredMultigraph, substitution: Substitution) -> Reduct:
    """Build the reduct of g under a substitution.

    Edge rule: for representatives v, w the multiplicity of v -> w is the
    sum of g(v' -> w) over all v' in v's class, capped at the
    substitution's grade when finite. Only edges into representatives
    survive; colors are preserved.
    """
    rep_of_node = substitution.rep_of_node
    node_ids = np.sort(substitution.rep_of_class)        # distinct: one node per class
    rep_index = np.searchsorted(node_ids, rep_of_node)

    is_rep = np.zeros(g.node_count, dtype=bool)
    is_rep[node_ids] = True
    keep = is_rep[g.out_dst]
    h = ColoredMultigraph.from_edge_arrays(
        len(node_ids), rep_index[g.out_src_flat[keep]],
        np.searchsorted(node_ids, g.out_dst[keep]), g.out_mult[keep],
        g.colors[node_ids], g.color_table, cap=substitution.grade)
    return Reduct(h, node_ids, rep_index)


@dataclass
class VerifyResult:
    ok: bool
    witness_node: int | None = None
    witness_round: int | None = None


def verify_reduct(g: ColoredMultigraph, h: ColoredMultigraph,
                  rep_index_of_node: np.ndarray, depth=INF, grade=INF) -> VerifyResult:
    """Check that every node of g shares its refinement color with its
    representative in h, at every round up to depth (up to stability for
    depth = inf).

    Runs refinement on the disjoint union of g and h; refinement never
    mixes information across union components, so union classes restrict
    to per-graph classes. Partitions are nested, so it is enough to compare
    class membership in the last computed round. A failed check carries the
    earliest violating (node, round), the round found by bisecting the
    split history.
    """
    n, r = g.node_count, h.node_count
    rep_index_of_node = np.asarray(rep_index_of_node, dtype=np.int64)
    if len(rep_index_of_node) != n:
        raise ValueError("rep map must cover every original node")
    if len(rep_index_of_node) and (rep_index_of_node.min() < 0 or rep_index_of_node.max() >= r):
        raise ValueError("rep map points outside the reduct")

    # Union interning table: remap per distinct color, not per node.
    table_union = ColorTable()
    g_map = table_union.intern_all(g.color_table.payloads)
    h_map = table_union.intern_all(h.color_table.payloads)
    colors_union = np.concatenate([g_map[g.colors], h_map[h.colors]])

    src = np.concatenate([g.out_src_flat, h.out_src_flat + n])
    dst = np.concatenate([g.out_dst, h.out_dst + n])
    mult = np.concatenate([g.out_mult, h.out_mult])
    union = ColoredMultigraph.from_edge_arrays(n + r, src, dst, mult,
                                               colors_union, table_union)

    result = refine(union, depth=depth, grade=grade)
    rep_pos = rep_index_of_node + n

    def apart(d) -> np.ndarray:
        ids = result.labels(d)
        return ids[:n] != ids[rep_pos]

    lo, hi = 0, len(result.class_counts) - 1
    if not apart(hi).any():
        return VerifyResult(True)
    while lo < hi:              # nested partitions: bisect for the first split
        mid = (lo + hi) // 2
        if apart(mid).any():
            hi = mid
        else:
            lo = mid + 1
    return VerifyResult(False, int(np.flatnonzero(apart(lo))[0]), lo)
