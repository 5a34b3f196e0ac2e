"""Representatives and multigraph reducts.

A substitution sends each node to its class's representative, and is held
as that int64 array: reps[v] is the representative of v, so reps[w] == w
exactly for the representatives w. The reduct keeps exactly the
representatives, and the multiplicity of edge v -> w sums the
multiplicities from all members of v's class into w (capped at the grade c
when finite). choose_substitution is the one rule for choosing
representatives: minimal incidence, which yields a reduct of minimal size.
Any other substitution is an int64 array built by the caller and passed to
reduce_graph as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (_MULT_LIMIT, INF, ColoredMultigraph, _check_extent, _count_runs, _ranges,
                    _sorted_distinct, intern_colors)
from .refine import Partition, refine


def incidence_all(g: ColoredMultigraph, partition: Partition) -> np.ndarray:
    """Per node, the number of distinct partition classes containing one
    of its in-neighbors."""
    k = partition.num_classes
    key = g.in_dst_flat * k + partition.class_of[g.in_src]
    return np.bincount(_sorted_distinct(key) // k, minlength=g.node_count)


def choose_substitution(g: ColoredMultigraph, partition: Partition) -> np.ndarray:
    """The representative of every node: per class, the member with the
    fewest distinct in-neighbor classes, ties going to the smallest node id.
    This yields a minimal-size reduct."""
    order = np.lexsort((incidence_all(g, partition), partition.class_of))  # ties by node id
    ordered = partition.class_of[order]
    first = np.diff(ordered, prepend=-1) != 0           # the head of each class
    rep_of_class = np.empty(partition.num_classes, dtype=np.int64)
    rep_of_class[ordered[first]] = order[first]
    return rep_of_class[partition.class_of]


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


def reduce_graph(g: ColoredMultigraph, reps: np.ndarray, grade=INF) -> Reduct:
    """Build the reduct of g under the substitution reps, the representative
    of every node (choose_substitution).

    Edge rule: for representatives v, w the multiplicity of v -> w is the
    sum of g(v' -> w) over all v' in v's class, capped at the grade when
    finite. Only edges into representatives survive; colors are preserved.
    When every node is its own representative and no multiplicity exceeds
    the grade, the reduct is g itself. A reps that is not one in-range
    entry per node with reps[reps] == reps is a ValueError, and so is a
    grade that is not a positive integer or inf.
    """
    _check_extent(grade, "grade", 1)
    n = g.node_count
    reps = np.asarray(reps)
    if (reps.shape != (n,) or reps.dtype.kind not in "iu"
            or n and (reps.min() < 0 or reps.max() >= n or (reps[reps] != reps).any())):
        raise ValueError("a substitution must map every node to a representative "
                         "that is its own representative")
    is_rep = reps == np.arange(n)
    node_ids = np.flatnonzero(is_rep)
    rep_index = (np.cumsum(is_rep) - 1)[reps]
    if len(node_ids) == n and g.out_mult.max(initial=0) <= grade:
        return Reduct(g, node_ids, rep_index)

    keep = is_rep[g.out_dst]
    h = ColoredMultigraph.from_edge_arrays(
        len(node_ids), rep_index[g.out_src_flat[keep]], rep_index[g.out_dst[keep]],
        g.out_mult[keep], g.colors[node_ids], g.palette, cap=grade)
    return Reduct(h, node_ids, rep_index)


@dataclass
class VerifyResult:
    ok: bool
    witness_node: int | None = None
    witness_round: int | None = None


def _disjoint_union(g: ColoredMultigraph, h: ColoredMultigraph) -> ColoredMultigraph:
    """g and h side by side, h's nodes numbered from g.node_count on. Both
    CSR structures are sorted and merged, so stacking them, h's row offsets
    shifted by g's edge count and its node ids by g's node count, gives
    what from_edge_arrays builds, with no sort."""
    n, m = g.node_count, len(g.out_dst)
    # One palette for the union: remap per distinct color, not per node.
    remap, palette = intern_colors(g.palette + h.palette)
    colors = np.concatenate([remap[g.colors], remap[len(g.palette) + h.colors]])
    stacked = [np.concatenate(pair) for pair in (
        (g.out_indptr, h.out_indptr[1:] + m), (g.out_dst, h.out_dst + n), (g.out_mult, h.out_mult),
        (g.in_indptr, h.in_indptr[1:] + m), (g.in_src, h.in_src + n), (g.in_mult, h.in_mult))]
    return ColoredMultigraph(n + h.node_count, *stacked, colors, palette)


def _certificate(g: ColoredMultigraph, h: ColoredMultigraph, rep: np.ndarray,
                 grade) -> bool:
    """Whether h is a capped fibration image of g under rep: every node
    has its representative's color payload, and for every node v the
    in-edge multiplicities of v, summed per representative of their source
    and capped at the grade, are h's in-row of rep[v], sources and
    multiplicities alike.

    When it holds, v and rep[v] share their color at every refinement
    round. By induction on the round: a round-r class of sources is a union
    of rep classes, and capping a sum of counts each capped at the grade
    gives the capped plain sum. Runs no rounds. Graphs whose counts could
    sum to 2**62 fail it, so that refinement decides how they overflow.
    """
    if any(int(x.in_mult.max()) * len(x.in_mult) >= _MULT_LIMIT for x in (g, h)
           if len(x.in_mult)):
        return False
    remap, _ = intern_colors(g.palette + h.palette)     # one id per payload
    if not np.array_equal(remap[g.colors], remap[len(g.palette) + h.colors[rep]]):
        return False
    r = h.node_count
    keys, sums = _count_runs(g.in_dst_flat * r + rep[g.in_src], g.in_mult, grade)
    node, source = np.divmod(keys, r)
    lo = h.in_indptr[rep]
    degree = h.in_indptr[rep + 1] - lo
    if not np.array_equal(np.bincount(node, minlength=g.node_count), degree):
        return False
    row = _ranges(lo, degree)
    return np.array_equal(h.in_src[row], source) and np.array_equal(h.in_mult[row], sums)


def _union_check(g: ColoredMultigraph, h: ColoredMultigraph, rep: np.ndarray,
                 depth, grade) -> VerifyResult:
    """verify_reduct by refinement of the disjoint union of g and h, their
    CSR arrays stacked with no sort; refinement never mixes information
    across union components, so union classes restrict to per-graph
    classes. Partitions are nested, so it is enough to compare class
    membership in the last computed round. A failed check carries the
    earliest violating (node, round), the round found by bisecting the
    split history."""
    n = g.node_count
    result = refine(_disjoint_union(g, h), depth=depth, grade=grade)
    rep_pos = rep + n

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


def verify_reduct(g: ColoredMultigraph, h: ColoredMultigraph,
                  rep_index_of_node: np.ndarray, depth=INF, grade=INF) -> VerifyResult:
    """Check that every node of g shares its refinement color with its
    representative in h, at every round up to depth (up to stability for
    depth = inf).

    A reduct whose classes are stable, which a correct one is at depth inf
    or with one node per original node, passes on the local certificate
    of _certificate, which runs no rounds and implies agreement at every
    round. Otherwise, also when the certificate fails, refinement of the
    disjoint union of g and h decides (_union_check), and a failed check
    carries the earliest violating (node, round). The certificate holds
    only where the union check passes, so both give the same result.
    """
    n, r = g.node_count, h.node_count
    rep_index_of_node = np.asarray(rep_index_of_node, dtype=np.int64)
    if len(rep_index_of_node) != n:
        raise ValueError("rep map must cover every original node")
    if len(rep_index_of_node) and (rep_index_of_node.min() < 0 or rep_index_of_node.max() >= r):
        raise ValueError("rep map points outside the reduct")
    _check_extent(depth, "depth", 0)
    _check_extent(grade, "grade", 1)
    if (math.isinf(depth) or r == n) and _certificate(g, h, rep_index_of_node, grade):
        return VerifyResult(True)
    return _union_check(g, h, rep_index_of_node, depth, grade)
