import math

import numpy as np
import pytest

from gnncompress import build_graph
from gnncompress.graph import ColoredMultigraph, intern_colors
from gnncompress.refine import Partition, canonical_partition, refine, refine_step

# Worked example: 6 nodes a1,a2,a3 (color a) and b1,b2,b3 (color b),
# 11 unit edges. Node ids: a1=0, a2=1, a3=2, b1=3, b2=4, b3=5.
FIG1_EDGES = [
    (0, 2, 1), (1, 2, 1), (2, 1, 1), (1, 0, 1), (0, 1, 1),
    (0, 3, 1), (1, 3, 1), (0, 4, 1), (2, 4, 1), (1, 5, 1), (2, 5, 1),
]
FIG1_COLORS = ["a", "a", "a", "b", "b", "b"]
A1, A2, A3, B1, B2, B3 = range(6)


@pytest.fixture
def fig1():
    return build_graph(FIG1_EDGES, FIG1_COLORS)


def random_graph(n: int, m: int, n_colors: int = 1, max_mult: int = 1,
                 seed: int = 0) -> ColoredMultigraph:
    """Random directed multigraph: m edge slots drawn uniformly over
    ordered node pairs (duplicates merge), colors and multiplicities
    uniform. Identical seeds give identical graphs."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    mult = rng.integers(1, max_mult + 1, m)
    payloads = rng.integers(0, n_colors, n)
    colors, palette = intern_colors(payloads.tolist())
    return ColoredMultigraph.from_edge_arrays(n, src, dst, mult, colors, palette)


def bench_graph(total_size: int, density: float, seed: int = 0) -> ColoredMultigraph:
    """Single-color random graph with n + m ~= total_size at m/n = density."""
    n = max(2, round(total_size / (1.0 + density)))
    m = max(1, total_size - n)
    return random_graph(n, m, n_colors=1, max_mult=1, seed=seed)


def transpose(g):
    """g with every edge reversed."""
    return ColoredMultigraph.from_edge_arrays(g.node_count, g.out_dst, g.out_src_flat,
                                              g.out_mult, g.colors, g.palette)


def star_of_stars(m: int, n: int):
    """Tree with root v (id 0), m b-colored children, each with n
    c-colored children; all edges point toward the root."""
    edges, colors = [], ["v"]
    nid = 1
    for _ in range(m):
        b = nid
        nid += 1
        colors.append("b")
        edges.append((b, 0, 1))
        for _ in range(n):
            c = nid
            nid += 1
            colors.append("c")
            edges.append((c, b, 1))
    return build_graph(edges, colors)


def partition_blocks(class_of) -> set[frozenset]:
    blocks = {}
    for v, c in enumerate(class_of):
        blocks.setdefault(int(c), set()).add(v)
    return {frozenset(b) for b in blocks.values()}


def same_partition(a, b) -> bool:
    """Equal as equivalence relations (class ids may differ)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    pairs = {(int(x), int(y)) for x, y in zip(a, b)}
    return len(pairs) == len(set(a)) == len(set(b))


def refines(fine, coarse) -> bool:
    """Every class of `fine` lies inside one class of `coarse`."""
    mapping = {}
    for f, c in zip(fine, coarse):
        f, c = int(f), int(c)
        if mapping.setdefault(f, c) != c:
            return False
    return True


def bisimulation_partition(g) -> Partition:
    """Fixpoint oracle: split classes by the *set* of in-neighbor classes."""
    class_of = [int(c) for c in g.colors]
    while True:
        sigs = {}
        new = []
        for v in range(g.node_count):
            lo, hi = g.in_indptr[v], g.in_indptr[v + 1]
            support = frozenset(class_of[int(u)] for u in g.in_src[lo:hi])
            key = (class_of[v], support)
            if key not in sigs:
                sigs[key] = len(sigs)
            new.append(sigs[key])
        if new == class_of:
            break
        class_of = new
    return Partition(np.array(class_of, dtype=np.int64), round=-1)


def make_corpus(count: int, master_seed: int = 20240):
    """Seeded random-graph corpus: n <= 64, densities 0.05-0.5,
    1-4 initial colors, multiplicities 1-3."""
    rng = np.random.default_rng(master_seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(4, 65))
        density = float(rng.uniform(0.05, 0.5))
        m = max(1, round(density * n * (n - 1)))
        n_colors = int(rng.integers(1, 5))
        max_mult = int(rng.integers(1, 4))
        graphs.append(random_graph(n, m, n_colors, max_mult, seed=1000 + i))
    return graphs


def class_members(partition) -> list[np.ndarray]:
    """Member lists per class id, each ascending."""
    return [np.flatnonzero(partition.class_of == cid) for cid in range(partition.num_classes)]


def random_substitution(partition, rng) -> np.ndarray:
    """rep_of_class array with a uniformly random member per class."""
    reps = np.empty(partition.num_classes, dtype=np.int64)
    for cid, members in enumerate(class_members(partition)):
        reps[cid] = members[int(rng.integers(0, len(members)))]
    return reps


def least_id_substitution(partition) -> np.ndarray:
    """Each node's least-id class member, as an input to reduce_graph: the
    representatives of a first-node rule, whose reduct need not be minimal."""
    _, first, inverse = np.unique(partition.class_of, return_index=True, return_inverse=True)
    return first[inverse].astype(np.int64)


def iterated_partitions(g, depth=math.inf, grade=math.inf):
    """Reference refinement: refine_step from the initial colors, stopping
    after depth rounds or at the first repeated partition. Returns the
    partitions of every computed round and the stable round (or None)."""
    parts = [canonical_partition(g.colors)]
    bound = g.node_count + 1 if math.isinf(depth) else int(depth)
    for _ in range(bound):
        parts.append(refine_step(g, parts[-1], grade))
        if np.array_equal(parts[-1].class_of, parts[-2].class_of):
            return parts, len(parts) - 2
    return parts, None


def pointwise_loss(loss_kind: str, target, prediction: np.ndarray, vocab: list[str]) -> float:
    """Loss of one prediction against one stored target, the per-term
    reference for the package's row-wise losses.

    xent: softmax cross-entropy of the logits against the target label's
    index in the (sorted) label vocabulary. sq: squared euclidean error.
    """
    if loss_kind == "xent":
        z = prediction
        m = z.max()
        logsumexp = m + math.log(np.exp(z - m).sum())
        return float(logsumexp - z[vocab.index(target)])
    diff = prediction - target
    return float(diff @ diff)


def reference_push_forward(train: dict, rep_of_node) -> dict[int, list[tuple[object, int]]]:
    """A {node: target} training set mapped through a substitution by a
    dict loop, the reference for ``problem.push_forward``: per
    representative ascending, (target, count) pairs of the training nodes
    it stands for, ordered by label (xent) or by the target's bytes (sq)."""
    grouped: dict[int, dict] = {}
    for v, target in train.items():
        bucket = grouped.setdefault(int(rep_of_node[v]), {})
        key = target.tobytes() if isinstance(target, np.ndarray) else str(target)
        if key in bucket:
            bucket[key][1] += 1
        else:
            bucket[key] = [target, 1]
    return {rep: [tuple(bucket[k]) for k in sorted(bucket)]
            for rep, bucket in sorted(grouped.items())}


class InEdgeReads(np.ndarray):
    """An in_src array that logs the positions each indexing of it reads."""

    def __getitem__(self, key):
        self.reads.append(np.arange(len(self))[key])
        return np.asarray(self)[key]


def signed_in_edges(g) -> int:
    """The in-edges that one refine run on g, to stability, signs: a work
    count, exact where a clock is not.

    Signing an in-edge reads its source from g.in_src, and nothing else
    in refine indexes that array: _signatures reads the in-edges of the
    nodes it signs, _small_round those of each node it does not skip as
    alone in its class. So the count is the entries read through an
    InEdgeReads view of g.in_src.
    """
    spy = g.in_src.view(InEdgeReads)
    spy.reads = []
    g.in_src = spy
    try:
        refine(g)
    finally:
        g.in_src = np.asarray(spy)
    return sum(map(len, spy.reads))
