"""Learning problems and their exact compression.

A problem is a featured graph, a training set with per-node targets, a
loss kind, and a GNN hypothesis. Compressing refines the graph at the
hypothesis depth and width, collapses each refinement class onto its
member of minimal incidence, and pushes the training set forward as
integer weights on the representatives: the total loss of any GNN within
that depth and width is identical on both problems, and
equivalence_report refuses a deeper or wider one. Problems and training
sets are frozen: a changed one is a new one, made with
``dataclasses.replace``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .gnn import Gnn, GnnConfig, _aggregate, forward, sample_gnn
from .graph import INF, ColoredMultigraph, _count_runs
from .refine import refine
from .reduction import choose_substitution, reduce_graph

LOSS_KINDS = ("xent", "sq")
TOLERANCE = 1e-6    # the largest relative discrepancy equivalence_report passes


@dataclass(frozen=True)
class TrainingSet:
    """Training rows: node ``nodes[i]`` carries the target
    ``palette[target[i]]`` with integer weight ``weight[i]``.

    Rows are sorted by (node, target id) and distinct (a malformed bundle
    may repeat one). The palette holds the distinct targets in canonical
    order: for xent the sorted labels, the label vocabulary; for sq the
    rows of a float64 matrix ordered by their bytes (0.0 is not -0.0).
    """

    nodes: np.ndarray
    target: np.ndarray
    weight: np.ndarray
    palette: tuple[str, ...] | np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_columns(cls, nodes: np.ndarray, targets, weights: np.ndarray,
                     loss_kind: str) -> TrainingSet:
        """Row i (nodes[i], targets[i], weights[i]) of int64 node and weight
        arrays, sorted, over the palette of the targets: a sequence of
        labels for xent, a float64 matrix with one row per target for sq."""
        keys = targets if loss_kind == "xent" else [t.tobytes() for t in targets]
        distinct = sorted(set(keys))
        index = dict(zip(distinct, range(len(distinct))))
        ids = np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))
        palette = tuple(distinct) if loss_kind == "xent" else np.frombuffer(
            b"".join(distinct), dtype=np.float64).reshape(len(distinct), targets.shape[1])
        order = np.lexsort((weights, ids, nodes))
        return cls(nodes[order], ids[order], weights[order], palette)

    @classmethod
    def from_rows(cls, rows: list, loss_kind: str) -> TrainingSet:
        """The (node, target, weight) rows as a training set (sq: targets are
        1-D float64 arrays of one length); see from_columns."""
        nodes, targets, weights = zip(*rows) if rows else ((), (), ())
        if loss_kind == "sq":
            dim = len(targets[0]) if rows else 0
            targets = np.array(targets, dtype=np.float64).reshape(len(rows), dim)
        return cls.from_columns(np.array(nodes, dtype=np.int64), targets,
                                np.array(weights, dtype=np.int64), loss_kind)


def training_set(train, n: int, loss_kind: str) -> TrainingSet:
    """Validate a {node: target} training set and convert it, leaving the
    mapping as it is; every weight is 1."""
    rows = []
    for v, target in train.items():
        if not 0 <= v < n:
            raise ValidationError(f"training node {v} out of range")
        if loss_kind == "sq":
            target = np.asarray(target, dtype=np.float64)
            if target.ndim != 1 or not len(target):
                raise ValidationError(f"regression target of node {v} must be a non-empty vector")
            if not np.isfinite(target).all():
                raise ValidationError(f"regression target of node {v} is not finite")
            if rows and len(target) != len(rows[0][1]):
                raise ValidationError(f"regression targets of mixed dimension: "
                                      f"{len(rows[0][1])} and {len(target)}")
        elif not isinstance(target, str):
            raise ValidationError("classification targets must be label tokens")
        rows.append((v, target, 1))
    return TrainingSet.from_rows(rows, loss_kind)


def _read_only(x) -> np.ndarray:
    """x as a read-only float64 array: x itself if it is one, else a
    read-only view, so that the caller's array stays writeable."""
    x = np.asarray(x, dtype=np.float64)
    if x.flags.writeable:
        x = x.view()
        x.flags.writeable = False
    return x


@dataclass(frozen=True)
class LearningProblem:
    """Original (uncompressed) node-labelling problem. A {node: target}
    ``train`` is held as the TrainingSet it converts to; a TrainingSet must
    have 1-D integer columns of one length, nodes below n, target ids below
    its palette's length and weights of at least 1.

    ``features`` is held read-only (``_read_only``), not copied: a write
    through the problem raises, and the array passed in must not change
    afterwards, as the graph must not. Losses reuse layer 0's aggregates of
    the features, kept in ``_first`` by (aggregation kind, width)."""

    graph: ColoredMultigraph
    features: np.ndarray
    train: dict[int, object] | TrainingSet
    loss_kind: str
    hypothesis: GnnConfig | None = None
    _first: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.graph.node_count
        object.__setattr__(self, "features", _read_only(self.features))
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValidationError(f"feature matrix must be ({n}, p)")
        if not np.isfinite(self.features).all():
            raise ValidationError("features must be finite")
        if self.loss_kind not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.loss_kind!r}")
        if not isinstance(self.train, TrainingSet):
            object.__setattr__(self, "train", training_set(self.train, n, self.loss_kind))
        t = self.train
        for name, column, lo, hi in (("node", t.nodes, 0, n), ("weight", t.weight, 1, math.inf),
                                     ("target id", t.target, 0, len(t.palette))):
            if column.shape != (len(t),) or column.dtype.kind not in "iu":
                raise ValidationError(f"training {name}s: not 1-D integers of length {len(t)}")
            bad = np.flatnonzero((column < lo) | (column >= hi))
            if len(bad):
                raise ValidationError(f"training {name} {column[bad[0]]} outside [{lo}, {hi})")
        if self.hypothesis is not None:
            if self.hypothesis.input_dim != self.features.shape[1]:
                raise ValidationError("hypothesis input dim does not match features")
            q, palette = self.hypothesis.output_dim, self.train.palette
            if self.loss_kind == "sq" and self.train and palette.shape[1] != q:
                raise ValidationError(f"regression targets have dimension "
                                      f"{palette.shape[1]}, hypothesis outputs {q}")
            if self.loss_kind == "xent" and len(palette) > q:
                raise ValidationError(f"{len(palette)} labels exceed hypothesis output dim {q}")


@dataclass(frozen=True)
class CompressedProblem:
    """Reduced problem: reduct graph plus weighted training targets.

    rep_of_node maps every original node to its representative's index in
    the reduct; node_ids maps reduct indices back to original node ids.
    ``train`` is the push-forward of the original training set: one row
    per (representative, target) whose weight counts the training nodes
    of the original class carrying that target, so weights sum to |T|.
    loss_kind is always given, as for a LearningProblem; load_bundle reads
    a bundle's null loss_kind as "xent", the kind it reads train.tsv as.
    class_counts[d] is the number of refinement classes after round d
    (None when not recorded). policy is a record for meta.json:
    "min-incidence" from compress_problem, or what a loaded bundle's
    meta.json holds. original_ids is the input-file id of each
    original node; compress_problem records 0, 1, ... features holds the
    original rows of the representatives, read-only as in LearningProblem,
    and the original problem's own array when the reduct keeps every node;
    when the reduct is the original graph too, the two problems share one
    dict of layer-0 aggregates.
    """

    graph: ColoredMultigraph
    node_ids: np.ndarray
    rep_of_node: np.ndarray
    train: TrainingSet
    depth: float
    grade: float
    policy: str
    original_ids: np.ndarray = field(compare=False)
    loss_kind: str
    rounds: int = 0
    class_counts: list[int] | None = field(default=None, compare=False)
    features: np.ndarray | None = field(default=None, compare=False)
    _first: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.features is not None:
            object.__setattr__(self, "features", _read_only(self.features))

    @property
    def train_weighted(self) -> dict[int, list[tuple[object, int]]]:
        """{rep: [(target, weight), ...]} in row order, built on each
        access; changing it does not change the problem. Only the tests and
        bench/tracer.py (``run.py --trace 1``) read it; ROADMAP item 1
        retires it."""
        t, view = self.train, {}
        for v, i, w in zip(t.nodes.tolist(), t.target.tolist(), t.weight.tolist()):
            view.setdefault(v, []).append((t.palette[i], w))
        return view


def push_forward(train: TrainingSet, rep_of_node: np.ndarray) -> TrainingSet:
    """Map a training set through a substitution: one row per
    (representative, target), weighted by the rows it stands for."""
    t = len(train.palette)
    keys, weight = _count_runs(rep_of_node[train.nodes] * t + train.target, train.weight)
    nodes, target = np.divmod(keys, t)
    return TrainingSet(nodes, target, weight, train.palette)


def first_difference(a: TrainingSet, b: TrainingSet) -> int | None:
    """The smallest node whose rows differ between two training sets, or
    None. Target ids are read in the union of both palettes (labels, or
    row bytes), whose order keeps each one's rows sorted."""
    keys = [[k if isinstance(k, str) else k.tobytes() for k in t.palette] for t in (a, b)]
    index = {k: i for i, k in enumerate(sorted({*keys[0], *keys[1]}))}
    rows_a, rows_b = (np.stack([t.nodes, t.weight, np.array(
        [index[k] for k in ks], dtype=np.int64)[t.target]]) for t, ks in zip((a, b), keys))
    m = min(len(a), len(b))
    differ = np.flatnonzero((rows_a[:, :m] != rows_b[:, :m]).any(axis=0))
    i = differ[0] if len(differ) else m
    nodes = [rows[0, i] for rows in (rows_a, rows_b) if i < rows.shape[1]]
    return int(min(nodes)) if nodes else None


def _check_features_consistent(problem: LearningProblem) -> None:
    """Every initial color class must carry one single feature row, or
    refinement classes could merge feature-distinct nodes."""
    g, x = problem.graph, problem.features
    _, first, inverse = np.unique(g.colors, return_index=True, return_inverse=True)
    mixed = (x != x[first[inverse]]).any(axis=1)
    if mixed.any():
        cid = int(g.colors[mixed].min())
        raise ValidationError(
            f"initial color {g.palette[cid]!r} mixes distinct "
            "feature vectors; colors must separate differing features")


def _rep_rows(features: np.ndarray, node_ids: np.ndarray) -> np.ndarray:
    """features[node_ids]; a problem's features themselves when node_ids is
    0, 1, ..., n - 1, a reduct that merged nothing, so that no second copy
    is held."""
    if np.array_equal(node_ids, np.arange(len(features))):
        return features
    return features[node_ids]


def compress_problem(problem: LearningProblem, depth=None, grade=None) -> CompressedProblem:
    """Compress a learning problem at (grade, depth), each class onto its
    min-incidence representative (``choose_substitution``).

    Defaults come from the hypothesis (its layer count and width); both
    may be overridden, and inf is allowed for either. The training set
    is pushed forward through the substitution (``push_forward``).
    """
    if depth is None:
        if problem.hypothesis is None:
            raise ValueError("no hypothesis set: pass depth explicitly")
        depth = problem.hypothesis.depth
    if grade is None:
        grade = problem.hypothesis.width if problem.hypothesis is not None else INF
    _check_features_consistent(problem)

    g = problem.graph
    result = refine(g, depth=depth, grade=grade)
    partition = result.final
    red = reduce_graph(g, choose_substitution(g, partition), grade)

    rounds = result.stable_round if result.stable_round is not None else int(depth)
    cp = CompressedProblem(
        graph=red.graph,
        node_ids=red.node_ids,
        rep_of_node=red.rep_index_of_node,
        train=push_forward(problem.train, red.rep_index_of_node),
        depth=depth, grade=grade, policy="min-incidence",
        loss_kind=problem.loss_kind,
        rounds=rounds,
        class_counts=list(result.class_counts),
        features=_rep_rows(problem.features, red.node_ids),
        original_ids=np.arange(g.node_count),
    )
    if red.graph is g and cp.features is problem.features:
        object.__setattr__(cp, "_first", problem._first)   # one layer-0 aggregate serves both
    return cp


def _row_max(a: np.ndarray) -> np.ndarray:
    """Row maxima of a 2-D array, its columns folded with np.maximum (exact,
    NaN wins): a.max(axis=1) takes numpy's slow per-row loop on tall arrays."""
    return functools.reduce(np.maximum, a.T)


def _weighted_loss(loss_kind: str, train: TrainingSet, out: np.ndarray) -> float:
    """The loss of a GNN's output on a training set: weight * loss of each
    row, summed left to right from 0.0 in row order. xent: softmax
    cross-entropy against the target id's logit; sq: squared euclidean
    error against the palette row. Each term equals its row's loss alone,
    bit for bit."""
    if not train:
        return 0.0
    z = out[train.nodes]
    if loss_kind == "xent":
        m = _row_max(z)
        sums = np.exp(z - m[:, None]).sum(axis=1)
        logs = np.array([math.log(s) for s in sums.tolist()])
        terms = m + logs - z[np.arange(len(z)), train.target]
    else:
        d = z - train.palette[train.target]
        # a stacked matmul is the row dot product d @ d; (d * d).sum(axis=1)
        # and einsum add in other orders
        terms = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]
    # cumsum adds one term at a time, left to right; np.sum adds pairwise
    return float(np.cumsum(train.weight * terms)[-1])


def _first_aggregate(owner: LearningProblem | CompressedProblem, gnn: Gnn) -> np.ndarray:
    """Layer 0's aggregate of owner's features for gnn, the bits forward
    computes, made once per (aggregation kind, width) into owner._first."""
    key = gnn.config.agg, gnn.config.width
    if key not in owner._first:
        owner._first[key] = _read_only(_aggregate(owner.graph, owner.features, *key))
    return owner._first[key]


def evaluate_loss(problem: LearningProblem | CompressedProblem, gnn: Gnn) -> float:
    """Total training loss of a GNN on a problem, original or compressed:
    on a compressed one, the weighted sum of the per-target losses at each
    representative."""
    if problem.features is None:
        raise ValueError("compressed problem has no feature matrix")
    out = forward(problem.graph, problem.features, gnn, first=_first_aggregate(problem, gnn))
    return _weighted_loss(problem.loss_kind, problem.train, out)


@dataclass
class EquivalenceReport:
    max_loss_discrepancy: float
    max_output_discrepancy: float
    passed: bool


def _worse(worst: float, discrepancy: float) -> float:
    """The larger of two discrepancies; a NaN or infinite one is infinite,
    so that it fails the tolerance."""
    return max(worst, discrepancy) if math.isfinite(discrepancy) else math.inf


def equivalence_report(problem: LearningProblem, cp: CompressedProblem,
                       n_gnns: int = 5, seed: int = 0) -> EquivalenceReport:
    """Sample GNNs from the hypothesis space and compare both problems.

    Reports the worst relative loss discrepancy and the worst relative
    per-node output discrepancy max_v |L(G)(v) - L(G')(rep(v))|_inf over
    all samples; it passes when both are at most TOLERANCE. A hypothesis
    deeper or wider than the compression is a ValueError, since equality
    is guaranteed only within its depth and grade; so is an n_gnns below
    1, since a report of no samples would pass any compression.
    """
    config = problem.hypothesis
    if config is None:
        raise ValueError("no hypothesis config available")
    if n_gnns < 1:
        raise ValueError(f"n_gnns must be >= 1, got {n_gnns}")
    if config.depth > cp.depth or config.width > cp.grade:
        raise ValueError(f"hypothesis of depth {config.depth} and width {config.width} "
                         f"exceeds compression depth {cp.depth} and grade {cp.grade}")

    features_h = _rep_rows(problem.features, cp.node_ids)
    max_loss = max_out = 0.0
    for i in range(n_gnns):
        gnn = sample_gnn(config, seed + i)
        out_g = forward(problem.graph, problem.features, gnn)
        out_h = forward(cp.graph, features_h, gnn)
        diff = np.abs(out_g - out_h[cp.rep_of_node])
        scale = 1.0 + _row_max(np.abs(out_g))
        max_out = _worse(max_out, float((_row_max(diff) / scale).max()) if len(diff) else 0.0)

        loss_g = _weighted_loss(problem.loss_kind, problem.train, out_g)
        loss_h = _weighted_loss(problem.loss_kind, cp.train, out_h)
        max_loss = _worse(max_loss, abs(loss_g - loss_h) / (1.0 + abs(loss_g)))

    passed = max_loss <= TOLERANCE and max_out <= TOLERANCE
    return EquivalenceReport(max_loss, max_out, passed)
