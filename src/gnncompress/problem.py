"""Learning problems and their exact compression.

A problem is a featured graph, a training set with per-node targets, a
loss kind, and a GNN hypothesis. Compressing refines the graph at the
hypothesis depth and width, collapses each refinement class onto one
representative, and rewrites the training set as integer-weighted
targets on the representatives: the total loss of any GNN from the
hypothesis space is identical on both problems.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .gnn import Gnn, GnnConfig, forward, sample_gnn
from .graph import ColoredMultigraph
from .refine import INF, refine
from .reduction import choose_substitution, reduce_graph

LOSS_KINDS = ("xent", "sq")


def _target_key(target):
    """Canonical grouping/sorting key for a target value."""
    if isinstance(target, np.ndarray):
        return target.tobytes()
    return str(target)


@dataclass
class LearningProblem:
    """Original (uncompressed) node-labelling problem."""

    graph: ColoredMultigraph
    features: np.ndarray
    train: dict[int, object]
    loss_kind: str
    hypothesis: GnnConfig | None = None

    def __post_init__(self):
        n = self.graph.node_count
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValidationError(f"feature matrix must be ({n}, p)")
        if not np.isfinite(self.features).all():
            raise ValidationError("features must be finite")
        if self.loss_kind not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.loss_kind!r}")
        for v, target in self.train.items():
            if not 0 <= v < n:
                raise ValidationError(f"training node {v} out of range")
            if self.loss_kind == "sq":
                if not isinstance(target, np.ndarray):
                    self.train[v] = target = np.asarray(target, dtype=np.float64)
                if not np.isfinite(target).all():
                    raise ValidationError(f"regression target of node {v} is not finite")
            elif not isinstance(target, str):
                raise ValidationError("classification targets must be label tokens")
        if self.loss_kind == "sq" and self.train:
            dims = {t.shape for t in self.train.values()}
            if len(dims) > 1:
                raise ValidationError(f"regression targets of mixed dimension: {dims}")
        if self.hypothesis is not None:
            if self.hypothesis.input_dim != self.features.shape[1]:
                raise ValidationError("hypothesis input dim does not match features")
            if self.train:
                q = self.hypothesis.output_dim
                if self.loss_kind == "sq":
                    dim = len(next(iter(self.train.values())))
                    if dim != q:
                        raise ValidationError(
                            f"regression targets have dimension {dim}, hypothesis outputs {q}")
                elif len(self.label_vocab) > q:
                    raise ValidationError(
                        f"{len(self.label_vocab)} labels exceed hypothesis output dim {q}")

    @property
    def label_vocab(self) -> list[str]:
        if self.loss_kind != "xent":
            return []
        return sorted({t for t in self.train.values()})


@dataclass
class CompressedProblem:
    """Reduced problem: reduct graph plus weighted training targets.

    rep_of_node maps every original node to its representative's index in
    the reduct; node_ids maps reduct indices back to original node ids.
    train_weighted[rep] lists (target, weight) pairs with positive integer
    weights; the weights of one pair count the training nodes of the
    original class carrying that target, so weights sum to |T|.
    class_counts[d] is the number of refinement classes after round d
    (None when not recorded).
    """

    graph: ColoredMultigraph
    node_ids: np.ndarray
    rep_of_node: np.ndarray
    train_weighted: dict[int, list[tuple[object, int]]]
    depth: float
    grade: float
    policy: str
    loss_kind: str | None = None
    rounds: int = 0
    class_counts: list[int] | None = field(default=None, compare=False)
    features: np.ndarray | None = field(default=None, compare=False)

    @property
    def label_vocab(self) -> list[str]:
        if self.loss_kind != "xent":
            return []
        return sorted({t for pairs in self.train_weighted.values() for t, _ in pairs})


def push_forward(train: dict, rep_of_node: np.ndarray) -> dict[int, list[tuple[object, int]]]:
    """Map a training set through a substitution: per representative,
    (target, count) pairs of the training nodes it stands for, with
    representatives ascending and targets in _target_key order."""
    grouped: dict[int, dict] = {}
    for v, target in train.items():
        bucket = grouped.setdefault(int(rep_of_node[v]), {})
        key = _target_key(target)
        if key in bucket:
            bucket[key][1] += 1
        else:
            bucket[key] = [target, 1]
    return {rep: [tuple(bucket[k]) for k in sorted(bucket)]
            for rep, bucket in sorted(grouped.items())}


def _weight_table(train_weighted: dict) -> dict[int, list[tuple[object, int]]]:
    """Order-free form of a weighted training set, for comparing two."""
    return {rep: sorted((_target_key(t), w) for t, w in pairs)
            for rep, pairs in train_weighted.items()}


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


def compress_problem(problem: LearningProblem, policy: str = "min-incidence",
                     depth=None, grade=None) -> CompressedProblem:
    """Compress a learning problem at (grade, depth).

    Defaults come from the hypothesis (its layer count and width); both
    may be overridden, and inf is allowed for either. The training set
    maps through the substitution and targets aggregate into
    (target, count) pairs per representative.
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
    sub = choose_substitution(g, partition, policy, grade=grade)
    red = reduce_graph(g, sub)

    rounds = result.stable_round if result.stable_round is not None else int(depth)
    return CompressedProblem(
        graph=red.graph,
        node_ids=red.node_ids,
        rep_of_node=red.rep_index_of_node,
        train_weighted=push_forward(problem.train, red.rep_index_of_node),
        depth=depth, grade=grade, policy=policy,
        loss_kind=problem.loss_kind,
        rounds=rounds,
        class_counts=list(result.class_counts),
        features=problem.features[red.node_ids],
    )


def _row_max(a: np.ndarray) -> np.ndarray:
    """Row maxima of a 2-D array, its columns folded with np.maximum (exact,
    NaN wins): a.max(axis=1) takes numpy's slow per-row loop on tall arrays."""
    return functools.reduce(np.maximum, a.T)


def _weighted_loss(loss_kind: str, entries: list, vocab: list[str]):
    """The loss of (row, target, weight) entries as a function of a GNN's
    output: weight * loss summed left to right from 0.0 in entry order.

    The rows, targets (label indices into the sorted vocabulary for xent, a
    target matrix for sq) and float weights are built once; per GNN only
    array operations run. xent: softmax cross-entropy; sq: squared
    euclidean error. Each term equals its row's loss alone, bit for bit.
    """
    if not entries:
        return lambda out: 0.0
    rows, targets, weights = zip(*entries)
    if loss_kind == "xent":
        index = {label: i for i, label in enumerate(vocab)}
        targets = [index[t] for t in targets]
    rows, targets, weights = np.array(rows), np.array(targets), np.array(weights, dtype=float)

    def loss(out: np.ndarray) -> float:
        z = out[rows]
        if loss_kind == "xent":
            m = _row_max(z)
            sums = np.exp(z - m[:, None]).sum(axis=1)
            logs = np.array([math.log(s) for s in sums.tolist()])
            terms = m + logs - z[np.arange(len(z)), targets]
        else:
            d = z - targets
            # a stacked matmul is the row dot product d @ d; (d * d).sum(axis=1)
            # and einsum add in other orders
            terms = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]
        # cumsum adds one term at a time, left to right; np.sum adds pairwise
        return float(np.cumsum(weights * terms)[-1])
    return loss


def _original_loss(problem: LearningProblem):
    entries = [(v, problem.train[v], 1) for v in sorted(problem.train)]
    return _weighted_loss(problem.loss_kind, entries, problem.label_vocab)


def _compressed_loss(cp: CompressedProblem, vocab: list[str]):
    entries = [(rep, target, weight) for rep in sorted(cp.train_weighted)
               for target, weight in cp.train_weighted[rep]]
    return _weighted_loss(cp.loss_kind, entries, vocab)


def evaluate_loss(problem: LearningProblem, gnn: Gnn) -> float:
    """Total training loss of a GNN on the original problem."""
    return _original_loss(problem)(forward(problem.graph, problem.features, gnn))


def evaluate_compressed_loss(cp: CompressedProblem, gnn: Gnn) -> float:
    """Total training loss on the compressed problem: weighted sum of the
    per-target losses at each representative."""
    if cp.features is None:
        raise ValueError("compressed problem has no feature matrix")
    return _compressed_loss(cp, cp.label_vocab)(forward(cp.graph, cp.features, gnn))


@dataclass
class EquivalenceReport:
    n_gnns: int
    tolerance: float
    max_loss_discrepancy: float
    max_output_discrepancy: float
    passed: bool
    approximate: bool
    note: str = ""


def _worse(worst: float, discrepancy: float) -> float:
    """The larger of two discrepancies; a NaN or infinite one is infinite,
    so that it fails every tolerance."""
    return max(worst, discrepancy) if math.isfinite(discrepancy) else math.inf


def equivalence_report(problem: LearningProblem, cp: CompressedProblem,
                       n_gnns: int = 5, seed: int = 0,
                       tolerance: float = 1e-6) -> EquivalenceReport:
    """Sample GNNs from the hypothesis space and compare both problems.

    Reports the worst relative loss discrepancy and the worst relative
    per-node output discrepancy max_v |L(G)(v) - L(G')(rep(v))|_inf over
    all samples. When the hypothesis is deeper or wider than the
    compression, equality is not guaranteed and the report is flagged
    approximate.
    """
    config = problem.hypothesis
    if config is None:
        raise ValueError("no hypothesis config available")
    approximate = config.depth > cp.depth or config.width > cp.grade
    note = ""
    if config.width > cp.grade:
        note = "approximate: hypothesis width exceeds compression grade"
    elif config.depth > cp.depth:
        note = "approximate: hypothesis depth exceeds compression depth"

    loss_of_g = _original_loss(problem)
    loss_of_h = _compressed_loss(cp, problem.label_vocab)
    max_loss = max_out = 0.0
    for i in range(n_gnns):
        gnn = sample_gnn(config, seed + i)
        out_g = forward(problem.graph, problem.features, gnn)
        out_h = forward(cp.graph, cp.features, gnn)
        diff = np.abs(out_g - out_h[cp.rep_of_node])
        scale = 1.0 + _row_max(np.abs(out_g))
        max_out = _worse(max_out, float((_row_max(diff) / scale).max()) if len(diff) else 0.0)

        loss_g, loss_h = loss_of_g(out_g), loss_of_h(out_h)
        max_loss = _worse(max_loss, abs(loss_g - loss_h) / (1.0 + abs(loss_g)))

    passed = max_loss <= tolerance and max_out <= tolerance
    return EquivalenceReport(n_gnns, tolerance, max_loss, max_out,
                             passed, approximate, note)
