"""(Graded) color refinement.

Each round splits node classes by the multiset of in-neighbor classes,
with per-class counts capped at the grade c (c = inf leaves counts
untouched, c = 1 reduces the multiset to its support and coincides with
bisimulation). Class ids are canonical: assigned in order of first
occurrence by ascending node id, so outputs are byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import ColoredMultigraph, _count_runs

INF = math.inf


def _validate_grade(c) -> None:
    if not (math.isinf(c) or (float(c).is_integer() and c >= 1)):
        raise ValueError(f"grade must be a positive integer or inf, got {c!r}")


def _validate_depth(d) -> None:
    if not (math.isinf(d) or (float(d).is_integer() and d >= 0)):
        raise ValueError(f"depth must be a non-negative integer or inf, got {d!r}")


@dataclass
class Partition:
    """Partition of the node set at a given refinement round.

    class_of[v] is the dense class id of node v; ids are canonical
    (first occurrence by ascending node id).
    """

    class_of: np.ndarray
    round: int
    _classes: list | None = field(default=None, repr=False, compare=False)

    @property
    def num_classes(self) -> int:
        return int(self.class_of.max()) + 1 if len(self.class_of) else 0

    @property
    def classes(self) -> list[np.ndarray]:
        """Member lists per class id, each ascending."""
        if self._classes is None:
            order = np.argsort(self.class_of, kind="stable")
            counts = np.bincount(self.class_of, minlength=self.num_classes)
            self._classes = np.split(order, np.cumsum(counts)[:-1])
        return self._classes

    def class_sets(self) -> set[frozenset]:
        return {frozenset(int(v) for v in members) for members in self.classes}

    def same_blocks(self, other: "Partition") -> bool:
        return np.array_equal(self.class_of, other.class_of)


def canonical_partition(labels, round: int = 0) -> Partition:
    """Relabel arbitrary dense labels into canonical class ids."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        return Partition(labels.copy(), round)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return Partition(rank[inverse], round)


def initial_partition(g: ColoredMultigraph) -> Partition:
    """Round-0 partition: nodes grouped by initial color."""
    return canonical_partition(g.colors, round=0)


def refine_step(g: ColoredMultigraph, current: Partition, grade=INF) -> Partition:
    """One refinement round.

    Two nodes land in the same new class iff their current classes are
    equal and the capped multisets of their in-neighbors' current classes
    are equal. The per-node signature is (old class id, sorted list of
    (neighbor class id, capped count)); signatures are interned to assign
    new ids canonically.
    """
    _validate_grade(grade)
    n = g.node_count
    if len(current.class_of) != n:
        raise ValueError("partition does not cover the graph")
    if n == 0:
        return Partition(current.class_of.copy(), current.round + 1)

    k = current.num_classes
    pairs, sums, _ = _count_runs(g.in_dst_flat * k + current.class_of[g.in_src],
                                 g.in_mult, grade)
    udst, ucls = np.divmod(pairs, k)
    pairs_per_node = np.bincount(udst, minlength=n)

    # Flat signature buffer: [old_class, cls_1, cnt_1, cls_2, cnt_2, ...] per node.
    sig_len = 1 + 2 * pairs_per_node
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sig_len, out=offsets[1:])
    flat = np.empty(offsets[-1], dtype=np.int64)
    flat[offsets[:-1]] = current.class_of
    first_pair = np.zeros(n, dtype=np.int64)
    np.cumsum(pairs_per_node[:-1], out=first_pair[1:])
    rank = np.arange(len(udst), dtype=np.int64) - first_pair[udst]
    base = offsets[udst] + 1 + 2 * rank
    flat[base] = ucls
    flat[base + 1] = sums

    return Partition(_intern_signatures(flat, offsets, n), current.round + 1)


# Below this many nodes a plain dict beats the vectorized bucketing.
_INTERN_LOOP_CUTOFF = 1024


def _intern_signatures(flat, offsets, n) -> np.ndarray:
    """Group nodes by their signature slice of ``flat``; return canonical
    class ids (first occurrence by ascending node id)."""
    if n < _INTERN_LOOP_CUTOFF:
        class_of = np.empty(n, dtype=np.int64)
        table: dict[bytes, int] = {}
        buf = flat.tobytes()
        itemsize = flat.itemsize
        for v in range(n):
            sig = buf[offsets[v] * itemsize:offsets[v + 1] * itemsize]
            cid = table.get(sig)
            if cid is None:
                cid = len(table)
                table[sig] = cid
            class_of[v] = cid
        return class_of
    # Bucket nodes by signature length, then unique rows per bucket.
    lengths = np.diff(offsets)
    labels = np.empty(n, dtype=np.int64)
    base = 0
    for length in np.unique(lengths):
        nodes = np.flatnonzero(lengths == length)
        block = flat[offsets[nodes, None] + np.arange(length)]
        view = np.ascontiguousarray(block).view(
            np.dtype((np.void, int(length) * flat.itemsize))).ravel()
        uniq, inverse = np.unique(view, return_inverse=True)
        labels[nodes] = base + inverse
        base += len(uniq)
    return canonical_partition(labels).class_of


@dataclass
class RefinementResult:
    """Per-round partitions plus stability information.

    partitions[0] holds the initial colors. If the partition stabilized,
    stable_round s is minimal with partitions[s] == partitions[s + 1]
    (the detection round s + 1 is kept in the list).
    """

    partitions: list[Partition]
    stable_round: int | None
    grade: float
    depth: float

    def at(self, round) -> Partition:
        """Partition at a round; rounds past stabilization return the
        stable partition. Rounds beyond a finite requested depth error."""
        if not math.isinf(self.depth) and round > self.depth:
            raise ValueError(f"round {round} beyond requested depth {self.depth}")
        if round < len(self.partitions):
            return self.partitions[int(round)]
        if self.stable_round is not None:
            return self.partitions[self.stable_round]
        raise ValueError(f"round {round} was not computed")

    @property
    def final(self) -> Partition:
        """Partition at the requested depth (stable partition for inf)."""
        if math.isinf(self.depth):
            return self.partitions[self.stable_round]
        return self.at(self.depth)

    @property
    def class_counts(self) -> list[int]:
        return [p.num_classes for p in self.partitions]


def refine(g: ColoredMultigraph, depth=INF, grade=INF) -> RefinementResult:
    """Iterate refine_step from the initial colors.

    Stops after ``depth`` rounds, or at the first repeated partition
    (recording the stable round); with depth = inf stability is always
    reached within node_count rounds since every non-stable round strictly
    increases the class count.
    """
    _validate_depth(depth)
    _validate_grade(grade)
    partitions = [initial_partition(g)]
    stable = None
    bound = depth if not math.isinf(depth) else g.node_count + 1
    r = 0
    while r < bound:
        nxt = refine_step(g, partitions[-1], grade)
        partitions.append(nxt)
        r += 1
        if nxt.same_blocks(partitions[-2]):
            stable = partitions[-2].round
            break
    if math.isinf(depth) and stable is None:
        raise AssertionError("refinement failed to stabilize within the node bound")
    return RefinementResult(partitions, stable, grade, depth)


def classes(result: RefinementResult, round) -> Partition:
    """Refinement classes at the given round (see RefinementResult.at)."""
    return result.at(round)


_ORACLE_DEPTH_LIMIT = 8


def naive_color(g: ColoredMultigraph, v: int, depth: int, grade=INF):
    """Expanded refinement color term of one node, built recursively.

    The depth-0 term is the node's color payload; the depth-d term is
    (depth-(d-1) term, pairs) where pairs lists each distinct in-neighbor
    term with its capped count, sorted canonically. Term equality is
    equivalent to membership in the same refinement class at that depth.
    Exponential-size representation: intended for small graphs and depths.
    """
    _validate_grade(grade)
    if math.isinf(depth) or depth > _ORACLE_DEPTH_LIMIT:
        raise ValueError(f"oracle depth {depth} exceeds budget ({_ORACLE_DEPTH_LIMIT})")
    if not 0 <= v < g.node_count:
        raise IndexError(f"node {v} out of range")

    memo: dict[tuple[int, int], object] = {}

    def term(u: int, d: int):
        key = (u, d)
        if key in memo:
            return memo[key]
        if d == 0:
            t = g.color_payload(u)
        else:
            lo, hi = g.in_indptr[u], g.in_indptr[u + 1]
            counts: dict = {}
            for w, m in zip(g.in_src[lo:hi], g.in_mult[lo:hi]):
                sub = term(int(w), d - 1)
                counts[sub] = counts.get(sub, 0) + int(m)
            cap = (lambda x: x) if math.isinf(grade) else (lambda x: min(x, int(grade)))
            pairs = tuple(sorted(((s, cap(c)) for s, c in counts.items()),
                                 key=lambda p: repr(p[0])))
            t = (term(u, d - 1), pairs)
        memo[key] = t
        return t

    return term(v, depth)


def naive_partition(g: ColoredMultigraph, depth: int, grade=INF) -> Partition:
    """Partition of all nodes by naive_color term equality at a depth.

    Uses canonical string encodings of the terms so suite-scale corpora
    stay tractable; independent of the refine_step signature pipeline.
    """
    _validate_grade(grade)
    if math.isinf(depth):
        raise ValueError("naive_partition needs a finite depth")
    n = g.node_count
    terms = [repr(g.color_payload(v)) for v in range(n)]
    finite = not math.isinf(grade)
    for _ in range(depth):
        nxt = []
        for v in range(n):
            lo, hi = g.in_indptr[v], g.in_indptr[v + 1]
            counts: dict[str, int] = {}
            for w, m in zip(g.in_src[lo:hi], g.in_mult[lo:hi]):
                t = terms[w]
                counts[t] = counts.get(t, 0) + int(m)
            if finite:
                cap = int(grade)
                items = sorted((t, min(c, cap)) for t, c in counts.items())
            else:
                items = sorted(counts.items())
            inner = ",".join(f"{t}*{c}" for t, c in items)
            nxt.append(f"⟨{terms[v]}|{inner}⟩")
        terms = nxt
    ids: dict[str, int] = {}
    class_of = np.empty(n, dtype=np.int64)
    for v, t in enumerate(terms):
        cid = ids.get(t)
        if cid is None:
            cid = len(ids)
            ids[t] = cid
        class_of[v] = cid
    return Partition(class_of, depth)
