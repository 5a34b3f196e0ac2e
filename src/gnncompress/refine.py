"""(Graded) color refinement.

Each round splits node classes by the multiset of in-neighbor classes,
with per-class counts capped at the grade c (c = inf leaves counts
untouched, c = 1 reduces the multiset to its support and coincides with
bisimulation).

`refine` works from a dirty frontier: after round 1, a round re-signs
only the out-neighbors of the nodes that changed class in the round
before, so its cost follows the in-edges of that frontier rather than
the whole graph. A node alone in its class is not re-signed, as a class
of one node cannot split. A frontier of at most _SMALL_ROUND nodes is
signed in plain Python, since a vectorized round costs a fixed sum of
numpy calls however few nodes it signs; the cutoff is where the two cost
the same, and both give the same class ids. `refine` keeps no per-round
partitions, only a split history of at most 2n entries. Canonical class
ids (first occurrence by ascending node id) are derived for a round when
its partition is asked for, so partitions, bundles and CLI outputs stay
byte-reproducible.

A vectorized round groups its nodes by signature: it hashes each row and
sorts the keys once (_intern_hashed), then compares every row with the
first row of its group; on a collision it interns each row as a Python
tuple instead (_intern_exact), so a collision costs time, never a wrong
partition. New class ids go in order of each group's smallest node, so
the history does not depend on how the rows were grouped.
`refine_step` is the one-round reference, re-signing every node and
always interning the tuples.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import (_MULT_LIMIT, _OVERFLOW_MESSAGE, INF, ColoredMultigraph, _check_extent,
                    _count_runs, _group_keys, _hash_step, _ranges, _sorted_distinct,
                    intern_colors)


@dataclass
class Partition:
    """Partition of the node set at a given refinement round.

    class_of[v] is the dense class id of node v; ids are canonical
    (first occurrence by ascending node id).
    """

    class_of: np.ndarray
    round: int

    @property
    def num_classes(self) -> int:
        return int(self.class_of.max()) + 1 if len(self.class_of) else 0


def canonical_partition(labels, round: int = 0) -> Partition:
    """Relabel arbitrary dense labels into canonical class ids."""
    labels = np.asarray(labels, dtype=np.int64)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return Partition(rank[inverse], round)


def _signatures(g: ColoredMultigraph, class_of: np.ndarray, k: int, nodes, grade,
                scratch):
    """Signatures of ``nodes`` (all nodes when None) under ``class_of``
    with k classes, as arrays (headers, prow, pcls, counts): row i is the
    class headers[i] plus the pairs j with prow[j] == i, ascending by
    in-neighbor class pcls[j], with capped count counts[j]. ``scratch``,
    an int64 array of shape (2, >= len(g.in_src)), holds the keys and is
    passed on to _count_runs."""
    if nodes is None:
        row_of_edge, edges, headers = g.in_dst_flat, slice(None), class_of
    else:
        lo = g.in_indptr[nodes]
        degree = g.in_indptr[nodes + 1] - lo
        edges = _ranges(lo, degree)
        row_of_edge = np.repeat(np.arange(len(nodes), dtype=np.int64), degree)
        headers = class_of[nodes]
    src = g.in_src[edges]
    keys = np.take(class_of, src, out=scratch[1, :len(src)])
    keys += np.multiply(row_of_edge, k, out=scratch[0, :len(src)])
    pairs, counts = _count_runs(keys, g.in_mult[edges], grade, scratch)
    prow, pcls = np.divmod(pairs, k, out=(pairs, np.empty_like(pairs)))    # prow reuses pairs
    return headers, prow, pcls, counts


def refine_step(g: ColoredMultigraph, current: Partition, grade=INF) -> Partition:
    """One refinement round, re-signing every node: the reference round.

    Two nodes land in the same new class iff their current classes are
    equal and the capped multisets of their in-neighbors' current classes
    are equal. The per-node signature is (old class id, sorted list of
    (neighbor class id, capped count)); signatures are interned to assign
    new ids canonically. Only the tests and bench/tracer.py (``run.py
    --trace 1``) call it; ROADMAP item 1 retires it.
    """
    _check_extent(grade, "grade", 1)
    if len(current.class_of) != g.node_count:
        raise ValueError("partition does not cover the graph")
    rows = _signatures(g, current.class_of, max(current.num_classes, 1), None, grade,
                       np.empty((2, len(g.in_src)), dtype=np.int64))
    return canonical_partition(_intern_exact(*rows), current.round + 1)


def _intern_exact(headers, prow, pcls, counts) -> np.ndarray:
    """Dense labels of the signature rows of _signatures, equal labels <=>
    equal rows: each row is interned as the tuple (class, c_1, n_1, c_2,
    n_2, ...) by intern_colors, numbered by first occurrence."""
    ends = np.cumsum(np.bincount(prow, minlength=len(headers))).tolist()
    pairs = np.column_stack((pcls, counts)).ravel().tolist()
    rows = [(h, *pairs[2 * a:2 * b]) for h, a, b in zip(headers.tolist(), [0] + ends, ends)]
    return intern_colors(rows)[0]


def _intern_hashed(headers, prow, pcls, counts, scratch) -> np.ndarray:
    """Dense labels of the signature rows of _signatures, equal labels <=>
    equal rows, by hashing each row and checking every hash exactly.

    A row's key is its hashed header plus the wrapping sum of its hashed
    (class, count) pairs (_hash_step); one sort of the keys groups the
    rows. Equal rows get equal keys, so only rows that share a key can be
    wrongly grouped: each is compared with the first row of its group,
    header, pair count and every pair. On any mismatch the rows are
    interned by _intern_exact instead. ``scratch`` is an int64 array of
    shape (2, > len(prow)); its contents are overwritten.
    """
    rows, pairs = len(headers), len(prow)
    lengths = np.bincount(prow, minlength=rows)
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])

    # Pair hashes after a leading 0, then their running sum: a row's sum
    # is the difference of the running sum at its two offsets.
    run = scratch[0, :pairs + 1].view(np.uint64)
    _hash_step(pcls.view(np.uint64), counts.view(np.uint64), run[1:],
               scratch[1, :pairs].view(np.uint64))
    run[0] = 0
    np.cumsum(run, out=run)
    key = run[offsets[1:]]
    key -= run[offsets[:-1]]
    key += _hash_step(headers.view(np.uint64), 0, np.empty_like(key), np.empty_like(key))

    labels, lead = _group_keys(key)
    if lead is None:
        return labels           # all keys distinct, so all rows distinct
    if (headers[lead] != headers).any() or (lengths[lead] != lengths).any():
        return _intern_exact(headers, prow, pcls, counts)

    # The position of each pair's counterpart in its lead row. It steps
    # by 1 within a row, so it is the running sum of steps that are 1
    # except at the first pair of each row.
    filled = lengths > 0
    ref = offsets[lead[filled]]
    jump = ref.copy()
    jump[1:] -= ref[:-1] + lengths[filled][:-1] - 1
    counterpart = scratch[0, :pairs]
    counterpart.fill(1)
    counterpart[offsets[:-1][filled]] = jump
    np.cumsum(counterpart, out=counterpart)
    other = scratch[1, :pairs]
    for values in (pcls, counts):
        np.take(values, counterpart, out=other, mode="clip")
        other -= values
        if other.any():
            return _intern_exact(headers, prow, pcls, counts)
    return labels


class _Rounds(Sequence):
    """Partitions of the computed rounds, each built when accessed."""

    def __init__(self, result: "RefinementResult"):
        self._result = result

    def __len__(self) -> int:
        return len(self._result.class_counts)

    def __getitem__(self, i):
        rounds = range(len(self))[i]
        if isinstance(rounds, range):
            return [self._result.at(d) for d in rounds]
        return self._result.at(rounds)


@dataclass
class RefinementResult:
    """Split history of a refinement run plus stability information.

    cls[v] is node v's class id after the last computed round. A class
    keeps its id while it only loses nodes; the classes split off in round
    r get the next free ids in order of their smallest node, with
    parent[id] the class each left. Ids therefore grow with the round a
    class was born in, which is the r with class_counts[r - 1] <= id <
    class_counts[r]: the classes of round d are the ids below
    class_counts[d], and a node's round-d class is the nearest ancestor of
    its class, itself included, with such an id. The history takes at most
    n entries besides cls.

    Round 0 holds the initial colors. If the partition stabilized,
    stable_round s is minimal with round s == round s + 1 (the detection
    round s + 1 is counted in class_counts and partitions).
    """

    cls: np.ndarray
    parent: np.ndarray
    class_counts: list[int]
    stable_round: int | None
    depth: float

    @property
    def partitions(self) -> _Rounds:
        """Canonical partitions of rounds 0..len - 1, built on access. Only
        the tests and bench/tracer.py (``run.py --trace 1``) read it;
        ROADMAP item 1 retires it."""
        return _Rounds(self)

    def _index(self, round) -> int:
        _check_extent(round, "round", 0)
        if not math.isinf(self.depth) and round > self.depth:
            raise ValueError(f"round {round} beyond requested depth {self.depth}")
        if round < len(self.class_counts):
            return int(round)
        if self.stable_round is not None:
            return self.stable_round
        raise ValueError(f"round {round} was not computed")

    def labels(self, round) -> np.ndarray:
        """Class id of every node at a round as kept in the history, in a
        fresh array: equal ids <=> same class, but the ids are not
        canonical."""
        k = self.class_counts[self._index(round)]
        if k == len(self.parent):
            return self.cls.copy()
        # Pointer doubling to each class's last ancestor with an id below k.
        up = np.arange(len(self.parent), dtype=np.int64)
        up[k:] = self.parent[k:]
        while up[k:].max() >= k:
            up[k:] = up[up[k:]]
        return up[self.cls]

    def at(self, round) -> Partition:
        """Partition at a round, with canonical ids; rounds past
        stabilization return the stable partition. Rounds beyond a finite
        requested depth error."""
        d = self._index(round)
        return canonical_partition(self.labels(d), d)

    @property
    def final(self) -> Partition:
        """Partition at the requested depth; for inf, at(inf) is the stable
        partition. bench/tracer.py reads its num_classes."""
        return self.at(self.depth)


# At or below this many dirty nodes a round runs in plain Python, and so
# does the frontier of at most this many moved nodes: handling a few nodes
# with dicts and sets costs less than the fixed numpy calls of the
# vectorized path. Both cost the same at about 40 nodes of in-degree 3.
_SMALL_ROUND = 40


class _Refiner:
    """Class ids, class sizes and split history of one refine run."""

    def __init__(self, g: ColoredMultigraph, grade):
        n = g.node_count
        self.g, self.grade = g, grade
        self.cap = _MULT_LIMIT if math.isinf(grade) else min(int(grade), _MULT_LIMIT)
        self.cls = canonical_partition(g.colors).class_of
        self.k = int(self.cls.max()) + 1 if n else 0
        self.parent = np.full(n, -1, dtype=np.int64)
        self.size = np.zeros(n, dtype=np.int64)
        self.size[:self.k] = np.bincount(self.cls, minlength=self.k)
        self.mark = np.zeros(n, dtype=bool)         # work flags: all False between uses
        self.best = np.zeros(n, dtype=np.int64)     # work array, per class
        # reused by _count_runs, then by _intern_hashed
        self.scratch = np.empty((2, len(g.in_src) + 1), dtype=np.int64)

    def round(self, dirty) -> np.ndarray:
        """Run a round, re-signing the ``dirty`` nodes (None: every node).
        Returns the nodes that moved to a new class, ascending."""
        cls, size, best, n = self.cls, self.size, self.best, self.g.node_count
        if dirty is not None and 2 * len(dirty) > n:
            dirty = None    # re-signing every node costs less than gathering most
        if dirty is not None:
            if len(dirty) <= _SMALL_ROUND:
                return self._small_round(dirty)
            dirty = dirty[size[cls[dirty]] > 1]     # a class of one node cannot split
        rows = _signatures(self.g, cls, max(self.k, 1), dirty, self.grade, self.scratch)
        if dirty is None:
            dirty = np.arange(n, dtype=np.int64)
        lab = _intern_hashed(*rows, self.scratch)
        groups = int(lab.max()) + 1 if len(lab) else 0
        gcls = np.empty(groups, dtype=np.int64)
        gcls[lab] = rows[0]                             # the class of each group
        gsize = np.bincount(lab, minlength=groups)
        gmin = np.full(groups, n, dtype=np.int64)
        np.minimum.at(gmin, lab, dirty)

        # One group per class keeps the class id. A class with members that
        # were not re-signed keeps it for them: they form a group of their
        # own, as every re-signed node has an in-neighbor in a class born
        # last round. Otherwise the largest group keeps it, ties going to
        # the group with the smallest node.
        best[gcls] = 0
        np.add.at(best, gcls, gsize)
        rank = np.where(size[gcls] > best[gcls], -1, gsize)
        best[gcls] = 0
        np.maximum.at(best, gcls, rank)
        tied = rank == best[gcls]
        best[gcls] = n
        np.minimum.at(best, gcls[tied], gmin[tied])
        keeps = tied & (gmin == best[gcls])

        split = np.flatnonzero(~keeps)      # new ids: by each group's smallest node
        split = split[np.argsort(gmin[split])]
        new_ids = self.k + np.arange(len(split), dtype=np.int64)
        target = gcls.copy()
        target[split] = new_ids
        moving = ~keeps[lab]
        moved = dirty[moving]
        cls[moved] = target[lab[moving]]
        self.parent[new_ids] = gcls[split]
        size[new_ids] = gsize[split]
        np.subtract.at(size, gcls[split], gsize[split])
        self.k += len(split)
        return moved

    def _small_round(self, dirty: np.ndarray) -> np.ndarray:
        """round() over a few dirty nodes, in plain Python: the same
        signatures, group order and id rules as the vectorized path."""
        g, cls, size, parent, cap = self.g, self.cls, self.size, self.parent, self.cap
        src, mult = g.in_src, g.in_mult
        groups: dict[tuple, list[int]] = {}     # in first-occurrence order
        for v, c, lo, hi in zip(dirty.tolist(), cls[dirty].tolist(),
                                g.in_indptr[dirty].tolist(), g.in_indptr[dirty + 1].tolist()):
            # A class of one node cannot split. Only nodes of in-degree 2 or
            # more look the size up: a path's nodes, of in-degree 1, sign
            # cheaply, and on chains-inf the lookup for each cost 2% of refine.
            if hi - lo > 1 and size[c] == 1:
                continue
            sums: dict[int, int] = {}
            for b, m in zip(cls[src[lo:hi]].tolist(), mult[lo:hi].tolist()):
                sums[b] = sums.get(b, 0) + m
            if cap < _MULT_LIMIT:
                pairs = tuple(sorted((b, m if m < cap else cap) for b, m in sums.items()))
            elif sums and max(sums.values()) >= _MULT_LIMIT:
                raise ValidationError(_OVERFLOW_MESSAGE)
            else:
                pairs = tuple(sorted(sums.items()))
            groups.setdefault((c, pairs), []).append(v)

        # The vectorized path's rule: a class with members that were not
        # re-signed keeps its id for them; otherwise its first largest group,
        # which holds the smallest node among the largest, keeps it.
        resigned: dict[int, int] = {}
        largest: dict[int, list[int]] = {}
        for (c, _), members in groups.items():
            resigned[c] = resigned.get(c, 0) + len(members)
            if len(members) > len(largest.get(c, ())):
                largest[c] = members
        keeper = {c: members for c, members in largest.items() if resigned[c] == size[c]}
        moved = []
        for (c, _), members in groups.items():
            if keeper.get(c) is members:
                continue
            new = self.k
            self.k += 1
            parent[new] = c
            size[new] = len(members)
            size[c] -= len(members)
            for v in members:
                cls[v] = new
            moved += members
        moved.sort()
        return np.array(moved, dtype=np.int64)

    def frontier(self, moved: np.ndarray) -> np.ndarray:
        """Distinct out-neighbors of the moved nodes, ascending."""
        g, mark = self.g, self.mark
        if len(moved) <= _SMALL_ROUND:
            found = set()
            for lo, hi in zip(g.out_indptr[moved].tolist(), g.out_indptr[moved + 1].tolist()):
                found.update(g.out_dst[lo:hi].tolist())
            return np.array(sorted(found), dtype=np.int64)
        lo = g.out_indptr[moved]
        targets = g.out_dst[_ranges(lo, g.out_indptr[moved + 1] - lo)]
        if 32 * len(targets) < len(mark):   # a small frontier: sorting beats a full scan
            return _sorted_distinct(targets)
        mark[targets] = True
        found = np.flatnonzero(mark)
        mark[found] = False
        return found


def refine(g: ColoredMultigraph, depth=INF, grade=INF) -> RefinementResult:
    """Refine the initial colors round by round, re-signing only the
    dirty frontier.

    Round 1 signs every node. Round r + 1 re-signs only the out-neighbors
    of the nodes that changed class in round r: any other node has the
    same in-neighbor classes as in round r, so it stays with the members
    of its class that were not re-signed either. Those keep the class id;
    in a class whose members were all re-signed, the largest group keeps
    it (ties: the group with the smallest node). Every other group becomes
    a new class. The partitions equal those of iterated refine_step.

    Stops after ``depth`` rounds, or at the first round that changes no
    class (recording the stable round); with depth = inf stability is
    always reached within node_count rounds since every non-stable round
    strictly increases the class count.
    """
    _check_extent(depth, "depth", 0)
    _check_extent(grade, "grade", 1)
    state = _Refiner(g, grade)
    counts = [state.k]
    stable = None
    bound = g.node_count + 1 if math.isinf(depth) else int(depth)
    dirty = None                                    # round 1: every node
    for r in range(1, bound + 1):
        moved = state.round(dirty)
        counts.append(state.k)
        if not len(moved):
            stable = r - 1
            break
        if r < bound:                               # no round reads the last frontier
            dirty = state.frontier(moved)
    if math.isinf(depth) and stable is None:
        raise AssertionError("refinement failed to stabilize within the node bound")
    return RefinementResult(state.cls, state.parent[:state.k].copy(), counts, stable, depth)


def naive_partition(g: ColoredMultigraph, depth: int, grade=INF) -> Partition:
    """Partition of all nodes by equality of their expanded color terms
    at a depth: the independent oracle for refinement.

    The depth-0 term of a node is its color payload; the depth-d term
    joins its depth-(d-1) term with each distinct in-neighbor term and
    its summed multiplicity, capped at the grade, sorted canonically.
    Terms are kept as canonical strings, built in plain Python without
    the refine_step signature pipeline.
    """
    _check_extent(grade, "grade", 1)
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
