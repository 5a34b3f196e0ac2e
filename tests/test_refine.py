import importlib
import math
import re
import warnings

import numpy as np
import pytest

from gnncompress import (GnnConfig, ValidationError, build_graph,
                         choose_substitution, naive_partition, reduce_graph, refine,
                         verify_reduct)
from gnncompress.graph import ColoredMultigraph
from gnncompress.reduction import incidence_all
from gnncompress.refine import (_SMALL_ROUND, RefinementResult, canonical_partition,
                                refine_step)
from conftest import (A1, A2, A3, B1, B2, B3, InEdgeReads, bisimulation_partition,
                      iterated_partitions, least_id_substitution, partition_blocks,
                      random_graph, refines, same_partition, signed_in_edges)

refine_module = importlib.import_module("gnncompress.refine")
graph_module = importlib.import_module("gnncompress.graph")


def test_fig1_round1(fig1):
    r = refine(fig1, depth=1)
    assert partition_blocks(r.at(1).class_of) == {
        frozenset({A1}), frozenset({A2, A3}), frozenset({B1, B2, B3})}


def test_fig1_round2_splits_b3(fig1):
    r = refine(fig1, depth=2)
    assert partition_blocks(r.at(2).class_of) == {
        frozenset({A1}), frozenset({A2, A3}), frozenset({B1, B2}), frozenset({B3})}


def test_fig1_stable_round(fig1):
    r = refine(fig1)
    assert r.stable_round == 2
    assert r.class_counts == [2, 3, 4, 4]
    # rounds past stabilization return the stable partition
    assert np.array_equal(r.at(5).class_of, r.at(2).class_of)


def test_fig1_graded_round1(fig1):
    r = refine(fig1, depth=1, grade=1)
    assert partition_blocks(r.at(1).class_of) == {
        frozenset({A1, A2, A3}), frozenset({B1, B2, B3})}


def test_depth_zero_is_initial_colors(fig1):
    r = refine(fig1, depth=0)
    assert r.at(0).num_classes == 2
    with pytest.raises(ValueError):
        r.at(1)


def test_single_color_cycle_stable_at_zero():
    k = 7
    g = build_graph([(i, (i + 1) % k, 1) for i in range(k)], ["x"] * k)
    r = refine(g)
    assert r.stable_round == 0
    assert r.at(0).num_classes == 1


def test_round_beyond_finite_depth_errors(fig1):
    r = refine(fig1, depth=1)
    with pytest.raises(ValueError):
        r.at(2)


def test_early_stop_within_finite_depth(fig1):
    r = refine(fig1, depth=10)
    assert r.stable_round == 2
    assert len(r.partitions) == 4
    # rounds 4..10 are valid queries and equal the stable partition
    assert np.array_equal(r.at(7).class_of, r.at(2).class_of)


def test_partitions_index_like_a_list(fig1):
    r = refine(fig1)                        # rounds 0..3
    assert r.partitions[-1].round == 3
    assert [p.round for p in r.partitions[1:]] == [1, 2, 3]
    assert [p.round for p in r.partitions[::-2]] == [3, 1]
    assert r.partitions[7:] == []
    for i in (4, -5):
        with pytest.raises(IndexError):
            r.partitions[i]


def test_extent_errors_name_the_extent(fig1):
    cases = ((lambda: refine(fig1, depth=-1),
              "depth must be a non-negative integer or inf, got -1"),
             (lambda: refine(fig1, depth=1.5),
              "depth must be a non-negative integer or inf, got 1.5"),
             (lambda: refine(fig1, grade=0), "grade must be a positive integer or inf, got 0"),
             (lambda: refine_step(fig1, canonical_partition(fig1.colors), grade=0),
              "grade must be a positive integer or inf, got 0"),
             (lambda: naive_partition(fig1, 1, grade=0),
              "grade must be a positive integer or inf, got 0"),
             (lambda: GnnConfig((2, 2), width=0),
              "width must be a positive integer or inf, got 0"),
             (lambda: GnnConfig((2, 2), width=1.5),
              "width must be a positive integer or inf, got 1.5"),
             (lambda: refine(fig1, depth=2).at(-1),
              "round must be a non-negative integer or inf, got -1"),
             (lambda: refine(fig1, depth=2).at(1.5),
              "round must be a non-negative integer or inf, got 1.5"),
             (lambda: refine(fig1, depth=2).labels(-4),
              "round must be a non-negative integer or inf, got -4"))
    for call, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_rounds_and_partitions_must_fit(fig1):
    with pytest.raises(ValueError, match="partition does not cover the graph"):
        refine_step(fig1, canonical_partition(fig1.colors[:5]))
    unstable = RefinementResult(np.zeros(2, dtype=np.int64), np.zeros(1, dtype=np.int64),
                                [1], None, math.inf)
    with pytest.raises(ValueError, match="round 1 was not computed"):
        unstable.at(1)


def test_refinement_monotone(fig1):
    r = refine(fig1)
    for a, b in zip(r.partitions, r.partitions[1:]):
        assert refines(b.class_of, a.class_of)


def test_idempotent_at_fixpoint(fig1):
    r = refine(fig1)
    stable = r.partitions[r.stable_round]
    again = refine_step(fig1, stable)
    assert np.array_equal(again.class_of, stable.class_of)


def test_naive_color_fig1_b3(fig1):
    # every b has two a in-neighbors; b3's differ from the others' in round 1
    assert partition_blocks(naive_partition(fig1, 1).class_of) == {
        frozenset({A1}), frozenset({A2, A3}), frozenset({B1, B2, B3})}
    assert frozenset({B3}) in partition_blocks(naive_partition(fig1, 2).class_of)


def test_naive_color_no_in_edges():
    # nodes without in-edges keep their color term at every depth
    g = build_graph([(0, 1, 1)], ["x", "x", "x"])
    assert partition_blocks(naive_partition(g, 0).class_of) == {frozenset({0, 1, 2})}
    for d in (1, 2):
        assert partition_blocks(naive_partition(g, d).class_of) == {
            frozenset({0, 2}), frozenset({1})}


def test_naive_color_depth_budget(fig1):
    with pytest.raises(ValueError):
        naive_partition(fig1, math.inf)


def test_naive_color_graded_cap():
    # node 1 sees a five times, node 2 three times: apart only above grade 3
    g = build_graph([(0, 1, 5), (0, 2, 3)], ["a", "b", "b"])
    for grade, together in ((1, True), (3, True), (4, False), (math.inf, False)):
        class_of = naive_partition(g, 1, grade).class_of
        assert (class_of[1] == class_of[2]) == together, grade


def test_naive_partition_matches_refine_on_fig1(fig1):
    for d in (1, 2, 3):
        for c in (1, 2, math.inf):
            a = naive_partition(fig1, d, c)
            b = refine(fig1, depth=d, grade=c).at(d)
            assert same_partition(a.class_of, b.class_of), (d, c)


def test_bisimulation_oracle_matches_grade_one(fig1):
    stable = refine(fig1, grade=1).final
    oracle = bisimulation_partition(fig1)
    assert same_partition(stable.class_of, oracle.class_of)


def test_mean_of_fig1_partition_canonical_ids(fig1):
    # class ids are assigned by first occurrence in node order
    r = refine(fig1, depth=2)
    assert list(r.at(2).class_of) == [0, 1, 1, 2, 2, 3]


def test_refine_counts_near_multiplicity_limit():
    # node 5: one in-edge of 2**62 - 5; node 6: five in-edges of 2**62 - 1,
    # whose int64 sum wraps to the same 2**62 - 5
    edges = [(0, 5, 2**62 - 5)] + [(i, 6, 2**62 - 1) for i in range(5)]
    g = build_graph(edges, ["a"] * 5 + ["b", "b"])
    with pytest.raises(ValidationError, match="overflow"):
        refine(g, depth=1)
    for grade in (1, 3, 2**62 - 1):     # capped counts stay below the limit
        assert same_partition(refine(g, depth=1, grade=grade).at(1).class_of,
                              naive_partition(g, 1, grade).class_of), grade


def test_empty_graph_refine():
    g = build_graph([], [])
    r = refine(g)
    assert r.stable_round == 0
    assert r.final.num_classes == 0
    # the empty graph and edgeless graphs pass through every layer with
    # numpy's own handling of empty arrays, and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for colors, classes in (([], []), (["a"], [0]), (["a", "b", "a"], [0, 1, 0])):
            g = build_graph([], colors)
            n = len(colors)
            p = canonical_partition([7, 3, 7][:n], round=4)
            assert (p.class_of.dtype, p.class_of.tolist(), p.round) == (np.int64, classes, 4)
            step = refine_step(g, canonical_partition(g.colors))
            assert (step.class_of.dtype, step.class_of.tolist(), step.round) == (
                np.int64, classes, 1)
            final = refine(g).final
            assert final.class_of.tolist() == classes
            inc = incidence_all(g, final)
            assert (inc.dtype, inc.tolist()) == (np.int64, [0] * n)
            for reps in (choose_substitution(g, final), least_id_substitution(final)):
                red = reduce_graph(g, reps)
                assert (red.graph.node_count, red.graph.simple_edge_count) == (min(n, 2), 0)
                assert red.node_ids.tolist() == [0, 1][:n]
                assert red.rep_index_of_node.tolist() == classes
                assert verify_reduct(g, red.graph, red.rep_index_of_node).ok


def assert_matches_reference(g, depth, grade):
    """refine agrees with iterated refine_step at every round."""
    r = refine(g, depth=depth, grade=grade)
    parts, stable = iterated_partitions(g, depth, grade)
    assert r.stable_round == stable
    assert r.class_counts == [p.num_classes for p in parts]
    assert len(r.partitions) == len(parts)
    for d, p in enumerate(parts):
        assert np.array_equal(r.at(d).class_of, p.class_of), d
        assert r.at(d).round == d


def one_color_graph(n, src, dst, mult):
    return ColoredMultigraph.from_edge_arrays(
        n, np.asarray(src), np.asarray(dst), np.asarray(mult, dtype=np.int64),
        np.zeros(n, dtype=np.int64), ("x",))


def directed_path(n):
    return one_color_graph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))


def broom(leaves):
    """A directed path of 2 * leaves + 2 nodes whose last node points to
    ``leaves`` more, with multiplicities 1-3: the round after that node
    moves re-signs exactly the leaves."""
    hub = 2 * leaves + 1
    src = list(range(hub)) + [hub] * leaves
    dst = list(range(1, hub + 1 + leaves))
    mult = [1] * hub + [1 + i % 3 for i in range(leaves)]
    return one_color_graph(hub + 1 + leaves, src, dst, mult)


@pytest.fixture
def round_paths(monkeypatch):
    """Records ("small", dirty count) for each round in plain Python and
    ("vectorized", dirty count) for each vectorized round of a frontier."""
    seen = set()
    small, sign = refine_module._Refiner._small_round, refine_module._signatures

    def record_small(self, dirty):
        seen.add(("small", len(dirty)))
        return small(self, dirty)

    def record_vectorized(g, class_of, k, nodes, *rest):
        if nodes is not None:
            seen.add(("vectorized", len(nodes)))
        return sign(g, class_of, k, nodes, *rest)

    monkeypatch.setattr(refine_module._Refiner, "_small_round", record_small)
    monkeypatch.setattr(refine_module, "_signatures", record_vectorized)
    return seen


def random_multigraphs(count, seed):
    """Seeded random multigraphs: sparse and dense, 1-3 colors,
    multiplicities 1-3, with every fifth one a set of directed paths."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 3 * n + 1))
        g = random_graph(n, m, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                         seed=seed + i)
        if i % 5 == 0:
            src = np.flatnonzero(rng.random(n - 1) < 0.9)
            g = ColoredMultigraph.from_edge_arrays(
                n, src, src + 1, np.ones(len(src), dtype=np.int64),
                np.zeros(n, dtype=np.int64), (0,))
        graphs.append(g)
    return graphs


@pytest.mark.parametrize("grade", [1, 2, 3, math.inf])
def test_refine_matches_iterated_refine_step(grade, round_paths):
    # the brooms re-sign exactly _SMALL_ROUND and _SMALL_ROUND + 1 leaves
    graphs = random_multigraphs(40, seed=31) + [broom(_SMALL_ROUND), broom(_SMALL_ROUND + 1)]
    for g in graphs:
        for depth in (0, 1, 2, 3, 4, 5, math.inf):
            assert_matches_reference(g, depth, grade)
    assert ("small", _SMALL_ROUND) in round_paths
    assert ("vectorized", _SMALL_ROUND + 1) in round_paths


@pytest.mark.parametrize("grade", [1, 2, 3, math.inf])
def test_refine_matches_iterated_refine_step_on_larger_graphs(grade, round_paths):
    # round 1 signs over a thousand nodes, later rounds gathered frontiers
    # and a few nodes in plain Python
    for i, (n, m) in enumerate([(1100, 1300), (1500, 4000)]):
        g = random_graph(n, m, n_colors=2, max_mult=3, seed=70 + i)
        for depth in (2, math.inf):
            assert_matches_reference(g, depth, grade)
    assert {path for path, _ in round_paths} == {"small", "vectorized"}


@pytest.fixture
def exact_fallbacks(monkeypatch):
    """Records the row count of each _intern_exact call: in a refine run,
    only _intern_hashed's fallback makes those."""
    calls = []
    exact = refine_module._intern_exact

    def counting(headers, prow, pcls, counts):
        calls.append(len(headers))
        return exact(headers, prow, pcls, counts)

    monkeypatch.setattr(refine_module, "_intern_exact", counting)
    return calls


SPLITMIX = graph_module._HASH_MULTIPLIERS[1:]
# "all": every key is equal. "some": keys ignore class ids, in headers and
# pairs alike, so rows collide when only class ids tell them apart.
COLLIDING_MULTIPLIERS = {"all": (np.uint64(0),) * 3, "some": (np.uint64(0), *SPLITMIX)}


@pytest.mark.parametrize("collide", sorted(COLLIDING_MULTIPLIERS))
@pytest.mark.parametrize("grade", [1, 2, math.inf])
def test_hash_collisions_fall_back_to_exact_interning(grade, collide, monkeypatch,
                                                      exact_fallbacks):
    # rounds of 1 to 60 rows in the small graphs, over a thousand in the others
    graphs = random_multigraphs(40, seed=31) + [
        random_graph(1100, 1300, n_colors=2, max_mult=3, seed=80),
        random_graph(1500, 4000, n_colors=2, max_mult=3, seed=81)]
    unpatched = [refine(g, grade=grade) for g in graphs]
    assert not exact_fallbacks
    monkeypatch.setattr(graph_module, "_HASH_MULTIPLIERS", COLLIDING_MULTIPLIERS[collide])
    patched = [refine(g, grade=grade) for g in graphs]
    assert min(exact_fallbacks) < 60 and max(exact_fallbacks) > 1000
    for g, r, plain in zip(graphs, patched, unpatched):
        assert np.array_equal(r.cls, plain.cls)
        assert np.array_equal(r.parent, plain.parent)
        parts, stable = iterated_partitions(g, grade=grade)
        assert r.stable_round == stable == plain.stable_round
        assert r.class_counts == [p.num_classes for p in parts] == plain.class_counts
        for d, p in enumerate(parts):
            assert np.array_equal(r.at(d).class_of, p.class_of), d
            assert np.array_equal(r.at(d).class_of, plain.at(d).class_of), d


@pytest.mark.parametrize("differ", [None, "header", "pair count", "class", "count"])
def test_hash_check_compares_each_row_in_full(differ, monkeypatch, exact_fallbacks):
    # every key collides, and odd rows differ from even ones in one part
    # only, so only the check of that part can tell them apart
    monkeypatch.setattr(graph_module, "_HASH_MULTIPLIERS", COLLIDING_MULTIPLIERS["all"])
    for n in (2, 17, 1100):
        odd = np.arange(n) % 2
        lengths = 1 + odd if differ == "pair count" else np.ones(n, dtype=np.int64)
        pairs = int(lengths.sum())
        headers = odd if differ == "header" else np.zeros(n, dtype=np.int64)
        pcls = np.repeat(odd, lengths) if differ == "class" else np.zeros(pairs, dtype=np.int64)
        counts = (1 + np.repeat(odd, lengths) if differ == "count"
                  else np.ones(pairs, dtype=np.int64))
        prow = np.repeat(np.arange(n), lengths)
        labels = refine_module._intern_hashed(headers, prow, pcls, counts,
                                              np.empty((2, pairs + 1), dtype=np.int64))
        expected = np.zeros(n, dtype=np.int64) if differ is None else odd
        assert np.array_equal(canonical_partition(labels).class_of, expected), n
    assert exact_fallbacks == ([] if differ is None else [2, 17, 1100])


def test_hash_path_at_the_multiplicity_limit(monkeypatch):
    # in-edges of up to 2**62 - 1 whose sums pass the limit, and a fifth
    # of the nodes with no in-edges, in rounds that all hash
    rng = np.random.default_rng(90)
    n = 1200
    big = [1, 2, 2**61, 2**62 - 1]
    edges = {}
    for v in range(n // 5, n):
        for w in rng.choice(n, int(rng.integers(1, 4)), replace=False).tolist():
            edges[(w, v)] = big[int(rng.integers(0, len(big)))]
    g = build_graph([(w, v, m) for (w, v), m in edges.items()],
                    rng.integers(0, 2, n).tolist())
    calls = {"hashed": 0, "signed": 0}
    intern, sign = refine_module._intern_hashed, refine_module._signatures

    def hashing(*args):
        calls["hashed"] += 1
        return intern(*args)

    def signing(*args):
        calls["signed"] += 1
        return sign(*args)

    monkeypatch.setattr(refine_module, "_intern_hashed", hashing)
    monkeypatch.setattr(refine_module, "_signatures", signing)
    grade = 2**62 - 1
    r = refine(g, depth=3, grade=grade)
    assert calls["hashed"] == calls["signed"] > 0
    for d in range(4):
        assert np.array_equal(r.at(d).class_of, naive_partition(g, d, grade).class_of), d
    with pytest.raises(ValidationError, match="overflow"):
        refine(g, depth=3, grade=math.inf)


@pytest.mark.parametrize("grade", [1, 2, 3, math.inf])
def test_small_rounds_keep_the_vectorized_history(grade, monkeypatch):
    # class ids, parents and counts, not only the partitions, are those of
    # a run whose every round is vectorized
    graphs = (random_multigraphs(40, seed=31) + [broom(_SMALL_ROUND), broom(_SMALL_ROUND + 1)]
              + [random_graph(1500, 4000, n_colors=2, max_mult=3, seed=71)])
    for g in graphs:
        mixed = refine(g, grade=grade)
        monkeypatch.setattr(refine_module, "_SMALL_ROUND", -1)
        vectorized = refine(g, grade=grade)
        monkeypatch.undo()
        assert np.array_equal(mixed.cls, vectorized.cls)
        assert np.array_equal(mixed.parent, vectorized.parent)
        assert mixed.class_counts == vectorized.class_counts
        assert mixed.stable_round == vectorized.stable_round


@pytest.mark.parametrize("grade", [1, 2, math.inf])
def test_class_ids_do_not_depend_on_the_grouping_path(grade, monkeypatch):
    # class ids, parents and counts are the same when every round falls
    # back to exact interning, and when every round is vectorized
    rng = np.random.default_rng(95)
    for i in range(60):
        n = int(50 * 60 ** rng.random())            # 50 to 3,000 nodes
        g = random_graph(n, int(rng.integers(n // 2, 3 * n)), int(rng.integers(1, 4)),
                         int(rng.integers(1, 4)), seed=950 + i)
        plain = refine(g, grade=grade)
        for module, name, value in (
                (graph_module, "_HASH_MULTIPLIERS", COLLIDING_MULTIPLIERS["all"]),
                (refine_module, "_SMALL_ROUND", -1)):
            monkeypatch.setattr(module, name, value)
            r = refine(g, grade=grade)
            monkeypatch.undo()
            assert np.array_equal(r.cls, plain.cls), (i, name)
            assert np.array_equal(r.parent, plain.parent), (i, name)
            assert r.class_counts == plain.class_counts, (i, name)


def test_small_round_guards_the_multiplicity_limit(monkeypatch):
    # Round 1 is always vectorized and per-class sums only shrink after it,
    # so refine never reaches this guard: run a frontier round directly on
    # the round-0 state. Node 6's five in-edges of 2**62 - 1 sum past the
    # limit; capped at 2**62 - 1 they split from node 5's one edge.
    edges = [(0, 5, 2**62 - 5)] + [(i, 6, 2**62 - 1) for i in range(5)]
    g = build_graph(edges, ["a"] * 5 + ["b", "b"])
    dirty = np.array([5, 6])
    classes = {}
    for cutoff in (_SMALL_ROUND, -1):       # the small round, then the vectorized one
        monkeypatch.setattr(refine_module, "_SMALL_ROUND", cutoff)
        for grade in (2**62, math.inf):
            with pytest.raises(ValidationError, match="overflow"):
                refine_module._Refiner(g, grade).round(dirty)
        for grade in (1, 3, 2**62 - 1):
            state = refine_module._Refiner(g, grade)
            moved = state.round(dirty)
            classes.setdefault(grade, []).append((moved.tolist(), state.cls.tolist()))
    for grade in (1, 3):
        assert classes[grade][0] == classes[grade][1] == ([], [0, 0, 0, 0, 0, 1, 1])
    assert classes[2**62 - 1][0] == classes[2**62 - 1][1] == ([6], [0, 0, 0, 0, 0, 1, 2])


def test_long_path_refines_one_node_per_round():
    n = 3000
    g = directed_path(n)
    r = refine(g)
    assert r.stable_round == n - 1
    assert r.class_counts == list(range(1, n + 1)) + [n]
    # round d tells the first d nodes apart by their distance from the
    # start and leaves the rest together: node i is in class min(i, d)
    nodes = np.arange(n)
    for d in range(n + 1):
        assert np.array_equal(r.at(d).class_of, np.minimum(nodes, d)), d
    parts, _ = iterated_partitions(g, depth=3)
    for d, p in enumerate(parts):
        assert np.array_equal(r.at(d).class_of, p.class_of), d


def test_labels_are_a_copy_at_every_round(fig1):
    r = refine(fig1)
    for d in range(len(r.class_counts)):
        before = r.at(d).class_of.copy()
        r.labels(d)[:] = 0
        assert np.array_equal(r.at(d).class_of, before), d


def test_long_path_signs_with_numpy_only_in_round_one(monkeypatch):
    # every later round re-signs one node: a silent fall back to the
    # vectorized round would cost its fixed numpy calls 3,000 times
    calls = []
    sign = refine_module._signatures

    def counting(*args):
        calls.append(args[3])
        return sign(*args)

    monkeypatch.setattr(refine_module, "_signatures", counting)
    assert refine(directed_path(3000)).stable_round == 2999
    assert len(calls) == 1 and calls[0] is None


@pytest.mark.parametrize("cutoff", [_SMALL_ROUND, -1], ids=["small", "vectorized"])
def test_singleton_classes_are_not_re_signed(cutoff, monkeypatch):
    # A directed path 0 -> ... -> n - 1 plus an edge from every path node to
    # the hub n. Round 1 gives the hub a class of its own, and every later
    # frontier holds it; a class of one node cannot split, so the hub's
    # in-edges are read by round 1 alone, which reads every in-edge.
    n = 100
    g = build_graph([(i, i + 1, 1) for i in range(n - 1)] + [(i, n, 1) for i in range(n)],
                    ["a"] * (n + 1))
    spy = g.in_src.view(InEdgeReads)
    spy.reads = []
    g.in_src = spy
    monkeypatch.setattr(refine_module, "_SMALL_ROUND", cutoff)
    r = refine(g)
    hub_reads = [read for read in spy.reads if g.in_indptr[n] in read]
    assert [len(read) for read in hub_reads] == [len(spy)]
    parts, stable = iterated_partitions(g)
    assert r.class_counts == [p.num_classes for p in parts] and r.stable_round == stable


def path_with_hubs(n, hubs):
    """A directed path 0 -> ... -> n - 1 plus an edge from every path node to
    each of the hubs n, ..., n + hubs - 1, all of one color."""
    src = np.concatenate([np.arange(n - 1), np.repeat(np.arange(n), hubs)])
    dst = np.concatenate([np.arange(1, n), np.tile(np.arange(n, n + hubs), n)])
    return one_color_graph(n + hubs, src, dst, np.ones(len(src)))


def parallel_paths(n, paths=20):
    """paths directed paths of n // paths nodes each, of one color."""
    length = n // paths
    src = np.flatnonzero(np.arange(paths * length) % length != length - 1)
    return one_color_graph(paths * length, src, src + 1, np.ones(len(src)))


def color_per_node(n):
    """A seeded random graph of 4n edge slots, every node of its own color."""
    src, dst = np.random.default_rng(n).integers(0, n, (2, 4 * n))
    return ColoredMultigraph.from_edge_arrays(n, src, dst, np.ones(4 * n, dtype=np.int64),
                                              np.arange(n), tuple(range(n)))


@pytest.mark.parametrize("shape", [
    lambda n: random_graph(n, 4 * n, n_colors=3, seed=n), directed_path,
    lambda n: path_with_hubs(n, 1), parallel_paths, color_per_node,
], ids=["random", "path", "path+hub", "20 paths", "color per node"])
def test_refine_signs_linearly_many_in_edges(shape):
    # work counts, not clocks: doubling the graph at most doubles (x 1.1)
    # the in-edges that refinement to stability signs
    counts = [signed_in_edges(shape(n)) for n in (1000, 2000)]
    assert counts[0] > 1000 and counts[1] <= 2.2 * counts[0], counts
