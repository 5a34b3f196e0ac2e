"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. The dataset-backed extended checks are skipped unless
GNNCOMPRESS_DATASETS points at a directory with the published edge lists.
"""

import dataclasses
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gnncompress import (GnnConfig, LearningProblem, build_graph,
                         choose_substitution, compress_problem, forward,
                         naive_partition, reduce_graph, refine, sample_gnn, verify_reduct,
                         evaluate_loss)
from gnncompress.fileio import load_graph
from gnncompress.problem import push_forward
from gnncompress.reduction import _union_check
from conftest import (A1, A2, A3, B1, B2, B3, FIG1_COLORS, FIG1_EDGES,
                      bench_graph, bisimulation_partition, least_id_substitution,
                      make_corpus, partition_blocks, random_graph, random_substitution,
                      refines, same_partition, star_of_stars)

DEPTHS = (1, 2, 3, math.inf)
GRADES = (1, 2, 3, math.inf)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


@pytest.fixture
def corpus():
    # function-scoped: regenerating is cheap and keeps the heap small for
    # the timing-sensitive scaling criterion
    return make_corpus(500)


def reduct_edges(red):
    h = red.graph
    return {(int(red.node_ids[s]), int(red.node_ids[d])): int(m)
            for s, d, m in zip(h.out_src_flat, h.out_dst, h.out_mult)}


def partition_at(result, d):
    if math.isinf(d):
        return result.final
    return result.at(d)


def test_criterion_1_worked_example_goldens():
    with criterion(1, "worked-example goldens"):
        g = build_graph(FIG1_EDGES, FIG1_COLORS)
        r = refine(g)
        assert partition_blocks(r.at(1).class_of) == {
            frozenset({A1}), frozenset({A2, A3}), frozenset({B1, B2, B3})}
        assert partition_blocks(r.at(2).class_of) == {
            frozenset({A1}), frozenset({A2, A3}), frozenset({B1, B2}),
            frozenset({B3})}
        assert r.stable_round == 2

        p1 = r.at(1)
        red_first = reduce_graph(g, least_id_substitution(p1))
        red_min = reduce_graph(g, choose_substitution(g, p1))
        assert set(red_first.node_ids) == {A1, A2, B1}
        assert set(red_min.node_ids) == {A1, A2, B3}
        # Exact multiplicities per the reduction edge rule. The drawn
        # figures omit the a2 -> a1 edge forced by inc(a1) = {a2}; with it
        # the reducts carry 5 resp. 4 simple edges (the drawn sizes are
        # 4 vs 3), still including the self-loop and the weight-2 edge,
        # and the min-incidence reduct stays exactly one edge smaller.
        assert reduct_edges(red_first) == {
            (A1, A2): 1, (A2, A1): 1, (A2, A2): 1, (A1, B1): 1, (A2, B1): 1}
        assert reduct_edges(red_min) == {
            (A1, A2): 1, (A2, A1): 1, (A2, A2): 1, (A2, B3): 2}
        assert (red_first.graph.node_count, red_first.graph.simple_edge_count) == (3, 5)
        assert (red_min.graph.node_count, red_min.graph.simple_edge_count) == (3, 4)
        assert red_min.graph.simple_edge_count == red_first.graph.simple_edge_count - 1

        for m, n in [(3, 4), (2, 2), (10, 10), (1, 7)]:
            sg = star_of_stars(m, n)
            for d in (2, 3):
                part = refine(sg, depth=d).at(d)
                red = reduce_graph(sg, choose_substitution(sg, part))
                assert (red.graph.node_count, red.graph.simple_edge_count) == (3, 2), (m, n, d)
                assert sorted(int(x) for x in red.graph.out_mult) == sorted([m, n])


def test_criterion_2_oracle_equivalence(corpus):
    with criterion(2, "refine equals naive term oracle"):
        for g in corpus:
            for d in (1, 2, 3):
                for c in (1, 2, math.inf):
                    oracle = naive_partition(g, d, c)
                    fast = refine(g, depth=d, grade=c).at(d)
                    assert same_partition(oracle.class_of, fast.class_of), (d, c)


def test_criterion_3_reduct_color_invariance(corpus):
    with criterion(3, "reducts preserve refinement colors"):
        for g in corpus:
            for d in DEPTHS:
                for c in GRADES:
                    part = partition_at(refine(g, depth=d, grade=c), d)
                    for policy, reps in (("min-incidence", choose_substitution(g, part)),
                                         ("first-node", least_id_substitution(part))):
                        red = reduce_graph(g, reps, c)
                        res = verify_reduct(g, red.graph, red.rep_index_of_node, d, c)
                        assert res.ok, (d, c, policy, res)
                        if math.isinf(d):   # passed on the certificate: refine as well
                            res = _union_check(g, red.graph, red.rep_index_of_node, d, c)
                            assert res.ok, (d, c, policy, res)


def _random_problem(i: int):
    rng = np.random.default_rng(9000 + i)
    n = int(rng.integers(6, 41))
    m = max(1, int(rng.integers(1, 4 * n)))
    n_colors = int(rng.integers(1, 4))
    g = random_graph(n, m, n_colors=n_colors, max_mult=3, seed=9000 + i)
    p_dim = 3
    rows = rng.normal(size=(len(g.palette), p_dim))
    feats = rows[g.colors]
    loss_kind = "xent" if i % 2 == 0 else "sq"
    t_size = int(rng.integers(0, n // 2 + 1))
    nodes = rng.choice(n, size=t_size, replace=False)
    if loss_kind == "xent":
        train = {int(v): f"y{int(rng.integers(0, 3))}" for v in nodes}
        q = 3
    else:
        train = {int(v): rng.normal(size=2) for v in nodes}
        q = 2
    depth = DEPTHS[int(rng.integers(0, 4))]
    grade = GRADES[int(rng.integers(0, 4))]
    gnn_depth = int(rng.integers(1, 4)) if math.isinf(depth) else int(rng.integers(1, depth + 1))
    if math.isinf(grade):
        width = (1, 2, math.inf)[int(rng.integers(0, 3))]
    else:
        width = int(rng.integers(1, grade + 1))
    agg = ("sum", "mean", "max")[int(rng.integers(0, 3))]
    dims = [p_dim] * gnn_depth + [q]
    config = GnnConfig(dims, width=width, agg=agg)
    problem = LearningProblem(g, feats, train, loss_kind, config)
    return problem, depth, grade, int(rng.integers(0, 2**31))


def test_criterion_4_loss_equivalence():
    with criterion(4, "compressed loss equals original loss"):
        for i in range(200):
            problem, depth, grade, seed = _random_problem(i)
            cp = compress_problem(problem, depth=depth, grade=grade)
            if i % 2:   # first-node representatives: a reduct that need not be minimal
                g = problem.graph
                red = reduce_graph(g, least_id_substitution(refine(g, depth, grade).final), grade)
                cp = dataclasses.replace(
                    cp, graph=red.graph, node_ids=red.node_ids,
                    rep_of_node=red.rep_index_of_node, features=problem.features[red.node_ids],
                    train=push_forward(problem.train, red.rep_index_of_node))
            total = sum(w for pairs in cp.train_weighted.values() for _, w in pairs)
            assert total == len(problem.train)
            gnn = sample_gnn(problem.hypothesis, seed)
            loss_g = evaluate_loss(problem, gnn)
            loss_h = evaluate_loss(cp, gnn)
            assert abs(loss_g - loss_h) <= 1e-6 * (1 + abs(loss_g)), \
                (i, depth, grade, loss_g, loss_h)
            out_g = forward(problem.graph, problem.features, gnn)
            out_h = forward(cp.graph, cp.features, gnn)
            diff = np.abs(out_g - out_h[cp.rep_of_node]).max(axis=1)
            scale = 1.0 + np.abs(out_g).max(axis=1)
            assert (diff <= 1e-6 * scale).all(), (i, depth, grade)


def test_criterion_5_min_incidence_minimality():
    with criterion(5, "min-incidence reducts are smallest"):
        rng = np.random.default_rng(77)
        for i in range(100):
            n = int(rng.integers(6, 49))
            m = max(1, int(rng.integers(1, 3 * n)))
            g = random_graph(n, m, n_colors=int(rng.integers(1, 4)),
                             max_mult=2, seed=4000 + i)
            d = DEPTHS[int(rng.integers(0, 4))]
            c = GRADES[int(rng.integers(0, 4))]
            part = partition_at(refine(g, depth=d, grade=c), d)
            best = reduce_graph(g, choose_substitution(g, part), c)
            best_edges = best.graph.simple_edge_count
            other = reduce_graph(g, least_id_substitution(part), c)
            assert other.graph.node_count == best.graph.node_count
            assert best_edges <= other.graph.simple_edge_count
            for _ in range(20):
                reps = random_substitution(part, rng)
                red = reduce_graph(g, reps[part.class_of], c)
                assert red.graph.node_count == best.graph.node_count
                assert best_edges <= red.graph.simple_edge_count, (i, d, c)


def test_criterion_6_graded_monotonicity(corpus):
    with criterion(6, "graded refinement monotone in the grade"):
        for g in corpus:
            ungraded = refine(g)
            huge = g.node_count * 3 + 10  # above any attainable count
            capped = refine(g, grade=huge)
            assert len(ungraded.partitions) == len(capped.partitions)
            for pu, pc in zip(ungraded.partitions, capped.partitions):
                assert np.array_equal(pu.class_of, pc.class_of)
            for c in (1, 2, 3):
                graded = refine(g, grade=c)
                rounds = min(len(ungraded.partitions), len(graded.partitions))
                for d in range(rounds):
                    assert refines(ungraded.partitions[d].class_of,
                                   graded.partitions[d].class_of), (c, d)
                assert refines(ungraded.final.class_of, graded.final.class_of)
            bisim = bisimulation_partition(g)
            assert same_partition(refine(g, grade=1).final.class_of,
                                  bisim.class_of)


def test_criterion_7_scaling():
    with criterion(7, "refinement scales near-linearly"):
        import gc
        sizes = [100_000, 200_000, 400_000]
        # density 8 keeps the round count flat across these sizes, so the
        # measured growth isolates the per-round O((n+m) log n) work
        graphs = [bench_graph(size, 8.0, seed=42 + i)
                  for i, size in enumerate(sizes)]
        for g in graphs:  # warm-up touches every size once
            refine(g)
        times = [[] for _ in sizes]
        for _ in range(5):  # interleave runs so drift hits all sizes alike
            for i, g in enumerate(graphs):
                gc.collect()
                t0 = time.perf_counter()
                refine(g)
                times[i].append(time.perf_counter() - t0)
        medians = [sorted(ts)[2] for ts in times]
        ratios = [b / a for a, b in zip(medians, medians[1:])]
        assert all(r <= 2.6 for r in ratios), (medians, ratios)


DATASET_DIR = os.environ.get("GNNCOMPRESS_DATASETS")


@pytest.mark.skipif(not DATASET_DIR, reason="extended: set GNNCOMPRESS_DATASETS "
                    "to a directory with roadNet-CA.txt / ogbn-arxiv.tsv")
def test_criterion_8_extended_datasets():
    with criterion(8, "published compression ratios"):
        root = Path(DATASET_DIR)
        road = root / "roadNet-CA.txt"
        if road.exists():
            g = load_graph(road, undirected=True).graph
            n0, m0 = g.node_count, g.simple_edge_count
            part = refine(g, depth=3).at(3)
            red = reduce_graph(g, choose_substitution(g, part))
            n1, m1 = red.graph.node_count, red.graph.simple_edge_count
            assert abs(100 * n1 / n0 - 4) <= 2, f"nodes {100 * n1 / n0:.2f}%"
            assert abs(100 * m1 / m0 - 5) <= 2, f"edges {100 * m1 / m0:.2f}%"
        arxiv = root / "ogbn-arxiv.tsv"
        if arxiv.exists():
            g = load_graph(arxiv).graph
            n0, m0 = g.node_count, g.simple_edge_count
            r3 = refine(g, depth=4)
            part3 = r3.at(3)
            red3 = reduce_graph(g, choose_substitution(g, part3))
            m_pct = 100 * red3.graph.simple_edge_count / m0
            assert abs(m_pct - 56) <= 2, f"edges {m_pct:.2f}%"
            stable = refine(g).stable_round
            assert stable == 4
            part_inf = refine(g).final
            red_inf = reduce_graph(g, choose_substitution(g, part_inf))
            n_pct = 100 * red_inf.graph.node_count / n0
            assert abs(n_pct - 36) <= 2, f"nodes {n_pct:.2f}%"
        if not road.exists() and not arxiv.exists():
            pytest.skip("no recognized dataset files present")
