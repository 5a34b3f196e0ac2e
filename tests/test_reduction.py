import math

import numpy as np
import pytest

from gnncompress import (build_graph, choose_substitution,
                         reduce_graph, refine, verify_reduct)
from gnncompress.errors import ValidationError
from gnncompress.graph import ColoredMultigraph, intern_colors
from gnncompress.reduction import _certificate, _disjoint_union, incidence_all
from conftest import (A1, A2, B1, B3, class_members, iterated_partitions,
                      least_id_substitution, random_graph, random_substitution,
                      star_of_stars)


def edge_multiset(red):
    h = red.graph
    return {(int(red.node_ids[s]), int(red.node_ids[d])): int(m)
            for s, d, m in zip(h.out_src_flat, h.out_dst, h.out_mult)}


@pytest.fixture
def fig1_p1(fig1):
    return refine(fig1, depth=1).at(1)


def test_incidence_fig1(fig1, fig1_p1):
    inc = incidence_all(fig1, fig1_p1)
    assert (inc[B1], inc[B3]) == (2, 1)


def test_incidence_no_in_edges():
    g = build_graph([(0, 1, 1)], ["a", "a", "a"])
    assert incidence_all(g, refine(g, depth=1).at(1)).tolist() == [0, 1, 0]
    g = build_graph([], ["a"])
    assert incidence_all(g, refine(g).final).tolist() == [0]


def test_min_incidence_picks_b3(fig1, fig1_p1):
    reps = choose_substitution(fig1, fig1_p1)
    assert set(reps.tolist()) == {A1, A2, B3}


def test_first_node_is_rho1(fig1, fig1_p1):
    reps = least_id_substitution(fig1_p1)
    assert set(reps.tolist()) == {A1, A2, B1}


def test_singleton_classes_keep_sole_member(fig1):
    p = refine(fig1).final  # stable: {a1},{a2,a3},{b1,b2},{b3}
    for reps in (choose_substitution(fig1, p), least_id_substitution(p)):
        assert reps[A1] == A1
        assert reps[B3] == B3


def test_representatives_match_per_class_scan():
    # reference: scan each class for its least (incidence, node id), or its
    # least node id, with the incidence counted per node in plain Python
    rng = np.random.default_rng(17)
    graphs = [build_graph([], []), build_graph([], ["a"]), build_graph([], ["a", "b", "a"])]
    for i in range(100):
        n = int(rng.integers(1, 30))
        m = 0 if i % 10 == 0 else int(rng.integers(1, 3 * n + 1))
        graphs.append(random_graph(n, m, n_colors=int(rng.integers(1, 4)),
                                   max_mult=3, seed=700 + i))
    for i, g in enumerate(graphs):
        depth, grade = (0, 1, 2, math.inf)[i % 4], (math.inf, 1, 2)[i % 3]
        part = refine(g, depth, grade).final
        cls = part.class_of.tolist()
        inc = [len({cls[u] for u in g.in_src[g.in_indptr[v]:g.in_indptr[v + 1]].tolist()})
               for v in range(g.node_count)]
        members = [m.tolist() for m in class_members(part)]
        want = {"min-incidence": [min(m, key=lambda v: (inc[v], v)) for m in members],
                "first-node": [min(m) for m in members]}
        for policy, got in (("min-incidence", choose_substitution(g, part)),
                            ("first-node", least_id_substitution(part))):
            reps = want[policy]
            assert got.dtype == np.int64, (i, policy)
            assert got.tolist() == [reps[c] for c in cls], (i, policy)


def test_substitution_fixes_representatives(fig1, fig1_p1):
    reps = choose_substitution(fig1, fig1_p1)
    assert len(set(reps.tolist())) == fig1_p1.num_classes
    for w in reps:
        assert reps[w] == w


def test_reduce_rho1(fig1, fig1_p1):
    sub = least_id_substitution(fig1_p1)
    red = reduce_graph(fig1, sub)
    assert set(red.node_ids) == {A1, A2, B1}
    # Figure-consistent reduct per the formal edge rule: inc(a1) = {a2}
    # survives, so a2 -> a1 is present alongside the drawn four edges.
    assert edge_multiset(red) == {
        (A1, A2): 1, (A2, A1): 1, (A2, A2): 1, (A1, B1): 1, (A2, B1): 1}
    assert (red.graph.node_count, red.graph.simple_edge_count) == (3, 5)


def test_reduce_rho2(fig1, fig1_p1):
    sub = choose_substitution(fig1, fig1_p1)
    red = reduce_graph(fig1, sub)
    assert set(red.node_ids) == {A1, A2, B3}
    assert edge_multiset(red) == {
        (A1, A2): 1, (A2, A1): 1, (A2, A2): 1, (A2, B3): 2}
    assert (red.graph.node_count, red.graph.simple_edge_count) == (3, 4)


def test_rho2_strictly_smaller_non_isomorphic(fig1, fig1_p1):
    red1 = reduce_graph(fig1, least_id_substitution(fig1_p1))
    red2 = reduce_graph(fig1, choose_substitution(fig1, fig1_p1))
    assert red2.graph.simple_edge_count == red1.graph.simple_edge_count - 1


def test_colors_preserved(fig1, fig1_p1):
    red = reduce_graph(fig1, choose_substitution(fig1, fig1_p1))
    payloads = [red.graph.color_payload(i) for i in range(3)]
    assert payloads == ["a", "a", "b"]


@pytest.mark.parametrize("m,n", [(3, 4), (2, 2), (10, 7)])
def test_star_of_stars_reduct(m, n):
    g = star_of_stars(m, n)
    part = refine(g, depth=2).at(2)
    sub = choose_substitution(g, part)
    red = reduce_graph(g, sub)
    assert (red.graph.node_count, red.graph.simple_edge_count) == (3, 2)
    mults = sorted(int(x) for x in red.graph.out_mult)
    assert mults == sorted([m, n])


def test_verify_reduct_fig1(fig1, fig1_p1):
    for sub in (choose_substitution(fig1, fig1_p1), least_id_substitution(fig1_p1)):
        red = reduce_graph(fig1, sub)
        assert verify_reduct(fig1, red.graph, red.rep_index_of_node, depth=1).ok


def test_verify_reduct_detects_corruption(fig1, fig1_p1):
    sub = choose_substitution(fig1, fig1_p1)
    red = reduce_graph(fig1, sub)
    h = red.graph
    h.out_mult = h.out_mult.copy()
    h.out_mult[h.out_mult == 2] = 1  # corrupt the weight-2 edge
    h.in_mult = h.in_mult.copy()
    h.in_mult[h.in_mult == 2] = 1
    res = verify_reduct(fig1, h, red.rep_index_of_node, depth=1)
    assert not res.ok
    assert res.witness_node is not None and res.witness_round is not None


def test_verify_reduct_rejects_a_bad_rep_map(fig1, fig1_p1):
    red = reduce_graph(fig1, choose_substitution(fig1, fig1_p1))
    rep = red.rep_index_of_node
    for bad in (rep[:-1], np.append(rep, 0)):
        with pytest.raises(ValueError, match="cover every original node"):
            verify_reduct(fig1, red.graph, bad)
    for value in (-1, red.graph.node_count):
        bad = rep.copy()
        bad[2] = value
        with pytest.raises(ValueError, match="outside the reduct"):
            verify_reduct(fig1, red.graph, bad)


def test_verify_reduct_matches_colors_by_payload():
    # a reduct numbering its colors unlike the original still verifies;
    # one node given a payload the original lacks fails at round 0
    for i, (depth, grade) in enumerate([(1, math.inf), (2, 2), (math.inf, math.inf)]):
        g = random_graph(30, 70, n_colors=4, max_mult=2, seed=700 + i)
        red = reduce_graph(g, choose_substitution(g, refine(g, depth, grade).final), grade)
        h, rep_index = red.graph, red.rep_index_of_node
        k, v = len(h.palette), h.node_count // 2
        palette = h.palette[::-1] + ("absent",)

        def rebuilt(colors):
            return ColoredMultigraph.from_edge_arrays(h.node_count, h.out_src_flat, h.out_dst,
                                                      h.out_mult, colors, palette)

        assert verify_reduct(g, rebuilt(k - 1 - h.colors), rep_index, depth, grade).ok
        if math.isinf(depth):       # the certificate alone passes it
            assert _certificate(g, rebuilt(k - 1 - h.colors), rep_index, grade)
        recolored = k - 1 - h.colors
        recolored[v] = k
        assert not _certificate(g, rebuilt(recolored), rep_index, grade)
        res = verify_reduct(g, rebuilt(recolored), rep_index, depth, grade)
        assert not res.ok and res.witness_round == 0
        assert rep_index[res.witness_node] == v


def test_stable_reduct_verifies_at_inf(fig1):
    part = refine(fig1).final
    sub = choose_substitution(fig1, part)
    red = reduce_graph(fig1, sub)
    assert verify_reduct(fig1, red.graph, red.rep_index_of_node).ok


def test_policies_agree_in_size_at_stability(fig1):
    graphs = [fig1] + [random_graph(20, 55, n_colors=2, max_mult=2, seed=s)
                       for s in range(5)]
    for g in graphs:
        part = refine(g).final
        sizes = set()
        for reps in (choose_substitution(g, part), least_id_substitution(part)):
            red = reduce_graph(g, reps)
            sizes.add((red.graph.node_count, red.graph.simple_edge_count))
        assert len(sizes) == 1


def test_reduct_idempotent_at_stability(fig1):
    part = refine(fig1).final
    red = reduce_graph(fig1, choose_substitution(fig1, part))
    part2 = refine(red.graph).final
    red2 = reduce_graph(red.graph, choose_substitution(red.graph, part2))
    assert red2.graph.node_count == red.graph.node_count
    assert red2.graph.simple_edge_count == red.graph.simple_edge_count


def test_discrete_partition_reduces_to_self():
    # every node its own representative: the reduct is g itself, unless a
    # multiplicity above a finite grade is capped
    g = build_graph([(0, 1, 1), (1, 2, 2)], ["a", "b", "c"])
    part = refine(g).final
    assert part.num_classes == 3
    capped = build_graph([(0, 1, 1), (1, 2, 1)], ["a", "b", "c"])
    for grade, want in ((math.inf, g), (2, g), (1, capped)):
        red = reduce_graph(g, choose_substitution(g, part), grade)
        assert (red.graph is g) == (want is g)
        assert red.graph == want
        assert np.array_equal(red.node_ids, np.arange(3))
        assert np.array_equal(red.rep_index_of_node, np.arange(3))
    edgeless = build_graph([], ["a", "b"])
    part = refine(edgeless).final
    assert reduce_graph(edgeless, choose_substitution(edgeless, part), 1).graph is edgeless


def test_graded_reduct_caps_multiplicity():
    g = build_graph([(0, 2, 1), (1, 2, 1)], ["a", "a", "b"])
    part = refine(g, depth=1, grade=1).at(1)
    assert part.num_classes == 2  # {0,1}, {2}
    red = reduce_graph(g, choose_substitution(g, part), 1)
    assert list(red.graph.out_mult) == [1]  # 1+1 capped at grade 1
    assert verify_reduct(g, red.graph, red.rep_index_of_node, depth=1, grade=1).ok


def test_graded_reduct_caps_before_overflow():
    # edges from one class whose sum passes 2**62 (the second sum also wraps
    # int64) merge into one reduct edge of multiplicity 2 at grade 2
    for mults in ([2**61] * 3, [2**62 - 1] * 5):
        k = len(mults)
        g = build_graph([(i, k, m) for i, m in enumerate(mults)], ["a"] * k + ["b"])
        part = refine(g, depth=1, grade=2).at(1)
        red = reduce_graph(g, choose_substitution(g, part), 2)
        assert edge_multiset(red) == {(0, k): 2}
        assert verify_reduct(g, red.graph, red.rep_index_of_node, depth=1, grade=2).ok


def test_random_substitution_construction(fig1, fig1_p1):
    rng = np.random.default_rng(3)
    reps = random_substitution(fig1_p1, rng)
    red = reduce_graph(fig1, reps[fig1_p1.class_of])
    assert verify_reduct(fig1, red.graph, red.rep_index_of_node, depth=1).ok


def test_reduce_graph_rejects_a_bad_substitution_or_grade(fig1, fig1_p1):
    reps = choose_substitution(fig1, fig1_p1)
    assert reduce_graph(fig1, reps).graph.node_count == 3
    negative = reps.copy()
    negative[A1] = -1
    # B3 sent to B1: B1's representative B3 is then not its own representative
    not_fixed = reps.copy()
    not_fixed[B3] = B1
    for bad in (negative, not_fixed, reps[:-1], np.append(reps, A1), reps + len(reps),
                reps.astype(np.float64)):
        with pytest.raises(ValueError, match="its own representative"):
            reduce_graph(fig1, bad)
    # a grade below 1 would give edges of multiplicity 0 or less
    for grade in (0, -1, 1.5):
        with pytest.raises(ValueError, match="grade must be a positive integer"):
            reduce_graph(fig1, reps, grade)


def sorted_union(g, h):
    """The disjoint union of g and h built from concatenated edge lists,
    which from_edge_arrays sorts and merges."""
    n = g.node_count
    remap, palette = intern_colors(g.palette + h.palette)
    colors = np.concatenate([remap[g.colors], remap[len(g.palette) + h.colors]])
    return ColoredMultigraph.from_edge_arrays(
        n + h.node_count, np.concatenate([g.out_src_flat, h.out_src_flat + n]),
        np.concatenate([g.out_dst, h.out_dst + n]), np.concatenate([g.out_mult, h.out_mult]),
        colors, palette)


def test_disjoint_union_stacks_the_sorted_build():
    rng = np.random.default_rng(23)
    pairs = []
    for i in range(40):
        n = int(rng.integers(1, 30))
        g = random_graph(n, int(rng.integers(0, 3 * n)), n_colors=int(rng.integers(1, 4)),
                         max_mult=3, seed=900 + i)
        if i % 2:       # g against its own reduct
            red = reduce_graph(g, choose_substitution(g, refine(g, 1 + i % 3).final))
            pairs.append((g, red.graph))
        else:           # sparse draws leave isolated nodes
            h = random_graph(int(rng.integers(1, 20)), int(rng.integers(0, 8)),
                             n_colors=int(rng.integers(1, 5)), max_mult=2, seed=950 + i)
            pairs.append((g, h))
    empty, single = build_graph([], []), build_graph([], ["a"])
    loop = build_graph([(0, 0, 3)], ["b"])
    isolated = build_graph([(0, 2, 1), (2, 0, 2)], ["a", "b", "a", "c"])
    no_edges = build_graph([], ["c", "a", "c"])
    pairs += [(empty, empty), (empty, single), (single, empty), (single, loop),
              (loop, single), (isolated, no_edges), (no_edges, isolated),
              (isolated, empty), (pairs[0][0], no_edges), (pairs[1][0], empty)]
    for i, (g, h) in enumerate(pairs):
        got, want = _disjoint_union(g, h), sorted_union(g, h)
        assert got.node_count == want.node_count, i
        for name in ("out_indptr", "out_dst", "out_mult", "in_indptr", "in_src", "in_mult",
                     "out_src_flat", "in_dst_flat", "colors"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (i, name)
        assert got.palette == want.palette, i


def reference_witness(g, h, rep_index, depth, grade):
    """(ok, node, round) of a scan over iterated refine_step partitions of
    the disjoint union of g and h, built here from payloads."""
    n = g.node_count
    edges = [(int(s), int(d), int(m)) for s, d, m in
             zip(g.out_src_flat, g.out_dst, g.out_mult)]
    edges += [(int(s) + n, int(d) + n, int(m)) for s, d, m in
              zip(h.out_src_flat, h.out_dst, h.out_mult)]
    union = build_graph(edges, g.payload_per_node() + h.payload_per_node())
    parts, _ = iterated_partitions(union, depth, grade)
    for d, p in enumerate(parts):
        apart = np.flatnonzero(p.class_of[:n] != p.class_of[np.asarray(rep_index) + n])
        if len(apart):
            return False, int(apart[0]), d
    return True, None, None


def tampered(h, rng, how):
    """Copy of reduct graph h with one edge dropped or one multiplicity bumped."""
    src, dst, mult = h.out_src_flat.copy(), h.out_dst.copy(), h.out_mult.copy()
    i = int(rng.integers(0, len(dst)))
    if how == "drop":
        src, dst, mult = np.delete(src, i), np.delete(dst, i), np.delete(mult, i)
    else:
        mult[i] += 1
    return ColoredMultigraph.from_edge_arrays(h.node_count, src, dst, mult,
                                              h.colors, h.palette)


def test_verify_reduct_witness_matches_reference_scan():
    rng = np.random.default_rng(11)
    failures = 0
    for i in range(30):
        g = random_graph(int(rng.integers(8, 40)), int(rng.integers(10, 90)),
                         n_colors=2, max_mult=2, seed=600 + i)
        depth = (1, 2, 3, math.inf)[i % 4]
        grade = (math.inf, 1, 2)[i % 3]
        red = reduce_graph(g, choose_substitution(g, refine(g, depth, grade).final), grade)
        h, rep_index = red.graph, red.rep_index_of_node
        cases = [("drop", tampered(h, rng, "drop"), rep_index),
                 ("bump", tampered(h, rng, "bump"), rep_index)]
        if h.node_count > 1:
            wrong = rep_index.copy()
            v = int(rng.integers(0, g.node_count))
            wrong[v] = (wrong[v] + 1 + int(rng.integers(0, h.node_count - 1))) % h.node_count
            cases.append(("rep", h, wrong))
        for how, h2, reps in cases:
            res = verify_reduct(g, h2, reps, depth=depth, grade=grade)
            want = reference_witness(g, h2, reps, depth, grade)
            assert (res.ok, res.witness_node, res.witness_round) == want, (i, how)
            failures += not res.ok
    assert failures >= 60
    # on a path, nodes v < w first part in round v + 1, so a node pointed at
    # a wrong representative is caught only that many rounds in
    n = 40
    g = build_graph([(v, v + 1, 1) for v in range(n - 1)], ["x"] * n)
    red = reduce_graph(g, choose_substitution(g, refine(g).final))
    rounds = set()
    for v, w in ((3, 30), (25, 17), (38, 39), (0, 12)):
        wrong = red.rep_index_of_node.copy()
        wrong[v] = red.rep_index_of_node[w]
        res = verify_reduct(g, red.graph, wrong)
        assert (res.ok, res.witness_node, res.witness_round) == reference_witness(
            g, red.graph, wrong, math.inf, math.inf)
        rounds.add(res.witness_round)
    assert rounds == {4, 18, 39, 1}


def test_certificate_never_holds_where_refinement_fails():
    # the certificate against the plain-Python scan of the union, on correct
    # bundles and on the three tampers, at depths 1, 2, 3, inf and grades 1, 2, inf
    rng = np.random.default_rng(29)
    stable, held = 0, 0
    for i in range(48):
        g = random_graph(int(rng.integers(6, 30)), int(rng.integers(8, 70)),
                         n_colors=int(rng.integers(1, 3)), max_mult=3, seed=1300 + i)
        depth, grade = (1, 2, 3, math.inf)[i % 4], (1, 2, math.inf)[i % 3]
        red = reduce_graph(g, choose_substitution(g, refine(g, depth, grade).final), grade)
        h, rep_index = red.graph, red.rep_index_of_node
        if math.isinf(depth) or h.node_count == g.node_count:
            assert _certificate(g, h, rep_index, grade), i
            stable += not math.isinf(depth)
        cases = [(h, rep_index)]
        if len(h.out_dst):
            cases += [(tampered(h, rng, "drop"), rep_index), (tampered(h, rng, "bump"), rep_index)]
        if h.node_count > 1:
            wrong = rep_index.copy()
            v = int(rng.integers(0, g.node_count))
            wrong[v] = (wrong[v] + 1 + int(rng.integers(0, h.node_count - 1))) % h.node_count
            cases.append((h, wrong))
        for h2, reps in cases:
            if _certificate(g, h2, reps, grade):
                held += 1
                assert reference_witness(g, h2, reps, depth, grade)[0], i
    assert stable >= 3 and held >= 20


def test_certificate_rejects_an_under_split_reduct():
    # a refine that stopped one round short of stability would keep the last
    # two nodes of a path together; their reduct must fail both checks
    n = 12
    g = build_graph([(v, v + 1, 1) for v in range(n - 1)], ["x"] * n)
    result = refine(g)
    short = result.at(result.stable_round - 1)
    assert short.num_classes == n - 1
    for reps in (choose_substitution(g, short), least_id_substitution(short)):
        red = reduce_graph(g, reps)
        assert not _certificate(g, red.graph, red.rep_index_of_node, math.inf)
        res = verify_reduct(g, red.graph, red.rep_index_of_node)
        assert not res.ok
        assert (res.ok, res.witness_node, res.witness_round) == reference_witness(
            g, red.graph, red.rep_index_of_node, math.inf, math.inf)


def test_stable_reducts_verify_without_refinement(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stable reduct needs no union refinement")

    graphs = [build_graph([(v, v + 1, 1) for v in range(39)], ["x"] * 40),
              random_graph(30, 80, n_colors=2, max_mult=3, seed=5)]
    reducts = [(g, reduce_graph(g, choose_substitution(g, refine(g, grade=c).final), c), c)
               for g in graphs for c in (1, 2, math.inf)]
    monkeypatch.setattr("gnncompress.reduction.refine", refuse)
    for g, red, c in reducts:
        assert verify_reduct(g, red.graph, red.rep_index_of_node, grade=c).ok


def test_certificate_leaves_errors_to_refinement():
    # g as its own reduct, whose in-edges sum past 2**62 at grade inf: the
    # certificate does not hold, and the union refinement raises as it
    # always has; so do a bad depth and grade
    g = build_graph([(i, 3, 2**61) for i in range(3)], ["a"] * 3 + ["b"])
    rep = np.arange(4)
    assert not _certificate(g, g, rep, math.inf)
    with pytest.raises(ValidationError, match="overflow"):
        verify_reduct(g, g, rep)
    assert verify_reduct(g, g, rep, grade=2**61).ok
    for depth, grade in ((-1, math.inf), (1.5, math.inf), (math.inf, 0)):
        with pytest.raises(ValueError):
            verify_reduct(g, g, rep, depth, grade)
