import argparse
import dataclasses
import hashlib
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gnncompress import (GnnConfig, LearningProblem, choose_substitution, compress_problem,
                         evaluate_loss, one_hot_features, reduce_graph, refine, sample_gnn)
from gnncompress import cli
from gnncompress.cli import main
from gnncompress.fileio import load_bundle, load_graph, read_train, save_bundle
from gnncompress.problem import push_forward
from gnncompress.reduction import VerifyResult
from conftest import A1, A2, B1, FIG1_COLORS, FIG1_EDGES, least_id_substitution, random_graph


@pytest.fixture
def fig1_files(tmp_path):
    g = tmp_path / "g.tsv"
    g.write_text("\n".join(f"{s}\t{d}" for s, d, _ in FIG1_EDGES) + "\n")
    c = tmp_path / "c.tsv"
    c.write_text("\n".join(f"{v}\t{tok}" for v, tok in enumerate(FIG1_COLORS)) + "\n")
    t = tmp_path / "t.tsv"
    t.write_text("3\ty\n4\ty\n")
    return g, c, t


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_refine_fig1_summary(fig1_files, capsys, tmp_path):
    g, c, _ = fig1_files
    out_file = tmp_path / "part.tsv"
    code, out, _ = run(capsys, "refine", "--graph", g, "--colors", c,
                       "--depth", "inf", "--out", out_file)
    assert code == 0
    assert "stable at round 2; classes: 2→3→4→4" in out
    rows = [line.split("\t") for line in out_file.read_text().splitlines()]
    assert [r[1] for r in rows] == ["0", "1", "1", "2", "2", "3"]


def test_refine_out_matches_percent_d_on_sparse_ids(tmp_path, capsys):
    # file ids on both sides of every power of ten, up to 2**63 - 1
    from gnncompress.fileio import load_graph
    from gnncompress.refine import refine
    ids = sorted({0, 2**63 - 1, *(10**k + d for k in range(1, 19) for d in (-1, 0))})
    rng = np.random.default_rng(5)
    edges = [(ids[i], ids[(i + 1) % len(ids)]) for i in range(len(ids))]
    edges += [(ids[a], ids[b]) for a, b in rng.integers(0, len(ids), (40, 2))]
    g = tmp_path / "g.txt"
    g.write_text("".join(f"{a} {b}\n" for a, b in edges))
    out_file = tmp_path / "part.tsv"
    assert run(capsys, "refine", "--graph", g, "--depth", "2", "--out", out_file)[0] == 0
    loaded = load_graph(g)
    classes = refine(loaded.graph, depth=2).final.class_of
    want = "".join("%d\t%d\n" % row for row in zip(loaded.original_ids.tolist(),
                                                   classes.tolist()))
    assert out_file.read_bytes() == want.encode()


def test_refine_depth_zero_counts_initial_colors(fig1_files, capsys):
    g, c, _ = fig1_files
    code, out, _ = run(capsys, "refine", "--graph", g, "--colors", c, "--depth", "0")
    assert code == 0
    assert "classes: 2" in out


def test_refine_grade_one_matches_bisimulation(fig1_files, capsys):
    g, c, _ = fig1_files
    code, out, _ = run(capsys, "refine", "--graph", g, "--colors", c,
                       "--depth", "inf", "--grade", "1")
    assert code == 0
    assert "stable at round 0" in out


def test_compress_fig1_percentages(fig1_files, capsys, tmp_path):
    g, c, t = fig1_files
    code, out, _ = run(capsys, "compress", "--graph", g, "--colors", c,
                       "--depth", "1", "--train", t, "--loss", "xent",
                       "--out", tmp_path / "bundle")
    assert code == 0
    assert "nodes 50.00% (3/6)" in out
    assert "edges 36.36% (4/11)" in out
    meta = json.loads((tmp_path / "bundle" / "meta.json").read_text())
    assert meta["depth"] == 1 and meta["grade"] == "inf"
    assert meta["policy"] == "min-incidence"


def test_compress_then_verify_passes(fig1_files, capsys, tmp_path):
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    assert run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
               "--train", t, "--loss", "xent", "--out", bundle)[0] == 0
    code, out, _ = run(capsys, "verify", "--bundle", bundle, "--original", g,
                       "--colors", c, "--train", t, "--gnns", "5", "--seed", "0")
    assert code == 0
    assert "verification passed" in out


def test_verify_tampered_weight_exits_4(fig1_files, capsys, tmp_path):
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
        "--train", t, "--loss", "xent", "--out", bundle)
    train = bundle / "train.tsv"
    train.write_text(train.read_text().replace("\t2\n", "\t3\n"))
    code, out, _ = run(capsys, "verify", "--bundle", bundle, "--original", g,
                       "--colors", c, "--train", t)
    assert code == 4
    assert "node 2" in out


def test_null_loss_kind_loads_as_xent(fig1_files, capsys, tmp_path):
    # meta.json may hold "loss_kind": null; the bundle then scores and
    # verifies as the xent bundle it was saved as
    g, c, _ = fig1_files
    t = tmp_path / "t4.tsv"
    t.write_text("0\tx\n1\ty\n3\ty\n4\tx\n")
    bundle = tmp_path / "bundle"
    assert run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1", "--train", t,
               "--loss", "xent", "--out", bundle)[0] == 0
    verify = ("verify", "--bundle", bundle, "--original", g, "--colors", c, "--train", t)
    before = run(capsys, *verify)
    assert before[0] == 0
    meta_path = bundle / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["loss_kind"] = None
    meta_path.write_text(json.dumps(meta))

    cp = load_bundle(bundle)
    assert cp.loss_kind == "xent"
    loaded = load_graph(g, c)
    features, _ = one_hot_features(loaded.graph)
    train = read_train(t, loaded.graph.node_count, "xent", loaded.original_ids)
    problem = LearningProblem(loaded.graph, features, train, "xent",
                              GnnConfig([features.shape[1], 2]))
    cp = dataclasses.replace(cp, features=features[cp.node_ids])
    for seed in range(3):
        gnn = sample_gnn(problem.hypothesis, seed)
        assert math.isclose(evaluate_loss(cp, gnn), evaluate_loss(problem, gnn),
                            rel_tol=1e-12)
    assert run(capsys, *verify) == before


def test_verify_accepts_reordered_training_lines(fig1_files, capsys, tmp_path):
    # the training-weight check compares per-node weight tables, so the
    # order of train.tsv's lines, across and within nodes, does not matter
    g, c, _ = fig1_files
    t = tmp_path / "t6.tsv"
    t.write_text("0\tx\n1\ty\n2\ty\n3\ty\n4\tx\n5\tx\n")
    bundle = tmp_path / "bundle"
    run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
        "--train", t, "--loss", "xent", "--out", bundle)
    train = bundle / "train.tsv"
    lines = train.read_text().splitlines(keepends=True)
    nodes = [line.split("\t")[0] for line in lines]
    assert len(set(nodes)) < len(nodes)     # some node has two targets
    train.write_text("".join(reversed(lines)))
    code, out, _ = run(capsys, "verify", "--bundle", bundle, "--original", g,
                       "--colors", c, "--train", t, "--gnns", "5", "--seed", "0")
    assert code == 0
    assert "verification passed" in out


def test_malformed_bundle_train_ends_in_verdict_or_typed_error(capsys, tmp_path):
    g = tmp_path / "g.tsv"
    g.write_text("0\t1\n1\t2\n2\t3\n")
    t = tmp_path / "t.tsv"
    t.write_text("0\t0.5,1\n1\t1.5,2\n3\t-0.0,0\n2\t0.0,0\n")
    bundle = tmp_path / "bundle"
    assert run(capsys, "compress", "--graph", g, "--depth", "3", "--train", t,
               "--loss", "sq", "--out", bundle)[0] == 0
    train = bundle / "train.tsv"
    good = train.read_text()
    assert good == "0\t0.5,1.0\t1\n1\t1.5,2.0\t1\n2\t0.0,0.0\t1\n3\t-0.0,0.0\t1\n"
    lines = good.splitlines(keepends=True)
    cases = [
        # a repeated line: a verdict
        (good + lines[0], 4, "FAIL training weights: node 0 "),
        # 0.0 and -0.0 are different targets
        (good.replace("\t0.0,0.0", "\tz").replace("\t-0.0,0.0", "\t0.0,0.0")
         .replace("\tz", "\t-0.0,0.0"), 4, "node 2 "),
        # the smallest node whose rows differ, though a larger one lost all
        (lines[0] + lines[1].replace("\t1\n", "\t2\n") + lines[2], 4, "node 1 "),
        (good.replace("0\t0.5,1.0\t1", f"0\t0.5,1.0\t{2**63 - 1}"), 4, "node 0 "),
        # a target dimension unlike the others: a typed error naming the line
        (good + "2\t1.0\t1\n", 3, "train.tsv:5: target dimension 1 != 2"),
        # a weight past int64, as edge-list multiplicities
        (good.replace("1\t1.5,2.0\t1", f"1\t1.5,2.0\t{2**63}"), 2,
         "train.tsv:2: weight must be below 2**63"),
    ]
    for text, exit_code, message in cases:
        train.write_text(text)
        code, out, err = run(capsys, "verify", "--bundle", bundle, "--original", g,
                             "--train", t)
        assert code == exit_code, text
        assert message in (out if code == 4 else err), text
        assert "passed" not in out


def test_verify_tampered_multiplicity_exits_4(fig1_files, capsys, tmp_path):
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
        "--train", t, "--loss", "xent", "--out", bundle)
    gb = bundle / "graph.tsv"
    gb.write_text(gb.read_text().replace("\t2\n", "\t1\n"))
    code, out, _ = run(capsys, "verify", "--bundle", bundle, "--original", g,
                       "--colors", c, "--train", t)
    assert code == 4
    assert "FAIL reduct" in out


def test_verify_failed_equivalence_exits_4(fig1_files, capsys, tmp_path, monkeypatch):
    # a non-training node moved to another class's representative, past a
    # reduct check that passes: the sampled GNNs tell the two apart
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    assert run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
               "--train", t, "--loss", "xent", "--out", bundle)[0] == 0
    cp = load_bundle(bundle)
    assert len(cp.graph.palette) == 2
    reps = cp.node_ids[cp.rep_of_node]
    v = next(v for v in range(6) if reps[v] != v and v not in (3, 4))
    other = next(i for i in range(cp.graph.node_count) if i != cp.rep_of_node[v]
                 and cp.graph.colors[i] == cp.graph.colors[cp.rep_of_node[v]])
    rows = (bundle / "map.tsv").read_text().splitlines()
    rows[v] = f"{v}\t{other}"
    (bundle / "map.tsv").write_text("\n".join(rows) + "\n")
    monkeypatch.setattr(cli, "verify_reduct", lambda *args: VerifyResult(True))
    code, out, _ = run(capsys, "verify", "--bundle", bundle, "--original", g,
                       "--colors", c, "--train", t, "--gnns", "2")
    assert code == 4
    assert "FAIL equivalence: 2 GNNs" in out and "verification passed" not in out


def test_cli_input_errors(fig1_files, capsys, tmp_path):
    g, c, t = fig1_files
    code, _, err = run(capsys, "compress", "--graph", g, "--train", t, "--depth", "1",
                       "--out", tmp_path / "b")
    assert code == 3 and "--train requires --loss" in err
    comments = tmp_path / "comments.tsv"
    comments.write_text("# src\tdst\n# nothing else\n")
    code, _, err = run(capsys, "refine", "--graph", comments, "--depth", "1")
    assert code == 2 and "no edges" in err

    bundle = tmp_path / "bundle"
    assert run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
               "--out", bundle)[0] == 0
    bigger = tmp_path / "bigger.tsv"
    bigger.write_text(g.read_text() + "5\t6\n")
    code, _, err = run(capsys, "verify", "--bundle", bundle, "--original", bigger)
    assert code == 3 and "bundle maps 6 nodes, original has 7" in err
    with open(bundle / "graph.tsv", "a") as f:
        f.write("0\t3\t1\n")
    code, _, err = run(capsys, "verify", "--bundle", bundle, "--original", g, "--colors", c)
    assert code == 3 and "graph.tsv: edge endpoint outside the 3 reduct nodes" in err


def test_verify_grade_one_with_wide_gnns_warns(fig1_files, capsys, tmp_path, monkeypatch):
    # a width above the grade is refused before any check runs
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "2",
        "--grade", "1", "--train", t, "--loss", "xent", "--out", bundle)
    for name in ("verify_reduct", "read_train", "one_hot_features", "equivalence_report"):
        monkeypatch.setattr(cli, name, None)
    for width in ("3", "inf"):
        code, out, err = run(capsys, "verify", "--bundle", bundle, "--original", g,
                             "--colors", c, "--train", t, "--width", width)
        assert (code, out) == (3, "")
        assert err == f"error: --width {width} exceeds the bundle's grade 1\n"


@pytest.mark.parametrize("depth,grade", [("2", "2"), ("inf", "inf"), ("inf", "1"),
                                         ("3", "inf"), ("0", "inf"), ("0", "1")])
def test_compress_verify_round_trip_settings(fig1_files, capsys, tmp_path, depth, grade):
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    assert run(capsys, "compress", "--graph", g, "--colors", c, "--depth", depth,
               "--grade", grade, "--train", t, "--loss", "xent",
               "--out", bundle)[0] == 0
    code, out, _ = run(capsys, "verify", "--bundle", bundle, "--original", g,
                       "--colors", c, "--train", t, "--gnns", "3")
    assert code == 0, out
    assert "verification passed" in out and "FAIL" not in out, out


def test_verify_requires_train_when_bundle_has_one(fig1_files, capsys, tmp_path):
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
        "--train", t, "--loss", "xent", "--out", bundle)
    code, _, err = run(capsys, "verify", "--bundle", bundle, "--original", g,
                       "--colors", c)
    assert code == 3
    assert "pass --train" in err


def test_parse_error_exit_2(fig1_files, capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    for text in ("0\tx\n", "0 1 9223372036854775808\n"):
        bad.write_text(text)
        code, _, err = run(capsys, "refine", "--graph", bad, "--depth", "1")
        assert code == 2
        assert "error" in err and "bad.tsv:1:" in err
    # out-of-range extents are rejected where the token is parsed
    g, c, t = fig1_files
    for flag, token in (("--depth", "-1"), ("--grade", "0")):
        code, _, err = run(capsys, "refine", "--graph", g, "--depth", "1", flag, token)
        assert code == 2
        assert f"got '{token}'" in err
    bundle = tmp_path / "bundle"
    run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
        "--train", t, "--loss", "xent", "--out", bundle)
    for flag, token in (("--width", "0"), ("--gnns", "0"), ("--gnns", "-3"),
                        ("--seed", "-1")):
        code, out, err = run(capsys, "verify", "--bundle", bundle, "--original", g,
                             "--colors", c, "--train", t, flag, token)
        assert code == 2 and out == ""
        assert f"got {token}" in err.replace("'", "")


def test_verify_bundle_parse_error_exit_2(fig1_files, capsys, tmp_path):
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
        "--train", t, "--loss", "xent", "--out", bundle)
    colors = bundle / "colors.tsv"
    colors.write_text("x" + colors.read_text())
    code, _, err = run(capsys, "verify", "--bundle", bundle, "--original", g,
                       "--colors", c, "--train", t)
    assert code == 2
    assert "colors.tsv:1:" in err


def test_invariant_violation_exit_3(fig1_files, capsys, tmp_path):
    g, _, _ = fig1_files
    c = tmp_path / "dup.tsv"
    c.write_text("0\tred\n0\tblue\n")
    code, _, err = run(capsys, "refine", "--graph", g, "--colors", c, "--depth", "1")
    assert code == 3
    # five parallel edges of 2**62 - 1: their int64 sum would wrap to 2**62 - 5
    wrap = tmp_path / "wrap.txt"
    wrap.write_text("0 1 4611686018427387903\n" * 5)
    code, out, err = run(capsys, "compress", "--graph", wrap, "--depth", "1",
                         "--out", tmp_path / "b")
    assert code == 3
    assert "overflow" in err
    assert not (tmp_path / "b" / "graph.tsv").exists()
    # a colors.tsv line past meta.json's reduced_nodes, with a new or a known color
    one = tmp_path / "one.txt"
    one.write_text("0 0\n")
    for token in ("zzz", ""):
        bundle = tmp_path / f"one-{token}"
        assert run(capsys, "compress", "--graph", one, "--depth", "1",
                   "--out", bundle)[0] == 0
        with open(bundle / "colors.tsv", "a") as f:
            f.write(f"1\t{token}\n")
        code, _, err = run(capsys, "verify", "--bundle", bundle, "--original", one)
        assert code == 3
        assert "colors.tsv:2: node 1 not in the graph" in err


def test_nonfinite_targets_exit_2(capsys, tmp_path):
    # NaN and inf targets make losses NaN, and max(0.0, nan) is 0.0, so a
    # NaN discrepancy would read as zero and verify would pass.
    g = tmp_path / "g.tsv"
    g.write_text("0\t1\n1\t2\n2\t0\n")
    bad = tmp_path / "bad.tsv"
    for text, lineno, what in (("0\tnan,1\n1\t1e400,2\n", 1, "not finite"),
                               ("0\t1,1\n1\t1e400,2\n", 2, "not finite"),
                               ("0\t1,1\n1\tx,2\n", 2, "bad regression target")):
        bad.write_text(text)
        code, _, err = run(capsys, "compress", "--graph", g, "--depth", "2", "--train", bad,
                           "--loss", "sq", "--out", tmp_path / "b")
        assert code == 2
        assert f"bad.tsv:{lineno}: " in err and what in err
        code, _, err = run(capsys, "verify", "--bundle", tmp_path / "b", "--original", g,
                           "--train", bad)
        assert code == 2
    good = tmp_path / "good.tsv"
    good.write_text("0\t0.5,1\n1\t1.5,2\n")
    bundle = tmp_path / "bundle"
    assert run(capsys, "compress", "--graph", g, "--depth", "2", "--train", good,
               "--loss", "sq", "--out", bundle)[0] == 0
    bad.write_text("0\tnan,1\n1\t1e400,2\n")
    code, _, err = run(capsys, "verify", "--bundle", bundle, "--original", g, "--train", bad)
    assert code == 2
    assert "bad.tsv:1: regression target 'nan,1' is not finite" in err
    train = bundle / "train.tsv"
    lines = train.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if "\t0.5," in line)
    train.write_text(train.read_text().replace("\t0.5,", "\tnan,"))
    code, out, err = run(capsys, "verify", "--bundle", bundle, "--original", g, "--train", good)
    assert code == 2
    assert f"train.tsv:{lineno}: regression target" in err
    assert "passed" not in out


def test_representative_ids_must_map_to_themselves(fig1_files, capsys, tmp_path):
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
        "--train", t, "--loss", "xent", "--out", bundle)
    meta_path = bundle / "meta.json"
    meta = json.loads(meta_path.read_text())
    reps = meta["representative_original_ids"]
    assert len(reps) == 3
    for broken in (reps[:1], reps[::-1], reps + reps[:1]):
        meta_path.write_text(json.dumps({**meta, "representative_original_ids": broken}))
        code, _, err = run(capsys, "verify", "--bundle", bundle, "--original", g,
                           "--colors", c, "--train", t)
        assert code == 3
        assert "meta.json: representative_original_ids" in err


def test_bundle_colors_without_a_line_take_the_default_color(fig1_files, capsys, tmp_path):
    # fig1's b nodes are left uncolored. A colors.tsv that misses a reduct
    # node gives it the default color, as a --colors file does, and verify
    # decides the bundle: equal when the dropped node's color was the
    # default, a round-0 reduct failure when it was not
    g, _, t = fig1_files
    c = tmp_path / "a-only.tsv"
    c.write_text("0\ta\n1\ta\n2\ta\n")
    bundle = tmp_path / "bundle"
    assert run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
               "--train", t, "--loss", "xent", "--out", bundle)[0] == 0
    verify = ("verify", "--bundle", bundle, "--original", g, "--colors", c, "--train", t)
    colors = bundle / "colors.tsv"
    lines = colors.read_text().splitlines()
    assert {line.endswith("\t") for line in lines} == {True, False}
    rep_of = [int(line.split("\t")[1]) for line in (bundle / "map.tsv").read_text().splitlines()]
    before = load_bundle(bundle)
    for j, line in enumerate(lines):
        colors.write_text("".join(f"{other}\n" for other in lines if other != line))
        code, out, _ = run(capsys, *verify)
        if line.endswith("\t"):
            back = load_bundle(bundle)
            assert back.graph == before.graph and back.graph.palette == before.graph.palette
            assert (code, out.splitlines()[-1]) == (0, "verification passed")
        else:
            assert (code, out) == (4, f"FAIL reduct: node {rep_of.index(j)} disagrees with "
                                      f"its representative at round 0\n")


def test_meta_reduced_nodes_is_checked_before_use(fig1_files, capsys, tmp_path):
    # reduced_nodes sizes the reduct: a missing or non-integer value is a
    # format error, and one that disagrees with representative_original_ids
    # is refused before any array is sized by it
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
        "--train", t, "--loss", "xent", "--out", bundle)
    verify = ("verify", "--bundle", bundle, "--original", g, "--colors", c, "--train", t)
    meta_path = bundle / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta["reduced_nodes"] == len(meta["representative_original_ids"]) == 3
    for value in ("3", 3.0, True, -1, None):
        meta_path.write_text(json.dumps({**meta, "reduced_nodes": value}))
        assert run(capsys, *verify) == (
            2, "", f"error: {meta_path}: reduced_nodes must be a non-negative integer\n")
    meta_path.write_text(json.dumps({k: v for k, v in meta.items() if k != "reduced_nodes"}))
    assert run(capsys, *verify)[0] == 2
    for value in (2, 4, 10**15):
        meta_path.write_text(json.dumps({**meta, "reduced_nodes": value}))
        code, out, err = run(capsys, *verify)
        assert (code, out) == (3, "")
        assert "meta.json: representative_original_ids must list one node" in err


def test_verify_samples_gnns_as_deep_as_the_stable_round(fig1_files, capsys, tmp_path,
                                                         monkeypatch):
    # fig1 is stable at round 2: its depth-10**6 bundle is checked with
    # 2-layer GNNs, and a bundle claiming more rounds than its depth or than
    # 5 (6 nodes) allow is refused before any feature or GNN is built
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    verify = ("verify", "--bundle", bundle, "--original", g, "--colors", c, "--train", t)
    layers = []

    def config(dims, **kwargs):
        layers.append(len(dims) - 1)
        return GnnConfig(dims, **kwargs)

    monkeypatch.setattr("gnncompress.cli.GnnConfig", config)
    for depth, want in (("1", 1), ("2", 2), ("1000000", 2), ("inf", 2)):
        assert run(capsys, "compress", "--graph", g, "--colors", c, "--depth", depth,
                   "--train", t, "--loss", "xent", "--out", bundle)[0] == 0
        code, out, _ = run(capsys, *verify)
        assert code == 0 and "verification passed" in out
        assert layers.pop() == want

    def refuse(*args, **kwargs):
        raise AssertionError("an impossible bundle must be refused first")

    monkeypatch.setattr("gnncompress.cli.one_hot_features", refuse)
    meta_path = bundle / "meta.json"
    meta = json.loads(meta_path.read_text())
    for depth, rounds in (("inf", 6), (1000000, 3000000), (1, 2), (0, 1)):
        meta_path.write_text(json.dumps({**meta, "depth": depth, "rounds": rounds}))
        code, out, err = run(capsys, *verify)
        assert code == 3 and f"bundle claims {rounds} rounds" in err and out == ""


def test_compress_builds_no_feature_matrix(fig1_files, capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compress must not build a one-hot feature matrix")

    monkeypatch.setattr("gnncompress.cli.one_hot_features", refuse)
    g, c, t = fig1_files
    code, out, _ = run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
                       "--train", t, "--loss", "xent", "--out", tmp_path / "bundle")
    assert code == 0
    assert "nodes 50.00% (3/6)" in out


def test_parser_is_built_once_and_finds_handlers_when_run(fig1_files, capsys, monkeypatch):
    g, c, _ = fig1_files
    assert run(capsys, "stats", "--graph", g, "--depths", "1")[0] == 0
    assert cli.build_parser() is cli.build_parser()
    # a handler rebound after the parser was built is the one that runs
    seen = []
    monkeypatch.setattr(cli, "cmd_stats", lambda args: seen.append(args.depths) or 7)
    assert run(capsys, "stats", "--graph", g, "--depths", "2,inf")[0] == 7
    assert seen == ["2,inf"]


def test_bench_tracer_runs_compress_and_verify(fig1_files, capsys, tmp_path, monkeypatch):
    # bench/tracer.py wraps package functions by name and reads their
    # parameters; every name it looks up must still exist.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    tracer = Tracer()
    tracer.begin_cycle()
    tracer.install()
    try:
        compress = ["compress", "--graph", g, "--colors", c, "--depth", "1",
                    "--train", t, "--loss", "xent", "--out", bundle]
        verify = ["verify", "--bundle", bundle, "--original", g, "--colors", c,
                  "--train", t]
        codes = [tracer.run_op("compress", main, [str(a) for a in compress]),
                 tracer.run_op("verify", main, [str(a) for a in verify])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert "verification passed" in capsys.readouterr().out
    names = {name for name, *_ in tracer.spans}
    assert {"cli.cmd_compress", "cli.cmd_verify", "refine.refine",
            "reduction.reduce_graph", "gnn.forward"} <= names
    # the per-layer file I/O figures: every fileio span, and the byte counts
    # the tracer takes from the parameters it reads by name
    assert {f"fileio.{name}" for name in ("read_edges", "read_colors", "read_train",
                                          "load_graph", "save_bundle", "load_bundle")} <= names
    for count in ("fileio.bytes_read", "fileio.bytes_written"):
        assert sum(v for (_, name), v in tracer.counts.items() if name == count) > 0


def test_verify_rejects_bundle_of_other_node_ids(capsys, tmp_path):
    g, other = tmp_path / "g.txt", tmp_path / "other.txt"
    g.write_text("10 20\n20 30\n")
    other.write_text("1 2\n2 3\n")
    bundle = tmp_path / "bundle"
    assert run(capsys, "compress", "--graph", g, "--depth", "1", "--out", bundle)[0] == 0
    assert run(capsys, "verify", "--bundle", bundle, "--original", g)[0] == 0
    # the same shape under other ids
    code, out, err = run(capsys, "verify", "--bundle", bundle, "--original", other)
    assert code == 3 and "passed" not in out
    assert "node 0 is 10 in the bundle, 1 in the graph" in err
    # map.tsv lines of ids 10 and 20 swapped, and meta listing them swapped:
    # the same rep_of_node, but node 10, which has no in-edges, in 20's class
    map_path, meta_path = bundle / "map.tsv", bundle / "meta.json"
    reps = dict(line.split("\t") for line in map_path.read_text().splitlines())
    map_path.write_text(f"10\t{reps['20']}\n20\t{reps['10']}\n30\t{reps['30']}\n")
    meta = json.loads(meta_path.read_text())
    assert meta["original_node_ids"] == [10, 20, 30]
    meta_path.write_text(json.dumps({**meta, "original_node_ids": [20, 10, 30]}))
    code, out, err = run(capsys, "verify", "--bundle", bundle, "--original", g)
    assert code == 3 and "passed" not in out
    assert "node 0 is 20 in the bundle, 10 in the graph" in err


@pytest.mark.parametrize("seed", range(3))
def test_dense_and_sparse_ids_give_one_bundle(capsys, tmp_path, seed):
    # the same problem written with file ids 0..n-1 and with 7 + 3i: the
    # bundles differ only in the ids they name original nodes by
    rng = np.random.default_rng(seed)
    n = 40
    src = np.concatenate([np.arange(n), rng.integers(0, n, 60)])
    dst = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n, 60)])
    colors = rng.integers(0, 3, n)
    train = rng.choice(n, 12, replace=False)
    labels = rng.integers(0, 3, 12)
    spaces = {"dense": np.arange(n), "sparse": 7 + 3 * np.arange(n)}
    files = {}
    for name, ids in spaces.items():
        d = tmp_path / name
        d.mkdir()
        files[name] = g, c, t = d / "g.txt", d / "c.tsv", d / "t.tsv"
        g.write_text("".join(f"{ids[s]} {ids[t]}\n" for s, t in zip(src, dst)))
        c.write_text("".join(f"{ids[v]}\tk{k}\n" for v, k in enumerate(colors)))
        t.write_text("".join(f"{ids[v]}\tc{k}\n" for v, k in zip(train, labels)))
        graph = ["--graph", g, "--colors", c]
        assert run(capsys, "compress", *graph, "--train", t, "--loss", "xent",
                   "--depth", "2", "--out", d / "bundle")[0] == 0
        assert run(capsys, "refine", *graph, "--depth", "2", "--out", d / "refine.tsv")[0] == 0
    dense, sparse = tmp_path / "dense", tmp_path / "sparse"

    def relabelled(path):
        return "".join(f"{7 + 3 * int(a)}\t{b}\n" for a, b in
                       (line.split("\t") for line in path.read_text().splitlines()))

    for name in ("graph.tsv", "colors.tsv", "train.tsv"):
        assert (dense / "bundle" / name).read_bytes() == (sparse / "bundle" / name).read_bytes()
    for name in ("bundle/map.tsv", "refine.tsv"):
        assert relabelled(dense / name) == (sparse / name).read_text()
    metas = [json.loads((d / "bundle" / "meta.json").read_text()) for d in (dense, sparse)]
    assert metas[0].pop("original_node_ids") is None
    assert metas[1].pop("original_node_ids") == spaces["sparse"].tolist()
    assert metas[0] == metas[1]

    def verify(bundle_space, graph_space):
        g, c, t = files[graph_space]
        return run(capsys, "verify", "--bundle", tmp_path / bundle_space / "bundle",
                   "--original", g, "--colors", c, "--train", t, "--gnns", "1")

    for name in spaces:
        code, out, _ = verify(name, name)
        assert code == 0 and "verification passed" in out
    code, out, err = verify("dense", "sparse")
    assert code == 3 and "node 0 is 0 in the bundle, 7 in the graph" in err
    code, out, err = verify("sparse", "dense")
    assert code == 3 and "node 0 is 7 in the bundle, 0 in the graph" in err


@pytest.mark.parametrize("header", ["", "# node\ttarget\n"])
def test_compress_and_verify_build_no_id_dict(capsys, tmp_path, monkeypatch, header):
    # --train and color files name nodes by sparse file ids, which map by a
    # binary search of the graph's ids on the whole-file and per-line
    # paths alike: the CLI hands read_train the graph's int64 id array,
    # never a {file id: dense id} dict
    from gnncompress import fileio

    passed, per_line = [], []
    real_rows = fileio._train_rows

    def read_train(path, n, loss_kind, ids=None):
        passed.append(ids)
        return fileio.read_train(path, n, loss_kind, ids)

    def train_rows(path, *args):
        per_line.append(path.name)
        return real_rows(path, *args)

    monkeypatch.setattr(cli, "read_train", read_train)
    monkeypatch.setattr(fileio, "_train_rows", train_rows)
    g, c, t = tmp_path / "g.txt", tmp_path / "c.tsv", tmp_path / "t.tsv"
    g.write_text("".join(f"{10 * s + 3} {10 * d + 3}\n" for s, d, _ in FIG1_EDGES))
    c.write_text(header.replace("target", "color") + "".join(
        f"{10 * v + 3}\t{tok}\n" for v, tok in enumerate(FIG1_COLORS)))
    t.write_text(header + "33\ty\n43\ty\n")
    bundle = tmp_path / "bundle"
    graph = ["--graph", g, "--colors", c]
    code, out, err = run(capsys, "compress", *graph, "--train", t, "--loss", "xent",
                         "--depth", "2", "--out", bundle)
    assert code == 0 and err == ""
    code, out, err = run(capsys, "verify", "--bundle", bundle, "--original", g,
                         "--colors", c, "--train", t)
    assert code == 0 and "verification passed" in out
    assert len(passed) == 2         # compress and verify
    for ids in passed:
        assert type(ids) is np.ndarray and ids.dtype == np.int64
        assert ids.tolist() == [10 * v + 3 for v in range(len(FIG1_COLORS))]
    assert per_line.count(t.name) == (2 if header else 0)


def test_undecodable_files_are_format_errors(fig1_files, capsys, tmp_path):
    # a byte that is not UTF-8, in any file a command reads, is a format
    # error naming the file (exit 2), not an exception out of main
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    compress = ["compress", "--graph", g, "--colors", c, "--train", t, "--loss", "xent",
                "--depth", "1", "--out", bundle]
    assert run(capsys, *compress)[0] == 0
    verify = ["verify", "--bundle", bundle, "--original", g, "--colors", c, "--train", t]
    cases = [(g, compress), (c, compress), (t, compress)] + [
        (bundle / name, verify)
        for name in ("meta.json", "colors.tsv", "graph.tsv", "map.tsv", "train.tsv")]
    for path, argv in cases:
        text = path.read_bytes()
        path.write_bytes(text + b"\xff\n")
        code, out, err = run(capsys, *argv)
        path.write_bytes(text)
        assert code == 2, path
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff"), err
        assert "Traceback" not in err


@pytest.mark.parametrize("missing", ["--graph", "--colors", "--train", "graph.tsv",
                                     "colors.tsv", "map.tsv", "meta.json"])
def test_missing_files_are_errors_naming_the_path(fig1_files, capsys, tmp_path, missing):
    # an input file, or a bundle file, that is not there exits 2 and names
    # its path: the whole-file readers decline and the per-line ones report
    g, c, t = fig1_files
    bundle = tmp_path / "bundle"
    compress = ["compress", "--graph", g, "--colors", c, "--train", t, "--loss", "xent",
                "--depth", "1", "--out", bundle]
    if missing.startswith("--"):
        path, argv = compress[compress.index(missing) + 1], compress
    else:
        assert run(capsys, *compress)[0] == 0
        path, argv = bundle / missing, ["verify", "--bundle", bundle, "--original", g,
                                        "--colors", c, "--train", t]
    path.unlink()
    code, out, err = run(capsys, *argv)
    assert code == 2 and "wrote" not in out
    assert err.startswith(f"error: {path}: "), err


def test_undecodable_color_file_of_well_formed_lines(fig1_files, capsys):
    # one tab per line passes the whole-file color reader's shape check, so
    # its UTF-8 check declines and the per-line parser reports the byte
    g, c, _ = fig1_files
    c.write_bytes(c.read_bytes().replace(b"\ta\n", b"\ta\xff\n", 1))
    code, _, err = run(capsys, "refine", "--graph", g, "--colors", c, "--depth", "1")
    assert code == 2
    assert err.startswith(f"error: {c}: 'utf-8' codec can't decode byte 0xff"), err


def test_unwritable_outputs_are_errors(fig1_files, capsys, tmp_path):
    g, c, _ = fig1_files
    afile = tmp_path / "afile"
    afile.write_text("")
    code, out, err = run(capsys, "compress", "--graph", g, "--depth", "1",
                         "--out", afile / "b")
    assert code == 2 and "wrote" not in out
    assert err.startswith("error: ") and str(afile / "b") in err
    missing = tmp_path / "nodir" / "x.tsv"
    code, out, err = run(capsys, "refine", "--graph", g, "--depth", "1", "--out", missing)
    assert code == 2 and "wrote" not in out
    assert err.startswith("error: ") and str(missing) in err

def test_bench_workloads_match_the_oracle(capsys, tmp_path, monkeypatch):
    # the benchmark's output check: compress writes the oracle's bundle on
    # every workload, and verify passes it; then one cycle of the benchmark's
    # own loop, which also reads the training file through an id dict and
    # compares the losses of both problems, runs with no failure, untraced
    # and under `run.py --trace 1`'s tracer, whose hooks read refine_step,
    # RefinementResult.partitions and CompressedProblem.train_weighted
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from oracle import BUNDLE_FILES, expected_bundle
    from tracer import Tracer
    from workload import Run, _plain
    from workloads import WORKLOADS, generate

    for name, wl in WORKLOADS.items():
        inputs = generate(wl, 1, tmp_path / name)
        bundle = tmp_path / name / "bundle"
        graph = ["--graph", inputs.graph_path, "--colors", inputs.colors_path]
        flags = ["--undirected"] if wl.undirected else []
        assert run(capsys, "compress", *graph, *flags, "--train", inputs.train_path,
                   "--loss", wl.loss, "--depth", wl.depth, "--grade", wl.grade,
                   "--out", bundle)[0] == 0, name
        expected = expected_bundle(inputs, wl)
        for file in BUNDLE_FILES:
            assert hashlib.sha256((bundle / file).read_bytes()).hexdigest() == \
                expected["digests"][file], (name, file)
        if wl.verify_width:
            flags += ["--width", wl.verify_width]
        code, out, _ = run(capsys, "verify", "--bundle", bundle, "--original",
                           inputs.graph_path, "--colors", inputs.colors_path,
                           "--train", inputs.train_path, "--gnns", "1", *flags)
        assert code == 0 and "verification passed" in out, name

        paths = {"graph": inputs.graph_path, "colors": inputs.colors_path,
                 "train": inputs.train_path, "bundle": tmp_path / name / "bench-bundle",
                 "trace": tmp_path / name / "trace"}
        bench_run = Run({"workload": name, "seed": 1, "seconds": 0, "trace": False,
                         "expected": expected,
                         "paths": {k: str(v) for k, v in paths.items()}})
        bench_run.cycle(_plain, 1)
        assert bench_run.failures == [], name
        assert bench_run.attempted == 4, name   # compress, verify, both epochs

        tracer = Tracer()
        tracer.begin_cycle()
        tracer.install()
        try:
            bench_run.cycle(tracer.run_op, 1)
        finally:
            tracer.uninstall()
        assert bench_run.failures == [], name
        assert bench_run.attempted == 8, name
        meta = json.loads((bundle / "meta.json").read_text())
        pairs = (bundle / "train.tsv").read_text().splitlines()
        assert tracer.counts["compress", "refine.rounds"] == len(meta["class_counts"]) - 1, name
        assert tracer.counts["compress", "problem.weighted_pairs"] == len(pairs), name


CASE_TARGETS = {"xent": ["a", "b", "c"], "sq": ["0.5,-1", "1.25,0", "-0.0,2", "0,2"]}


def oracle_case(rng, tmp_path):
    """A small seeded input for the oracle corpus, its files written to
    tmp_path: 1 to 13 nodes under dense or sparse file ids, self-loops,
    repeated edge lines, uncolored nodes, and a setting drawn from the
    depths, grades and losses the CLI takes."""
    n = int(rng.integers(1, 14))
    if rng.random() < 0.5:
        ids = list(range(n))
    else:
        ids = sorted({int(x) for x in rng.integers(0, 2**62, n)})
    edges = [(ids[a], ids[b]) for a, b in rng.integers(0, len(ids), (int(rng.integers(1, 30)), 2))]
    covered = {v for e in edges for v in e}
    edges += [(v, ids[int(rng.integers(0, len(ids)))]) for v in ids if v not in covered]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    colors = {v: "rgb"[int(rng.integers(0, 3))] for v in ids if rng.random() < 0.8}
    loss = "xent" if rng.random() < 0.5 else "sq"
    tokens = CASE_TARGETS[loss]
    train = {v: tokens[int(rng.integers(0, len(tokens)))] for v in ids if rng.random() < 0.4}
    wl = SimpleNamespace(undirected=bool(rng.random() < 0.3), loss=loss,
                         depth=["0", "1", "2", "3", "inf"][int(rng.integers(0, 5))],
                         grade=["1", "2", "inf"][int(rng.integers(0, 3))])
    graph, colors_path, train_path = (tmp_path / f for f in ("g.tsv", "c.tsv", "t.tsv"))
    graph.write_text("".join(f"{s}\t{d}\n" for s, d in edges))
    colors_path.write_text("".join(f"{v}\t{t}\n" for v, t in colors.items()))
    train_path.write_text("".join(f"{v}\t{t}\n" for v, t in train.items()))
    flags = ["--graph", graph]
    flags += ["--colors", colors_path] if colors else []
    flags += ["--undirected"] if wl.undirected else []
    flags += ["--train", train_path] if train else []
    return SimpleNamespace(edges=edges, colors=colors, train=train), wl, flags


def assert_rounds_match_the_oracle(bundle, tmp_path, inputs, wl, oracle_refine, case):
    """meta.json's class_counts are the oracle's class counts at rounds 0,
    1, ..., and its rounds is the round before the one that detected
    stability or, without one, the requested depth."""
    meta = json.loads((bundle / "meta.json").read_text())
    g = load_graph(tmp_path / "g.tsv", tmp_path / "c.tsv" if inputs.colors else None,
                   wl.undirected).graph
    in_edges = [list(zip(g.in_src[a:b].tolist(), g.in_mult[a:b].tolist()))
                for a, b in zip(g.in_indptr[:-1].tolist(), g.in_indptr[1:].tolist())]
    grade = math.inf if wl.grade == "inf" else int(wl.grade)
    counts = meta["class_counts"]
    assert counts == [len(set(oracle_refine(g.node_count, in_edges, g.colors.tolist(), d, grade)))
                      for d in range(len(counts))], case
    depth = math.inf if wl.depth == "inf" else int(wl.depth)
    detected = len(counts) >= 2 and counts[-1] == counts[-2]
    assert (detected and meta["rounds"] == len(counts) - 2) or \
        len(counts) - 1 == depth == meta["rounds"], (case, counts, meta["rounds"])


def test_oracle_corpus(capsys, tmp_path, monkeypatch):
    # compress writes the plain-Python oracle's bundle, with its per-round
    # class counts in meta.json, on 300 small seeded inputs, and verify
    # passes every tenth of them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from oracle import BUNDLE_FILES, _refine, expected_bundle

    rng = np.random.default_rng(2600)
    settings, shapes = set(), set()
    for case in range(300):
        inputs, wl, flags = oracle_case(rng, tmp_path)
        settings.add((wl.depth, wl.grade, wl.loss, wl.undirected))
        edges = inputs.edges
        shapes.update(shape for shape, seen in (
            ("self-loop", any(s == d for s, d in edges)),
            ("repeated line", len(set(edges)) < len(edges)),
            ("uncolored node", len(inputs.colors) < len({v for e in edges for v in e})),
            ("sparse ids", max(map(max, edges)) > 13)) if seen)
        bundle = tmp_path / f"bundle-{case}"
        loss = ["--loss", wl.loss] if inputs.train else []
        code, out, err = run(capsys, "compress", *flags, *loss, "--depth", wl.depth,
                             "--grade", wl.grade, "--out", bundle)
        assert code == 0, (case, err)
        expected = expected_bundle(inputs, wl)["digests"]
        for file in BUNDLE_FILES:
            assert hashlib.sha256((bundle / file).read_bytes()).hexdigest() == \
                expected[file], (case, file)
        assert_rounds_match_the_oracle(bundle, tmp_path, inputs, wl, _refine, case)
        if case % 10 == 0:
            graph = flags[flags.index("--graph") + 1:]     # verify names it --original
            code, out, err = run(capsys, "verify", "--bundle", bundle, "--original",
                                 *graph, "--gnns", "2")
            assert code == 0 and "verification passed" in out, (case, out, err)
    assert len(settings) > 50 and len(shapes) == 4


def judged_target(token: str, loss: str) -> str:
    """A training target as train.tsv stores it: sq entries as repr(float)."""
    return token if loss == "xent" else ",".join(repr(float(x)) for x in token.split(","))


def judge_bundle(bundle, inputs, wl, oracle_refine) -> bool:
    """Whether a bundle is a correct compression of an oracle_case input,
    decided from the text of its five files with no code of the package.

    Every original node must share its class with its representative when
    the disjoint union of the original and the reduct (reduct node j is
    union node n + j) is refined at the bundle's own depth and grade by
    oracle_refine, a reduct node without a colors.tsv line having the
    default color "". train.tsv's weights must count each (representative,
    target) pair of the original training set.
    """
    meta = json.loads((bundle / "meta.json").read_text())
    depth, grade = (math.inf if meta[key] == "inf" else meta[key] for key in ("depth", "grade"))
    r = meta["reduced_nodes"]

    def rows(name):
        return [line.split("\t") for line in (bundle / name).read_text().splitlines()]

    raw_ids = sorted({v for e in inputs.edges for v in e})
    n = len(raw_ids)
    dense = {v: i for i, v in enumerate(raw_ids)}
    rep = {int(v): n + int(j) for v, j in rows("map.tsv")}
    colors = [inputs.colors.get(v, "") for v in raw_ids] + [""] * r
    for j, token in rows("colors.tsv"):
        colors[n + int(j)] = token
    mult = Counter()
    for s, d in inputs.edges:
        mult[dense[s], dense[d]] += 1
        if wl.undirected:
            mult[dense[d], dense[s]] += 1
    for s, d, m in rows("graph.tsv"):
        mult[n + int(s), n + int(d)] += int(m)
    in_edges = [[] for _ in range(n + r)]
    for (s, d), m in mult.items():
        in_edges[d].append((s, m))
    cls = oracle_refine(n + r, in_edges, colors, depth, grade)
    if any(cls[dense[v]] != cls[rep[v]] for v in raw_ids):
        return False
    stored = Counter()
    for j, target, weight in rows("train.tsv"):
        stored[n + int(j), judged_target(target, wl.loss)] += int(weight)
    return stored == Counter((rep[v], judged_target(t, wl.loss)) for v, t in inputs.train.items())


def tamper_bundle(bundle, rng, loss) -> str:
    """One random edit of a bundle's text, of a kind that applies to the
    bundle; returns the kind."""
    def pick(seq):
        return seq[int(rng.integers(0, len(seq)))]

    meta_path = bundle / "meta.json"
    meta = json.loads(meta_path.read_text())
    r = meta["reduced_nodes"]
    rows = {name: [line.split("\t") for line in (bundle / name).read_text().splitlines()]
            for name in ("graph.tsv", "colors.tsv", "map.tsv", "train.tsv")}
    kind = pick([kind for kind, applies in (
        ("map.tsv representative", r > 1), ("graph.tsv multiplicity", rows["graph.tsv"]),
        ("graph.tsv edge", True), ("colors.tsv token", True), ("colors.tsv dropped", True),
        ("colors.tsv shuffled", r > 1), ("train.tsv weight", rows["train.tsv"]),
        ("train.tsv target", rows["train.tsv"]), ("meta.json depth", True),
        ("meta.json grade", True), ("meta.json rounds", True)) if applies])
    name, what = kind.split(" ")
    if name == "meta.json":
        choices = {"depth": [0, 1, 2, 3, "inf"], "grade": [1, 2, "inf"], "rounds": [0, 1, 2, 3, 4]}
        meta[what] = pick([x for x in choices[what] if x != meta[what]])
        meta_path.write_text(json.dumps(meta))
        return kind
    table = rows[name]
    i = int(rng.integers(0, len(table)))
    row = table[i]
    if what == "representative":
        row[1] = str(pick([j for j in range(r) if j != int(row[1])]))
    elif what in ("multiplicity", "weight"):
        m = int(row[2])
        row[2] = str(m + 1 if m == 1 or rng.random() < 0.5 else m - 1)
    elif what == "edge":
        table.append([str(int(x)) for x in rng.integers(0, r, 2)] + ["1"])
    elif what == "token":
        row[1] = pick([t for t in ("r", "g", "b", "", "zzz") if t != row[1]])
    elif what == "dropped":
        del table[i]
    elif what == "shuffled":
        table[:] = [table[k] for k in rng.permutation(len(table))]
    else:       # target
        row[1] = pick([t for t in (judged_target(x, loss) for x in CASE_TARGETS[loss])
                       if t != row[1]])
    (bundle / name).write_text("".join("\t".join(row) + "\n" for row in table))
    return kind


def test_verify_soundness_corpus(capsys, tmp_path, monkeypatch):
    # verify never passes a bundle that is not a correct compression of its
    # original, nor fails one that is, as judge_bundle decides without the
    # package; exit 2 or 3 stays allowed for a malformed or inconsistent bundle.
    # Two families of 300 seeded cases: bundles with one random edit, and
    # under-split bundles, compressed at depth 1 or 2 and relabelled in
    # meta.json to a larger depth or inf.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from oracle import _refine

    rng = np.random.default_rng(3100)
    bundle = tmp_path / "bundle"
    verdicts = Counter()
    for case in range(600):
        family = ("tampered", "under-split")[case % 2]
        inputs, wl, flags = oracle_case(rng, tmp_path)
        depth = wl.depth if family == "tampered" else str(int(rng.integers(1, 3)))
        loss = ["--loss", wl.loss] if inputs.train else []
        assert run(capsys, "compress", *flags, *loss, "--depth", depth, "--grade", wl.grade,
                   "--out", bundle)[0] == 0, case
        if family == "tampered":
            kind = tamper_bundle(bundle, rng, wl.loss)
        else:
            meta = json.loads((bundle / "meta.json").read_text())
            kind = meta["depth"] = [int(depth) + 1, int(depth) + 2, "inf"][int(rng.integers(0, 3))]
            (bundle / "meta.json").write_text(json.dumps(meta))
        graph = flags[flags.index("--graph") + 1:]     # verify names it --original
        code, out, err = run(capsys, "verify", "--bundle", bundle, "--original", *graph,
                             "--gnns", "1")
        sound = judge_bundle(bundle, inputs, wl, _refine)
        assert code in (0, 2, 3, 4), (case, kind, err)
        assert (code, sound) not in ((0, False), (4, True)), (case, family, kind, out, err)
        verdicts[family, code] += 1
    for family in ("tampered", "under-split"):
        assert verdicts[family, 0] and verdicts[family, 4], verdicts


def test_compress_star_of_stars(capsys, tmp_path):
    from conftest import star_of_stars
    g3 = star_of_stars(3, 4)
    gp = tmp_path / "g3.tsv"
    gp.write_text("\n".join(f"{s}\t{d}" for s, d in zip(g3.out_src_flat, g3.out_dst)) + "\n")
    cp = tmp_path / "c3.tsv"
    cp.write_text("\n".join(f"{v}\t{g3.color_payload(v)}" for v in range(16)) + "\n")
    code, out, _ = run(capsys, "compress", "--graph", gp, "--colors", cp,
                       "--depth", "2", "--out", tmp_path / "b3")
    assert code == 0
    assert "nodes 18.75% (3/16)" in out
    assert "edges 13.33% (2/15)" in out


def test_stats_table(fig1_files, capsys):
    g, c, _ = fig1_files
    code, out, _ = run(capsys, "stats", "--graph", g, "--colors", c,
                       "--depths", "1,2,inf")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("depth")
    assert lines[1].split("\t") == ["1", "3", "50.00", "4", "36.36"]
    assert lines[3].split("\t")[0] == "inf"


@pytest.mark.parametrize("depths", ["3,0,inf,1", "1,2"])
@pytest.mark.parametrize("shape", ["fig1", "random"])
def test_stats_rows_match_one_refinement_per_depth(fig1_files, capsys, tmp_path, depths,
                                                   shape):
    # stats refines once, to the largest depth; every row must match a run
    # at that row's depth alone, for unsorted lists, depth 0 and no inf
    g, c, _ = fig1_files
    if shape == "random":
        rg = random_graph(40, 90, n_colors=2, max_mult=2, seed=3)
        g.write_text("".join(f"{s}\t{d}\t{m}\n" for s, d, m in
                             zip(rg.out_src_flat, rg.out_dst, rg.out_mult)))
        c.write_text("".join(f"{v}\t{rg.color_payload(v)}\n" for v in range(rg.node_count)))
    code, out, _ = run(capsys, "stats", "--graph", g, "--colors", c, "--depths", depths)
    assert code == 0
    graph = load_graph(g, c).graph
    n0, m0 = graph.node_count, graph.simple_edge_count
    want = ["depth\tnodes\tnodes_pct\tedges\tedges_pct"]
    for token in depths.split(","):
        partition = refine(graph, depth=math.inf if token == "inf" else int(token)).final
        h = reduce_graph(graph, choose_substitution(graph, partition)).graph
        n1, m1 = h.node_count, h.simple_edge_count
        want.append(f"{token}\t{n1}\t{100 * n1 / n0:.2f}\t{m1}\t{100 * m1 / m0:.2f}")
    assert out.splitlines() == want


def test_compress_deterministic_output(fig1_files, capsys, tmp_path):
    g, c, t = fig1_files
    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    for b in (b1, b2):
        run(capsys, "compress", "--graph", g, "--colors", c, "--depth", "1",
            "--train", t, "--loss", "xent", "--out", b)
    for name in ("graph.tsv", "colors.tsv", "map.tsv", "train.tsv", "meta.json"):
        assert (b1 / name).read_bytes() == (b2 / name).read_bytes()


def test_public_names_resolve_once():
    import gnncompress
    assert sorted(set(gnncompress.__all__)) == sorted(gnncompress.__all__)
    assert [name for name in gnncompress.__all__ if not hasattr(gnncompress, name)] == []


def test_bench_aliases_are_the_canonical_names(fig1_files, capsys):
    import gnncompress
    assert gnncompress.chain_config is gnncompress.GnnConfig
    assert gnncompress.evaluate_compressed_loss is gnncompress.evaluate_loss
    assert {"chain_config", "evaluate_compressed_loss"}.isdisjoint(gnncompress.__all__)
    # the equivalence tolerance is a constant, not an option
    g, c, t = fig1_files
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bundle", "bundle", "--original", str(g), "--colors", str(c),
              "--train", str(t), "--tol", "1"])
    assert exc.value.code == 2 and "--tol" in capsys.readouterr().err


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```")[0], {})
    assert "EquivalenceReport(" in capsys.readouterr().out


def test_readme_cli_section_names_every_long_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI\n", 1)[1].split("## Library\n", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    defined = {option for parser in commands.choices.values() for action in parser._actions
               for option in action.option_strings if option.startswith("--")}
    assert len(commands.choices) == 4
    assert documented == defined - {"--help"}


def test_first_node_bundle_of_an_older_build_loads_and_verifies(fig1_files, capsys, tmp_path):
    # An older build could pick least-id representatives and recorded that
    # as "first-node" in meta.json. The format is schema version 1 still.
    g, c, t = fig1_files
    loaded = load_graph(g, c)
    graph = loaded.graph
    train = read_train(t, graph.node_count, "xent", loaded.original_ids)
    cp = compress_problem(LearningProblem(graph, graph.colors[:, None], train, "xent"), depth=1)
    red = reduce_graph(graph, least_id_substitution(refine(graph, depth=1).final))
    assert red.node_ids.tolist() == [A1, A2, B1]
    cp = dataclasses.replace(cp, graph=red.graph, node_ids=red.node_ids,
                             rep_of_node=red.rep_index_of_node, features=None,
                             train=push_forward(train, red.rep_index_of_node),
                             original_ids=loaded.original_ids)
    old, again = tmp_path / "old", tmp_path / "again"
    save_bundle(cp, old)
    text = (old / "meta.json").read_text()
    assert '"schema_version": 1,' in text and '"policy": "min-incidence",' in text
    (old / "meta.json").write_text(text.replace('"min-incidence"', '"first-node"'))
    bundle = load_bundle(old)
    assert bundle.policy == "first-node" and bundle.node_ids.tolist() == [A1, A2, B1]
    save_bundle(bundle, again)
    for name in ("graph.tsv", "colors.tsv", "map.tsv", "train.tsv", "meta.json"):
        assert (old / name).read_bytes() == (again / name).read_bytes(), name
    code, out, err = run(capsys, "verify", "--bundle", old, "--original", g, "--colors", c,
                         "--train", t)
    assert (code, err) == (0, "") and out.endswith("verification passed\n")
