import dataclasses
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gnncompress import (FormatError, LearningProblem, ValidationError,
                         build_graph, compress_problem, refine)
from gnncompress.cli import main
from gnncompress.fileio import (_BLOCK_ROWS, _format_ints, load_bundle, load_graph,
                                parse_extent, read_train, save_bundle)
from gnncompress.gnn import GnnConfig, one_hot_features
from gnncompress.problem import LOSS_KINDS, TrainingSet
from conftest import FIG1_COLORS, FIG1_EDGES, random_graph, same_partition, transpose


def write_fig1(tmp_path, undirected=False):
    lines = [f"{s}\t{d}" for s, d, _ in FIG1_EDGES]
    (tmp_path / "g.tsv").write_text("# comment\n" + "\n".join(lines) + "\n")
    color_lines = [f"{v}\t{c}" for v, c in enumerate(FIG1_COLORS)]
    (tmp_path / "c.tsv").write_text("\n".join(color_lines) + "\n")
    return tmp_path / "g.tsv", tmp_path / "c.tsv"


def test_two_line_file(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("0\t1\n1\t0\n")
    g = load_graph(p).graph
    assert (g.node_count, g.simple_edge_count) == (2, 2)


def test_undirected_symmetrizes(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("0 1\n")
    g = load_graph(p, undirected=True).graph
    assert (g.node_count, g.simple_edge_count) == (2, 2)
    assert transpose(g) == g


def test_undirected_random_self_transpose(tmp_path):
    g0 = random_graph(20, 60, n_colors=1, max_mult=2, seed=9)
    p = tmp_path / "g.tsv"
    with open(p, "w") as f:
        for s, d, m in zip(g0.out_src_flat, g0.out_dst, g0.out_mult):
            f.write(f"{s}\t{d}\t{m}\n")
    g = load_graph(p, undirected=True).graph
    assert transpose(g) == g


def test_fig1_round_trip_refines_identically(tmp_path):
    gp, cp_ = write_fig1(tmp_path)
    loaded = load_graph(gp, cp_).graph
    mem = build_graph(FIG1_EDGES, FIG1_COLORS)
    for d in range(4):
        a = refine(loaded, depth=d).at(d)
        b = refine(mem, depth=d).at(d)
        assert same_partition(a.class_of, b.class_of)


def test_sparse_ids_remapped(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("10\t400\n400\t7000\n")
    loaded = load_graph(p)
    assert (loaded.graph.node_count, loaded.graph.simple_edge_count) == (3, 2)
    assert list(loaded.original_ids) == [10, 400, 7000]


def test_default_color_for_absent_nodes(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("0\t1\n1\t2\n")
    c = tmp_path / "c.tsv"
    c.write_text("0\tred\n")
    g = load_graph(p, c).graph
    assert g.color_payload(0) == "red"
    assert g.color_payload(1) == g.color_payload(2)


def test_parse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "g.tsv"
    for text, line in (("0\t1\nnope\n", 2),
                       ("0\t1\n1\t2\t9223372036854775808\n", 2),    # multiplicity 2**63
                       ("0\t1\n# ids past int64\n18446744073709551616\t0\n", 3),
                       # the first bad line, though a later one fails to parse
                       ("0\t1\n9223372036854775808\t0\n2\t3\nnope\n", 2)):
        p.write_text(text)
        with pytest.raises(FormatError, match=f":{line}:"):
            load_graph(p)
    # the same parser reads graph.tsv inside bundles
    cp = make_compressed()
    save_bundle(cp, tmp_path / "b")
    with open(tmp_path / "b" / "graph.tsv", "a") as f:
        f.write("0\t0\t9223372036854775808\n")
    n_lines = len((tmp_path / "b" / "graph.tsv").read_text().splitlines())
    with pytest.raises(FormatError, match=f"graph.tsv:{n_lines}:"):
        load_bundle(tmp_path / "b")
    # and so do the integer columns of the other bundle files
    for name, column in (("colors.tsv", 0), ("map.tsv", 0), ("map.tsv", 1),
                         ("train.tsv", 0), ("train.tsv", 2)):
        bundle = tmp_path / f"{name}-{column}"
        save_bundle(cp, bundle)
        lines = (bundle / name).read_text().splitlines()
        parts = lines[-1].split("\t")
        parts[column] = "x" + parts[column]
        lines[-1] = "\t".join(parts)
        (bundle / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"{name}:{len(lines)}:"):
            load_bundle(bundle)


def test_zero_multiplicity_rejected(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("0\t1\t0\n")
    with pytest.raises(FormatError):
        load_graph(p)


def test_dangling_color_node_rejected(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text("0\t1\n")
    cp_ = tmp_path / "c.tsv"
    cp_.write_text("5\tred\n")
    with pytest.raises(ValidationError):
        load_graph(gp, cp_)


def test_duplicate_color_lines_rejected(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text("0\t1\n")
    cp_ = tmp_path / "c.tsv"
    cp_.write_text("0\tred\n0\tblue\n")
    with pytest.raises(ValidationError):
        load_graph(gp, cp_)


def test_duplicate_train_node_rejected(tmp_path):
    t = tmp_path / "t.tsv"
    t.write_text("0\ty\n0\tz\n")
    with pytest.raises(ValidationError):
        read_train(t, 2, "xent")


def test_train_dimension_mismatch_rejected(tmp_path):
    t = tmp_path / "t.tsv"
    t.write_text("0\t1.0,2.0\n1\t1.0\n")
    with pytest.raises(ValidationError):
        read_train(t, 2, "sq")


def test_read_train_id_dict_must_list_ascending_ids_from_0(tmp_path):
    t = tmp_path / "t.tsv"
    t.write_text("10\ty\n30\tz\n")
    assert read_train(t, 2, "xent", {10: 0, 30: 1}).nodes.tolist() == [0, 1]
    for ids in ({10: 1, 30: 0}, {30: 0, 10: 1}, {10: 0, 30: 2}, {30: 0, 10: 1, 40: 2}):
        with pytest.raises(ValueError, match="ascending file ids to 0, 1"):
            read_train(t, 2, "xent", ids)


def same_train(a, b) -> bool:
    """Equal row arrays and palettes; sq palettes bit for bit."""
    pa, pb = a.palette, b.palette
    same_palette = (pa.shape == pb.shape and pa.tobytes() == pb.tobytes()
                    if isinstance(pa, np.ndarray) else pa == pb)
    return same_palette and all(np.array_equal(x, y) for x, y in
                                ((a.nodes, b.nodes), (a.target, b.target),
                                 (a.weight, b.weight)))


def same_compressed(a, b) -> bool:
    """Equal graph, maps, weighted training set and settings."""
    return (a.graph == b.graph and np.array_equal(a.node_ids, b.node_ids)
            and np.array_equal(a.rep_of_node, b.rep_of_node)
            and same_train(a.train, b.train)
            and (a.depth, a.grade, a.policy) == (b.depth, b.grade, b.policy))


def make_compressed(seed=0, depth=1, loss="xent"):
    g = random_graph(18, 50, n_colors=2, max_mult=2, seed=seed)
    # re-intern colors as string tokens so bundles round-trip payloads
    tokens = [f"c{g.color_payload(v)}" for v in range(g.node_count)]
    g = build_graph(
        [(int(s), int(d), int(m)) for s, d, m in
         zip(g.out_src_flat, g.out_dst, g.out_mult)], tokens)
    feats, _ = one_hot_features(g)
    rng = np.random.default_rng(seed)
    if loss == "xent":
        train = {int(v): f"y{rng.integers(0, 3)}"
                 for v in rng.choice(g.node_count, size=6, replace=False)}
        q = 3
    else:
        train = {int(v): rng.normal(size=2)
                 for v in rng.choice(g.node_count, size=6, replace=False)}
        q = 2
    p = LearningProblem(g, feats, train, loss,
                        GnnConfig([feats.shape[1]] * depth + [q]))
    return compress_problem(p, depth=depth)


@pytest.mark.parametrize("seed,loss", [(0, "xent"), (1, "xent"), (2, "sq"), (3, "sq")])
def test_bundle_round_trip(tmp_path, seed, loss):
    cp = make_compressed(seed=seed, loss=loss)
    save_bundle(cp, tmp_path / "b")
    back = load_bundle(tmp_path / "b")
    assert same_compressed(back, cp)
    # second hop is bit-stable too
    save_bundle(back, tmp_path / "b2")
    assert same_compressed(load_bundle(tmp_path / "b2"), cp)


def test_resaved_bundle_keeps_original_ids(tmp_path):
    # a loaded bundle carries its file ids, so saving it again writes the
    # same map.tsv and meta.json
    cp = make_compressed()
    cp = dataclasses.replace(cp, original_ids=np.arange(len(cp.rep_of_node)) * 3 + 1)
    save_bundle(cp, tmp_path / "b")
    back = load_bundle(tmp_path / "b")
    assert back.original_ids.tolist() == (np.arange(len(cp.rep_of_node)) * 3 + 1).tolist()
    save_bundle(back, tmp_path / "b2")
    for name in ("map.tsv", "meta.json"):
        assert (tmp_path / "b2" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fig1_rho2_bundle_round_trip(tmp_path):
    g = build_graph(FIG1_EDGES, FIG1_COLORS)
    p = LearningProblem(g, np.ones((6, 2)), {3: "y", 4: "y"}, "xent",
                        GnnConfig([2, 2]))
    cp = compress_problem(p, depth=1)
    save_bundle(cp, tmp_path / "b")
    back = load_bundle(tmp_path / "b")
    assert same_compressed(back, cp)


def test_zero_weight_rejected(tmp_path):
    cp = make_compressed()
    save_bundle(cp, tmp_path / "b")
    train = tmp_path / "b" / "train.tsv"
    lines = train.read_text().splitlines()
    parts = lines[0].split("\t")
    parts[2] = "0"
    lines[0] = "\t".join(parts)
    train.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        load_bundle(tmp_path / "b")


def test_meta_records_extents(tmp_path):
    import json
    g = build_graph(FIG1_EDGES, FIG1_COLORS)
    p = LearningProblem(g, np.ones((6, 1)), {}, "xent", GnnConfig([1, 1]))
    cp = compress_problem(p, depth=3, grade=math.inf)
    save_bundle(cp, tmp_path / "b")
    meta = json.loads((tmp_path / "b" / "meta.json").read_text())
    assert meta["depth"] == 3
    assert meta["grade"] == "inf"


def test_meta_records_class_counts(tmp_path):
    import json
    g = build_graph(FIG1_EDGES, FIG1_COLORS)
    p = LearningProblem(g, np.ones((6, 1)), {}, "xent", GnnConfig([1, 1]))
    save_bundle(compress_problem(p, depth=math.inf), tmp_path / "b")
    meta_path = tmp_path / "b" / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta["class_counts"] == [2, 3, 4, 4]
    assert load_bundle(tmp_path / "b").class_counts == [2, 3, 4, 4]
    # the key is optional: bundles without it load as before
    del meta["class_counts"]
    meta_path.write_text(json.dumps(meta))
    assert load_bundle(tmp_path / "b").class_counts is None
    meta["class_counts"] = [2, "3"]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match="class_counts"):
        load_bundle(tmp_path / "b")


def test_malformed_meta_names_the_key(tmp_path):
    import json
    cp = make_compressed()
    save_bundle(cp, tmp_path / "b")
    meta_path = tmp_path / "b" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text("[]")
    with pytest.raises(FormatError, match="JSON object"):
        load_bundle(tmp_path / "b")
    # ... marks a missing key
    for key, value in (("policy", ...), ("rounds", "x"), ("rounds", True),
                       ("depth", -1), ("grade", 0), ("loss_kind", 3),
                       ("representative_original_ids", [0, "1"]),
                       ("representative_original_ids", ...),
                       ("original_node_ids", [0, 1.5])):
        broken = {k: v for k, v in meta.items() if k != key}
        if value is not ...:
            broken[key] = value
        meta_path.write_text(json.dumps(broken))
        with pytest.raises(FormatError, match=f"meta.json: {key} must be"):
            load_bundle(tmp_path / "b")


def test_schema_version_mismatch(tmp_path):
    cp = make_compressed()
    save_bundle(cp, tmp_path / "b")
    meta = tmp_path / "b" / "meta.json"
    meta.write_text(meta.read_text().replace('"schema_version": 1',
                                             '"schema_version": 99'))
    with pytest.raises(FormatError, match="schema"):
        load_bundle(tmp_path / "b")


def test_map_must_cover_all_nodes(tmp_path):
    cp = make_compressed()
    save_bundle(cp, tmp_path / "b")
    m = tmp_path / "b" / "map.tsv"
    lines = m.read_text().splitlines()
    m.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(ValidationError):
        load_bundle(tmp_path / "b")


def test_parse_extent():
    assert parse_extent("3") == 3
    assert math.isinf(parse_extent("inf"))
    with pytest.raises(FormatError):
        parse_extent("x")


# Inputs on which the whole-file fast paths and the per-line parsers must
# agree: equal arrays, or the same error. Most of them must fall back.
EDGE_CORPUS = [
    "0 1\n1 2\n", "0\t1\t3\n1 2 1\n", "007 1\n", " 0 1\n", "0 1\t\n", "0 1",
    "# comment\n0 1\n", "0 1\n\n1 2\n", "0 1\n  \n1 2\n", "\t\n0 1\n", "0 1\r\n1 2\r\n",
    "+5 1\n", "1_0 1\n", "١ 1\n", "0\x0c1\n", "0\x1c1\n", "0 1\u20282 3\n",
    "0 1\x852 3\n", "0 1\n1 2 3\n", "0 1 2 3\n", "0\n", "0 1 9223372036854775808\n",
    "9223372036854775807 1\n", "0 -1\n", "0 1 0\n", "", "\n\n", "0 x\n",
    # leading '#' headers: SNAP's, one holding other line breaks, one alone
    "# Nodes: 3 Edges: 2\n# FromNodeId\tToNodeId\n0 1\n1 2\n", "# é\n0 1\n", "#\n0 1",
    "# a\rb\n0 1\n", "# a\u2028b\n0 1\n", "# a\x85b\n0 1\n", "# a\n# b\n", "# a",
    "# a\n0 1\n# b\n1 2\n", "# a\n\n0 1\n", "0 1\n# a\n",
]
COLOR_CORPUS = [
    "0\ta\n1\tb\n", "2\tred car\n0\t\n", " 1\ta\n", "0\ta", "0\ta\n1\tb\t\n",
    "# comment\n0\ta\n", "0\ta\n\n1\tb\n", "0\ta\n \n", "0\ta\r\n", "+1\ta\n",
    "1_0\ta\n", "١\ta\n", "0\ta\x0cb\n", "0\ta\x1cb\n", "0\ta\u2028b\n", "0\ta\u2029b\n",
    "0\ta\x85b\n", "0\té\n", "0\ta\tb\n\n", "0\t1\t2\n\n", "0\ta\n1", "0\n",
    "0\ta\n0\tb\n", "99\ta\n",
    "-1\ta\n", "9223372036854775808\ta\n", "", "x\ta\n",
]
# Training files, read by both parsers as --train files of a graph with
# file ids 0, 2, 10 and as a bundle's train.tsv of 3 reduct nodes.
TRAIN_CORPUS = [
    "0\ta\n2\tb\n", "+2\ta\n", "002\ta\n", "1_0\ta\n", " 2\ta\n", "-0\ta\n", "1\ta\n",
    "0\ta\n0\tb\n", "0\ta\n0\ta\n", "5\ta\n", "9223372036854775808\ta\n", "x\ta\n",
    "0\t1,2\n2\t3\n", "0\t1,2\n2\t3,4\n", "0\tnan\n", "0\t1e400\n", "0\t\n",
    "0\t1,,2\n", "0\t 1 , 2\n", "0\t1_0\n", "0\t١\n", "0\t-0.0,1e-300\n2\t1e5,0\n",
    "# h\n0\ta\n", "0\ta\r\n", "0\ta\x85\n", "0\ta\n\n2\tb\n", "0\ta", "", "0\ta\tb\n",
    "0\ta\t1\n", "0\ta\t0\n", "0\ta\t+1\n", "0\ta\t1_0\n", "0\ta\t-1\n", "0\ta\tx\n",
    "0\ta\t9223372036854775807\n", "0\ta\t9223372036854775808\n",
    "0\ta\t1\n0\ta\t1\n", "3\ta\t1\n", "0\t1,2\t1\n1\t3\t1\n", "0\ta\t1\t\n",
    "# h\tt\tw\n0\ta\t1\n",
]


def outcome(fn, *args):
    """fn's result as plain values, or the type and message of its error."""
    try:
        result = fn(*args)
    except (FormatError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):
        return [a.tolist() for a in result]
    if isinstance(result, TrainingSet):
        palette = result.palette
        return (result.nodes.tolist(), result.target.tolist(), result.weight.tolist(),
                palette if isinstance(palette, tuple) else (palette.shape, palette.tobytes()))
    return result


def per_line_only(monkeypatch):
    import gnncompress.fileio as fileio
    monkeypatch.setattr(fileio, "_read_int_table", lambda *a, **k: None)
    monkeypatch.setattr(fileio, "_read_id_tokens", lambda *a, **k: None)


def test_fast_paths_match_per_line_parser(tmp_path, monkeypatch):
    from gnncompress.fileio import _read_training, read_colors, read_edges
    p = tmp_path / "f.tsv"
    cases = []
    for text in EDGE_CORPUS:
        cases.append((text, read_edges, (p,)))
    for text in COLOR_CORPUS:
        cases.append((text, read_colors, (p, np.arange(11))))
        cases.append((text.replace("1", "10"), read_colors, (p, np.array([0, 2, 10]))))
    for text in TRAIN_CORPUS:
        for loss in LOSS_KINDS:
            cases.append((text, read_train, (p, 3, loss, np.array([0, 2, 10]))))
            cases.append((text, _read_training, (p, loss, np.arange(3), True)))
    fast = []
    for text, fn, args in cases:
        p.write_bytes(text.encode("utf-8"))
        fast.append(outcome(fn, *args))
    per_line_only(monkeypatch)
    for (text, fn, args), got in zip(cases, fast):
        p.write_bytes(text.encode("utf-8"))
        assert got == outcome(fn, *args), (fn.__name__, text)
    assert ("FormatError", f"{p}:1: ids and multiplicity must be below 2**63") in fast
    # the second line of a header split at "\r" is data
    assert fast[EDGE_CORPUS.index("# a\rb\n0 1\n")] == (
        "FormatError", f"{p}:2: expected 'src dst [mult]'")


def bundle_variants(lines):
    """Edited copies of a bundle file's lines (without newlines)."""
    first = lines[0].split("\t")
    big = "\t".join([first[0], "9223372036854775808"][:len(first)])
    return [
        lines, lines[::-1], lines[1:], lines + lines[:1], ["# comment"] + lines,
        lines[:1] + [""] + lines[1:], lines[:1] + ["\t"] + lines[1:],
        [line + "\r" for line in lines], [lines[0].replace("\t", " ")] + lines[1:],
        [lines[0] + "\t"] + lines[1:], ["+" + lines[0]] + lines[1:],
        [lines[0].replace("\t", "\x1c")] + lines[1:], [big] + lines[1:],
        lines[:-1] + [lines[-1].split("\t")[0] + "\t999"], lines + ["4000\t0"],
        [lines[0] + "\x0c"] + lines[1:],
    ]


@pytest.mark.parametrize("name", ["map.tsv", "colors.tsv"])
@pytest.mark.parametrize("sparse", [False, True])
def test_bundle_fast_paths_match_per_line_parser(tmp_path, monkeypatch, name, sparse):
    cp = make_compressed()
    n = len(cp.rep_of_node)
    if sparse:
        cp = dataclasses.replace(cp, original_ids=np.arange(n) * 3 + 1)
    save_bundle(cp, tmp_path / "b")
    path = tmp_path / "b" / name
    variants = bundle_variants(path.read_text().splitlines())

    def load(lines):
        path.write_text("".join(line + "\n" for line in lines))
        try:
            back = load_bundle(tmp_path / "b")
        except (FormatError, ValidationError) as exc:
            return type(exc).__name__, str(exc)
        return (back.graph, back.rep_of_node.tolist(),
                back.graph.palette, back.node_ids.tolist())

    fast = [load(lines) for lines in variants]
    assert fast[0][1] == cp.rep_of_node.tolist()
    per_line_only(monkeypatch)
    for lines, got in zip(variants, fast):
        assert got == load(lines), lines[:3]


def test_bundle_colors_in_any_row_order_take_the_whole_file_pass(tmp_path, monkeypatch):
    # colors.tsv is read as a color file over reduced_nodes nodes: rows in
    # reverse order load the same bundle, and never reach the per-line parser
    import gnncompress.fileio as fileio
    cp = make_compressed()
    save_bundle(cp, tmp_path / "b")
    path = tmp_path / "b" / "colors.tsv"
    lines = path.read_text().splitlines()
    assert len(lines) == cp.graph.node_count > 2
    path.write_text("".join(line + "\n" for line in lines[::-1]))

    def refuse(*args):
        raise AssertionError("colors.tsv went through the per-line parser")

    monkeypatch.setattr(fileio, "_tab_rows", refuse)
    back = load_bundle(tmp_path / "b")
    assert same_compressed(back, cp) and back.graph.palette == cp.graph.palette


def test_clean_files_take_the_fast_paths(tmp_path, monkeypatch):
    # a silent return to the per-line parsers would lose the whole-file speed
    import gnncompress.fileio as fileio
    cp = make_compressed()
    cp = dataclasses.replace(cp, original_ids=np.arange(len(cp.rep_of_node)) + 5)
    save_bundle(cp, tmp_path / "b")
    gp, cp_ = tmp_path / "g.tsv", tmp_path / "c.tsv"
    sparse_gp, sparse_cp = tmp_path / "sg.tsv", tmp_path / "sc.tsv"
    gp.write_text("".join(f"{s} {d}\n" for s, d, _ in FIG1_EDGES))
    cp_.write_text("".join(f"{v}\t{c}\n" for v, c in enumerate(FIG1_COLORS)))
    sparse_gp.write_text("".join(f"{10 * s}\t{10 * d}\t1\n" for s, d, _ in FIG1_EDGES))
    sparse_cp.write_text("".join(f"{10 * v}\t{c}\n" for v, c in enumerate(FIG1_COLORS)))
    snap_gp = tmp_path / "snap.txt"
    snap_gp.write_text("# Directed graph (each unordered pair of nodes is saved once)\n"
                       "# Nodes: 6 Edges: 11\n# FromNodeId\tToNodeId\n"
                       + "".join(f"{s}\t{d}\n" for s, d, _ in FIG1_EDGES))
    train = tmp_path / "t.tsv"
    train.write_text("50\ty1\n0\tb c\n")
    sq_cp = make_compressed(seed=2, loss="sq")
    save_bundle(sq_cp, tmp_path / "sq")

    def refuse(path):
        raise AssertionError(f"{path.name} was parsed line by line")

    monkeypatch.setattr(fileio, "_iter_data_lines", refuse)
    assert load_graph(gp, cp_).graph == build_graph(FIG1_EDGES, FIG1_COLORS)
    sparse = load_graph(sparse_gp, sparse_cp)
    assert sparse.graph == build_graph(FIG1_EDGES, FIG1_COLORS)
    assert load_graph(snap_gp, cp_).graph == build_graph(FIG1_EDGES, FIG1_COLORS)
    assert same_compressed(load_bundle(tmp_path / "b"), cp)
    assert same_compressed(load_bundle(tmp_path / "sq"), sq_cp)
    got = read_train(train, 6, "xent", sparse.original_ids)
    assert same_train(got, TrainingSet.from_rows([(0, "b c", 1), (5, "y1", 1)], "xent"))


def test_meta_text_matches_json_dumps(tmp_path):
    import json
    from gnncompress.fileio import _meta_text
    cp = make_compressed()
    cp = dataclasses.replace(cp, original_ids=np.arange(len(cp.rep_of_node)) + 5)
    save_bundle(cp, tmp_path / "b", extra_meta={"original_simple_edges": 50})
    text = (tmp_path / "b" / "meta.json").read_text()
    metas = [json.loads(text), {"a": []}, {"a": [True, 1]}, {"a": [1.5, 2], "b": None},
             {"é\n": ["x", "ü"]}, {"n": {"k": [1, 2], "m": {"z": []}}, "l": [[1], [2, 3]]}]
    for meta in metas:
        assert _meta_text(meta) == json.dumps(meta, indent=1) + "\n"
    assert _meta_text(metas[0]) == text
    # arrays are written as the lists of their entries
    arrays = {"a": np.array([0, 9, 10, 2**63 - 1]), "b": np.arange(0), "c": [1, 2],
              "d": np.arange(3, dtype=np.int32), "e": "x"}
    lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in arrays.items()}
    assert _meta_text(arrays) == json.dumps(lists, indent=1) + "\n"


FORMAT_VALUES = [0, 9, 10, 10**18, 2**63 - 1] + [10**k + d for k in range(1, 19) for d in (-1, 0)]


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_format_ints_matches_percent_d(rows):
    # the oracle is Python's %d; each column draws from the edge values
    # (powers of ten, one below them, 0, 2**63 - 1) and random magnitudes,
    # so fields of every width meet in one block
    rng = np.random.default_rng(rows)
    edge = rng.choice(np.array(FORMAT_VALUES, dtype=np.int64), rows)
    spread = rng.integers(0, 10 ** rng.integers(1, 19, rows), dtype=np.int64)
    columns = [edge, np.where(rng.random(rows) < 0.5, edge, spread),
               rng.integers(0, 10, rows), np.zeros(rows, dtype=np.int64), spread // 10**9]
    lists = [c.tolist() for c in columns]
    for k, sep, end in ((1, b"\t", b"\n"), (2, b"\t", b"\n"), (5, b"\t", b"\n"),
                        (3, b" ", b",\n  ")):
        want = b"".join(sep.join(b"%d" % x for x in row) + end for row in zip(*lists[:k]))
        assert _format_ints(columns[:k], sep, end) == want
    if rows:
        with pytest.raises(ValueError, match="non-negative"):
            _format_ints([edge, -1 - spread])


def test_bundle_files_are_written_as_bytes(tmp_path, monkeypatch):
    # no bundle file goes through text-mode newline translation
    def refuse(path, *args, **kwargs):
        raise AssertionError(f"{path.name} was written as text")

    cp = make_compressed(loss="sq")
    monkeypatch.setattr(Path, "write_text", refuse)
    save_bundle(cp, tmp_path / "b")
    assert same_compressed(load_bundle(tmp_path / "b"), cp)


def test_save_bundle_memory_per_edge(tmp_path):
    # tracemalloc peak of save_bundle above the memory held before it, on
    # a bundle of about 100k edges that keeps nearly every node. Measured:
    # 26.1 bytes per edge (158 when every cell was a Python int).
    g = random_graph(20000, 100000, n_colors=4, max_mult=3, seed=1)
    x, _ = one_hot_features(g)
    rng = np.random.default_rng(1)
    train = {int(v): f"y{rng.integers(0, 3)}" for v in rng.choice(20000, 2000, replace=False)}
    cp = compress_problem(LearningProblem(g, x, train, "xent"), depth=2)
    save_bundle(cp, tmp_path / "warm")    # caches and lazy imports
    edges = cp.graph.simple_edge_count
    assert edges > 99000
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        save_bundle(cp, tmp_path / "b")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - held) / edges < 30


# Training files: the input form (`--train`, node<TAB>target) and the bundle
# form (train.tsv, node<TAB>target<TAB>weight). The graph's file ids are
# 0, 1, 2, 5, so input ids map through its original_ids; "dense" reads them
# on 0..3.
TRAIN_GRAPHS = {"input": "0 1\n1 2\n2 5\n", "dense": "0 1\n1 2\n2 3\n",
                "bundle": "0 1\n1 2\n2 5\n"}
GOOD_TRAIN = {"xent": "1\ta\n2\tb\n", "sq": "1\t0.5,1\n2\t-0.0,2\n"}
FAIL_WEIGHTS = "FAIL training weights: node {} has tampered targets or weights"
# (form, loss kind, text, error type, message after the path, exit code). The
# bundles are compressed at depth 1 and have two reduct nodes, 0 and 1. An
# error type of None marks a train.tsv that loads: verify then prints the
# message on stdout.
TRAIN_FILE_CASES = [
    ("input", "xent", "1\ta\tb\n", FormatError, ":1: expected 'node<TAB>target'", 2),
    ("input", "xent", "1\ta\n2\n", FormatError, ":2: expected 'node<TAB>target'", 2),
    ("input", "xent", "x\ta\n", FormatError, ":1: node id must be an integer", 2),
    ("input", "xent", "1\ta\n3\tb\n", ValidationError, ":2: node 3 not in the graph", 3),
    ("input", "xent", "-1\ta\n", ValidationError, ":1: node -1 not in the graph", 3),
    ("input", "xent", "# header\n1\ta\n\n3\tb\n", ValidationError,
     ":4: node 3 not in the graph", 3),
    ("input", "xent", "5\ta\n1\tb\n5\ta\n", ValidationError,
     ":3: duplicate training node 5", 3),
    ("input", "sq", "1\t1,x\n", FormatError, ":1: bad regression target '1,x'", 2),
    ("input", "sq", "1\t\n", FormatError, ":1: bad regression target ''", 2),
    ("input", "sq", "1\t1,2\n2\tinf,2\n", FormatError,
     ":2: regression target 'inf,2' is not finite", 2),
    ("input", "sq", "1\tnan\n", FormatError, ":1: regression target 'nan' is not finite", 2),
    ("input", "sq", "1\t1,2\n2\t1\n", ValidationError, ":2: target dimension 1 != 2", 3),
    # two faults on a line, or in a file: the first check, the first line
    ("input", "sq", "1\t1\n1\tx\n", ValidationError, ":2: duplicate training node 1", 3),
    ("input", "sq", "3\tx\n", ValidationError, ":1: node 3 not in the graph", 3),
    ("input", "sq", "1\t1,2\n2\tnan\n", FormatError,
     ":2: regression target 'nan' is not finite", 2),
    ("input", "sq", "1\tx\n4\t1\n", FormatError, ":1: bad regression target 'x'", 2),
    ("dense", "xent", "1\ta\n4\tb\n", ValidationError, ":2: node 4 not in the graph", 3),
    ("dense", "xent", "2\ta\n2\tb\n", ValidationError, ":2: duplicate training node 2", 3),
    ("bundle", "xent", "0\ta\n", FormatError, ":1: expected 'node<TAB>target<TAB>weight'", 2),
    ("bundle", "xent", "x\ta\t1\n", FormatError, ":1: node id must be an integer", 2),
    ("bundle", "xent", "0\ta\t1\n2\ta\t1\n", ValidationError,
     ":2: node 2 not a representative", 3),
    ("bundle", "xent", "-1\ta\t1\n", ValidationError, ":1: node -1 not a representative", 3),
    ("bundle", "xent", "0\ta\tx\n", FormatError, ":1: weight must be an integer", 2),
    ("bundle", "xent", "0\ta\t0\n", ValidationError,
     ":1: weight must be a positive integer", 3),
    ("bundle", "xent", "0\ta\t-3\n", ValidationError,
     ":1: weight must be a positive integer", 3),
    ("bundle", "xent", f"1\ta\t{2**63 - 1}\n1\tb\t1\n", None, FAIL_WEIGHTS.format(1), 4),
    ("bundle", "xent", f"1\ta\t{2**63}\n", FormatError, ":1: weight must be below 2**63", 2),
    ("bundle", "xent", "1\ta\t1\n1\ta\t1\n1\tb\t1\n", None, FAIL_WEIGHTS.format(1), 4),
    ("bundle", "sq", "0\t1,x\t1\n", FormatError, ":1: bad regression target '1,x'", 2),
    ("bundle", "sq", "0\t-inf\t1\n", FormatError,
     ":1: regression target '-inf' is not finite", 2),
    ("bundle", "sq", "0\t1,2\t1\n1\t1\t1\n", ValidationError,
     ":2: target dimension 1 != 2", 3),
    ("bundle", "xent", "2\ta\t0\n", ValidationError, ":1: node 2 not a representative", 3),
    ("bundle", "sq", "0\tx\t0\n", ValidationError, ":1: weight must be a positive integer", 3),
    ("bundle", "sq", "0\t1,2\t1\n1\tnan\t1\n", FormatError,
     ":2: regression target 'nan' is not finite", 2),
]


@pytest.mark.parametrize("form,loss,text,error,message,code", TRAIN_FILE_CASES)
def test_training_file_errors(tmp_path, capsys, form, loss, text, error, message, code):
    g, good, bundle = tmp_path / "g.txt", tmp_path / "good.tsv", tmp_path / "b"
    g.write_text(TRAIN_GRAPHS[form])
    good.write_text(GOOD_TRAIN[loss])
    assert main(["compress", "--graph", str(g), "--depth", "1", "--train", str(good),
                 "--loss", loss, "--out", str(bundle)]) == 0
    if form == "bundle":
        path = bundle / "train.tsv"
        runs = [["verify", "--bundle", bundle, "--original", g, "--train", good]]
        load = functools.partial(load_bundle, bundle)
    else:
        path = tmp_path / "t.tsv"
        runs = [["compress", "--graph", g, "--depth", "1", "--train", path, "--loss", loss,
                 "--out", tmp_path / "b2"],
                ["verify", "--bundle", bundle, "--original", g, "--train", path]]
        loaded = load_graph(g)
        load = functools.partial(read_train, path, loaded.graph.node_count, loss,
                                 loaded.original_ids)
    path.write_text(text)
    if error is None:
        load()
    else:
        with pytest.raises(error) as info:
            load()
        assert type(info.value) is error
        assert str(info.value) == f"{path}{message}"
    capsys.readouterr()
    for argv in runs:
        assert main([str(a) for a in argv]) == code, argv[0]
        out = capsys.readouterr()
        if error is None:
            assert out.out.endswith(f"{message}\n") and out.err == ""
        else:
            assert out.err == f"error: {path}{message}\n"


def refuse_per_line(monkeypatch):
    """Make the per-line training parser raise, so a read that returns took
    the whole-file pass."""
    import gnncompress.fileio as fileio

    def refuse(path, *args):
        raise AssertionError(f"{path.name} was parsed line by line")
    monkeypatch.setattr(fileio, "_train_rows", refuse)


@pytest.mark.parametrize("seed", range(6))
def test_read_train_matches_training_set(tmp_path, monkeypatch, seed):
    # read_train must give what training_set gives for the {node: target}
    # dict the file spells out, array for array, sq palettes bit for bit:
    # in one whole-file pass, and line by line after a header
    from gnncompress.problem import training_set
    rng = np.random.default_rng(seed)
    n = 40
    ids = np.arange(n) if seed % 2 else np.sort(rng.choice(10**12, size=n, replace=False))
    g = tmp_path / "g.txt"
    g.write_text("".join(f"{ids[v]} {ids[(v + 1) % n]}\n" for v in range(n)))
    loaded = load_graph(g)
    assert np.array_equal(loaded.original_ids, np.arange(n)) == bool(seed % 2)
    id_dict = {int(o): i for i, o in enumerate(loaded.original_ids)}
    picked = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
    labels = ["a", "b c", "é", "0", "", "-0.0"]
    values = [0.0, -0.0, 1.5, -2.25, 1e-300, 3.0]
    dim = 1 + seed % 3
    for loss in ("xent", "sq"):
        if loss == "xent":
            reference = {int(v): labels[rng.integers(len(labels))] for v in picked}
            tokens = reference
        else:
            reference = {int(v): [values[i] for i in rng.integers(len(values), size=dim)]
                         for v in picked}
            tokens = {v: ",".join(map(repr, t)) for v, t in reference.items()}
        path = tmp_path / f"{loss}.tsv"
        text = "".join(f"{ids[v]}\t{tokens[v]}\n" for v in rng.permutation(list(reference)))
        expected = training_set(reference, n, loss)
        for header in ("", "# node\ttarget\n"):
            path.write_text(header + text)
            with monkeypatch.context() as m:
                if text and not header:     # an empty file is read line by line
                    refuse_per_line(m)
                got = read_train(path, n, loss, loaded.original_ids)
                assert same_train(got, expected), (loss, header)
                # the {file id: dense id} dict form reads the same ids
                got = read_train(path, n, loss, id_dict)
                assert same_train(got, expected), (loss, header)


def spell_id(rng, v: int) -> str:
    """One of the spellings int() reads as v."""
    digits = str(v)
    spellings = [digits, "+" + digits, "00" + digits, " " + digits, digits + " "]
    if len(digits) > 1:
        spellings.append(digits[0] + "_" + digits[1:])
    return spellings[rng.integers(len(spellings))]


@pytest.mark.parametrize("seed", range(8))
def test_training_file_passes_agree(tmp_path, monkeypatch, seed):
    # Seeded random training files of both forms and losses: the whole-file
    # pass must give what the per-line parser gives for the same file with
    # one blank line added, which the whole-file pass declines. Equal arrays,
    # and palettes equal bit for bit.
    from gnncompress.fileio import _read_training
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(np.arange(11, 200), size=30, replace=False))
    ids[:2] = 7, 10
    ids.sort()
    labels = ["a", "b c", " é ", "#x", "-0.0", "", "c\x00"]
    values = ["-0.0", "0.0", "1e-300", "1e5", "1.5", " -2.25", "+3", "1_0", "٣"]
    path = tmp_path / "t.tsv"
    for weighted in (False, True):
        r = 1 + int(rng.integers(len(ids)))
        for loss in LOSS_KINDS:
            dim = 1 + int(rng.integers(3))
            count = 1 + int(rng.integers(2 * r if weighted else r))
            if weighted:    # reduct nodes, repeats kept
                nodes = rng.integers(r, size=count)
            else:           # distinct graph nodes by their file ids
                nodes = ids[rng.choice(len(ids), size=min(count, len(ids)), replace=False)]
            lines = []
            for v in nodes.tolist():
                target = (labels[rng.integers(len(labels))] if loss == "xent" else
                          ",".join(values[i] for i in rng.integers(len(values), size=dim)))
                weight = f"\t{spell_id(rng, int(rng.integers(1, 2**62)))}" * weighted
                lines.append(f"{spell_id(rng, v)}\t{target}{weight}\n")
            if weighted:
                lines.append(lines[rng.integers(len(lines))])

            def read():
                if weighted:
                    return _read_training(path, loss, np.arange(r), True)
                return read_train(path, len(ids), loss, ids)

            path.write_text("".join(lines), encoding="utf-8")
            with monkeypatch.context() as m:
                refuse_per_line(m)
                whole = read()
            lines.insert(rng.integers(len(lines) + 1), "\n")
            path.write_text("".join(lines), encoding="utf-8")
            per_line = read()
            assert same_train(whole, per_line), (weighted, loss)
            assert len(whole) == (len(lines) - 1 if weighted else len(nodes))
