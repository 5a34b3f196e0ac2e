"""Command-line surface: refine, compress, verify, stats.

Exit codes: 0 success, 2 parse/format error or a file that cannot be read
or written, 3 invariant violation, 4 a failed check, which `cmd_verify`
returns. Every command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .fileio import (_fmt_extent, _format_ints, load_bundle, load_graph, parse_extent,
                     read_train, save_bundle)
from .gnn import chain_config, one_hot_features
from .problem import (LOSS_KINDS, LearningProblem, compress_problem, equivalence_report,
                      first_difference, push_forward)
from .reduction import choose_substitution, reduce_graph, verify_reduct
from .refine import refine


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="edge list file (src dst [mult])")
    p.add_argument("--colors", default=None, help="color file (node<TAB>token)")
    p.add_argument("--undirected", action="store_true",
                   help="add the reverse of every edge")


def _refinement_summary(result) -> str:
    counts = "→".join(str(c) for c in result.class_counts)
    if result.stable_round is not None:
        return f"stable at round {result.stable_round}; classes: {counts}"
    return f"reached round {len(result.class_counts) - 1}; classes: {counts}"


def cmd_refine(args) -> int:
    depth = parse_extent(args.depth)
    grade = parse_extent(args.grade, minimum=1)
    loaded = load_graph(args.graph, args.colors, args.undirected)
    result = refine(loaded.graph, depth=depth, grade=grade)
    print(_refinement_summary(result))
    if args.out:
        Path(args.out).write_bytes(_format_ints((loaded.original_ids, result.final.class_of)))
        print(f"wrote {args.out}")
    return 0


def cmd_compress(args) -> int:
    depth = parse_extent(args.depth)
    grade = parse_extent(args.grade, minimum=1)
    loaded = load_graph(args.graph, args.colors, args.undirected)
    if args.train and not args.loss:
        raise ValidationError("--train requires --loss")
    g = loaded.graph
    train = (read_train(args.train, g.node_count, args.loss, loaded.original_ids)
             if args.train else {})
    # Color ids as the one feature: constant on every color class, which
    # is all compression needs. Bundles store no features.
    problem = LearningProblem(g, g.colors[:, None], train, args.loss or "xent")
    cp = compress_problem(problem, depth=depth, grade=grade)

    n0, m0 = g.node_count, g.simple_edge_count
    n1, m1 = cp.graph.node_count, cp.graph.simple_edge_count
    print(f"nodes {100.0 * n1 / n0:.2f}% ({n1}/{n0}), "
          f"edges {100.0 * m1 / m0:.2f}% ({m1}/{m0})")
    cp = dataclasses.replace(cp, original_ids=loaded.original_ids)
    save_bundle(cp, args.out, extra_meta={"original_simple_edges": m0})
    print(f"wrote bundle {args.out} (depth={_fmt_extent(depth)}, "
          f"grade={_fmt_extent(grade)}, policy={cp.policy}, rounds={cp.rounds})")
    return 0


def cmd_verify(args) -> int:
    width = parse_extent(args.width, minimum=1) if args.width else None
    if args.gnns < 1:
        raise FormatError(f"--gnns must be at least 1, got {args.gnns}")
    if args.seed < 0:
        raise FormatError(f"--seed must be non-negative, got {args.seed}")
    if not 0 <= args.tol < math.inf:
        raise FormatError(f"--tol must be finite and non-negative, got {args.tol}")
    loaded = load_graph(args.original, args.colors, args.undirected)
    g = loaded.graph
    cp = load_bundle(args.bundle)
    width = cp.grade if width is None else width
    if width > cp.grade:    # equal losses are guaranteed only up to the grade
        raise ValidationError(f"--width {_fmt_extent(width)} exceeds the bundle's "
                              f"grade {_fmt_extent(cp.grade)}")
    if len(cp.rep_of_node) != g.node_count:
        raise ValidationError(
            f"bundle maps {len(cp.rep_of_node)} nodes, original has {g.node_count}")
    bundle_ids, graph_ids = cp.original_ids, loaded.original_ids
    if not np.array_equal(bundle_ids, graph_ids):
        i = np.flatnonzero(bundle_ids != graph_ids)[0]
        raise ValidationError(f"bundle's node ids differ from the original's: node {i} "
                              f"is {bundle_ids[i]} in the bundle, {graph_ids[i]} in the graph")
    # Refinement stabilizes within n - 1 rounds, and stops at the depth.
    last = min(cp.depth, max(g.node_count - 1, 0))
    if cp.rounds > last:
        raise ValidationError(f"bundle claims {cp.rounds} rounds; refinement of "
                              f"{g.node_count} nodes to depth {_fmt_extent(cp.depth)} "
                              f"ends by round {last}")

    if cp.train and not args.train:
        raise ValidationError("bundle carries a training set; pass --train "
                              "to verify it against the original")

    check = verify_reduct(g, cp.graph, cp.rep_of_node, cp.depth, cp.grade)
    if not check.ok:
        print(f"FAIL reduct: node {check.witness_node} disagrees with its "
              f"representative at round {check.witness_round}")
        return 4

    # Weighted training set must be the push-forward of the original one.
    train = {}
    if args.train:
        train = read_train(args.train, g.node_count, cp.loss_kind, loaded.original_ids)
        bad = first_difference(cp.train, push_forward(train, cp.rep_of_node))
        if bad is not None:
            print(f"FAIL training weights: node {bad} has tampered targets or weights")
            return 4

    if cp.depth == 0:       # no sampled GNN has 0 layers
        print("no equivalence check: a depth-0 hypothesis reads only the "
              "initial colors, which the reduct check compared")
        print("verification passed")
        return 0

    # Equivalence over sampled GNNs.
    features, vocab = one_hot_features(g)
    p_dim = len(vocab)
    # One layer per round, and at least one: the checks above keep the rounds
    # within the depth, and a partition stable after fewer rounds is tested
    # exactly by GNNs of that many layers.
    layers = max(1, cp.rounds)
    palette = cp.train.palette
    q = (len(palette) if cp.loss_kind == "xent" else palette.shape[1]) if cp.train else p_dim
    config = chain_config([p_dim] * layers + [q], width=width, agg="sum")

    problem = LearningProblem(g, features, train, cp.loss_kind, config)
    report = equivalence_report(problem, cp, n_gnns=args.gnns, seed=args.seed,
                                tolerance=args.tol)
    status = "pass" if report.passed else "FAIL"
    print(f"{status} equivalence: {args.gnns} GNNs, "
          f"max loss discrepancy {report.max_loss_discrepancy:.3e}, "
          f"max output discrepancy {report.max_output_discrepancy:.3e}")
    if not report.passed:
        return 4
    print("verification passed")
    return 0


def cmd_stats(args) -> int:
    grade = parse_extent(args.grade, minimum=1)
    depths = [parse_extent(tok) for tok in args.depths.split(",")]
    loaded = load_graph(args.graph, args.colors, args.undirected)
    g = loaded.graph
    n0, m0 = g.node_count, g.simple_edge_count
    result = refine(g, depth=max(depths), grade=grade)
    print("depth\tnodes\tnodes_pct\tedges\tedges_pct")
    for d in depths:
        h = reduce_graph(g, choose_substitution(g, result.at(d)), grade).graph
        n1, m1 = h.node_count, h.simple_edge_count
        print(f"{_fmt_extent(d)}\t{n1}\t{100.0 * n1 / n0:.2f}\t{m1}\t{100.0 * m1 / m0:.2f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. main looks the
    handler of a command up in this module, as ``cmd_<command>``, when the
    command runs, so a handler rebound after the first build is the one
    called."""
    parser = argparse.ArgumentParser(
        prog="gnncompress",
        description="Exact compression of GNN learning problems by color refinement")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="compute refinement classes")
    _add_graph_args(p)
    p.add_argument("--depth", required=True, help="rounds to run, or 'inf' for stability")
    p.add_argument("--grade", default="inf", help="multiplicity cap c, or 'inf'")
    p.add_argument("--out", default=None, help="write node<TAB>class_id here")

    p = sub.add_parser("compress", help="build a compressed bundle")
    _add_graph_args(p)
    p.add_argument("--depth", required=True)
    p.add_argument("--grade", default="inf")
    p.add_argument("--train", default=None, help="training file (node<TAB>target)")
    p.add_argument("--loss", choices=LOSS_KINDS, default=None)
    p.add_argument("--out", required=True, help="bundle output directory")

    p = sub.add_parser("verify", help="check a bundle against its original")
    p.add_argument("--bundle", required=True)
    p.add_argument("--original", required=True, help="original edge list")
    p.add_argument("--colors", default=None)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--train", default=None)
    p.add_argument("--gnns", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--width", default=None,
                   help="GNN width of the equivalence check: at most the bundle grade (default)")

    p = sub.add_parser("stats", help="compression ratios over several depths")
    _add_graph_args(p)
    p.add_argument("--depths", default="1,2,3,inf", help="comma-separated depths")
    p.add_argument("--grade", default="inf")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except (FormatError, OSError) as exc:   # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
