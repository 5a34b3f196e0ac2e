"""On-disk formats: edge lists, colorings, training sets, bundles.

Edge lists are whitespace-separated ``src dst [mult]`` lines with ``#``
comments (a missing multiplicity means 1). Color and training files are
tab-separated so tokens may contain spaces. A compressed bundle is a
directory with graph.tsv / colors.tsv / map.tsv / train.tsv / meta.json;
saving and loading a bundle round-trips the compressed problem exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .graph import ColorTable, ColoredMultigraph, graph_size
from .problem import CompressedProblem
from .refine import INF

SCHEMA_VERSION = 1

DEFAULT_COLOR = ""


def _fmt_extent(x) -> object:
    return "inf" if math.isinf(x) else int(x)


def parse_extent(token: str, minimum: int = 0):
    """Parse a depth/grade/width token: an integer >= minimum or 'inf'."""
    if token in ("inf", "infinity", "∞"):
        return INF
    try:
        value = int(token)
    except ValueError:
        value = None
    if value is None or value < minimum:
        raise FormatError(f"expected an integer >= {minimum} or 'inf', got {token!r}")
    return value


@dataclass
class LoadedGraph:
    graph: ColoredMultigraph
    original_ids: np.ndarray | None  # dense id -> id in the input file; None if already dense
    id_map: dict[int, int] | None     # id in the input file -> dense id; None if already dense


def _iter_data_lines(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _is_int(x, minimum=0) -> bool:
    return type(x) is int and minimum <= x < 2**63


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


# meta.json keys read back, with a test of the value and what it must be.
_META_FIELDS = {
    "depth": (lambda x: x == "inf" or _is_int(x), "a non-negative integer or 'inf'"),
    "grade": (lambda x: x == "inf" or _is_int(x, 1), "a positive integer or 'inf'"),
    "policy": (lambda x: isinstance(x, str), "a string"),
    "loss_kind": (lambda x: x in (None, "xent", "sq"), "null, 'xent' or 'sq'"),
    "rounds": (_is_int, "a non-negative integer"),
    "class_counts": (lambda x: x is None or _is_int_list(x),
                     "a list of non-negative integers"),
    "representative_original_ids": (_is_int_list, "a list of non-negative integers"),
    "original_node_ids": (lambda x: x is None or _is_int_list(x),
                          "null or a list of non-negative integers"),
}


def _int_field(token: str, path, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: {what} must be an integer") from None


def read_edges(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse an edge-list file into (src, dst, mult) arrays of raw file ids."""
    path = Path(path)
    srcs, dsts, mults = [], [], []
    for lineno, line in _iter_data_lines(path):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise FormatError(f"{path}:{lineno}: expected 'src dst [mult]'")
        try:
            s, d = int(parts[0]), int(parts[1])
            m = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise FormatError(f"{path}:{lineno}: ids and multiplicity must be integers") from None
        if s < 0 or d < 0:
            raise FormatError(f"{path}:{lineno}: node ids must be non-negative")
        if m < 1:
            raise FormatError(f"{path}:{lineno}: multiplicity must be >= 1")
        srcs.append(s)
        dsts.append(d)
        mults.append(m)
    try:
        return (np.array(srcs, dtype=np.int64),
                np.array(dsts, dtype=np.int64),
                np.array(mults, dtype=np.int64))
    except OverflowError:
        rows = zip(_iter_data_lines(path), srcs, dsts, mults)
        lineno = next(ln for (ln, _), *values in rows if max(values) >= 2**63)
        raise FormatError(f"{path}:{lineno}: ids and multiplicity must be below 2**63") from None


def read_colors(path, n: int, id_map: dict[int, int] | None) -> list:
    """Parse a color file into per-node payload tokens.

    Nodes absent from the file get the shared default color; duplicate
    node lines are rejected.
    """
    path = Path(path)
    payloads = [DEFAULT_COLOR] * n
    seen = set()
    for lineno, line in _iter_data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'node<TAB>color_token'")
        raw = _int_field(parts[0], path, lineno, "node id")
        v = id_map.get(raw) if id_map is not None else (raw if 0 <= raw < n else None)
        if v is None:
            raise ValidationError(f"{path}:{lineno}: node {raw} not in the graph")
        if v in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate line for node {raw}")
        seen.add(v)
        payloads[v] = parts[1]
    return payloads


def load_graph(edge_path, color_path=None, undirected: bool = False) -> LoadedGraph:
    """Load a graph from an edge list plus optional color file.

    Sparse file ids are remapped to a dense range (ascending file id ->
    dense id). The undirected flag adds the reverse of every edge, summing
    multiplicities; without a color file all nodes share one color.
    """
    src, dst, mult = read_edges(edge_path)
    if len(src) == 0:
        raise FormatError(f"{edge_path}: no edges")
    ids = np.unique(np.concatenate([src, dst]))
    n = len(ids)
    dense_already = ids[0] == 0 and ids[-1] == n - 1
    if dense_already:
        original_ids = None
        id_map = None
    else:
        original_ids = ids
        id_map = {int(orig): i for i, orig in enumerate(ids)}
        src = np.searchsorted(ids, src)
        dst = np.searchsorted(ids, dst)

    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        mult = np.concatenate([mult, mult])

    if color_path is not None:
        payloads = read_colors(color_path, n, id_map)
    else:
        payloads = [DEFAULT_COLOR] * n
    table = ColorTable()
    colors = np.fromiter((table.intern(p) for p in payloads), dtype=np.int64, count=n)
    graph = ColoredMultigraph.from_edge_arrays(n, src, dst, mult, colors, table)
    return LoadedGraph(graph, original_ids, id_map)


def _parse_target(token: str, loss_kind: str):
    if loss_kind == "xent":
        return token
    try:
        return np.array([float(x) for x in token.split(",")], dtype=np.float64)
    except ValueError:
        raise FormatError(f"bad regression target {token!r}") from None


def _format_target(target) -> str:
    if isinstance(target, np.ndarray):
        return ",".join(repr(float(x)) for x in target)
    return str(target)


def read_train(path, n: int, loss_kind: str, id_map: dict[int, int] | None = None) -> dict:
    """Parse a training file into node -> target; each node at most once."""
    path = Path(path)
    train: dict[int, object] = {}
    dim = None
    for lineno, line in _iter_data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'node<TAB>target'")
        raw = _int_field(parts[0], path, lineno, "node id")
        v = id_map.get(raw) if id_map is not None else (raw if 0 <= raw < n else None)
        if v is None:
            raise ValidationError(f"{path}:{lineno}: node {raw} not in the graph")
        if v in train:
            raise ValidationError(f"{path}:{lineno}: duplicate training node {raw}")
        target = _parse_target(parts[1], loss_kind)
        if loss_kind == "sq":
            if dim is None:
                dim = len(target)
            elif len(target) != dim:
                raise ValidationError(f"{path}:{lineno}: target dimension {len(target)} != {dim}")
        train[v] = target
    return train


def save_bundle(cp: CompressedProblem, out_dir, original_node_ids=None,
                extra_meta: dict | None = None) -> Path:
    """Write a compressed problem as a bundle directory.

    original_node_ids translates the problem's dense node space back to
    input-file ids; it is also recorded in meta.json when present, as are
    the per-round class counts of the refinement behind the bundle.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = cp.graph

    with open(out / "graph.tsv", "w", encoding="utf-8") as f:
        for s, d, m in zip(h.out_src_flat, h.out_dst, h.out_mult):
            f.write(f"{s}\t{d}\t{m}\n")

    with open(out / "colors.tsv", "w", encoding="utf-8") as f:
        for v in range(h.node_count):
            f.write(f"{v}\t{h.color_payload(v)}\n")

    orig = (np.asarray(original_node_ids, dtype=np.int64)
            if original_node_ids is not None else None)
    with open(out / "map.tsv", "w", encoding="utf-8") as f:
        for v, rep in enumerate(cp.rep_of_node):
            label = orig[v] if orig is not None else v
            f.write(f"{label}\t{rep}\n")

    with open(out / "train.tsv", "w", encoding="utf-8") as f:
        for rep in sorted(cp.train_weighted):
            for target, weight in cp.train_weighted[rep]:
                f.write(f"{rep}\t{_format_target(target)}\t{weight}\n")

    nodes, edges = graph_size(h)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "depth": _fmt_extent(cp.depth),
        "grade": _fmt_extent(cp.grade),
        "policy": cp.policy,
        "loss_kind": cp.loss_kind,
        "rounds": cp.rounds,
        "original_nodes": int(len(cp.rep_of_node)),
        "reduced_nodes": nodes,
        "reduced_simple_edges": edges,
        "representative_original_ids": [int(x) for x in cp.node_ids],
        "original_node_ids": [int(x) for x in orig] if orig is not None else None,
    }
    if cp.class_counts is not None:
        meta["class_counts"] = [int(c) for c in cp.class_counts]
    if extra_meta:
        meta.update(extra_meta)
    with open(out / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=1)
        f.write("\n")
    return out


def load_bundle(bundle_dir) -> CompressedProblem:
    """Load a bundle directory back into a CompressedProblem.

    The feature matrix is not part of a bundle; reconstruct it from the
    original problem (or one-hot colors) before evaluating losses.
    """
    bundle = Path(bundle_dir)
    meta_path = bundle / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"{meta_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{meta_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{meta_path}: expected a JSON object")
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FormatError(f"{meta_path}: schema version {version!r}, expected {SCHEMA_VERSION}")
    for key, (valid, expected) in _META_FIELDS.items():
        if not valid(meta.get(key)):
            raise FormatError(f"{meta_path}: {key} must be {expected}")
    depth = parse_extent(str(meta["depth"]))
    grade = parse_extent(str(meta["grade"]))
    loss_kind = meta.get("loss_kind")

    colors_path = bundle / "colors.tsv"
    tokens: dict[int, str] = {}
    for lineno, line in _iter_data_lines(colors_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{colors_path}:{lineno}: expected 'node<TAB>color_token'")
        v = _int_field(parts[0], colors_path, lineno, "node id")
        if v in tokens:
            raise ValidationError(f"{colors_path}:{lineno}: duplicate node {v}")
        tokens[v] = parts[1]
    r = len(tokens)
    if set(tokens) != set(range(r)):
        raise ValidationError(f"{colors_path}: node ids must be dense 0..{r - 1}")

    src, dst, mult = read_edges(bundle / "graph.tsv")
    if len(src) and (src.max() >= r or dst.max() >= r):
        raise ValidationError(f"{bundle / 'graph.tsv'}: edge endpoint outside colors.tsv range")
    table = ColorTable()
    color_ids = np.fromiter((table.intern(tokens[v]) for v in range(r)),
                            dtype=np.int64, count=r)
    graph = ColoredMultigraph.from_edge_arrays(r, src, dst, mult, color_ids, table)

    map_path = bundle / "map.tsv"
    pairs: dict[int, int] = {}
    for lineno, line in _iter_data_lines(map_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{map_path}:{lineno}: expected 'orig_node<TAB>representative'")
        o = _int_field(parts[0], map_path, lineno, "node id")
        rep = _int_field(parts[1], map_path, lineno, "representative")
        if o in pairs:
            raise ValidationError(f"{map_path}:{lineno}: duplicate original node {o}")
        if not 0 <= rep < r:
            raise ValidationError(f"{map_path}:{lineno}: representative {rep} not in graph.tsv")
        pairs[o] = rep
    order = meta.get("original_node_ids")
    if order is None:
        order = range(len(pairs))
    if set(pairs) != set(order):
        raise ValidationError(f"{map_path}: does not cover every original node")
    rep_of_node = np.array([pairs[o] for o in order], dtype=np.int64)
    unreached = np.flatnonzero(np.bincount(rep_of_node, minlength=r) == 0)
    if len(unreached):
        raise ValidationError(f"{map_path}: no original node maps to reduct node "
                              f"{unreached[0]}")

    train_path = bundle / "train.tsv"
    train_weighted: dict[int, list[tuple[object, int]]] = {}
    if train_path.exists():
        for lineno, line in _iter_data_lines(train_path):
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{train_path}:{lineno}: expected 'node<TAB>target<TAB>weight'")
            v = _int_field(parts[0], train_path, lineno, "node id")
            if not 0 <= v < r:
                raise ValidationError(f"{train_path}:{lineno}: node {v} not a representative")
            weight = _int_field(parts[2], train_path, lineno, "weight")
            if weight < 1:
                raise ValidationError(f"{train_path}:{lineno}: weight must be a positive integer")
            kind = loss_kind if loss_kind else "xent"
            target = _parse_target(parts[1], kind)
            train_weighted.setdefault(v, []).append((target, weight))

    node_ids = np.array(meta["representative_original_ids"], dtype=np.int64)
    return CompressedProblem(
        graph=graph,
        node_ids=node_ids,
        rep_of_node=rep_of_node,
        train_weighted=train_weighted,
        depth=depth, grade=grade, policy=meta["policy"],
        loss_kind=loss_kind,
        rounds=meta["rounds"],
        class_counts=meta.get("class_counts"),
    )
