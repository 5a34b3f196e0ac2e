"""On-disk formats: edge lists, colorings, training sets, bundles.

Edge lists are whitespace-separated ``src dst [mult]`` lines with ``#``
comments (a missing multiplicity means 1). Color and training files are
tab-separated so tokens may contain spaces. A compressed bundle is a
directory with graph.tsv / colors.tsv / map.tsv / train.tsv / meta.json;
saving and loading a bundle round-trips the compressed problem exactly.

Edge lists, color files and the bundle's map.tsv and colors.tsv are read
in one whole-file pass when their text is plain (``_read_int_table``,
``_read_id_tokens``). Anything else, errors included, goes through the
per-line parsers, which alone name the offending line. Files are written
as one joined text each.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .graph import ColorTable, ColoredMultigraph, _sorted_distinct, graph_size
from .problem import LOSS_KINDS, CompressedProblem
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


def _tab_rows(path: Path, what: str):
    """(lineno, fields) of each data line split at tabs; a line with
    another field count than ``what`` (as 'a<TAB>b') is a FormatError."""
    count = what.count("<TAB>") + 1
    for lineno, line in _iter_data_lines(path):
        parts = line.split("\t")
        if len(parts) != count:
            raise FormatError(f"{path}:{lineno}: expected '{what}'")
        yield lineno, parts


def _is_int(x, minimum=0) -> bool:
    return type(x) is int and minimum <= x < 2**63


def _is_int_list(x) -> bool:
    return (isinstance(x, list) and set(map(type, x)) <= {int}
            and (not x or min(x) >= 0 and max(x) < 2**63))


# meta.json keys read back, with a test of the value and what it must be.
_META_FIELDS = {
    "depth": (lambda x: x == "inf" or _is_int(x), "a non-negative integer or 'inf'"),
    "grade": (lambda x: x == "inf" or _is_int(x, 1), "a positive integer or 'inf'"),
    "policy": (lambda x: isinstance(x, str), "a string"),
    "loss_kind": (lambda x: x in (None, *LOSS_KINDS), "null, 'xent' or 'sq'"),
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


_DIGITS = b"0123456789"
_BLANK_LINE = re.compile(rb"\n[ \t]+(?:\n|$)")
# Line breaks of str.splitlines besides "\n": single bytes, then characters
# that take several bytes in UTF-8.
_OTHER_BREAK_BYTES = b"\r\x0b\x0c\x1c\x1d\x1e"
_OTHER_BREAK_CHARS = "\x85\u2028\u2029"


def _read_int_table(path: Path, columns: tuple[int, ...], sep: str | None = None):
    """Whole-file fast path for a table of non-negative integers.

    Returns an int64 array of shape (rows, k) with k in ``columns``, or
    None; on None the caller's per-line parser decides. The path is taken
    only when every byte is a digit, a newline or a separator (``sep``, or
    space and tab when None) and no line holds separators alone. On such
    text np.loadtxt reads the same lines, fields and values as the
    per-line parsers; without the guard it would skip a line of blanks,
    split fields at "\x1c" and read signs.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None
    seps = b" \t" if sep is None else sep.encode()
    if (not data.strip() or data.translate(None, _DIGITS + seps + b"\n")
            or _BLANK_LINE.search(b"\n" + data)):
        return None
    # Lines, not the path: loadtxt then parses the bytes checked here, and
    # does not import gzip to open the file.
    lines = data.decode("ascii").splitlines()
    try:
        table = np.loadtxt(lines, dtype=np.int64, delimiter=sep, comments=None, ndmin=2)
    except (ValueError, OverflowError):   # ragged rows, values of 2**63 or more
        return None
    return table if table.shape[1] in columns else None


def _read_id_tokens(path: Path):
    """Whole-file fast path for ``id<TAB>token`` lines.

    Returns (ids as int64, tokens), or None; on None the caller's per-line
    parser decides. The path is taken only when the text ends in a
    newline, every line holds exactly one tab, no other line break of
    str.splitlines occurs, and every id reads as an int64 (np.array
    parses str with int(), as the per-line parser does).
    """
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    codes = np.frombuffer(data, dtype=np.uint8)
    tabs, ends = np.flatnonzero(codes == 9), np.flatnonzero(codes == 10)
    if (len(tabs) != len(ends) or not data.endswith(b"\n")
            or (tabs > ends).any() or (tabs[1:] < ends[:-1]).any()
            or len(data.translate(None, _OTHER_BREAK_BYTES)) != len(data)
            or not text.isascii() and any(c in text for c in _OTHER_BREAK_CHARS)):
        return None
    fields = text.replace("\t", "\n").split("\n")   # id, token, id, ..., token, ""
    try:
        ids = np.array(fields[0:-1:2], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    return ids, fields[1::2]


def _write_table(path, line: str, *columns) -> None:
    """Write equal-length columns, one ``line % row`` per row, as one text."""
    k, rows = len(columns), len(columns[0])
    cells = [None] * (k * rows)
    for i, column in enumerate(columns):
        cells[i::k] = column
    Path(path).write_text((line * rows) % tuple(cells), encoding="utf-8")


def read_edges(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse an edge-list file into (src, dst, mult) arrays of raw file ids."""
    path = Path(path)
    table = _read_int_table(path, (2, 3))
    if table is not None:
        if table.shape[1] == 2:
            return table[:, 0], table[:, 1], np.ones(len(table), dtype=np.int64)
        if table[:, 2].min() >= 1:
            return table[:, 0], table[:, 1], table[:, 2]
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
        if max(s, d, m) >= 2**63:
            raise FormatError(f"{path}:{lineno}: ids and multiplicity must be below 2**63")
        srcs.append(s)
        dsts.append(d)
        mults.append(m)
    return (np.array(srcs, dtype=np.int64),
            np.array(dsts, dtype=np.int64),
            np.array(mults, dtype=np.int64))


def read_colors(path, n: int, original_ids: np.ndarray | None) -> list:
    """Parse a color file into per-node payload tokens.

    original_ids lists the file id of each dense node, ascending (None if
    the file ids are already dense). Nodes absent from the file get the
    shared default color; duplicate node lines are rejected.
    """
    path = Path(path)
    pairs = _read_id_tokens(path)
    if pairs is not None:
        raw, tokens = pairs
        if original_ids is None:
            v = raw
            known = (raw >= 0) & (raw < n)
        else:
            v = np.searchsorted(original_ids, raw)
            known = original_ids[np.minimum(v, n - 1)] == raw
        if known.all() and np.bincount(v, minlength=n).max() <= 1:
            payloads = np.full(n, DEFAULT_COLOR, dtype=object)
            payloads[v] = tokens
            return payloads.tolist()
    id_map = None if original_ids is None else dict(zip(original_ids.tolist(), range(n)))
    payloads = [DEFAULT_COLOR] * n
    seen = set()
    for lineno, parts in _tab_rows(path, "node<TAB>color_token"):
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
    ids, dense = np.unique(np.concatenate([src, dst]), return_inverse=True)
    n = len(ids)
    if ids[0] == 0 and ids[-1] == n - 1:
        original_ids = None
        id_map = None
    else:
        original_ids = ids
        id_map = dict(zip(ids.tolist(), range(n)))
        src, dst = dense[:len(src)], dense[len(src):]

    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        mult = np.concatenate([mult, mult])

    if color_path is not None:
        payloads = read_colors(color_path, n, original_ids)
    else:
        payloads = [DEFAULT_COLOR] * n
    table = ColorTable()
    colors = table.intern_all(payloads)
    graph = ColoredMultigraph.from_edge_arrays(n, src, dst, mult, colors, table)
    return LoadedGraph(graph, original_ids, id_map)


def _parse_target(token: str, loss_kind: str, path, lineno: int):
    if loss_kind == "xent":
        return token
    try:
        target = np.array([float(x) for x in token.split(",")], dtype=np.float64)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: bad regression target {token!r}") from None
    if not np.isfinite(target).all():
        raise FormatError(f"{path}:{lineno}: regression target {token!r} is not finite")
    return target


def _format_target(target) -> str:
    if isinstance(target, np.ndarray):
        return ",".join(repr(float(x)) for x in target)
    return str(target)


def read_train(path, n: int, loss_kind: str, id_map: dict[int, int] | None = None) -> dict:
    """Parse a training file into node -> target; each node at most once."""
    path = Path(path)
    train: dict[int, object] = {}
    dim = None
    for lineno, parts in _tab_rows(path, "node<TAB>target"):
        raw = _int_field(parts[0], path, lineno, "node id")
        v = id_map.get(raw) if id_map is not None else (raw if 0 <= raw < n else None)
        if v is None:
            raise ValidationError(f"{path}:{lineno}: node {raw} not in the graph")
        if v in train:
            raise ValidationError(f"{path}:{lineno}: duplicate training node {raw}")
        target = _parse_target(parts[1], loss_kind, path, lineno)
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

    _write_table(out / "graph.tsv", "%d\t%d\t%d\n",
                 h.out_src_flat.tolist(), h.out_dst.tolist(), h.out_mult.tolist())
    _write_table(out / "colors.tsv", "%d\t%s\n", range(h.node_count), h.payload_per_node())

    orig = (np.asarray(original_node_ids, dtype=np.int64)
            if original_node_ids is not None else None)
    labels = orig.tolist() if orig is not None else range(len(cp.rep_of_node))
    _write_table(out / "map.tsv", "%d\t%d\n", labels, cp.rep_of_node.tolist())

    rows = [f"{rep}\t{_format_target(target)}\t{weight}\n"
            for rep in sorted(cp.train_weighted)
            for target, weight in cp.train_weighted[rep]]
    (out / "train.tsv").write_text("".join(rows), encoding="utf-8")

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
        "original_node_ids": labels if orig is not None else None,
    }
    if cp.class_counts is not None:
        meta["class_counts"] = [int(c) for c in cp.class_counts]
    if extra_meta:
        meta.update(extra_meta)
    (out / "meta.json").write_text(_meta_text(meta), encoding="utf-8")
    return out


def _meta_text(meta: dict) -> str:
    """json.dumps(meta, indent=1) plus a newline, with each non-empty list
    of ints joined in one go: the indenting encoder is pure Python and
    takes a call per list entry."""
    fields = []
    for key, value in meta.items():
        if isinstance(value, list) and value and set(map(type, value)) == {int}:
            text = "[\n  " + ",\n  ".join(map(str, value)) + "\n ]"
        else:
            text = json.dumps(value, indent=1).replace("\n", "\n ")
        fields.append(f"\n {json.dumps(key)}: {text}")
    return "{" + ",".join(fields) + "\n}\n"


def _bundle_colors(path: Path) -> list[str]:
    """The color token of each reduct node, from colors.tsv."""
    pairs = _read_id_tokens(path)
    if pairs is not None and np.array_equal(pairs[0], np.arange(len(pairs[0]))):
        return pairs[1]
    tokens: dict[int, str] = {}
    for lineno, parts in _tab_rows(path, "node<TAB>color_token"):
        v = _int_field(parts[0], path, lineno, "node id")
        if v in tokens:
            raise ValidationError(f"{path}:{lineno}: duplicate node {v}")
        tokens[v] = parts[1]
    r = len(tokens)
    if set(tokens) != set(range(r)):
        raise ValidationError(f"{path}: node ids must be dense 0..{r - 1}")
    return [tokens[v] for v in range(r)]


def _bundle_map(path: Path, r: int, order: list[int] | None) -> np.ndarray:
    """rep_of_node from map.tsv: the representative of each original node,
    in the order of ``order`` (meta's original_node_ids; None means the
    node ids 0, 1, ... in turn)."""
    table = _read_int_table(path, (2,), sep="\t")
    if table is not None:
        orig, rep = table[:, 0], table[:, 1]
        want = np.arange(len(orig)) if order is None else np.array(order, dtype=np.int64)
        sorter = np.argsort(orig)
        # orig sorted equal to the distinct wanted ids: orig has no
        # duplicates and covers exactly the wanted nodes.
        if rep.max() < r and np.array_equal(orig[sorter], _sorted_distinct(want)):
            return rep[sorter[np.searchsorted(orig, want, sorter=sorter)]]
    pairs: dict[int, int] = {}
    for lineno, parts in _tab_rows(path, "orig_node<TAB>representative"):
        o = _int_field(parts[0], path, lineno, "node id")
        rep = _int_field(parts[1], path, lineno, "representative")
        if o in pairs:
            raise ValidationError(f"{path}:{lineno}: duplicate original node {o}")
        if not 0 <= rep < r:
            raise ValidationError(f"{path}:{lineno}: representative {rep} not in graph.tsv")
        pairs[o] = rep
    if order is None:
        order = range(len(pairs))
    if set(pairs) != set(order):
        raise ValidationError(f"{path}: does not cover every original node")
    return np.array([pairs[o] for o in order], dtype=np.int64)


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

    tokens = _bundle_colors(bundle / "colors.tsv")
    r = len(tokens)
    src, dst, mult = read_edges(bundle / "graph.tsv")
    if len(src) and (src.max() >= r or dst.max() >= r):
        raise ValidationError(f"{bundle / 'graph.tsv'}: edge endpoint outside colors.tsv range")
    table = ColorTable()
    color_ids = table.intern_all(tokens)
    graph = ColoredMultigraph.from_edge_arrays(r, src, dst, mult, color_ids, table)

    map_path = bundle / "map.tsv"
    rep_of_node = _bundle_map(map_path, r, meta.get("original_node_ids"))
    unreached = np.flatnonzero(np.bincount(rep_of_node, minlength=r) == 0)
    if len(unreached):
        raise ValidationError(f"{map_path}: no original node maps to reduct node "
                              f"{unreached[0]}")
    node_ids = np.array(meta["representative_original_ids"], dtype=np.int64)
    if (len(node_ids) != r or (node_ids >= len(rep_of_node)).any()
            or not np.array_equal(rep_of_node[node_ids], np.arange(r))):
        raise ValidationError(f"{meta_path}: representative_original_ids must list one "
                              f"node per reduct node, each mapping to its own entry")

    train_path = bundle / "train.tsv"
    train_weighted: dict[int, list[tuple[object, int]]] = {}
    if train_path.exists():
        for lineno, parts in _tab_rows(train_path, "node<TAB>target<TAB>weight"):
            v = _int_field(parts[0], train_path, lineno, "node id")
            if not 0 <= v < r:
                raise ValidationError(f"{train_path}:{lineno}: node {v} not a representative")
            weight = _int_field(parts[2], train_path, lineno, "weight")
            if weight < 1:
                raise ValidationError(f"{train_path}:{lineno}: weight must be a positive integer")
            kind = loss_kind if loss_kind else "xent"
            target = _parse_target(parts[1], kind, train_path, lineno)
            train_weighted.setdefault(v, []).append((target, weight))

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
