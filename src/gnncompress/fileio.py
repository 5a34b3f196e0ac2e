"""On-disk formats: edge lists, colorings, training sets, bundles.

Edge lists are whitespace-separated ``src dst [mult]`` lines with ``#``
comments (a missing multiplicity means 1). Color and training files are
tab-separated so tokens may contain spaces. A compressed bundle is a
directory with graph.tsv / colors.tsv / map.tsv / train.tsv / meta.json;
saving and loading a bundle round-trips the compressed problem exactly.

Edge lists, color files, both training-file forms and the bundle's
map.tsv and colors.tsv are read in one whole-file pass when their text is
plain and every check passes (``_read_int_table``, ``_read_id_tokens``),
for map.tsv and colors.tsv rows in the order save_bundle writes them.
Anything else, errors and other row orders included, goes through the
per-line parsers, which alone name the offending line. Node ids map to
dense ids by a binary search of the graph's ascending file ids
(``LoadedGraph.original_ids``), on either path; no {file id: dense id}
dict is built. Training files become a TrainingSet straight from their
columns.

The integer tables (graph.tsv, map.tsv, ``refine --out``) and meta.json's
id lists are formatted by numpy, a fixed-size block of rows at a time,
with no Python int per cell (``_format_ints``); colors.tsv and train.tsv,
which hold string columns, by one ``%`` per file (``_write_table``).
Every file is written as bytes, so no newline is translated.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .graph import INF, ColoredMultigraph, intern_colors
from .problem import LOSS_KINDS, CompressedProblem, TrainingSet

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
    original_ids: np.ndarray  # dense id -> id in the input file, ascending


def _dense_id(ids: np.ndarray, raw: int) -> int | None:
    """The dense id of file id raw, its index in the ascending ids, or None
    when ids does not hold it."""
    v = int(np.searchsorted(ids, raw))
    return v if v < len(ids) and ids[v] == raw else None


def _dense_ids(ids: np.ndarray, raw: np.ndarray) -> np.ndarray | None:
    """_dense_id of every file id in raw, or None when ids lacks one."""
    v = np.searchsorted(ids, raw)
    return v if len(ids) and (ids[np.minimum(v, len(ids) - 1)] == raw).all() else None


def _iter_data_lines(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _tab_rows(path: Path, what: str):
    """(lineno, node id, fields) of each data line split at tabs, the first
    field read as an integer; a line with another field count than
    ``what`` (as 'a<TAB>b') is a FormatError."""
    count = what.count("<TAB>") + 1
    for lineno, line in _iter_data_lines(path):
        parts = line.split("\t")
        if len(parts) != count:
            raise FormatError(f"{path}:{lineno}: expected '{what}'")
        yield lineno, _int_field(parts[0], path, lineno, "node id"), parts


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
_HEADER = re.compile(rb"(?:#[^\n]*(?:\n|$))*")
# Line breaks of str.splitlines besides "\n": single bytes, then characters
# that take several bytes in UTF-8.
_OTHER_BREAK_BYTES = b"\r\x0b\x0c\x1c\x1d\x1e"
_OTHER_BREAK_CHARS = "\x85\u2028\u2029"


def _newline_text(data: bytes) -> str | None:
    """data as text if it is UTF-8 with no line break of str.splitlines but "\n"."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    plain = (len(data.translate(None, _OTHER_BREAK_BYTES)) == len(data)
             and (text.isascii() or not any(c in text for c in _OTHER_BREAK_CHARS)))
    return text if plain else None


def _read_int_table(path: Path, columns: tuple[int, ...], sep: str | None = None):
    """Whole-file fast path for a table of non-negative integers.

    Returns an int64 array of shape (rows, k) with k in ``columns``, or
    None; on None the caller's per-line parser decides. Past a leading
    block of ``#`` lines (a SNAP header) with no line break but "\n", every
    byte must be a digit, a newline or a separator (``sep``, or space and
    tab when None) and no line may hold separators alone. On such text
    np.loadtxt reads the same lines, fields and values as the per-line
    parsers; without the guard it would skip a line of blanks, split
    fields at "\x1c" and read signs.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None
    end = _HEADER.match(data).end()
    head, data = data[:end], data[end:]
    seps = b" \t" if sep is None else sep.encode()
    if (_newline_text(head) is None or not data.strip()
            or data.translate(None, _DIGITS + seps + b"\n") or _BLANK_LINE.search(b"\n" + data)):
        return None
    # Lines, not the path: loadtxt then parses the bytes checked here, and
    # does not import gzip to open the file.
    lines = data.decode("ascii").splitlines()
    try:
        table = np.loadtxt(lines, dtype=np.int64, delimiter=sep, comments=None, ndmin=2)
    except (ValueError, OverflowError):   # ragged rows, values of 2**63 or more
        return None
    return table if table.shape[1] in columns else None


def _read_id_tokens(path: Path, k: int = 2):
    """Whole-file fast path for lines of k tab-separated fields, an id and
    k - 1 tokens: ``id<TAB>token``, or a bundle's ``id<TAB>target<TAB>weight``.

    Returns (ids as int64, then a list of str per token column), or None;
    on None the caller's per-line parser decides. The path is taken only
    when the text ends in a newline, every line holds exactly k - 1 tabs,
    no other line break of str.splitlines occurs, and every id reads as an
    int64 (_int64s).
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None
    codes = np.frombuffer(data, dtype=np.uint8)
    tabs, ends = np.flatnonzero(codes == 9), np.flatnonzero(codes == 10)
    # line i holds tabs (k-1)i ... (k-1)(i+1) - 1
    if (len(tabs) != (k - 1) * len(ends) or not data.endswith(b"\n")
            or (tabs[k - 2::k - 1] > ends).any() or (tabs[k - 1::k - 1] < ends[:-1]).any()
            or (text := _newline_text(data)) is None):
        return None
    fields = text.replace("\t", "\n").split("\n")   # id, token, ..., id, token, ""
    ids = _int64s(fields[0:-1:k])
    return None if ids is None else (ids, *(fields[i::k] for i in range(1, k)))


def _int64s(tokens: list[str]) -> np.ndarray | None:
    """The tokens as int64, or None when one does not read or does not fit
    (np.array parses str with int(), as the per-line parsers do)."""
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        return None


def _write_table(path, line: str, *columns) -> None:
    """Write equal-length columns, one ``line % row`` per row, as one text;
    for the tables with a string column (integer tables: _format_ints)."""
    k, rows = len(columns), len(columns[0])
    cells = [None] * (k * rows)
    for i, column in enumerate(columns):
        cells[i::k] = column
    Path(path).write_bytes(((line * rows) % tuple(cells)).encode("utf-8"))


_POW10 = 10 ** np.arange(19, dtype=np.int64)   # 1, 10, ..., 10**18
_BLOCK_ROWS = 16384


def _format_ints(columns, sep: bytes = b"\t", end: bytes = b"\n") -> bytes:
    """The text of equal-length columns of non-negative integers below
    2**63, ``sep`` between the columns of a row and ``end`` after it:
    b"".join(sep.join(b"%d" % x for x in row) + end for row in rows).

    Each block of _BLOCK_ROWS rows is a uint8 array with one fixed-width
    field per column, as wide as the column's largest value, filled with
    digits from the right; leading places stay 0 (NUL), and dropping
    every 0 byte of the block leaves its text, as no digit or separator
    byte is 0. No Python int is made per cell.
    """
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    rows = len(columns[0])
    if rows == 0:
        return b""
    widths = []
    for c in columns:
        if c.min() < 0:
            raise ValueError("_format_ints takes non-negative integers only")
        widths.append(max(1, int(np.searchsorted(_POW10, c.max(), side="right"))))
    seps = [np.frombuffer(s, dtype=np.uint8) for s in [sep] * (len(columns) - 1) + [end]]
    width = sum(widths) + sum(map(len, seps))
    blocks = []
    for a in range(0, rows, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, rows)
        block = np.zeros((b - a, width), dtype=np.uint8)
        at = 0
        for c, w, s in zip(columns, widths, seps):
            # int32 where the values fit: half the bytes for each pass
            v = c[a:b].astype(np.int32) if w <= 9 else c[a:b]
            at += w
            for place in range(1, w + 1):
                q = v // 10
                digit = v - q * 10 + 48
                if place > 1:
                    digit *= v != 0     # a leading place: NUL
                block[:, at - place] = digit
                v = q
            block[:, at:at + len(s)] = s
            at += len(s)
        blocks.append(block[block != 0].tobytes())
    return b"".join(blocks)


def read_edges(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse an edge-list file into (src, dst, mult) arrays of raw file ids."""
    path = Path(path)
    table = _read_int_table(path, (2, 3))
    if table is not None:
        if table.shape[1] == 2:
            return table[:, 0], table[:, 1], np.ones(len(table), dtype=np.int64)
        if table[:, 2].min() >= 1:
            return table[:, 0], table[:, 1], table[:, 2]
    rows = []
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
        rows.append((s, d, m))
    table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2]


def read_colors(path, original_ids: np.ndarray) -> list:
    """Parse a color file into per-node payload tokens.

    original_ids lists the file id of each dense node, ascending. Nodes
    absent from the file get the shared default color; duplicate node
    lines are rejected.
    """
    path, n = Path(path), len(original_ids)
    pairs = _read_id_tokens(path)
    if pairs is not None:
        v, tokens = _dense_ids(original_ids, pairs[0]), pairs[1]
        if v is not None and np.bincount(v, minlength=n).max() <= 1:
            payloads = np.full(n, DEFAULT_COLOR, dtype=object)
            payloads[v] = tokens
            return payloads.tolist()
    payloads = [DEFAULT_COLOR] * n
    seen = set()
    for lineno, raw, parts in _tab_rows(path, "node<TAB>color_token"):
        v = _dense_id(original_ids, raw)
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
    original_ids, dense = np.unique(np.concatenate([src, dst]), return_inverse=True)
    n = len(original_ids)
    src, dst = dense[:len(src)], dense[len(src):]

    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        mult = np.concatenate([mult, mult])

    if color_path is not None:
        payloads = read_colors(color_path, original_ids)
    else:
        payloads = [DEFAULT_COLOR] * n
    colors, palette = intern_colors(payloads)
    graph = ColoredMultigraph.from_edge_arrays(n, src, dst, mult, colors, palette)
    return LoadedGraph(graph, original_ids)


def _read_training(path: Path, loss_kind: str, ids: np.ndarray,
                   weighted: bool) -> TrainingSet:
    """A training file as a TrainingSet: ``node<TAB>target`` lines of
    distinct graph nodes, weight 1, or when weighted a bundle's
    ``node<TAB>target<TAB>weight`` lines of reduct nodes, kept when
    repeated. ids lists the file id of each dense node, ascending.

    A plain file is read in one whole-file pass that checks whole columns:
    every node known, no repeated node (unweighted), weights from 1 to
    2**63 - 1, and for sq finite targets of one dimension. Any failed
    check sends the file to _train_rows, which alone names the bad line.
    """
    train = _train_columns(path, loss_kind, ids, weighted)
    return train if train is not None else _train_rows(path, loss_kind, ids, weighted)


def _train_columns(path: Path, loss_kind: str, ids: np.ndarray,
                   weighted: bool) -> TrainingSet | None:
    """The whole-file pass of _read_training, or None."""
    table = _read_id_tokens(path, 2 + weighted)
    if table is None or (v := _dense_ids(ids, table[0])) is None:
        return None
    targets = table[1]
    weight = _int64s(table[2]) if weighted else np.ones(len(v), dtype=np.int64)
    if (weight is None or weight.min() < 1
            or not weighted and np.bincount(v).max() > 1
            or loss_kind == "sq" and (targets := _sq_targets(targets)) is None):
        return None
    return TrainingSet.from_columns(v, targets, weight, loss_kind)


def _sq_targets(tokens: list[str]) -> np.ndarray | None:
    """The comma-separated vectors as a float64 matrix, one row per token,
    or None unless every entry parses and is finite and every token has
    the same number of entries (np.array parses str with float(), as
    _train_rows does)."""
    if len(set(map(str.count, tokens, itertools.repeat(",")))) != 1:
        return None
    try:
        values = np.array(",".join(tokens).split(","), dtype=np.float64)
    except ValueError:
        return None
    return values.reshape(len(tokens), -1) if np.isfinite(values).all() else None


def _train_rows(path: Path, loss_kind: str, ids: np.ndarray, weighted: bool) -> TrainingSet:
    """The per-line parser of _read_training's two forms: each line is
    checked in turn, and the first bad one raises an error naming it."""
    rows, seen = [], set()
    for lineno, raw, parts in _tab_rows(path, "node<TAB>target" + "<TAB>weight" * weighted):
        v = _dense_id(ids, raw)
        if v is None:
            where = "a representative" if weighted else "in the graph"
            raise ValidationError(f"{path}:{lineno}: node {raw} not {where}")
        if not weighted and v in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate training node {raw}")
        seen.add(v)
        weight = _int_field(parts[2], path, lineno, "weight") if weighted else 1
        if weight < 1:
            raise ValidationError(f"{path}:{lineno}: weight must be a positive integer")
        if weight >= 2**63:
            raise FormatError(f"{path}:{lineno}: weight must be below 2**63")
        target = token = parts[1]
        if loss_kind == "sq":
            try:
                target = np.array([float(x) for x in token.split(",")], dtype=np.float64)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad regression target {token!r}") from None
            if not np.isfinite(target).all():
                raise FormatError(f"{path}:{lineno}: regression target {token!r} is not finite")
            if rows and len(target) != len(rows[0][1]):
                raise ValidationError(f"{path}:{lineno}: target dimension "
                                      f"{len(target)} != {len(rows[0][1])}")
        rows.append((v, target, weight))
    return TrainingSet.from_rows(rows, loss_kind)


def read_train(path, n: int, loss_kind: str, ids=None) -> TrainingSet:
    """Parse a ``node<TAB>target`` training file into a TrainingSet of weight-1
    rows, one per node. ids is the graph's original_ids, the file id of
    each dense node, ascending; None reads dense ids below n. A
    {file id: dense id} dict of ascending ids to 0, 1, ... is read as the
    ids it lists; only bench/workload.py passes one, and ROADMAP item 1
    retires that form."""
    if ids is None:
        ids = np.arange(n)
    elif isinstance(ids, dict):
        file_ids = np.fromiter(ids, dtype=np.int64, count=len(ids))
        if list(ids.values()) != list(range(len(ids))) or (np.diff(file_ids) <= 0).any():
            raise ValueError("an id dict must map ascending file ids to 0, 1, ...")
        ids = file_ids
    return _read_training(Path(path), loss_kind, ids, weighted=False)


def save_bundle(cp: CompressedProblem, out_dir, extra_meta: dict | None = None) -> Path:
    """Write a compressed problem as a bundle directory.

    map.tsv names each original node by its input-file id, cp.original_ids;
    meta.json records those ids (null when they are 0, 1, ...) and the
    per-round class counts of the refinement behind the bundle.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = cp.graph

    (out / "graph.tsv").write_bytes(_format_ints((h.out_src_flat, h.out_dst, h.out_mult)))
    _write_table(out / "colors.tsv", "%d\t%s\n", range(h.node_count), h.payload_per_node())

    ids = cp.original_ids
    (out / "map.tsv").write_bytes(_format_ints((ids, cp.rep_of_node)))

    train = cp.train
    tokens = [t if isinstance(t, str) else ",".join(map(repr, t.tolist())) for t in train.palette]
    _write_table(out / "train.tsv", "%d\t%s\t%d\n", train.nodes.tolist(),
                 [tokens[i] for i in train.target.tolist()], train.weight.tolist())

    meta = {
        "schema_version": SCHEMA_VERSION,
        "depth": _fmt_extent(cp.depth),
        "grade": _fmt_extent(cp.grade),
        "policy": cp.policy,
        "loss_kind": cp.loss_kind,
        "rounds": cp.rounds,
        "original_nodes": int(len(cp.rep_of_node)),
        "reduced_nodes": h.node_count,
        "reduced_simple_edges": h.simple_edge_count,
        "representative_original_ids": cp.node_ids,
        "original_node_ids": None if np.array_equal(ids, np.arange(len(ids))) else ids,
    }
    if cp.class_counts is not None:
        meta["class_counts"] = np.asarray(cp.class_counts, dtype=np.int64)
    if extra_meta:
        meta.update(extra_meta)
    (out / "meta.json").write_bytes(_meta_text(meta).encode("utf-8"))
    return out


_ENTRY_END = b",\n  "   # after each entry of a list in meta.json


def _meta_text(meta: dict) -> str:
    """json.dumps(meta, indent=1) plus a newline, where a value may also be
    an array of non-negative integers, written as the list of its entries
    by _format_ints: the indenting encoder is pure Python and takes a call
    per list entry."""
    fields = []
    for key, value in meta.items():
        if isinstance(value, np.ndarray):
            body = _format_ints([value], end=_ENTRY_END)[:-len(_ENTRY_END)].decode("ascii")
            text = f"[\n  {body}\n ]" if len(value) else "[]"
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
    for lineno, v, parts in _tab_rows(path, "node<TAB>color_token"):
        if v in tokens:
            raise ValidationError(f"{path}:{lineno}: duplicate node {v}")
        tokens[v] = parts[1]
    r = len(tokens)
    if set(tokens) != set(range(r)):
        raise ValidationError(f"{path}: node ids must be dense 0..{r - 1}")
    return [tokens[v] for v in range(r)]


def _bundle_map(path: Path, r: int, order: list | None) -> tuple[np.ndarray, np.ndarray]:
    """(original_ids, rep_of_node) from map.tsv: the file id of each original
    node, as meta's original_node_ids ``order`` lists them (None: 0, 1, ...
    for as many as map.tsv holds), and the representative of each. Rows in
    that order are read in one whole-file pass; the per-line parser takes
    any other order."""
    table = _read_int_table(path, (2,), sep="\t")
    if table is not None:
        orig, rep = table[:, 0], table[:, 1]
        want = np.arange(len(orig)) if order is None else np.array(order, dtype=np.int64)
        if rep.max() < r and np.array_equal(orig, want):
            return want, rep.copy()     # a contiguous column, not a view of the table
    pairs: dict[int, int] = {}
    for lineno, o, parts in _tab_rows(path, "orig_node<TAB>representative"):
        rep = _int_field(parts[1], path, lineno, "representative")
        if o in pairs:
            raise ValidationError(f"{path}:{lineno}: duplicate original node {o}")
        if not 0 <= rep < r:
            raise ValidationError(f"{path}:{lineno}: representative {rep} not in graph.tsv")
        pairs[o] = rep
    want = np.arange(len(pairs)) if order is None else np.array(order, dtype=np.int64)
    if set(pairs) != set(want.tolist()):
        raise ValidationError(f"{path}: does not cover every original node")
    return want, np.array([pairs[o] for o in want.tolist()], dtype=np.int64)


def load_bundle(bundle_dir) -> CompressedProblem:
    """Load a bundle directory back into a CompressedProblem.

    The feature matrix is not part of a bundle; reconstruct it from the
    original problem (or one-hot colors) before evaluating losses.
    """
    bundle = Path(bundle_dir)
    meta_path = bundle / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    loss_kind = meta.get("loss_kind") or "xent"

    tokens = _bundle_colors(bundle / "colors.tsv")
    r = len(tokens)
    src, dst, mult = read_edges(bundle / "graph.tsv")
    if len(src) and (src.max() >= r or dst.max() >= r):
        raise ValidationError(f"{bundle / 'graph.tsv'}: edge endpoint outside colors.tsv range")
    color_ids, palette = intern_colors(tokens)
    graph = ColoredMultigraph.from_edge_arrays(r, src, dst, mult, color_ids, palette)

    map_path = bundle / "map.tsv"
    original_ids, rep_of_node = _bundle_map(map_path, r, meta.get("original_node_ids"))
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
    return CompressedProblem(
        graph=graph,
        node_ids=node_ids,
        rep_of_node=rep_of_node,
        train=(_read_training(train_path, loss_kind, np.arange(r), weighted=True)
               if train_path.exists() else TrainingSet.from_rows([], loss_kind)),
        depth=depth, grade=grade, policy=meta["policy"],
        loss_kind=loss_kind,
        rounds=meta["rounds"],
        class_counts=meta.get("class_counts"),
        original_ids=original_ids,
    )
