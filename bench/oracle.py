"""Expected bundle contents, computed without the gnncompress package.

A plain-Python restatement of what `gnncompress compress` must write for
the min-incidence policy: refine colors with dictionaries, pick per class
the member with the fewest distinct in-neighbour classes (ties: smallest
dense id), keep only edges into representatives, sum their multiplicities
per representative pair and cap them at the grade. Its sha256 digests and
reduct sizes are what the benchmark checks every compress run against.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict

import numpy as np

BUNDLE_FILES = ("graph.tsv", "colors.tsv", "map.tsv", "train.tsv")


def _refine(n, in_edges, colors, depth, grade):
    """Set partition after `depth` rounds (until stable for inf)."""
    ids: dict = {}
    cls = [ids.setdefault(c, len(ids)) for c in colors]
    count = len(ids)
    r = 0
    while r < depth:
        ids = {}
        new = []
        for w in range(n):
            ins = in_edges[w]
            if len(ins) == 1:       # the common case on chains, kept fast
                u, m = ins[0]
                sig = (cls[w], ((cls[u], min(m, grade)),))
            else:
                acc: dict[int, int] = {}
                for u, m in ins:
                    acc[cls[u]] = acc.get(cls[u], 0) + m
                sig = (cls[w], tuple(sorted((k, min(v, grade)) for k, v in acc.items())))
            new.append(ids.setdefault(sig, len(ids)))
        cls = new
        r += 1
        if len(ids) == count:
            break
        count = len(ids)
    return cls


def _format_target(token: str, loss: str) -> tuple[object, str]:
    """(sort key, bundle text) of a training target as the CLI stores it."""
    if loss == "xent":
        return token, token
    values = np.array([float(x) for x in token.split(",")], dtype=np.float64)
    return values.tobytes(), ",".join(repr(float(x)) for x in values)


def expected_bundle(inputs, wl) -> dict:
    """Digests of the four bundle data files and the reduct sizes."""
    raw_ids = sorted({v for e in inputs.edges for v in e})
    n = len(raw_ids)
    dense = {v: i for i, v in enumerate(raw_ids)}
    mult: dict[tuple[int, int], int] = defaultdict(int)
    for s, d in inputs.edges:
        mult[dense[s], dense[d]] += 1
        if wl.undirected:
            mult[dense[d], dense[s]] += 1
    in_edges = [[] for _ in range(n)]
    for (s, d), m in mult.items():
        in_edges[d].append((s, m))
    colors = [inputs.colors.get(v, "") for v in raw_ids]
    depth = math.inf if wl.depth == "inf" else int(wl.depth)
    grade = math.inf if wl.grade == "inf" else int(wl.grade)

    cls = _refine(n, in_edges, colors, depth, grade)
    best: dict[int, tuple[int, int]] = {}
    for w in range(n):
        key = (len({cls[u] for u, _ in in_edges[w]}), w)
        if cls[w] not in best or key < best[cls[w]]:
            best[cls[w]] = key
    reps = sorted(w for _, w in best.values())
    index = {w: i for i, w in enumerate(reps)}
    rep_index = [index[best[cls[v]][1]] for v in range(n)]

    reduct: dict[tuple[int, int], int] = defaultdict(int)
    for (s, d), m in mult.items():
        if d in index:
            reduct[rep_index[s], index[d]] += m
    graph_tsv = "".join(f"{s}\t{d}\t{min(m, grade)}\n" for (s, d), m in sorted(reduct.items()))
    colors_tsv = "".join(f"{i}\t{colors[w]}\n" for i, w in enumerate(reps))
    dense_already = raw_ids == list(range(n))
    map_tsv = "".join(f"{v if dense_already else raw_ids[v]}\t{rep_index[v]}\n"
                      for v in range(n))

    grouped: dict[int, dict] = defaultdict(dict)
    for v, token in inputs.train.items():
        key, text = _format_target(token, wl.loss)
        bucket = grouped[rep_index[dense[v]]]
        bucket[key] = (text, bucket[key][1] + 1) if key in bucket else (text, 1)
    train_tsv = "".join(f"{rep}\t{text}\t{weight}\n"
                        for rep in sorted(grouped)
                        for text, weight in (grouped[rep][k] for k in sorted(grouped[rep])))

    texts = dict(zip(BUNDLE_FILES, (graph_tsv, colors_tsv, map_tsv, train_tsv)))
    return {
        "digests": {name: hashlib.sha256(t.encode()).hexdigest() for name, t in texts.items()},
        "nodes": [len(reps), n],
        "edges": [len(reduct), len(mult)],
    }
