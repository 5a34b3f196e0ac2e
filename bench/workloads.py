"""Seeded input generators and the settings of each benchmark workload.

The generators live here, not in ``gnncompress.synth``, so that an edit to
the package cannot shift a workload. Each writes an edge list, a color file
and a training file that name only nodes occurring in the edge list (the
loader rejects any other node). The seed changes which edges, labels and
node ids are drawn, never the input size, so runs on different seeds do
the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Input sizes. Chosen so that one compress + verify + epoch cycle takes
# about a second on a 2-core machine, which gives each run enough samples
# for a steady median.
ROAD_SIDE = 150            # grid side: 22.5k cells, about 21k keep an edge
ROAD_KEEP = 0.7            # share of grid edges kept
CHAIN_LONGEST = 400        # nodes on the longest path = refinement rounds + 1
CHAIN_SHORT = 7            # number of shorter paths
CHAIN_NODES = 2250         # nodes over all paths
COLORS_NODES = 5000        # ring plus random in-edges
COLORS_EXTRA_IN = 3        # random in-edges per node, on top of the ring
COLORS_K = 16              # number of node colors
TRAIN_SHARE = 0.1          # share of nodes with a training target


@dataclass(frozen=True)
class Workload:
    name: str
    depth: str             # CLI token: integer or "inf"
    grade: str             # CLI token: integer or "inf"
    undirected: bool
    loss: str              # "xent" or "sq"
    targets: int           # xent: number of labels; sq: target dimension
    verify_gnns: int       # GNNs sampled by one `verify`
    verify_width: str | None
    hidden: tuple[int, ...]  # hidden widths of the epoch hypothesis


WORKLOADS = {
    "road-d3": Workload("road-d3", "3", "inf", True, "xent", 8, 2, None, (8, 8)),
    "chains-inf": Workload("chains-inf", "inf", "inf", False, "xent", 4, 1, None, (8, 8, 8)),
    "colors-w2": Workload("colors-w2", "2", "2", False, "sq", 4, 2, "2", (8,)),
}


@dataclass
class Inputs:
    """Generated problem, both as written to files and as Python values."""

    edges: list[tuple[int, int]]   # raw file ids, one entry per line
    colors: dict[int, str]         # raw id -> color token
    train: dict[int, str]          # raw id -> target token as written
    graph_path: Path
    colors_path: Path
    train_path: Path


def _road(rng):
    side = ROAD_SIDE
    ids = np.arange(side * side).reshape(side, side)
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    down = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    grid = np.concatenate([right, down])
    keep = rng.choice(len(grid), round(ROAD_KEEP * len(grid)), replace=False)
    return grid[np.sort(keep)], lambda nodes: {v: "road" for v in nodes}


def _chains(rng):
    rest = CHAIN_NODES - CHAIN_LONGEST
    lengths = [CHAIN_LONGEST] + list(
        rng.multinomial(rest - 2 * CHAIN_SHORT, [1 / CHAIN_SHORT] * CHAIN_SHORT) + 2)
    if max(lengths[1:]) >= CHAIN_LONGEST:
        raise ValueError("a short chain is as long as the longest one")
    label = rng.permutation(CHAIN_NODES)
    edges, start = [], 0
    for length in lengths:
        path = label[start:start + length]
        edges.extend(zip(path[:-1], path[1:]))
        start += length
    return np.array(edges, dtype=np.int64), lambda nodes: {v: "chain" for v in nodes}


def _colors(rng):
    n = COLORS_NODES
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    dst = np.repeat(np.arange(n), COLORS_EXTRA_IN)
    src = (dst + rng.integers(1, n, len(dst))) % n   # never a self-loop
    edges = np.concatenate([ring, np.stack([src, dst], axis=1)])
    palette = rng.integers(0, COLORS_K, n)
    return edges, lambda nodes: {v: f"k{palette[v]}" for v in nodes}


def _targets(rng, wl: Workload, count: int) -> list[str]:
    if wl.loss == "xent":
        return [f"c{i}" for i in rng.integers(0, wl.targets, count)]
    values = rng.uniform(-1.0, 1.0, (count, wl.targets))
    return [",".join(f"{x:.3f}" for x in row) for row in values]


_GRAPHS = {"road-d3": _road, "chains-inf": _chains, "colors-w2": _colors}


def generate(wl: Workload, seed: int, out_dir: Path) -> Inputs:
    """Draw the workload's inputs from ``seed`` and write them to out_dir."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(wl.name)])
    edge_array, color_of = _GRAPHS[wl.name](rng)
    edge_array = edge_array[rng.permutation(len(edge_array))]
    edges = [(int(s), int(d)) for s, d in edge_array]
    nodes = sorted({v for e in edges for v in e})
    colors = color_of(nodes)
    picked = sorted(rng.choice(nodes, round(TRAIN_SHARE * len(nodes)), replace=False))
    train = dict(zip((int(v) for v in picked), _targets(rng, wl, len(picked))))

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / "graph.tsv", out_dir / "colors.tsv", out_dir / "train.tsv"]
    paths[0].write_text("".join(f"{s} {d}\n" for s, d in edges), encoding="utf-8")
    paths[1].write_text("".join(f"{v}\t{c}\n" for v, c in colors.items()), encoding="utf-8")
    paths[2].write_text("".join(f"{v}\t{t}\n" for v, t in train.items()), encoding="utf-8")
    return Inputs(edges, colors, train, *paths)
