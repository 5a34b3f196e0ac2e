"""Outside-in tracing of gnncompress: timing wrappers installed from here.

`Tracer.install` replaces each listed public function with a wrapper that
records a span (name, start, end, parent) and, for some functions, counts
taken from its arguments and result. A function is rebound in every
``gnncompress.*`` module whose attribute *is* the original, because
``from .refine import refine`` copies the binding into ``problem``,
``reduction`` and ``cli``. `uninstall` puts the originals back, so
untraced runs execute the package unchanged.

Spans stay in memory. A span's self time is its duration minus the
durations of its child spans (calls here are single-threaded, so children
never overlap).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

FUNCTIONS = {
    "fileio": ("read_edges", "read_colors", "read_train", "load_graph",
               "save_bundle", "load_bundle"),
    "graph": ("from_edge_arrays",),
    "refine": ("refine", "refine_step"),
    "reduction": ("choose_substitution", "reduce_graph", "verify_reduct"),
    "problem": ("compress_problem", "equivalence_report"),
    "gnn": ("forward", "one_hot_features"),
    "cli": ("cmd_compress", "cmd_verify"),
}
SPAN_NAMES = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs]

# Counts taken at function boundaries: (scope, unit). "compress" counts are
# read from the compress operation of a cycle; "cycle" counts are summed
# over a cycle.
COUNTS = {
    "refine.rounds": ("compress", "count"),
    "refine.classes_final": ("compress", "count"),
    "reduction.node_ratio": ("compress", "ratio"),
    "reduction.edge_ratio": ("compress", "ratio"),
    "problem.train_nodes": ("compress", "count"),
    "problem.weighted_pairs": ("compress", "count"),
    "fileio.bytes_read": ("cycle", "bytes"),
    "fileio.bytes_written": ("cycle", "bytes"),
    "gnn.node_layer_evals": ("cycle", "count"),
}
_READERS = {"fileio.read_edges", "fileio.read_colors", "fileio.read_train",
            "fileio.load_graph", "fileio.load_bundle"}


def _size(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size if path.exists() else 0


def _count_refine(tr, a, result, span):
    tr.count("refine.rounds", len(result.partitions) - 1)
    tr.count("refine.classes_final", result.final.num_classes)


def _count_reduce(tr, a, result, span):
    g, h = a["g"], result.graph
    tr.count("reduction.node_ratio", h.node_count / g.node_count)
    tr.count("reduction.edge_ratio", h.simple_edge_count / g.simple_edge_count)


def _count_compress(tr, a, result, span):
    tr.count("problem.train_nodes", len(a["problem"].train))
    tr.count("problem.weighted_pairs", sum(len(p) for p in result.train_weighted.values()))


def _count_forward(tr, a, result, span):
    tr.count("gnn.node_layer_evals", a["g"].node_count * a["gnn"].config.depth, add=True)


def _count_read(tr, a, result, span):
    if not any(tr.spans[i][0] in _READERS for i in tr.stack):   # outermost reader only
        paths = [a.get(k) for k in ("path", "edge_path", "color_path", "bundle_dir")]
        tr.count("fileio.bytes_read", sum(_size(p) for p in paths if p is not None), add=True)


def _count_save(tr, a, result, span):
    tr.count("fileio.bytes_written", _size(result), add=True)


def _record_round(tr, a, result, span):
    tr.rounds.append((tr.cycle, tr.op, result.round, result.num_classes, span[2] - span[1]))


HOOKS = {
    "refine.refine": _count_refine,
    "refine.refine_step": _record_round,
    "reduction.reduce_graph": _count_reduce,
    "problem.compress_problem": _count_compress,
    "gnn.forward": _count_forward,
    "fileio.save_bundle": _count_save,
    **{name: _count_read for name in _READERS},
}


class Tracer:
    """Spans and per-round refinement lines of a traced run, and the counts
    of its current cycle."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.rounds: list[tuple] = []   # (cycle, op, round, classes, seconds)
        self.cycle = 0
        self.cycle_start = 0            # index of the cycle's first span
        self.op = ""
        self._bindings: list[tuple] = []

    # -- recording ---------------------------------------------------

    def begin_cycle(self) -> None:
        self.cycle += 1
        self.cycle_start = len(self.spans)
        self.counts.clear()

    def count(self, name: str, value, add: bool = False) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts[key] + value if add else value

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op: str, fn, *args):
        """Run one benchmark operation as a root span named op."""
        self.op = op
        idx = self._open(f"op.{op}")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                hook(self, bound.arguments, result, self.spans[idx])
            return result

        return traced

    # -- installing --------------------------------------------------

    def install(self) -> None:
        from gnncompress.graph import ColoredMultigraph

        for mod_name, funcs in FUNCTIONS.items():
            if mod_name == "graph":
                continue
            module = sys.modules[f"gnncompress.{mod_name}"]
            for fname in funcs:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for name, mod in list(sys.modules.items()):
                    if name == "gnncompress" or name.startswith("gnncompress."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                self._bindings.append((mod, attr, original))
        original = ColoredMultigraph.__dict__["from_edge_arrays"]
        wrapper = self._wrap("graph.from_edge_arrays", original.__func__)
        ColoredMultigraph.from_edge_arrays = classmethod(wrapper)
        self._bindings.append((ColoredMultigraph, "from_edge_arrays", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- reading -----------------------------------------------------

    def self_times(self):
        """{(op, span name): [self seconds, calls]} over the current cycle."""
        spans, first = self.spans, self.cycle_start
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        root_of: dict[int, str] = {}
        for i in range(first, len(spans)):
            name, start, end, parent = spans[i]
            op = root_of[parent] if parent >= first else name[len("op."):]
            root_of[i] = op
            entry = out[op, name]
            entry[0] += end - start - child_time[i]
            entry[1] += 1
        return out
