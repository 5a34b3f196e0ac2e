"""One workload's timed loop, run in a fresh interpreter by run.py.

Usage: python3 bench/workload.py SPEC.json RESULT.json

SPEC holds the workload name, seed, seconds, trace flag, the input,
bundle and trace paths, and the expected bundle from oracle.py. The loop
repeats the cycle compress -> verify -> epochs until the time is up,
calling the package only through ``gnncompress.cli.main`` and public
functions. Every operation's output is checked; RESULT gets the timings,
the operations attempted and failed, this process's peak RSS and, when
tracing, the per-layer figures.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import re
import resource
import statistics
import sys
import time
from pathlib import Path

from oracle import BUNDLE_FILES
from speed import reference_seconds, scaled
from workloads import WORKLOADS

import gnncompress
from gnncompress import (LearningProblem, chain_config, compress_problem,
                         evaluate_compressed_loss, evaluate_loss,
                         one_hot_features, sample_gnn)
from gnncompress.cli import main as cli_main
from gnncompress.fileio import load_graph, parse_extent, read_train

EPOCHS_PER_CYCLE = 3      # epochs are short: take more samples of them
LOSS_RTOL = 1e-9
_SIZES = re.compile(r"nodes [\d.]+% \((\d+)/(\d+)\), edges [\d.]+% \((\d+)/(\d+)\)")


class Run:
    def __init__(self, spec: dict):
        self.spec = spec
        wl = self.wl = WORKLOADS[spec["workload"]]
        p = spec["paths"]
        graph_args = ["--graph", p["graph"], "--colors", p["colors"]]
        self.compress_argv = ["compress", *graph_args, "--train", p["train"],
                              "--loss", wl.loss, "--depth", wl.depth, "--grade", wl.grade,
                              "--out", p["bundle"]]
        self.verify_argv = ["verify", "--bundle", p["bundle"], "--original", p["graph"],
                            "--colors", p["colors"], "--train", p["train"],
                            "--gnns", str(wl.verify_gnns), "--seed", str(spec["seed"])]
        if wl.undirected:
            self.compress_argv.append("--undirected")
            self.verify_argv.append("--undirected")
        if wl.verify_width:
            self.verify_argv += ["--width", wl.verify_width]
        self.samples: dict[str, list[tuple[float, float]]] = {op: [] for op in
                                                 ("compress", "verify", "epoch", "epoch_orig")}
        self.attempted = 0
        self.failures: list[str] = []
        self._prepare_epochs()

    def _prepare_epochs(self):
        """The original and compressed problem under the workload's hypothesis."""
        wl, p = self.wl, self.spec["paths"]
        loaded = load_graph(p["graph"], p["colors"], wl.undirected)
        g = loaded.graph
        id_map = (None if loaded.original_ids is None
                  else {int(o): i for i, o in enumerate(loaded.original_ids)})
        train = read_train(p["train"], g.node_count, wl.loss, id_map)
        features, _ = one_hot_features(g)
        width = parse_extent(wl.grade)
        config = chain_config([features.shape[1], *wl.hidden, wl.targets], width=width)
        self.problem = LearningProblem(g, features, train, wl.loss, config)
        self.compressed = compress_problem(self.problem, depth=parse_extent(wl.depth),
                                           grade=width)
        self.gnn = sample_gnn(config, self.spec["seed"])

    # -- operations --------------------------------------------------

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli_main(argv)
        return code, out.getvalue()

    def _timed(self, op, fn, run_op):
        """Time one operation between two runs of the speed reference;
        returns (result, (seconds, mean reference seconds)). An exception counts as a
        failure with no time."""
        gc.collect()
        self.attempted += 1
        ref = reference_seconds()
        t0 = time.perf_counter()
        try:
            result = run_op(op, fn)
        except Exception as exc:  # a failed operation must not end the run
            self.failures.append(f"{op}: {type(exc).__name__}: {exc}")
            return None, None
        dt = time.perf_counter() - t0
        return result, (dt, (ref + reference_seconds()) / 2)

    def _check_compress(self, code, out) -> str | None:
        if code != 0:
            return f"exit code {code}: {out.strip()[-200:]}"
        expected = self.spec["expected"]
        m = _SIZES.search(out)
        if m is None:
            return "no size line"
        nodes, edges = [int(m[1]), int(m[2])], [int(m[3]), int(m[4])]
        if nodes != expected["nodes"] or edges != expected["edges"]:
            return f"reduct sizes nodes {nodes} edges {edges}, expected " \
                   f"{expected['nodes']} {expected['edges']}"
        bundle = Path(self.spec["paths"]["bundle"])
        for name in BUNDLE_FILES:
            digest = hashlib.sha256((bundle / name).read_bytes()).hexdigest()
            if digest != expected["digests"][name]:
                return f"{name} sha256 differs from the expected bundle"
        return None

    def cycle(self, run_op, n_epochs: int):
        """compress, verify, then epochs; returns {op: [(seconds, reference), ...]}."""
        times: dict[str, list[tuple[float, float]]] = {}
        res, dt = self._timed("compress", lambda: self._cli(self.compress_argv), run_op)
        if res is not None:
            problem = self._check_compress(*res)
            if problem:
                self.failures.append(f"compress: {problem}")
            times["compress"] = [dt]
        res, dt = self._timed("verify", lambda: self._cli(self.verify_argv), run_op)
        if res is not None:
            code, out = res
            if code != 0 or "verification passed" not in out:
                self.failures.append(f"verify: exit code {code}: {out.strip()[-200:]}")
            times["verify"] = [dt]
        for _ in range(n_epochs):
            loss_c, dt = self._timed(
                "epoch", lambda: evaluate_compressed_loss(self.compressed, self.gnn), run_op)
            if dt is not None:
                times.setdefault("epoch", []).append(dt)
            loss_o, dt = self._timed(
                "epoch_orig", lambda: evaluate_loss(self.problem, self.gnn), run_op)
            if dt is not None:
                times.setdefault("epoch_orig", []).append(dt)
            if loss_c is not None and loss_o is not None:
                if abs(loss_c - loss_o) > LOSS_RTOL * max(1.0, abs(loss_o)):
                    self.failures.append(
                        f"epoch: compressed loss {loss_c!r} != original loss {loss_o!r}")
        return times

    def record(self, times):
        for op, t in times.items():
            self.samples[op].extend(t)


def _plain(op, fn):
    return fn()


def _peak_rss_mb() -> float:
    """Peak RSS of this process since it started.

    On Linux ``ru_maxrss`` keeps the parent's high-water mark across
    fork + exec, so it could never read below run.py's own peak. VmHWM
    counts only this process's memory; ``ru_maxrss`` is the fallback
    where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _src_lines() -> int:
    src = Path(gnncompress.__file__).parent
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    run = Run(spec)
    run.cycle(_plain, 1)                      # warm-up: caches and lazy imports
    deadline = time.perf_counter() + spec["seconds"]
    result = {"src_lines": _src_lines(), "api_names": len(gnncompress.__all__)}

    if not spec["trace"]:
        while time.perf_counter() < deadline:
            run.record(run.cycle(_plain, EPOCHS_PER_CYCLE))
    else:
        from tracer import COUNTS, SPAN_NAMES, Tracer
        tracer = Tracer()
        untraced = {"compress": [], "verify": []}
        per_cycle: list[dict] = []
        traced_ops: list[dict] = []
        while time.perf_counter() < deadline or not per_cycle:
            times = run.cycle(_plain, 1)
            for op in untraced:
                untraced[op].extend(times.get(op, []))
            tracer.begin_cycle()
            tracer.install()
            try:
                times = run.cycle(tracer.run_op, 1)
            finally:
                tracer.uninstall()
            per_cycle.append({"self": tracer.self_times(), "counts": dict(tracer.counts)})
            traced_ops.append(times)
        result["trace"] = _summarise(per_cycle, traced_ops, untraced, SPAN_NAMES, COUNTS)
        _write_trace(Path(spec["paths"]["trace"]), tracer)

    result.update(
        samples=run.samples,
        attempted=run.attempted,
        failures=run.failures,
        peak_rss_mb=_peak_rss_mb(),
    )
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _write_trace(out: Path, tracer) -> None:
    """spans.tsv: index, name, start, end, parent; rounds.tsv: one line per
    refine_step call. Times are seconds from the first span."""
    out.mkdir(parents=True, exist_ok=True)
    t0 = tracer.spans[0][1]
    with open(out / "spans.tsv", "w", encoding="utf-8") as f:
        f.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            f.write(f"{i}\t{name}\t{start - t0:.6f}\t{end - t0:.6f}\t{parent}\n")
    with open(out / "rounds.tsv", "w", encoding="utf-8") as f:
        f.write("cycle\top\tround\tclasses\tseconds\n")
        for row in tracer.rounds:
            f.write("\t".join(map(str, row[:-1])) + f"\t{row[-1]:.6f}\n")


def _summarise(per_cycle, traced_ops, untraced, span_names, counts):
    """Per-layer metrics {name: [value, unit]}: medians over traced cycles,
    and the tracing overhead."""
    metrics = {}
    for name in span_names:
        metrics[f"{name}.self_s"] = [statistics.median(
            sum(v[0] for (op, n), v in c["self"].items() if n == name) for c in per_cycle), "s"]
        metrics[f"{name}.calls"] = [statistics.median(
            sum(v[1] for (op, n), v in c["self"].items() if n == name) for c in per_cycle),
            "count"]
    for name, (scope, unit) in counts.items():
        values = [sum(v for (op, n), v in c["counts"].items()
                      if n == name and (scope == "cycle" or op == scope)) for c in per_cycle]
        metrics[name] = [statistics.median(values), unit]
    for op in ("compress", "verify"):
        traced = [scaled(*s) for t in traced_ops for s in t.get(op, [])]
        plain = [scaled(*s) for s in untraced[op]]
        metrics[f"trace.overhead_{op}_s"] = [(statistics.median(traced) - statistics.median(
            plain)) if traced and plain else math.nan, "s"]
    by_op: dict[str, dict[str, list]] = {}
    for c in per_cycle:
        for (op, name), (self_s, calls) in c["self"].items():
            by_op.setdefault(op, {}).setdefault(name, []).append((self_s, calls))
    breakdown = {op: {name: [statistics.median(s for s, _ in v), statistics.median(
        k for _, k in v)] for name, v in names.items()} for op, names in by_op.items()}
    return {"metrics": metrics, "by_op": breakdown, "cycles": len(per_cycle)}


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
