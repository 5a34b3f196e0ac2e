"""Benchmark of gnncompress: compress, verify and per-epoch cost.

Usage, from the repository root:

    python3 bench/run.py --workload road-d3 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

For each workload this draws seeded inputs, computes the expected bundle
without the package (oracle.py), times `setup_s` over several fresh
interpreters, then runs workload.py in a fresh child process, which times
`compress`, `verify` and training-loss epochs for --seconds and checks
every output. It prints each metric by name with its unit, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of a traced run (see README.md), and the spans and
per-round refinement lines are written under .bench_runs/.

Exits with code 1, printing no result, when the package cannot be run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import expected_bundle
from speed import reference_seconds, scaled
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 7
CHILD_GRACE_S = 120       # child's time budget beyond --seconds

# A fresh interpreter's import and first compression: lazy initialisation
# or compilation moved into set-up shows here. Prints the reduct size, 2.
SETUP_PROBE = """
from gnncompress import LearningProblem, build_graph, compress_problem, one_hot_features
g = build_graph([(0, 2, 1), (1, 2, 1)], ["a", "a", "b"])
x, _ = one_hot_features(g)
print(compress_problem(LearningProblem(g, x, {}, "xent"), depth=1).graph.node_count)
"""


class BenchError(Exception):
    """The package could not be run at all; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _setup_times(env) -> tuple[list[tuple[float, float]], list[str]]:
    """(wall time, reference time) of SETUP_PROBES fresh interpreters,
    after one untimed one that writes the bytecode cache."""
    times, failures = [], []
    for i in range(SETUP_PROBES + 1):
        ref = reference_seconds()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t0
        ref = (ref + reference_seconds()) / 2
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if i == 0:
            continue
        times.append((dt, ref))
        if proc.stdout.strip() != "2":
            failures.append(f"setup: reduct has {proc.stdout.strip()!r} nodes, expected 2")
    return times, failures


def _describe(samples: list[tuple[float, float]]) -> str:
    """Sample count, the highest percentile with ten samples beyond it, and
    the raw median."""
    values = [scaled(s, ref) for s, ref in samples]
    text = f"median of {len(values)}"
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            text += f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"
            break
    return text + f"; raw median {statistics.median(s for s, _ in samples):.4f}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    wl = WORKLOADS[name]
    inputs = generate(wl, seed, work / name)
    expected = expected_bundle(inputs, wl)
    env = _child_env()
    setup, failures = _setup_times(env)

    trace_dir = RUNS / f"{name}-seed{seed}"
    spec = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "expected": expected,
        "paths": {"graph": str(inputs.graph_path), "colors": str(inputs.colors_path),
                  "train": str(inputs.train_path), "bundle": str(work / name / "bundle"),
                  "trace": str(trace_dir)},
    }
    spec_path, result_path = work / f"{name}.spec.json", work / f"{name}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "workload.py"), str(spec_path),
                               str(result_path)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: workload did not finish in time") from None
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{name}: workload exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-1500:]}")
    res = json.loads(result_path.read_text(encoding="utf-8"))

    failures += res["failures"]
    attempted = SETUP_PROBES + res["attempted"]
    n0, m0 = expected["nodes"][1], expected["edges"][1]
    n1, m1 = expected["nodes"][0], expected["edges"][0]
    print(f"{name} seed={seed} seconds={seconds:g} trace={int(trace)}: {n0} nodes, "
          f"{m0} edges, {len(inputs.train)} training nodes -> reduct {n1} nodes "
          f"({100 * n1 / n0:.2f}%), {m1} edges ({100 * m1 / m0:.2f}%)")
    if trace:
        metrics = {k: tuple(v) for k, v in res["trace"]["metrics"].items()}
        if not all(math.isfinite(v) for v, _ in metrics.values()):
            raise BenchError(f"{name}: an operation never completed: {failures[:3]}")
        _print_trace(res["trace"], trace_dir)
    else:
        samples = {"setup_s": setup, **{f"{op}_s": v for op, v in res["samples"].items()}}
        if not all(samples.values()):
            raise BenchError(f"{name}: an operation never completed: {failures[:3]}")
        metrics = {k: (statistics.median(scaled(s, ref) for s, ref in v), "s")
                   for k, v in samples.items()}
        metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
        for k, (value, unit) in metrics.items():
            detail = _describe(samples[k]) if k in samples else "of the workload's process"
            print(f"  {k:<14} {value:10.4f} {unit:<5} {detail}")
    fail_rate = len(failures) / attempted
    print(f"  {'fail_rate':<14} {fail_rate:10.4f} ratio {len(failures)} of {attempted} "
          f"operations failed")
    for msg in failures[:5]:
        print(f"    FAILED {msg}")
    print(f"  info: src_lines {res['src_lines']}, api_names {res['api_names']}")
    return {"attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _print_trace(summary: dict, trace_dir: Path) -> None:
    print(f"  traced cycles: {summary['cycles']} (medians per cycle)")
    for op, names in summary["by_op"].items():
        top = sorted(((v[0], v[1], n) for n, v in names.items()), reverse=True)[:6]
        print(f"  {op}: " + ", ".join(f"{n} {s:.4f} s ({c:g} calls)" for s, c, n in top))
    m = summary["metrics"]
    for op in ("compress", "verify"):
        print(f"  tracing overhead on {op}: {m[f'trace.overhead_{op}_s'][0]:+.4f} s")
    print(f"  spans and per-round refine_step lines: {trace_dir.relative_to(ROOT)}/")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gnncompress" / "__init__.py").is_file():
        print(f"error: no gnncompress package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = RUNS / f"work-{os.getpid()}"
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), work)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
