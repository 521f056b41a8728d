"""graphent benchmark: one workload per run, outputs checked, metrics as JSON.

Run from the root of a graphent checkout:

    python3 perfbench/run.py --workload sweep_catalog --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 measures half the time
untraced and half with per-layer hooks installed, and prints the per-layer
metrics. The last stdout line is the result object; the line before it
describes the run (environment, sample counts, instances over budget,
hooks found absent). See perfbench/NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
from common import child_env, child_seconds

WORKLOADS = ("sweep_catalog", "orbit_entropy", "cli_oneshot")

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

# Per-layer metrics a workload reports itself; zero where it has none.
WORKLOAD_LAYER_METRICS = {
    "harness.json_bytes": "bytes",
    "harness.cells": "count",
    "harness.error_cells": "count",
    "orbits.over_budget": "count",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "cold_start": "fresh interpreters, but the OS page cache is warm and "
        "bytecode is already compiled; caches are not dropped",
    }


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_passes(pass_fn, state, seconds: float) -> list:
    """Passes until ``seconds`` have gone by, each with its speed factor."""
    results = []
    end = time.perf_counter() + seconds
    while not results or time.perf_counter() < end:
        before = calibration.cpu_factor()
        result = pass_fn(state, before)
        if result.factor is None:
            result.factor = (before + calibration.cpu_factor()) / 2
        results.append(result)
    return results


def measure_setup(workload, seed: int, env: dict):
    """Median of SETUP_REPEATS set-ups, each a cold ``import graphent`` in a
    fresh interpreter plus generating the workload's inputs, at reference
    speed (the mean of the bare starts and CPU units run alongside).
    Returns it with the raw import times and the inputs."""
    bares, imports, factors, generated = [], [], [], []
    state = None
    for _ in range(SETUP_REPEATS):
        bares.append(calibration.spawn_seconds(env))
        imports.append(child_seconds("import graphent", env))
        factors.append(calibration.cpu_factor())
        start = time.perf_counter()
        state = workload.generate(seed)
        generated.append(time.perf_counter() - start)
    spawn = statistics.mean(bares) / calibration.SPAWN_REF_S
    cpu = statistics.mean(factors)
    setup_s = statistics.median(i / spawn + g / cpu for i, g in zip(imports, generated))
    return setup_s, imports, state


def cli_probe(seed: int, env: dict, imports: list[float]) -> tuple[dict, list[str]]:
    """cli.* layer metrics: bare interpreter, import on top, in-process dispatch."""
    import cli_oneshot

    bare = statistics.median(calibration.spawn_seconds(env) for _ in range(SETUP_REPEATS))
    state = cli_oneshot.generate(seed)
    samples, problems = [], []
    for _ in range(SETUP_REPEATS):
        result = cli_oneshot.trace_pass(state, 1.0)
        samples.extend(result.samples_ms)
        problems.extend(result.problems)
    return {
        "cli.interpreter_ms": (bare * 1e3, "ms"),
        "cli.import_ms": ((statistics.median(imports) - bare) * 1e3, "ms"),
        "cli.dispatch_ms": (statistics.median(samples), "ms"),
    }, problems


def _timings(results: list, normalize: bool) -> dict:
    seconds, samples = [], []
    for r in results:
        seconds.append(r.seconds / r.factor if normalize else r.seconds)
        samples.extend(s / r.factor if normalize else s for s in r.samples_ms)
    p90 = _quantile(samples, 0.9)
    return {
        "wall_s": statistics.median(seconds),
        "ops_per_s": statistics.median(r.ops / s for r, s in zip(results, seconds)),
        "p50_ms": _quantile(samples, 0.5),
        "p90_ms": p90,
        "samples": len(samples),
        "p90_samples_beyond": sum(1 for s in samples if s > p90),
    }


def end_to_end(workload, results: list, setup_s: float) -> tuple[dict, dict]:
    """Timings at reference speed; the raw ones go to the run description."""
    timed = _timings(results, normalize=True)
    raw = _timings(results, normalize=False)
    peak = getattr(workload, "peak_rss_mb", None)
    rss = peak() if peak else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (setup_s, "s")}
    for name, unit in (("wall_s", "s"), ("ops_per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms")):
        metrics[name] = (timed[name], unit)
    metrics["peak_rss_mb"] = (rss, "MB")
    info = {
        "passes": len(results),
        "latency_samples": timed["samples"],
        "p90_samples_beyond": timed["p90_samples_beyond"],
        "raw": {k: raw[k] for k in ("wall_s", "ops_per_s", "p50_ms", "p90_ms")},
        "speed_factor_median": statistics.median(r.factor for r in results),
    }
    return metrics, info


def traced(workload, state, seconds: float, seed: int, env: dict, imports: list[float]):
    import tracing

    plain = run_passes(workload.trace_pass, state, seconds / 2)
    with tracing.Tracer() as tracer:
        hooked = run_passes(workload.trace_pass, state, seconds / 2)
    metrics, absent = tracing.layer_metrics(tracer, len(hooked))
    for name, unit in WORKLOAD_LAYER_METRICS.items():
        metrics[name] = (0.0, unit)
    layer_values = getattr(workload, "layer_values", None)
    if layer_values:
        metrics.update(layer_values(hooked))
    probe, probe_problems = cli_probe(seed, env, imports)
    metrics.update(probe)
    metrics["tracing_overhead_frac"] = (
        statistics.median(r.seconds / r.factor for r in hooked)
        / statistics.median(r.seconds / r.factor for r in plain) - 1.0,
        "frac",
    )
    info = {"passes": len(plain) + len(hooked), "traced_passes": len(hooked), "absent": absent}
    return metrics, info, plain + hooked, probe_problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = Path.cwd() / "src"
    if not (src / "graphent" / "__init__.py").is_file():
        print("perfbench: src/graphent not found; run from the root of a "
              "graphent checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import graphent

    if Path(graphent.__file__).resolve().parent != (src / "graphent").resolve():
        print(f"perfbench: imported graphent from {graphent.__file__}, "
              f"expected {src / 'graphent'}", file=sys.stderr)
        return 2
    env = child_env()

    workload = importlib.import_module(args.workload)
    setup_s, imports, state = measure_setup(workload, args.seed, env)
    problems = workload.check_setup(state)

    if args.trace:
        metrics, info, results, probe_problems = traced(
            workload, state, args.seconds, args.seed, env, imports)
        problems.extend(probe_problems)
    else:
        results = run_passes(workload.run_pass, state, args.seconds)
        metrics, info = end_to_end(workload, results, setup_s)

    for r in results:
        problems.extend(r.problems)
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    failed_frac = (failed + sum(len(r.over_budget) for r in results)) / attempted
    if args.trace:
        metrics["failed_frac"] = (failed_frac, "frac")
    info.update(
        workload=args.workload,
        environment=environment(args.seed),
        setup_import_s=imports,
        over_budget=sorted({name for r in results for name in r.over_budget}),
        failed_frac=failed_frac,
        pass_info=results[-1].info,
        problems=problems[:20],
    )
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
