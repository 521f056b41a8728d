"""cli_oneshot: the README pipe stages, one fresh interpreter per call.

A pass is one pipeline: ``gen`` emits an edge list that is piped into
``compute --dist orbits``, ``compute --dist exp`` and ``check conn``, and
``check thm1 --variant literal --probs 0.9,0.1 --strict`` must exit 1.
Children run one at a time. Import cost dominates each call, so a change
that adds import or per-call set-up cost shows here first.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import graphent.cli as cli

import calibration
from common import PassResult, child_env

# Graphs fed through the pipeline. A run takes all of them, in an order
# and each with an alpha picked by --seed, so every run has the same mix of
# stage costs.
GRAPHS = (
    ("gen", "star", "9"),
    ("gen", "wheel", "8"),
    ("gen", "cycle", "12"),
    ("gen", "path", "7"),
    ("gen", "complete", "6"),
    ("gen", "gnp", "10", "--p", "0.5", "--seed", "3"),
    ("gen", "gnp", "12", "--p", "0.4", "--seed", "7"),
    ("gen", "gnp", "9", "--p", "0.3", "--seed", "11"),
)
ALPHAS = ("0.5", "2", "3")

THM1 = ("check", "thm1", "--alpha", "0.5", "--variant", "literal",
        "--probs", "0.9,0.1", "--strict")

REFERENCE = Path(__file__).with_name("reference") / "cli.json"

FLOAT_TOLERANCE = 1e-9


def pipeline(gen: tuple[str, ...], alpha: str) -> list[tuple[str, ...]]:
    """argv of each stage; stages after the first read gen's stdout."""
    return [
        gen,
        ("compute", "--alpha", alpha, "--dist", "orbits"),
        ("compute", "--alpha", alpha, "--dist", "exp", "--beta", "2"),
        THM1,
        ("check", "conn", "--alpha", alpha, "--functional", "linear"),
    ]


def pipeline_id(gen: tuple[str, ...], alpha: str) -> str:
    return " ".join(gen) + f" @{alpha}"


@dataclass
class State:
    pipelines: list[tuple[str, list[tuple[str, ...]]]]
    reference: dict
    env: dict
    next_index: int = 0


def generate(seed: int) -> State:
    rng = np.random.default_rng([seed, 0xC11])
    pipelines = []
    for i in rng.permutation(len(GRAPHS)):
        gen = GRAPHS[int(i)]
        alpha = ALPHAS[int(rng.integers(len(ALPHAS)))]
        pipelines.append((pipeline_id(gen, alpha), pipeline(gen, alpha)))
    return State(
        pipelines=pipelines,
        reference=json.loads(REFERENCE.read_text()),
        env=child_env(),
    )


def check_setup(state: State) -> list[str]:
    return [f"no reference for {pid}" for pid, _ in state.pipelines if pid not in state.reference]


def _same(got, want) -> bool:
    """JSON equality, floats within FLOAT_TOLERANCE (absolute or relative)."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return math.isclose(got, want, rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same(a, b) for a, b in zip(got, want)
        )
    return type(got) is type(want) and got == want


def _compare(pid: str, stage: int, status: int, out: str, reference: dict) -> list[str]:
    want_status, want_out = reference[pid][stage]
    if status != want_status:
        return [f"{pid} stage {stage}: exit {status} != {want_status}"]
    if stage == 0:
        ok = out == want_out
    else:
        try:
            ok = _same(json.loads(out), json.loads(want_out))
        except json.JSONDecodeError:
            ok = False
    return [] if ok else [f"{pid} stage {stage}: stdout differs from the reference"]


def run_child(argv, stdin: str, env: dict) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "graphent", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    return proc.returncode, proc.stdout


def _pass(state: State, call, calibrate=None) -> PassResult:
    pid, stages = state.pipelines[state.next_index % len(state.pipelines)]
    state.next_index += 1
    samples, problems, factors = [], [], []
    failed = 0
    edges = None
    seconds = 0.0
    for index, argv in enumerate(stages):
        stdin = edges if index > 0 and argv != THM1 else ""
        if calibrate:
            factors.append(calibrate())
        start = time.perf_counter()
        status, out = call(list(argv), stdin)
        elapsed = time.perf_counter() - start
        seconds += elapsed
        samples.append(elapsed * 1e3)
        if index == 0:
            edges = out
        found = _compare(pid, index, status, out, state.reference)
        failed += bool(found)
        problems.extend(found)
    return PassResult(
        seconds=seconds,
        samples_ms=samples,
        ops=len(stages),
        failed=failed,
        problems=problems,
        factor=statistics.mean(factors) if factors else None,
    )


def run_pass(state: State, factor: float) -> PassResult:
    """A bare interpreter start runs before each child; their mean gives
    the pass's host speed factor (not the CPU unit)."""
    return _pass(
        state,
        lambda argv, stdin: run_child(argv, stdin, state.env),
        lambda: calibration.spawn_factor(state.env),
    )


def trace_pass(state: State, factor: float) -> PassResult:
    """In-process cli.dispatch on the same argv; children cannot be traced."""
    return _pass(state, lambda argv, stdin: cli.dispatch(argv, stdin=stdin))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def reference_entry() -> dict[str, list]:
    """Exit status and stdout of every stage of every pipeline, via children."""
    env = child_env()
    out = {}
    for gen in GRAPHS:
        for alpha in ALPHAS:
            edges = None
            stages = []
            for index, argv in enumerate(pipeline(gen, alpha)):
                stdin = edges if index > 0 and argv != THM1 else ""
                status, text = run_child(list(argv), stdin, env)
                if index == 0:
                    edges = text
                stages.append([status, text])
            out[pipeline_id(gen, alpha)] = stages
    return out
