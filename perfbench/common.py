"""Types shared by the workload modules."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class PassResult:
    """One pass over a workload's unit of work.

    seconds: the pass's timed phase. samples_ms: per-operation latencies
    (per graph, instance or invocation). ops: operations attempted.
    failed: operations that raised or gave a wrong result. over_budget:
    names of instances that ran out of their time budget. factor: host
    speed during the pass relative to reference (see calibration.py);
    None lets the runner bracket the pass with the CPU unit.
    """

    seconds: float
    samples_ms: list[float]
    ops: int
    failed: int
    problems: list[str]
    over_budget: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    factor: float | None = None


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src first on the path."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def child_seconds(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    return time.perf_counter() - start
