"""Machine-speed calibration, so timings are steady on a shared host.

On a host shared with other tenants the speed of a fixed piece of work
drifts by tens of percent within minutes, while the ratio of a workload's
time to a fixed calibration unit measured next to it stays within a few
percent. End-to-end times are therefore reported at reference speed:

    reported = measured * REF_S / unit_measured_alongside

Two units are used. The CPU unit (a fixed interpreter loop) brackets
in-process work; the spawn unit (a bare ``python -c pass`` child) brackets
work done in child interpreters. Neither touches graphent, so a change to
graphent moves the reported times and never the units. The REF_S values
are the units' typical times on the machine the benchmark was written on;
they only fix the scale.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from common import child_seconds

CPU_REF_S = 0.005
SPAWN_REF_S = 0.070

_SLICES = 3


def cpu_unit() -> float:
    """Seconds taken by one CPU unit now."""
    start = time.perf_counter()
    total, table = 0, {}
    arr = np.arange(16.0)
    for i in range(20000):
        total += i * i % 7
        table[i & 255] = total
        if i % 50 == 0:
            np.exp(arr).sum()
    return time.perf_counter() - start


def cpu_factor() -> float:
    """Current time of the CPU unit over its reference (>1: slower host)."""
    return statistics.mean(cpu_unit() for _ in range(_SLICES)) / CPU_REF_S


def spawn_seconds(env: dict) -> float:
    return child_seconds("pass", env)


def spawn_factor(env: dict) -> float:
    """Current time of a bare interpreter start over its reference."""
    return spawn_seconds(env) / SPAWN_REF_S
