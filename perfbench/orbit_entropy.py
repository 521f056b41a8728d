"""orbit_entropy: what ``graphent compute --dist orbits`` does, per instance.

Each instance is parsed from its edge list, its exact vertex orbits are
computed, and Shannon and Renyi entropies (over the default alpha grid)
are taken of the orbit distribution. Inputs are vertex-transitive and
near-transitive graphs, each relabeled by a seeded permutation because
real inputs arrive in arbitrary labelings. Nearly all of the time is in
orbits and graph; inequalities is bypassed.

Every instance runs under a per-instance time budget enforced in-process
with a real-time interval timer. An instance over budget is recorded by
name and costs the full budget in the pass time.
"""

from __future__ import annotations

import json
import math
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import graphent.graph as graph
import graphent.measures as measures
import graphent.orbits as orbits
from graphent.errors import CapacityError
from graphent.harness import DEFAULT_ALPHA_GRID

import instances
from common import PassResult

# Per-instance budget in reference seconds (scaled by the host speed
# factor, like every reported time).
BUDGET_S = 0.25

# Seeded relabelings per run; pass k uses relabeling k mod LABELINGS, so a
# run's figures are not those of one lucky or unlucky permutation.
LABELINGS = 8

# Instances whose outcome does not depend on the labeling: every one of
# them finished far inside the budget in every relabeling tried, or
# (cycle_28, hypercube_6) never finished within seconds. See NOTES.md for
# the families left out because their outcome flips with the labeling.
INSTANCES = (
    "cycle_8",
    "cycle_12",
    "wheel_8",
    "wheel_12",
    "torus_3x4",
    "torus_4x4",
    "hypercube_3",
    "hypercube_4",
    "paley_13",
    "paley_17",
    "paley_29",
    "paley_37",
    "paley_41",
    "johnson_5x2",
    "johnson_6x2",
    "johnson_6x3",
    "johnson_7x2",
    "johnson_8x2",
    "kneser_5x2",
    "kneser_6x2",
    "kneser_7x2",
    "kab_3x5",
    "kab_4x4",
    "kab_6x9",
    "kab_10x20",
    "star_8",
    "star_20",
    "star_40",
    "complete_8",
    "complete_16",
    "complete_32",
    "complete_48",
    "cycle_28",
    "hypercube_6",
)

BRUTE_FORCE_MAX_N = 8

REFERENCE = Path(__file__).with_name("reference") / "orbit.json"


class _OverBudget(Exception):
    pass


class _Budget:
    """Raises _OverBudget in the main thread once ``seconds`` elapse."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise _OverBudget()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


@dataclass
class State:
    labelings: list[list[tuple[str, graph.Graph, str]]]
    reference: dict
    passes: int = 0


def generate(seed: int) -> State:
    rng = np.random.default_rng([seed, 0x0B17])
    graphs = [(name, instances.build(name)) for name in INSTANCES]
    labelings = []
    for _ in range(LABELINGS):
        inputs = []
        for name, g in graphs:
            relabeled = g.relabel(rng.permutation(g.n).tolist())
            inputs.append((name, relabeled, graph.write_edge_list(relabeled)))
        labelings.append(inputs)
    return State(labelings=labelings, reference=json.loads(REFERENCE.read_text()))


def check_setup(state: State) -> list[str]:
    """Small instances must match the n! oracle in their first relabeling."""
    problems = []
    for name, g, _ in state.labelings[0]:
        if g.n <= BRUTE_FORCE_MAX_N:
            sizes = sorted(orbits.brute_force_orbits(g).sizes)
            if sizes != state.reference[name]:
                problems.append(f"{name}: brute-force sizes {sizes} != {state.reference[name]}")
    return problems


def _evaluate(text: str):
    g = graph.parse_edge_list(text)
    part = orbits.vertex_orbits(g)
    d = measures.partition_distribution(part)
    h = measures.shannon_entropy(d)
    renyi = [measures.renyi_entropy(d, a) for a in DEFAULT_ALPHA_GRID]
    return part, h, renyi


def _check(name: str, part, h: float, renyi: list[float], reference: dict) -> list[str]:
    sizes = sorted(part.sizes)
    if sizes != reference[name]:
        return [f"{name}: orbit sizes {sizes} != {reference[name]}"]
    n = sum(sizes)
    expected = -math.fsum(s / n * math.log2(s / n) for s in sizes)
    if abs(h - expected) > 1e-12:
        return [f"{name}: Shannon entropy {h!r} != {expected!r}"]
    if not all(math.isfinite(r) and -1e-12 <= r <= math.log2(n) + 1e-12 for r in renyi):
        return [f"{name}: Renyi entropies out of range: {renyi}"]
    return []


def run_pass(state: State, factor: float) -> PassResult:
    inputs = state.labelings[state.passes % LABELINGS]
    state.passes += 1
    samples, problems, over = [], [], []
    failed = 0
    budget = _Budget(BUDGET_S * factor)
    pass_start = time.perf_counter()
    for name, _, text in inputs:
        start = time.perf_counter()
        try:
            with budget:
                part, h, renyi = _evaluate(text)
        except (_OverBudget, CapacityError):
            samples.append((time.perf_counter() - start) * 1e3)
            over.append(name)
            continue
        except Exception as exc:  # a raising instance is a failed operation
            samples.append((time.perf_counter() - start) * 1e3)
            failed += 1
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        samples.append((time.perf_counter() - start) * 1e3)
        found = _check(name, part, h, renyi, state.reference)
        failed += bool(found)
        problems.extend(found)
    return PassResult(
        seconds=time.perf_counter() - pass_start,
        samples_ms=samples,
        ops=len(inputs),
        failed=failed,
        problems=problems,
        over_budget=over,
    )


trace_pass = run_pass


def layer_values(results: list[PassResult]) -> dict[str, tuple[float, str]]:
    over = sum(len(r.over_budget) for r in results) / len(results)
    return {
        "orbits.over_budget": (over, "count"),
    }


def reference_entry() -> dict[str, list[int]]:
    """Orbit sizes in the natural labeling, oracle-checked where n <= 8."""
    out = {}
    for name in INSTANCES:
        g = instances.build(name)
        sizes = sorted(orbits.vertex_orbits(g).sizes)
        if g.n <= BRUTE_FORCE_MAX_N and sorted(orbits.brute_force_orbits(g).sizes) != sizes:
            raise RuntimeError(f"{name}: exact and brute-force orbits disagree")
        out[name] = sizes
    return out
