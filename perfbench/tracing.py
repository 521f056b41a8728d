"""Per-layer tracing by rebinding the names graphent modules import.

Each hook replaces an attribute (a function imported into a module's
namespace, or a method on a class) with a wrapper that records a span:
its duration, and the part of it spent in nested spans, so every layer
gets a self time. Hooks whose target no longer exists are skipped and the
metrics they feed are reported as absent, so a later commit that removes
or renames a function does not break the traced run.

Layers are the graphent modules: graph, orbits, measures, inequalities,
harness and cli. A span is charged to the layer of the function called,
which is why calls are hooked in the namespace of the caller (the next
module up), never inside the callee.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("graph", "orbits", "measures", "inequalities", "harness", "cli")

INEQUALITY_FUNCTIONS = (
    "ordering_bound",
    "jensen_gap_bound",
    "thm1_refined_bound",
    "thm3_partition_vs_functional",
    "thm4_scaled_dominance",
    "thm5_additive_dominance",
    "thm6_convex_combination",
    "connected_functional_bounds",
)

# span key -> (module, attribute) targets. A key's layer is its prefix.
SPANS: dict[str, list[tuple[str, str]]] = {
    **{
        f"inequalities.{fn}": [("harness", fn), ("cli", fn)]
        for fn in INEQUALITY_FUNCTIONS
    },
    "measures.renyi_entropy": [
        ("measures", "renyi_entropy"),
        ("inequalities", "renyi_entropy"),
        ("cli", "renyi_entropy"),
    ],
    "measures.shannon_entropy": [
        ("measures", "shannon_entropy"),
        ("inequalities", "shannon_entropy"),
        ("cli", "shannon_entropy"),
    ],
    "measures.logsumexp": [("measures", "logsumexp"), ("inequalities", "logsumexp")],
    "measures.partition_distribution": [
        ("measures", "partition_distribution"),
        ("harness", "partition_distribution"),
        ("inequalities", "partition_distribution"),
        ("cli", "partition_distribution"),
    ],
    "measures.distribution_from_values": [
        ("harness", "distribution_from_values"),
        ("inequalities", "distribution_from_values"),
        ("cli", "distribution_from_values"),
    ],
    "measures.distribution_stats": [
        ("inequalities", "distribution_stats"),
        ("cli", "distribution_stats"),
    ],
    # One entry point per functional today; a unified functional_values()
    # is counted under the same key once it exists.
    "measures.functional_values": [
        (module, fn)
        for module in ("harness", "inequalities", "cli")
        for fn in (
            "functional_values",
            "linear_functional_values",
            "exponential_functional_values",
        )
    ],
    "orbits.vertex_orbits": [
        ("orbits", "vertex_orbits"),
        ("harness", "vertex_orbits"),
        ("inequalities", "vertex_orbits"),
        ("cli", "vertex_orbits"),
    ],
    "graph.distance_matrix": [
        ("harness", "distance_matrix"),
        ("orbits", "distance_matrix"),
        ("measures", "distance_matrix"),
        ("inequalities", "distance_matrix"),
    ],
    "graph.sphere_counts": [("measures", "sphere_counts_matrix")],
    "graph.generate": [
        ("harness", "generate_graph"),
        ("harness", "generate_gnp_connected"),
        ("inequalities", "generate_graph"),
        ("cli", "generate_graph"),
    ],
    "graph.parse_edge_list": [("graph", "parse_edge_list"), ("cli", "parse_edge_list")],
    "harness.run_sweep": [("harness", "run_sweep"), ("cli", "run_sweep")],
    "harness.summarize_json": [("harness", "summarize_report")],
    "cli.dispatch": [("cli", "dispatch")],
}

# count key -> (module, class or None, attribute): calls counted, no span.
COUNTS: dict[str, tuple[str, str | None, str]] = {
    "measures.distribution_validations": ("measures", "Distribution", "__post_init__"),
    "graph.is_connected": ("graph", "Graph", "is_connected"),
    # Reached through generate_graph("gnp") from the CLI; the harness calls
    # it directly, which the graph.generate span sees.
    "graph.gnp_draws": ("graph", None, "generate_gnp_connected"),
}


def _module(name: str):
    return importlib.import_module(f"graphent.{name}")


class Tracer:
    """Installs the hooks; accumulates span totals while installed."""

    def __init__(self):
        self.total = defaultdict(float)
        self.calls = defaultdict(int)
        self.max_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.gnp_draws = 0
        self.gnp_redraws = 0
        self.present: set[str] = set()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, make) -> bool:
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            return False
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        return True

    def _span(self, key: str, original):
        layer = key.split(".", 1)[0]
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.total[key] += elapsed
                self.calls[key] += 1
                self.self_s[layer] += elapsed - frame[0]
                if elapsed > self.max_s[key]:
                    self.max_s[key] = elapsed
            if key == "graph.generate" and isinstance(result, tuple):
                self._count_gnp(result)
            return result

        return wrapper

    def _count_gnp(self, result) -> None:
        self.gnp_draws += 1
        self.gnp_redraws += int(result[1])

    def _counter(self, key: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            result = original(*args, **kwargs)
            if key == "graph.gnp_draws":
                self._count_gnp(result)
            return result

        return wrapper

    def install(self) -> None:
        for key, targets in SPANS.items():
            for module, attr in targets:
                owner = _module(module)
                if self._replace(owner, attr, functools.partial(self._span, key)):
                    self.present.add(key)
        for key, (module, cls, attr) in COUNTS.items():
            owner = _module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            if self._replace(owner, attr, functools.partial(self._counter, key)):
                self.present.add(key)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics as (value, unit), per traced pass, and the names of
    those whose hook was not found (reported as 0)."""
    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(name, unit, key, value):
        if key is not None and key not in tracer.present:
            absent.append(name)
            value = 0.0
        out[name] = (float(value), unit)

    per = 1.0 / passes
    for fn in INEQUALITY_FUNCTIONS:
        key = f"inequalities.{fn}"
        put(f"{key}_s", "s", key, tracer.total[key] * per)
        put(f"{key}_calls", "count", key, tracer.calls[key] * per)
    for key in ("measures.logsumexp", "measures.renyi_entropy", "measures.functional_values"):
        put(f"{key}_calls", "count", key, tracer.calls[key] * per)
        put(f"{key}_s", "s", key, tracer.total[key] * per)
    key = "measures.distribution_from_values"
    put(f"{key}_calls", "count", key, tracer.calls[key] * per)
    key = "measures.distribution_validations"
    put(key, "count", key, tracer.calls[key] * per)

    key = "orbits.vertex_orbits"
    put(f"{key}_s", "s", key, tracer.total[key] * per)
    put(f"{key}_calls", "count", key, tracer.calls[key] * per)
    put(f"{key}_max_ms", "ms", key, tracer.max_s[key] * 1e3)

    for key in ("graph.distance_matrix", "graph.sphere_counts"):
        put(f"{key}_s", "s", key, tracer.total[key] * per)
        put(f"{key}_calls", "count", key, tracer.calls[key] * per)
    put("graph.is_connected_calls", "count", "graph.is_connected",
        tracer.calls["graph.is_connected"] * per)
    put("graph.generate_s", "s", "graph.generate", tracer.total["graph.generate"] * per)
    put("graph.gnp_redraws", "count", "graph.generate", tracer.gnp_redraws * per)
    drawn = tracer.gnp_draws + tracer.gnp_redraws
    put("graph.gnp_accept_ratio", "frac", "graph.generate",
        tracer.gnp_draws / drawn if drawn else 0.0)
    put("graph.parse_edge_list_s", "s", "graph.parse_edge_list",
        tracer.total["graph.parse_edge_list"] * per)

    put("harness.summarize_json_s", "s", "harness.summarize_json",
        tracer.total["harness.summarize_json"] * per)
    for layer in LAYERS[:-1]:
        put(f"{layer}.self_s", "s", None, tracer.self_s[layer] * per)
    return out, absent
