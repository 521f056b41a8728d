"""Seeded graph corpora and full-grid sweeps over the bound catalog.

A sweep walks (graph, family, alpha, theorem, variant) cells in a fixed
order, emitting exactly one report per cell. Randomness is derived per cell
coordinate from the config seed, so scheduling cannot change sampled
coefficients and equal configs reproduce byte-identical canonical JSON
(runtime is kept out of the canonical form).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DomainError, GraphEntropyError
from .graph import Graph, distance_matrix, generate_gnp_connected, generate_graph
from .inequalities import (
    BoundReport,
    _combine,
    _Combination,
    _conn_report,
    _thm3_report,
    _thm6_report,
    jensen_gap_bound,
    ordering_bound,
    thm1_refined_bound,
    thm4_scaled_dominance,
    thm5_additive_dominance,
)
from .measures import (
    Distribution,
    FunctionalSpec,
    FunctionalValues,
    distribution_from_values,
    exponential_functional_values,
    linear_functional_values,
    partition_distribution,
)
from .orbits import ORBIT_CAP, vertex_orbits

DEFAULT_ALPHA_GRID = (0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0)

ALL_THEOREMS = (
    "ordering",
    "jensen",
    "thm1",
    "thm1_eps",
    "thm3",
    "thm4",
    "thm4_cor",
    "thm5",
    "thm6",
    "thm6_avg",
    "conn_linear",
    "conn_exp",
)

# Theorems with a meaningful literal/corrected split; the rest emit "na".
VARIANT_THEOREMS = frozenset(
    {"thm1", "thm1_eps", "thm5", "thm6", "thm6_avg", "conn_linear", "conn_exp"}
)

# Theorems needing a functional family (skipped for the orbit family).
FUNCTIONAL_THEOREMS = frozenset(
    {"thm3", "thm4", "thm4_cor", "thm5", "thm6", "thm6_avg", "conn_linear", "conn_exp"}
)

EXEMPLAR_CAP = 5

_BATTERY = (
    ("star", 3),
    ("path", 2),
    ("cycle", 3),
    ("wheel", 4),
    ("complete", 2),
)

# Fixed tags keeping per-cell RNG streams disjoint.
_TAG_GNP = 101
_TAG_FUNCTIONAL = 7
_PURPOSE_COEFFS_A = 0
_PURPOSE_COEFFS_B = 1
_PURPOSE_WEIGHTS = 2

_PHI_FLOOR = 0.01


@dataclass(frozen=True)
class FunctionalTemplate:
    """Sampling rule for one functional family in a sweep."""

    kind: str
    c_range: tuple[float, float] = (0.5, 2.0)
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "exponential"):
            raise DomainError(f"unknown functional kind {self.kind!r}")
        lo, hi = self.c_range
        if not 0.0 < lo <= hi:
            raise DomainError(f"coefficient range must be positive, got {self.c_range}")
        object.__setattr__(self, "c_range", (float(lo), float(hi)))
        if self.kind == "exponential":
            if self.beta is None or self.beta <= 0.0:
                raise DomainError("exponential template requires beta > 0")
        elif self.beta is not None:
            raise DomainError("beta only applies to exponential templates")

    @property
    def label(self) -> str:
        if self.kind == "exponential":
            return f"exponential_b{self.beta:g}"
        return "linear"

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "c_range": list(self.c_range), "beta": self.beta}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FunctionalTemplate":
        return cls(
            kind=data["kind"],
            c_range=tuple(data.get("c_range", (0.5, 2.0))),
            beta=data.get("beta"),
        )


DEFAULT_TEMPLATES = (
    FunctionalTemplate("linear"),
    FunctionalTemplate("exponential", beta=0.5),
    FunctionalTemplate("exponential", beta=2.0),
)


@dataclass(frozen=True)
class SweepConfig:
    seed: int
    n_range: tuple[int, int]
    edge_probabilities: tuple[float, ...]
    trials_per_cell: int
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    functional_specs: tuple[FunctionalTemplate, ...] = DEFAULT_TEMPLATES
    variants: tuple[str, ...] = ("literal", "corrected")
    theorems: tuple[str, ...] = ALL_THEOREMS

    def __post_init__(self):
        lo, hi = self.n_range
        if not 1 <= lo <= hi:
            raise DomainError(f"bad n_range {self.n_range}")
        if hi > ORBIT_CAP:
            raise DomainError(f"n_range exceeds the exact-orbit cap {ORBIT_CAP}")
        if self.trials_per_cell < 1:
            raise DomainError("trials_per_cell must be >= 1")
        if any(a <= 0.0 or a == 1.0 for a in self.alpha_grid):
            raise DomainError("alpha grid must be positive and exclude 1")
        if any(not 0.0 <= p <= 1.0 for p in self.edge_probabilities):
            raise DomainError("edge probabilities must lie in [0, 1]")
        for v in self.variants:
            if v not in ("literal", "corrected"):
                raise DomainError(f"unknown variant {v!r}")
        for t in self.theorems:
            if t not in ALL_THEOREMS:
                raise DomainError(f"unknown theorem id {t!r}")
        object.__setattr__(self, "n_range", (int(lo), int(hi)))
        object.__setattr__(
            self, "edge_probabilities", tuple(float(p) for p in self.edge_probabilities)
        )
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "theorems", tuple(self.theorems))
        object.__setattr__(self, "functional_specs", tuple(self.functional_specs))

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "n_range": list(self.n_range),
            "edge_probabilities": list(self.edge_probabilities),
            "trials_per_cell": self.trials_per_cell,
            "alpha_grid": list(self.alpha_grid),
            "functional_specs": [t.to_dict() for t in self.functional_specs],
            "variants": list(self.variants),
            "theorems": list(self.theorems),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepConfig":
        kwargs: dict[str, Any] = {
            "seed": int(data["seed"]),
            "n_range": tuple(data["n_range"]),
            "edge_probabilities": tuple(data["edge_probabilities"]),
            "trials_per_cell": int(data["trials_per_cell"]),
        }
        if "alpha_grid" in data:
            kwargs["alpha_grid"] = tuple(data["alpha_grid"])
        if "functional_specs" in data:
            kwargs["functional_specs"] = tuple(
                FunctionalTemplate.from_dict(t) for t in data["functional_specs"]
            )
        if "variants" in data:
            kwargs["variants"] = tuple(data["variants"])
        if "theorems" in data:
            kwargs["theorems"] = tuple(data["theorems"])
        return cls(**kwargs)


@dataclass
class SweepReport:
    config: SweepConfig
    cells: list[dict[str, Any]]
    aggregates: dict[str, dict[str, Any]]
    exemplars: dict[str, list[dict[str, Any]]]
    runtime_seconds: float
    corpus_size: int
    gnp_redraws: int

    def to_canonical_dict(self) -> dict[str, Any]:
        """Stable-keyed document; runtime and corpus stats stay out of it."""
        return {
            "config": self.config.to_dict(),
            "cells": self.cells,
            "aggregates": self.aggregates,
            "exemplars": self.exemplars,
        }


def _corpus_with_stats(cfg: SweepConfig) -> tuple[list[tuple[str, Graph]], int]:
    lo, hi = cfg.n_range
    corpus: list[tuple[str, Graph]] = []
    for n in range(lo, hi + 1):
        for kind, minimum in _BATTERY:
            if n >= minimum:
                corpus.append((f"{kind}_{n}", generate_graph(kind, n)))
    redraws = 0
    for n in range(lo, hi + 1):
        for pi, p in enumerate(cfg.edge_probabilities):
            for t in range(cfg.trials_per_cell):
                seed = np.random.SeedSequence([cfg.seed, _TAG_GNP, n, pi, t])
                g, drawn = generate_gnp_connected(n, p, seed)
                redraws += drawn
                corpus.append((f"gnp_n{n}_p{p:g}_t{t}", g))
    return corpus, redraws


def generate_corpus(cfg: SweepConfig) -> list[tuple[str, Graph]]:
    """Deterministic corpus: fixed class battery plus connected gnp samples."""
    return _corpus_with_stats(cfg)[0]


def _sample_spec(
    template: FunctionalTemplate, eta: int, cfg_seed: int, gi: int, ti: int, purpose: int
) -> FunctionalSpec:
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg_seed, _TAG_FUNCTIONAL, gi, ti, purpose])
    )
    lo, hi = template.c_range
    coeffs = tuple(float(c) for c in rng.uniform(lo, hi, size=eta))
    return FunctionalSpec(kind=template.kind, coeffs=coeffs, beta=template.beta)


def _evaluate_values(g: Graph, spec: FunctionalSpec, distances) -> FunctionalValues:
    if spec.kind == "linear":
        return linear_functional_values(g, spec, distances=distances)
    return exponential_functional_values(g, spec, distances=distances)


def _combine_values(a: FunctionalValues, b: FunctionalValues) -> FunctionalValues:
    """Pointwise sum f_a + f_b, in log space."""
    return FunctionalValues(log_values=np.logaddexp(a.log_values, b.log_values))


def _cell(
    report: BoundReport, theorem: str, graph_id: str, family: str
) -> dict[str, Any]:
    """Cell dict keyed by the sweep grid's theorem id (which distinguishes
    e.g. thm4's psi and corollary modes on top of the operation's own id)."""
    doc = report.to_dict()
    doc["theorem"] = theorem
    params = doc.pop("params")
    params["family"] = family
    params["direction"] = doc.pop("direction")
    params["tolerance"] = doc.pop("tolerance")
    doc["graph_id"] = graph_id
    doc["params"] = params
    # fixed key order for canonical JSON
    return {
        "theorem": doc["theorem"],
        "variant": doc["variant"],
        "alpha": doc["alpha"],
        "graph_id": doc["graph_id"],
        "holds": doc["holds"],
        "precondition_met": doc["precondition_met"],
        "lhs": doc["lhs"],
        "bound": doc["bound"],
        "slack": doc["slack"],
        "params": params,
    }


@dataclass
class _FamilyData:
    """One (graph, family) row: its distribution plus the alpha-independent
    functionals its cells read, built once here instead of once per cell."""

    label: str
    dist: Distribution | None
    fv: FunctionalValues | None = None
    fv_second: FunctionalValues | None = None
    spec: FunctionalSpec | None = None
    # f + f_second, the dominating functional of thm4_cor
    dominating: FunctionalValues | None = None
    # c1 f + c2 f_second with sampled weights, for thm6/thm6_avg
    combination: _Combination | None = None
    error: str | None = None


def _family_rows(
    cfg: SweepConfig, g: Graph, gi: int, distances, pdist: Distribution
) -> list[_FamilyData]:
    rows = [_FamilyData(label="orbit", dist=pdist)]
    for ti, template in enumerate(cfg.functional_specs):
        try:
            spec_a = _sample_spec(
                template, distances.eta, cfg.seed, gi, ti, _PURPOSE_COEFFS_A
            )
            spec_b = _sample_spec(
                template, distances.eta, cfg.seed, gi, ti, _PURPOSE_COEFFS_B
            )
            fv_a = _evaluate_values(g, spec_a, distances)
            fv_b = _evaluate_values(g, spec_b, distances)
        except GraphEntropyError as exc:
            rows.append(_FamilyData(label=template.label, dist=None, error=str(exc)))
            continue
        rng_w = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _TAG_FUNCTIONAL, gi, ti, _PURPOSE_WEIGHTS])
        )
        w = rng_w.uniform(0.5, 2.0, size=2)
        rows.append(
            _FamilyData(
                label=template.label,
                dist=distribution_from_values(fv_a),
                fv=fv_a,
                fv_second=fv_b,
                spec=spec_a,
                dominating=_combine_values(fv_a, fv_b),
                combination=_combine(fv_a, fv_b, float(w[0]), float(w[1])),
            )
        )
    return rows


def _error_cell(
    theorem: str, variant: str, alpha: float, graph_id: str, family: str, reason: str
) -> dict[str, Any]:
    """Cell recording an instance that could not be evaluated."""
    return {
        "theorem": theorem,
        "variant": variant,
        "alpha": alpha,
        "graph_id": graph_id,
        "holds": None,
        "precondition_met": False,
        "lhs": None,
        "bound": None,
        "slack": None,
        "params": {"family": family, "reason": reason},
    }


def _reports_for_cell(
    theorem: str,
    variant: str,
    part,
    pdist: Distribution,
    fam: _FamilyData,
    alpha: float,
    eta: int,
) -> BoundReport | None:
    if theorem == "ordering":
        return ordering_bound(fam.dist, alpha)
    if theorem == "jensen":
        return jensen_gap_bound(fam.dist, alpha)
    if theorem == "thm1":
        return thm1_refined_bound(fam.dist, alpha, variant, use_epsilon=False)
    if theorem == "thm1_eps":
        return thm1_refined_bound(fam.dist, alpha, variant, use_epsilon=True)
    if fam.fv is None:
        return None
    # Corpus graphs with functional values are connected and share one
    # vertex set, so the evaluators below skip the wrappers' checks.
    if theorem == "thm3":
        return _thm3_report(part, pdist, fam.fv, alpha, 2.0)
    if theorem == "thm4":
        d2 = distribution_from_values(fam.fv_second)
        psi = float(np.max(fam.dist.p / d2.p))
        return thm4_scaled_dominance(fam.dist, d2, psi, alpha)
    if theorem == "thm4_cor":
        d2 = distribution_from_values(fam.dominating)
        totals = (math.exp(fam.fv.total_log), math.exp(fam.dominating.total_log))
        return thm4_scaled_dominance(
            fam.dist, d2, None, alpha, derive_psi_from=totals
        )
    if theorem == "thm5":
        d2 = distribution_from_values(fam.fv_second)
        phi = float(np.max(fam.dist.p - d2.p))
        if phi <= 0.0:
            phi = _PHI_FLOOR
        return thm5_additive_dominance(fam.dist, d2, phi, alpha, variant)
    if theorem in ("thm6", "thm6_avg"):
        return _thm6_report(
            fam.combination, alpha, variant, theorem == "thm6_avg", 2.0
        )
    if theorem == "conn_linear":
        if fam.spec.kind != "linear":
            return None
        return _conn_report(fam.spec, fam.fv, eta, alpha, variant)
    if theorem == "conn_exp":
        if fam.spec.kind != "exponential":
            return None
        return _conn_report(fam.spec, fam.fv, eta, alpha, variant)
    raise DomainError(f"unknown theorem id {theorem!r}")


def _aggregate(cells: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Reduce cells to per theorem/variant tallies.

    mean_slack uses math.fsum so the result is independent of cell order.
    """
    buckets: dict[str, list[dict[str, Any]]] = {}
    for cell in cells:
        buckets.setdefault(f"{cell['theorem']}|{cell['variant']}", []).append(cell)
    out: dict[str, dict[str, Any]] = {}
    for key, group in buckets.items():
        held = sum(1 for c in group if c["holds"] is True)
        violated = sum(1 for c in group if c["holds"] is False)
        not_applicable = sum(1 for c in group if c["holds"] is None)
        slacks = [c["slack"] for c in group if c["holds"] is not None]
        out[key] = {
            "checked": len(group),
            "held": held,
            "violated": violated,
            "not_applicable": not_applicable,
            "min_slack": min(slacks) if slacks else None,
            "mean_slack": math.fsum(slacks) / len(slacks) if slacks else None,
        }
    return out


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Evaluate every applicable (graph, family, alpha, theorem, variant) cell."""
    start = time.perf_counter()
    corpus, redraws = _corpus_with_stats(cfg)
    graphs = dict(corpus)
    cells: list[dict[str, Any]] = []
    exemplars: dict[str, list[dict[str, Any]]] = {}
    for gi, (graph_id, g) in enumerate(corpus):
        distances = distance_matrix(g)
        part = vertex_orbits(g)
        pdist = partition_distribution(part)
        for fam in _family_rows(cfg, g, gi, distances, pdist):
            for alpha in cfg.alpha_grid:
                for theorem in cfg.theorems:
                    if theorem in FUNCTIONAL_THEOREMS and fam.fv is None and fam.error is None:
                        continue
                    variants = (
                        cfg.variants if theorem in VARIANT_THEOREMS else ("na",)
                    )
                    for variant in variants:
                        if fam.error is not None:
                            cells.append(
                                _error_cell(
                                    theorem, variant, alpha, graph_id,
                                    fam.label, fam.error,
                                )
                            )
                            continue
                        try:
                            report = _reports_for_cell(
                                theorem, variant, part, pdist, fam, alpha,
                                distances.eta,
                            )
                        except GraphEntropyError as exc:
                            cells.append(
                                _error_cell(
                                    theorem, variant, alpha, graph_id,
                                    fam.label, str(exc),
                                )
                            )
                            continue
                        if report is None:
                            continue
                        cell = _cell(report, theorem, graph_id, fam.label)
                        cells.append(cell)
                        if cell["holds"] is False:
                            key = f"{cell['theorem']}|{cell['variant']}"
                            bucket = exemplars.setdefault(key, [])
                            if len(bucket) < EXEMPLAR_CAP:
                                bucket.append(
                                    {
                                        "cell": cell,
                                        "edges": [
                                            list(e)
                                            for e in graphs[graph_id].sorted_edges()
                                        ],
                                    }
                                )
    runtime = time.perf_counter() - start
    return SweepReport(
        config=cfg,
        cells=cells,
        aggregates=_aggregate(cells),
        exemplars=exemplars,
        runtime_seconds=runtime,
        corpus_size=len(corpus),
        gnp_redraws=redraws,
    )


def summarize_report(report: SweepReport, format: str = "json") -> str:
    """Render a sweep report as canonical JSON, aggregate CSV, or a text table."""
    if format == "json":
        return json.dumps(report.to_canonical_dict())
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "theorem",
                "variant",
                "checked",
                "held",
                "violated",
                "not_applicable",
                "min_slack",
                "mean_slack",
            ]
        )
        for key, agg in report.aggregates.items():
            theorem, variant = key.split("|", 1)
            writer.writerow(
                [
                    theorem,
                    variant,
                    agg["checked"],
                    agg["held"],
                    agg["violated"],
                    agg["not_applicable"],
                    "" if agg["min_slack"] is None else repr(agg["min_slack"]),
                    "" if agg["mean_slack"] is None else repr(agg["mean_slack"]),
                ]
            )
        return buf.getvalue()
    if format == "text":
        lines = [
            f"corpus: {report.corpus_size} graphs"
            f" (gnp redraws: {report.gnp_redraws}),"
            f" cells: {len(report.cells)},"
            f" runtime: {report.runtime_seconds:.2f}s",
            "",
            f"{'theorem':<14} {'variant':<10} {'checked':>8} {'held':>8} "
            f"{'violated':>9} {'n/a':>6} {'min_slack':>14} {'mean_slack':>14}",
        ]
        for key, agg in report.aggregates.items():
            theorem, variant = key.split("|", 1)
            min_s = "-" if agg["min_slack"] is None else f"{agg['min_slack']:.6g}"
            mean_s = "-" if agg["mean_slack"] is None else f"{agg['mean_slack']:.6g}"
            lines.append(
                f"{theorem:<14} {variant:<10} {agg['checked']:>8} {agg['held']:>8} "
                f"{agg['violated']:>9} {agg['not_applicable']:>6} {min_s:>14} {mean_s:>14}"
            )
        if report.exemplars:
            lines.append("")
            lines.append("violation exemplars:")
            for key, items in report.exemplars.items():
                first = items[0]["cell"]
                lines.append(
                    f"  {key}: {len(items)} kept; first on {first['graph_id']} "
                    f"alpha={first['alpha']} slack={first['slack']:.6g}"
                )
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown report format {format!r}")
