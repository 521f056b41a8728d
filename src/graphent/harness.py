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
from dataclasses import dataclass, replace
from typing import Any, Callable

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
    functional_values,
    partition_distribution,
)
from .orbits import ORBIT_CAP, OrbitPartition, vertex_orbits

DEFAULT_ALPHA_GRID = (0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0)

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


@dataclass
class _FamilyData:
    """One (graph, family) row: its distribution plus the alpha-independent
    values its cells read, built once here instead of once per cell."""

    label: str
    dist: Distribution | None
    part: OrbitPartition
    # partition_distribution(part)
    pdist: Distribution
    # the graph's diameter
    eta: int
    fv: FunctionalValues | None = None
    fv_second: FunctionalValues | None = None
    spec: FunctionalSpec | None = None
    # f + f_second, the dominating functional of thm4_cor
    dominating: FunctionalValues | None = None
    # c1 f + c2 f_second with sampled weights, for thm6/thm6_avg
    combination: _Combination | None = None
    error: str | None = None


# Evaluators take (row, alpha, variant). Corpus graphs with functional
# values are connected and share one vertex set, so they skip the public
# wrappers' checks where a private report builder exists.


def _thm4(row: _FamilyData, alpha: float, variant: str) -> BoundReport:
    d2 = distribution_from_values(row.fv_second)
    psi = float(np.max(row.dist.p / d2.p))
    return thm4_scaled_dominance(row.dist, d2, psi, alpha)


def _thm4_cor(row: _FamilyData, alpha: float, variant: str) -> BoundReport:
    d2 = distribution_from_values(row.dominating)
    totals = (row.fv.total, row.dominating.total)
    return thm4_scaled_dominance(row.dist, d2, None, alpha, derive_psi_from=totals)


def _thm5(row: _FamilyData, alpha: float, variant: str) -> BoundReport:
    d2 = distribution_from_values(row.fv_second)
    phi = float(np.max(row.dist.p - d2.p))
    if phi <= 0.0:
        phi = _PHI_FLOOR
    return thm5_additive_dominance(row.dist, d2, phi, alpha, variant)


def _conn(kind: str) -> Callable[[_FamilyData, float, str], BoundReport | None]:
    """The connected-graph interval, on rows whose functional is `kind`."""

    def evaluate(row: _FamilyData, alpha: float, variant: str) -> BoundReport | None:
        if row.spec.kind != kind:
            return None
        return _conn_report(row.spec, row.fv, row.eta, alpha, variant)

    return evaluate


@dataclass(frozen=True)
class Theorem:
    """One sweep id of the bound catalog.

    check is the `graphent check` subcommand that evaluates it. variants
    marks a literal/corrected split (otherwise its one variant is "na"),
    functional an id that needs a functional family (so none on the orbit
    row), log_base a check taking --log-base. evaluate builds the report
    for one row, or None when the id does not apply to that row.
    """

    id: str
    check: str
    evaluate: Callable[[_FamilyData, float, str], BoundReport | None]
    variants: bool = False
    functional: bool = False
    log_base: bool = False


THEOREMS = (
    Theorem("ordering", "ordering",
            lambda row, alpha, variant: ordering_bound(row.dist, alpha)),
    Theorem("jensen", "jensen",
            lambda row, alpha, variant: jensen_gap_bound(row.dist, alpha)),
    Theorem("thm1", "thm1",
            lambda row, alpha, variant: thm1_refined_bound(row.dist, alpha, variant),
            variants=True),
    Theorem("thm1_eps", "thm1",
            lambda row, alpha, variant: thm1_refined_bound(
                row.dist, alpha, variant, use_epsilon=True),
            variants=True),
    Theorem("thm3", "thm3",
            lambda row, alpha, variant: _thm3_report(
                row.part, row.pdist, row.fv, alpha, 2.0),
            functional=True, log_base=True),
    Theorem("thm4", "thm4", _thm4, functional=True, log_base=True),
    Theorem("thm4_cor", "thm4", _thm4_cor, functional=True, log_base=True),
    Theorem("thm5", "thm5", _thm5, variants=True, functional=True, log_base=True),
    Theorem("thm6", "thm6",
            lambda row, alpha, variant: _thm6_report(
                row.combination, alpha, variant, False, 2.0),
            variants=True, functional=True, log_base=True),
    Theorem("thm6_avg", "thm6",
            lambda row, alpha, variant: _thm6_report(
                row.combination, alpha, variant, True, 2.0),
            variants=True, functional=True, log_base=True),
    Theorem("conn_linear", "conn", _conn("linear"), variants=True, functional=True),
    Theorem("conn_exp", "conn", _conn("exponential"), variants=True, functional=True),
)

ALL_THEOREMS = tuple(t.id for t in THEOREMS)


@dataclass(frozen=True)
class FunctionalTemplate:
    """Sampling rule for one functional family in a sweep."""

    kind: str
    c_range: tuple[float, float] = (0.5, 2.0)
    beta: float | None = None

    def __post_init__(self):
        FunctionalSpec(kind=self.kind, beta=self.beta)  # checks kind and beta
        lo, hi = self.c_range
        if not 0.0 < lo <= hi:
            raise DomainError(f"coefficient range must be positive, got {self.c_range}")
        object.__setattr__(self, "c_range", (float(lo), float(hi)))

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


def _family_rows(
    cfg: SweepConfig, g: Graph, gi: int, distances, part: OrbitPartition
) -> list[_FamilyData]:
    pdist = partition_distribution(part)
    orbit = _FamilyData(
        label="orbit", dist=pdist, part=part, pdist=pdist, eta=distances.eta
    )
    rows = [orbit]
    for ti, template in enumerate(cfg.functional_specs):
        try:
            spec_a = _sample_spec(
                template, distances.eta, cfg.seed, gi, ti, _PURPOSE_COEFFS_A
            )
            spec_b = _sample_spec(
                template, distances.eta, cfg.seed, gi, ti, _PURPOSE_COEFFS_B
            )
            fv_a = functional_values(g, spec_a, distances)
            fv_b = functional_values(g, spec_b, distances)
        except GraphEntropyError as exc:
            rows.append(replace(orbit, label=template.label, dist=None, error=str(exc)))
            continue
        rng_w = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _TAG_FUNCTIONAL, gi, ti, _PURPOSE_WEIGHTS])
        )
        w = rng_w.uniform(0.5, 2.0, size=2)
        rows.append(
            replace(
                orbit,
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
    by_id = {t.id: t for t in THEOREMS}
    theorems = [by_id[t] for t in cfg.theorems]
    cells: list[dict[str, Any]] = []
    exemplars: dict[str, list[dict[str, Any]]] = {}
    for gi, (graph_id, g) in enumerate(corpus):
        distances = distance_matrix(g)
        part = vertex_orbits(g)
        for fam in _family_rows(cfg, g, gi, distances, part):
            for alpha in cfg.alpha_grid:
                for theorem in theorems:
                    if theorem.functional and fam.fv is None and fam.error is None:
                        continue
                    for variant in cfg.variants if theorem.variants else ("na",):
                        if fam.error is not None:
                            cells.append(
                                _error_cell(
                                    theorem.id, variant, alpha, graph_id,
                                    fam.label, fam.error,
                                )
                            )
                            continue
                        try:
                            report = theorem.evaluate(fam, alpha, variant)
                        except GraphEntropyError as exc:
                            cells.append(
                                _error_cell(
                                    theorem.id, variant, alpha, graph_id,
                                    fam.label, str(exc),
                                )
                            )
                            continue
                        if report is None:
                            continue
                        cell = _cell(report, theorem.id, graph_id, fam.label)
                        cells.append(cell)
                        if cell["holds"] is False:
                            key = f"{cell['theorem']}|{cell['variant']}"
                            bucket = exemplars.setdefault(key, [])
                            if len(bucket) < EXEMPLAR_CAP:
                                bucket.append(
                                    {
                                        "cell": cell,
                                        "edges": [list(e) for e in g.sorted_edges()],
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
