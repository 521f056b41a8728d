"""Seeded graph corpora and full-grid sweeps over the bound catalog.

A sweep walks (graph, family, alpha, theorem, variant) cells in a fixed
order, emitting exactly one report per cell; each (graph, family, theorem,
variant) column is evaluated over the whole alpha grid in one call.
Randomness is derived per cell coordinate from the config seed, so
scheduling cannot change sampled coefficients and equal configs reproduce
byte-identical canonical JSON (runtime is kept out of the canonical form).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from .errors import DomainError, GraphEntropyError
from .graph import (
    GNP_MAX_REDRAWS,
    Graph,
    distance_matrix,
    generate_gnp_connected,
    generate_graph,
)
from .inequalities import (
    VARIANTS,
    Column,
    Outcome,
    _check_alpha,
    _combine,
    _Combination,
    _conn_column,
    _jensen_column,
    _ordering_column,
    _thm1_column,
    _thm3_column,
    _thm4_column,
    _thm5_column,
    _thm6_column,
)
from .measures import (
    FUNCTIONAL_KINDS,
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
    # "orbit" or the template's functional kind; picks the row's theorems
    kind: str
    dist: Distribution | None
    part: OrbitPartition | None
    # partition_distribution(part)
    pdist: Distribution | None
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


# Evaluators take (row, alphas, variant) and call the theorem's column core
# once for the whole grid. Corpus graphs with functional values are
# connected and share one vertex set, and the config has checked every
# alpha, so the public operations' input checks are skipped.


def _thm4(row: _FamilyData, alphas: Sequence[float], variant: str) -> Column:
    d2 = distribution_from_values(row.fv_second)
    psi = float(np.max(row.dist.p / d2.p))
    return _thm4_column(row.dist, d2, psi, None, alphas, 2.0)


def _thm4_cor(row: _FamilyData, alphas: Sequence[float], variant: str) -> Column:
    d2 = distribution_from_values(row.dominating)
    totals = (row.fv.total, row.dominating.total)
    return _thm4_column(row.dist, d2, None, totals, alphas, 2.0)


def _thm5(row: _FamilyData, alphas: Sequence[float], variant: str) -> Column:
    d2 = distribution_from_values(row.fv_second)
    phi = float(np.max(row.dist.p - d2.p))
    if phi <= 0.0:
        phi = _PHI_FLOOR
    return _thm5_column(row.dist, d2, phi, alphas, variant, 2.0)


def _conn(row: _FamilyData, alphas: Sequence[float], variant: str) -> Column:
    return _conn_column(row.spec, row.fv, row.eta, alphas, variant)


ROW_KINDS = ("orbit",) + FUNCTIONAL_KINDS


@dataclass(frozen=True)
class Theorem:
    """One sweep id of the bound catalog.

    check is the `graphent check` subcommand that evaluates it. evaluate
    runs its column core on one row over the alpha grid, one outcome per
    alpha; kinds are the row kinds it applies to,
    so a row of another kind emits no cell for it. variants marks a
    literal/corrected split (otherwise its one variant is "na"), log_base
    a check taking --log-base.
    """

    id: str
    check: str
    evaluate: Callable[[_FamilyData, Sequence[float], str], Column]
    kinds: tuple[str, ...] = ROW_KINDS
    variants: bool = False
    log_base: bool = False


THEOREMS = (
    Theorem("ordering", "ordering",
            lambda row, alphas, variant: _ordering_column(row.dist, alphas)),
    Theorem("jensen", "jensen",
            lambda row, alphas, variant: _jensen_column(row.dist, alphas)),
    Theorem("thm1", "thm1",
            lambda row, alphas, variant: _thm1_column(
                row.dist, alphas, variant, False),
            variants=True),
    Theorem("thm1_eps", "thm1",
            lambda row, alphas, variant: _thm1_column(
                row.dist, alphas, variant, True),
            variants=True),
    Theorem("thm3", "thm3",
            lambda row, alphas, variant: _thm3_column(
                row.part, row.pdist, row.fv, alphas, 2.0),
            FUNCTIONAL_KINDS, log_base=True),
    Theorem("thm4", "thm4", _thm4, FUNCTIONAL_KINDS, log_base=True),
    Theorem("thm4_cor", "thm4", _thm4_cor, FUNCTIONAL_KINDS, log_base=True),
    Theorem("thm5", "thm5", _thm5, FUNCTIONAL_KINDS, variants=True, log_base=True),
    Theorem("thm6", "thm6",
            lambda row, alphas, variant: _thm6_column(
                row.combination, alphas, variant, False, 2.0),
            FUNCTIONAL_KINDS, variants=True, log_base=True),
    Theorem("thm6_avg", "thm6",
            lambda row, alphas, variant: _thm6_column(
                row.combination, alphas, variant, True, 2.0),
            FUNCTIONAL_KINDS, variants=True, log_base=True),
    Theorem("conn_linear", "conn", _conn, ("linear",), variants=True),
    Theorem("conn_exp", "conn", _conn, ("exponential",), variants=True),
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
        lo, hi = (float(c) for c in self.c_range)
        if not 0.0 < lo <= hi < math.inf:
            raise DomainError(
                f"coefficient range must be positive and finite, got {self.c_range}"
            )
        object.__setattr__(self, "c_range", (lo, hi))

    @property
    def label(self) -> str:
        if self.kind == "exponential":
            return f"exponential_b{self.beta:g}"
        return "linear"


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
    functional_specs: tuple[FunctionalTemplate, ...] = field(
        default=DEFAULT_TEMPLATES, metadata={"item": FunctionalTemplate}
    )
    variants: tuple[str, ...] = VARIANTS
    theorems: tuple[str, ...] = ALL_THEOREMS

    def __post_init__(self):
        lo, hi = (_whole(n, "n_range") for n in self.n_range)
        if not 1 <= lo <= hi:
            raise DomainError(f"bad n_range {self.n_range}")
        if hi > ORBIT_CAP:
            raise DomainError(f"n_range exceeds the exact-orbit cap {ORBIT_CAP}")
        trials = _whole(self.trials_per_cell, "trials_per_cell")
        if trials < 1:
            raise DomainError("trials_per_cell must be >= 1")
        alpha_grid = tuple(float(a) for a in self.alpha_grid)
        for alpha in alpha_grid:
            _check_alpha(alpha)
        edge_probabilities = tuple(float(p) for p in self.edge_probabilities)
        if any(not 0.0 <= p <= 1.0 for p in edge_probabilities):
            raise DomainError("edge probabilities must lie in [0, 1]")
        for v in self.variants:
            if v not in VARIANTS:
                raise DomainError(f"unknown variant {v!r}")
        for t in self.theorems:
            if t not in ALL_THEOREMS:
                raise DomainError(f"unknown theorem id {t!r}")
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
        object.__setattr__(self, "n_range", (lo, hi))
        object.__setattr__(self, "edge_probabilities", edge_probabilities)
        object.__setattr__(self, "trials_per_cell", trials)
        object.__setattr__(self, "alpha_grid", alpha_grid)
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "theorems", tuple(self.theorems))
        object.__setattr__(self, "functional_specs", tuple(self.functional_specs))

    def to_dict(self) -> dict[str, Any]:
        return _encode(self)

    @classmethod
    def from_dict(cls, data: Any) -> "SweepConfig":
        return _decode(cls, data)


def _whole(value: Any, name: str) -> int:
    """int(value), refusing a float with a fractional part (or no finite
    value) instead of truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _encode(value: Any) -> Any:
    """JSON-ready form of a config value: a dataclass becomes a dict of its
    fields in declaration order, a tuple a list."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(cls: type, data: Any) -> Any:
    """cls(**data) for a JSON object of cls's fields; a field whose metadata
    names an "item" dataclass is a list of those, each decoded in turn.

    A non-object, a missing or unknown field or a value of the wrong shape is
    a DomainError; a GraphEntropyError from cls's own checks passes through.
    """
    name = cls.__name__
    if not isinstance(data, dict):
        raise DomainError(f"{name} must be a JSON object, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise DomainError(f"unknown {name} field(s) {unknown}")
    kwargs = dict(data)
    try:
        for k, v in data.items():
            item = known[k].metadata.get("item")
            if item is not None:
                kwargs[k] = tuple(_decode(item, x) for x in v)
        return cls(**kwargs)
    except GraphEntropyError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed {name}: {exc}") from None


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


def _corpus_with_stats(
    cfg: SweepConfig,
) -> tuple[list[tuple[str, Graph | str]], int]:
    """(graph id, graph) in sweep order, and the total gnp redraws. A gnp
    slot whose draws hit the redraw cap holds the reason instead of a
    graph."""
    lo, hi = cfg.n_range
    corpus: list[tuple[str, Graph | str]] = []
    for n in range(lo, hi + 1):
        for kind, minimum in _BATTERY:
            if n >= minimum:
                corpus.append((f"{kind}_{n}", generate_graph(kind, n)))
    redraws = 0
    for n in range(lo, hi + 1):
        for pi, p in enumerate(cfg.edge_probabilities):
            for t in range(cfg.trials_per_cell):
                seed = np.random.SeedSequence([cfg.seed, _TAG_GNP, n, pi, t])
                try:
                    g, drawn = generate_gnp_connected(n, p, seed)
                except DomainError as exc:
                    g, drawn = str(exc), GNP_MAX_REDRAWS
                redraws += drawn
                corpus.append((f"gnp_n{n}_p{p:g}_t{t}", g))
    return corpus, redraws


def generate_corpus(cfg: SweepConfig) -> list[tuple[str, Graph]]:
    """Deterministic corpus: fixed class battery plus connected gnp samples.

    A gnp slot with no connected sample within the redraw cap is left out.
    """
    return [
        (graph_id, g)
        for graph_id, g in _corpus_with_stats(cfg)[0]
        if isinstance(g, Graph)
    ]


def _sample_spec(
    template: FunctionalTemplate, eta: int, cfg_seed: int, gi: int, ti: int, purpose: int
) -> FunctionalSpec:
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg_seed, _TAG_FUNCTIONAL, gi, ti, purpose])
    )
    lo, hi = template.c_range
    coeffs = tuple(float(c) for c in rng.uniform(lo, hi, size=eta))
    return FunctionalSpec(kind=template.kind, coeffs=coeffs, beta=template.beta)


def _cell(
    theorem: str,
    variant: str,
    alpha: float,
    graph_id: str,
    family: str,
    outcome: Outcome | str,
) -> dict[str, Any]:
    """One sweep cell, in the fixed key order of the canonical JSON.

    theorem is the sweep grid's id (which distinguishes e.g. thm4's psi and
    corollary modes on top of the operation's own id). outcome is the
    evaluated instance, or the reason it could not be evaluated.
    """
    if isinstance(outcome, str):
        holds, met, lhs, bound, slack = None, False, None, None, None
        params = {"family": family, "reason": outcome}
    else:
        _, lhs, bound, direction, met, holds, slack, tolerance, own = outcome
        params = {
            **own,
            "family": family,
            "direction": direction,
            "tolerance": tolerance,
        }
    return {
        "theorem": theorem,
        "variant": variant,
        "alpha": alpha,
        "graph_id": graph_id,
        "holds": holds,
        "precondition_met": met,
        "lhs": lhs,
        "bound": bound,
        "slack": slack,
        "params": params,
    }


def _error_rows(cfg: SweepConfig, reason: str) -> list[_FamilyData]:
    """The rows of a graph whose every cell fails for one reason; each row
    carries its template's kind, so it emits the cells a working row would."""
    orbit = _FamilyData(
        label="orbit", kind="orbit", dist=None, part=None, pdist=None, eta=0,
        error=reason,
    )
    return [orbit] + [
        replace(orbit, label=t.label, kind=t.kind) for t in cfg.functional_specs
    ]


def _family_rows(cfg: SweepConfig, g: Graph, gi: int, distances) -> list[_FamilyData]:
    try:
        part = vertex_orbits(g)
    except GraphEntropyError as exc:
        # every cell of the graph reads the orbits
        return _error_rows(cfg, str(exc))
    pdist = partition_distribution(part)
    orbit = _FamilyData(
        label="orbit", kind="orbit", dist=pdist, part=part, pdist=pdist,
        eta=distances.eta,
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
            dist = distribution_from_values(fv_a)
        except GraphEntropyError as exc:
            rows.append(
                replace(
                    orbit, label=template.label, kind=template.kind, dist=None,
                    error=str(exc),
                )
            )
            continue
        rng_w = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _TAG_FUNCTIONAL, gi, ti, _PURPOSE_WEIGHTS])
        )
        w = rng_w.uniform(0.5, 2.0, size=2)
        rows.append(
            replace(
                orbit,
                label=template.label,
                kind=template.kind,
                dist=dist,
                fv=fv_a,
                fv_second=fv_b,
                spec=spec_a,
                dominating=_combine(fv_a, fv_b, 1.0, 1.0).combined,
                combination=_combine(fv_a, fv_b, float(w[0]), float(w[1])),
            )
        )
    return rows


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


def _column(
    row: _FamilyData, theorem: Theorem, alphas: tuple[float, ...], variant: str
) -> Column:
    """theorem's outcomes on row over the grid; a failed row, or a failure
    that does not depend on alpha, gives the same reason at every alpha."""
    if row.error is not None:
        return [row.error] * len(alphas)
    try:
        return theorem.evaluate(row, alphas, variant)
    except GraphEntropyError as exc:
        return [str(exc)] * len(alphas)


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Evaluate every applicable (graph, family, alpha, theorem, variant) cell."""
    start = time.perf_counter()
    corpus, redraws = _corpus_with_stats(cfg)
    by_id = {t.id: t for t in THEOREMS}
    theorems = [by_id[t] for t in cfg.theorems]
    cells: list[dict[str, Any]] = []
    exemplars: dict[str, list[dict[str, Any]]] = {}
    alphas = cfg.alpha_grid
    for gi, (graph_id, g) in enumerate(corpus):
        if isinstance(g, str):
            rows = _error_rows(cfg, g)
        else:
            rows = _family_rows(cfg, g, gi, distance_matrix(g))
        for fam in rows:
            plan = [
                (theorem, variant)
                for theorem in theorems
                if fam.kind in theorem.kinds
                for variant in (cfg.variants if theorem.variants else ("na",))
            ]
            columns = [
                _column(fam, theorem, alphas, variant) for theorem, variant in plan
            ]
            for ai, alpha in enumerate(alphas):
                for (theorem, variant), column in zip(plan, columns):
                    cell = _cell(
                        theorem.id, variant, alpha, graph_id, fam.label, column[ai]
                    )
                    cells.append(cell)
                    if cell["holds"] is False:
                        key = f"{theorem.id}|{variant}"
                        bucket = exemplars.setdefault(key, [])
                        if len(bucket) < EXEMPLAR_CAP:
                            edges = [list(e) for e in g.sorted_edges()]
                            bucket.append({"cell": cell, "edges": edges})
    runtime = time.perf_counter() - start
    return SweepReport(
        config=cfg,
        cells=cells,
        aggregates=_aggregate(cells),
        exemplars=exemplars,
        runtime_seconds=runtime,
        corpus_size=sum(1 for _, g in corpus if isinstance(g, Graph)),
        gnp_redraws=redraws,
    )


def summarize_report(report: SweepReport, format: str = "json") -> str:
    """Render a sweep report as canonical JSON, aggregate CSV, or a text table."""
    if format == "json":
        return json.dumps(report.to_canonical_dict(), allow_nan=False)
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
