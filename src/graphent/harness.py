"""Seeded graph corpora and full-grid sweeps over the bound catalog.

A sweep walks (graph, family, alpha, theorem, variant) cells in a fixed
order, emitting exactly one report per cell. Each (graph, family, theorem,
variant) column is evaluated over the whole alpha grid in one call and
kept in that shape: run_sweep's report holds the columns and builds cell
dicts only when they are read, and the canonical JSON is rendered from the
columns, each column's constant part encoded once, in the bytes json.dumps
gives for the cell dicts. Aggregates and exemplars are folded graph by
graph, so stream_sweep, which `graphent sweep` uses, writes each graph's
cells as that graph finishes and keeps none: its memory does not grow with
the corpus. Randomness is derived per cell coordinate from the config
seed, so scheduling cannot change sampled coefficients and equal configs
reproduce byte-identical canonical JSON (runtime is kept out of the
canonical form).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from array import array
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

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
    _check_alpha,
    _conn_column,
    _jensen_column,
    _ordering_column,
    _thm1_column,
    _thm3_column,
    _thm4_column,
    _thm5_column,
    _thm6_column,
    _weighted_sum,
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
    # the second functional's spec and the graph's j-sphere profiles, which
    # thm5_pair reads
    spec_second: FunctionalSpec | None = None
    spheres: tuple[tuple[int, ...], ...] | None = None
    # f + f_second, the dominating functional of thm4_cor
    dominating: FunctionalValues | None = None
    # thm6's sampled weights (c1, c2) and c1 f + c2 f_second; the four thm6
    # columns of a row share combined's Renyi memo
    weights: tuple[float, float] | None = None
    combined: FunctionalValues | None = None
    error: str | None = None

    @cached_property
    def thm5_pair(self) -> tuple[Distribution, Distribution]:
        return _thm5_pair(self)


# Evaluators take (row, alphas, variant) and call the theorem's column core
# once for the whole grid. Corpus graphs with functional values are
# connected and share one vertex set, and the config has checked every
# alpha, so the public operations' input checks are skipped.


def _thm4(row: _FamilyData, alphas: Sequence[float], variant: str) -> Column:
    d2 = distribution_from_values(row.fv_second)
    psi = max(a / b for a, b in zip(row.dist.probs, d2.probs))
    return _thm4_column(row.dist, d2, psi, None, alphas, 2.0)


def _thm4_cor(row: _FamilyData, alphas: Sequence[float], variant: str) -> Column:
    d2 = distribution_from_values(row.dominating)
    totals = (row.fv.total, row.dominating.total)
    return _thm4_column(row.dist, d2, None, totals, alphas, 2.0)


def _thm5_pair(row: _FamilyData) -> tuple[Distribution, Distribution]:
    """The row's two distributions as thm5's column reads them, normalized
    in numpy.

    thm5 draws phi = max(p1 - p2). Where the two distributions agree in
    exact arithmetic (vertex-transitive graphs, where both are uniform) that
    maximum is rounding noise of about 1e-17, and the bound moves with its
    last bits. The sweep references fix those bits as numpy gives them (a
    matmul of the sphere profiles, numpy's log and exp), so thm5 keeps that
    recipe rather than the libm route of functional_values.
    """
    import numpy as np

    counts = np.array(row.spheres, dtype=np.int64).reshape(len(row.spheres), row.eta)

    def normalized(spec: FunctionalSpec) -> Distribution:
        raw = counts @ np.asarray(spec.coeffs, dtype=float)
        a = raw * math.log(spec.beta) if spec.kind == "exponential" else np.log(raw)
        m = float(a.max())
        total_log = m + math.log(float(np.exp(a - m).sum()))
        return Distribution(p=np.exp(a - total_log).tolist())

    return normalized(row.spec), normalized(row.spec_second)


def _thm5(row: _FamilyData, alphas: Sequence[float], variant: str) -> Column:
    d1, d2 = row.thm5_pair
    phi = max(a - b for a, b in zip(d1.probs, d2.probs))
    if phi <= 0.0:
        phi = _PHI_FLOOR
    return _thm5_column(d1, d2, phi, alphas, variant, 2.0)


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
                row.fv, row.fv_second, *row.weights, row.combined, alphas,
                variant, False, 2.0),
            FUNCTIONAL_KINDS, variants=True, log_base=True),
    Theorem("thm6_avg", "thm6",
            lambda row, alphas, variant: _thm6_column(
                row.fv, row.fv_second, *row.weights, row.combined, alphas,
                variant, True, 2.0),
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
        # every cell key (theorem, variant, alpha, graph id, family) is unique
        _distinct("alpha_grid", "alpha", alpha_grid)
        _distinct("variants", "variant", self.variants)
        _distinct("theorems", "theorem id", self.theorems)
        _distinct("edge_probabilities", "graph id part",
                  [f"p{p:g}" for p in edge_probabilities])
        _distinct("functional_specs", "family label",
                  [t.label for t in self.functional_specs])
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


def _distinct(field_name: str, what: str, labels: Iterable[Any]) -> None:
    """DomainError naming the first label that repeats: two config entries
    with one label would give their cells one key."""
    seen = set()
    for label in labels:
        if label in seen:
            raise DomainError(
                f"two {field_name} entries share the {what} {label!r}; every "
                f"sweep cell key must be unique"
            )
        seen.add(label)


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
class SweepSummary:
    """What a sweep found without its cells: per theorem|variant tallies,
    the first violation exemplars, and corpus and runtime stats."""

    config: SweepConfig
    aggregates: dict[str, dict[str, Any]]
    exemplars: dict[str, list[dict[str, Any]]]
    runtime_seconds: float
    corpus_size: int
    gnp_redraws: int


class _Row(NamedTuple):
    """One (graph, family) row's columns, one per (theorem, variant) of
    plan; plan is shared by every row of a kind."""

    family: str
    plan: list[tuple[Theorem, str]]
    columns: list[Column]


@dataclass
class SweepReport(SweepSummary):
    """A sweep with its cells kept as columns: graphs holds per corpus graph
    its id and rows. cells and the canonical document are built from the
    columns on each read."""

    graphs: list[tuple[str, list[_Row]]] = field(default_factory=list, repr=False)

    @property
    def cells(self) -> list[dict[str, Any]]:
        """Every cell dict, in sweep order."""
        alphas = self.config.alpha_grid
        return [
            cell
            for graph_id, rows in self.graphs
            for row in rows
            for cell in _row_cells(graph_id, row, alphas)
        ]

    def to_canonical_dict(self) -> dict[str, Any]:
        """Stable-keyed document; runtime and corpus stats stay out of it."""
        return {
            "config": self.config.to_dict(),
            "cells": self.cells,
            "aggregates": self.aggregates,
            "exemplars": self.exemplars,
        }


def _corpus(cfg: SweepConfig) -> Iterator[tuple[str, Graph | str, int]]:
    """(graph id, graph, gnp redraws) in sweep order, each graph made when
    it is reached. A gnp slot whose draws hit the redraw cap holds the
    reason instead of a graph."""
    lo, hi = cfg.n_range
    for n in range(lo, hi + 1):
        for kind, minimum in _BATTERY:
            if n >= minimum:
                yield f"{kind}_{n}", generate_graph(kind, n), 0
    for n in range(lo, hi + 1):
        for pi, p in enumerate(cfg.edge_probabilities):
            for t in range(cfg.trials_per_cell):
                # numpy's default_rng seeds from SeedSequence(seed)
                seed = [cfg.seed, _TAG_GNP, n, pi, t]
                try:
                    g, drawn = generate_gnp_connected(n, p, seed)
                except DomainError as exc:
                    g, drawn = str(exc), GNP_MAX_REDRAWS
                yield f"gnp_n{n}_p{p:g}_t{t}", g, drawn


def generate_corpus(cfg: SweepConfig) -> list[tuple[str, Graph]]:
    """Deterministic corpus: fixed class battery plus connected gnp samples.

    A gnp slot with no connected sample within the redraw cap is left out.
    """
    return [(graph_id, g) for graph_id, g, _ in _corpus(cfg) if isinstance(g, Graph)]


def _uniform(
    lo: float, hi: float, size: int, cfg_seed: int, gi: int, ti: int, purpose: int
) -> tuple[float, ...]:
    """size draws from U(lo, hi) on the stream of one (graph, template,
    purpose) coordinate."""
    import numpy as np

    rng = np.random.default_rng([cfg_seed, _TAG_FUNCTIONAL, gi, ti, purpose])
    return tuple(rng.uniform(lo, hi, size=size).tolist())


def _sample_spec(
    template: FunctionalTemplate, eta: int, cfg_seed: int, gi: int, ti: int, purpose: int
) -> FunctionalSpec:
    coeffs = _uniform(*template.c_range, eta, cfg_seed, gi, ti, purpose)
    return FunctionalSpec(kind=template.kind, coeffs=coeffs, beta=template.beta)


def _cell(
    theorem: str,
    variant: str,
    alpha: float,
    graph_id: str,
    family: str,
    column: Column,
    i: int,
) -> dict[str, Any]:
    """The cell of column at alpha index i, in the fixed key order of the
    canonical JSON.

    theorem is the sweep grid's id (which distinguishes e.g. thm4's psi and
    corollary modes on top of the operation's own id).
    """
    outcome = column.outcomes[i]
    if isinstance(outcome, str):
        holds, met, lhs, bound, slack = None, False, None, None, None
        params = {"family": family, "reason": outcome}
    else:
        holds, lhs, bound, slack = outcome[:4]
        met = column.precondition_met
        params = column.params_at(i)
        params.update(family=family, direction=outcome[-1], tolerance=column.tolerance)
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


def _row_cells(graph_id: str, row: _Row, alphas: Sequence[float]) -> Iterator[dict]:
    """row's cells in sweep order: alpha by alpha, then the plan's order."""
    for i, alpha in enumerate(alphas):
        for (theorem, variant), column in zip(row.plan, row.columns):
            yield _cell(theorem.id, variant, alpha, graph_id, row.family, column, i)


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
        c1, c2 = _uniform(0.5, 2.0, 2, cfg.seed, gi, ti, _PURPOSE_WEIGHTS)
        rows.append(
            replace(
                orbit,
                label=template.label,
                kind=template.kind,
                dist=dist,
                fv=fv_a,
                fv_second=fv_b,
                spec=spec_a,
                spec_second=spec_b,
                spheres=distances.spheres,
                dominating=_weighted_sum(fv_a, fv_b, 1.0, 1.0),
                weights=(c1, c2),
                combined=_weighted_sum(fv_a, fv_b, c1, c2),
            )
        )
    return rows


def _column(
    row: _FamilyData, theorem: Theorem, alphas: tuple[float, ...], variant: str
) -> Column:
    """theorem's column on row over the grid; a failed row, or a failure
    that does not depend on alpha, gives the same reason at every alpha."""
    if row.error is not None:
        return Column.failed(theorem.id, row.error, len(alphas))
    try:
        return theorem.evaluate(row, alphas, variant)
    except GraphEntropyError as exc:
        return Column.failed(theorem.id, str(exc), len(alphas))


@dataclass(slots=True)
class _Tally:
    """One theorem|variant aggregate while the sweep runs; slacks are the
    evaluated cells' slacks in cell order."""

    checked: int = 0
    held: int = 0
    violated: int = 0
    not_applicable: int = 0
    slacks: array = field(default_factory=lambda: array("d"))

    def to_dict(self) -> dict[str, Any]:
        """mean_slack uses math.fsum, so it does not depend on cell order."""
        slacks = self.slacks
        return {
            "checked": self.checked,
            "held": self.held,
            "violated": self.violated,
            "not_applicable": self.not_applicable,
            "min_slack": min(slacks) if slacks else None,
            "mean_slack": math.fsum(slacks) / len(slacks) if slacks else None,
        }


class _Sweep:
    """One sweep as it runs: each corpus graph is made, evaluated and folded
    into the aggregates, the exemplars and the corpus stats in turn.

    Keys enter the aggregates and exemplars in cell order, so both come out
    as a pass over the finished cells would give them.
    """

    def __init__(self, cfg: SweepConfig):
        self.start = time.perf_counter()
        self.cfg = cfg
        self.corpus_size = 0
        self.redraws = 0
        self.tallies: dict[str, _Tally] = {}
        self.exemplars: dict[str, list[dict[str, Any]]] = {}

    def graphs(self) -> Iterator[tuple[str, list[_Row]]]:
        """(graph id, rows) per corpus graph, in sweep order, each folded
        before it is yielded."""
        cfg, alphas = self.cfg, self.cfg.alpha_grid
        by_id = {t.id: t for t in THEOREMS}
        theorems = [by_id[t] for t in cfg.theorems]
        plans = {
            kind: [
                (theorem, variant)
                for theorem in theorems
                if kind in theorem.kinds
                for variant in (cfg.variants if theorem.variants else ("na",))
            ]
            for kind in ROW_KINDS
        }
        for gi, (graph_id, g, drawn) in enumerate(_corpus(cfg)):
            self.redraws += drawn
            if isinstance(g, str):
                fams = _error_rows(cfg, g)
            else:
                self.corpus_size += 1
                fams = _family_rows(cfg, g, gi, distance_matrix(g))
            rows = []
            for fam in fams:
                plan = plans[fam.kind]
                columns = [
                    _column(fam, theorem, alphas, variant) for theorem, variant in plan
                ]
                rows.append(_Row(fam.label, plan, columns))
            self._fold(graph_id, g, rows)
            yield graph_id, rows

    def _fold(self, graph_id: str, g: Graph | str, rows: list[_Row]) -> None:
        """Add one graph's cells to the tallies and the exemplars."""
        tallies = self.tallies
        violations = []
        for ri, row in enumerate(rows):
            for ci, ((theorem, variant), column) in enumerate(
                zip(row.plan, row.columns)
            ):
                outcomes = column.outcomes
                if not outcomes:
                    continue
                key = f"{theorem.id}|{variant}"
                tally = tallies.get(key)
                if tally is None:
                    tally = tallies[key] = _Tally()
                tally.checked += len(outcomes)
                for ai, outcome in enumerate(outcomes):
                    holds = None if outcome.__class__ is str else outcome[0]
                    if holds is None:
                        tally.not_applicable += 1
                        continue
                    tally.slacks.append(outcome[3])
                    if holds:
                        tally.held += 1
                    else:
                        tally.violated += 1
                        violations.append((ri, ai, ci))
        # a graph's cells run row by row, then alpha by alpha, then column
        for ri, ai, ci in sorted(violations):
            row = rows[ri]
            theorem, variant = row.plan[ci]
            bucket = self.exemplars.setdefault(f"{theorem.id}|{variant}", [])
            if len(bucket) < EXEMPLAR_CAP:
                cell = _cell(
                    theorem.id, variant, self.cfg.alpha_grid[ai], graph_id,
                    row.family, row.columns[ci], ai,
                )
                edges = [list(e) for e in g.sorted_edges()]
                bucket.append({"cell": cell, "edges": edges})

    def summary(self) -> dict[str, Any]:
        """SweepSummary's fields, once every graph has been folded."""
        return {
            "config": self.cfg,
            "aggregates": {key: t.to_dict() for key, t in self.tallies.items()},
            "exemplars": self.exemplars,
            "runtime_seconds": time.perf_counter() - self.start,
            "corpus_size": self.corpus_size,
            "gnp_redraws": self.redraws,
        }


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Evaluate every applicable (graph, family, alpha, theorem, variant)
    cell, keeping every graph's columns."""
    sweep = _Sweep(cfg)
    graphs = list(sweep.graphs())
    return SweepReport(graphs=graphs, **sweep.summary())


def stream_sweep(
    cfg: SweepConfig, write: Callable[[str], Any] | None = None
) -> SweepSummary:
    """Run the sweep keeping no cells: write, when given, receives the
    canonical JSON chunk by chunk, each graph's cells as that graph
    finishes. Memory does not grow with the corpus beyond one slack per
    evaluated cell."""
    sweep = _Sweep(cfg)
    if write is None:
        for _ in sweep.graphs():
            pass
        return SweepSummary(**sweep.summary())
    for chunk in _json_cells(cfg, sweep.graphs()):
        write(chunk)
    summary = SweepSummary(**sweep.summary())
    write(_json_tail(summary))
    return summary


# The canonical JSON is json.dumps(report.to_canonical_dict(),
# allow_nan=False), written from the columns instead: each column renders
# its constant part once into a %-format, and each evaluated cell is one %
# of that format with its alpha, verdict, numbers and direction.

_ENCODE = json.JSONEncoder(allow_nan=False).encode

_HOLDS = {True: "true", False: "false", None: "null"}


def _literal(value: Any) -> str:
    """json.dumps(value, allow_nan=False), escaped for use in a %-format. A
    finite float, an int and a bool skip the encoder's set-up."""
    cls = value.__class__
    if (cls is float and math.isfinite(value)) or cls is int:
        return repr(value)
    if cls is bool:
        return "true" if value else "false"
    return _ENCODE(value).replace("%", "%%")


class _CellWriter:
    """Renders a sweep's cells as canonical JSON text, graph by graph. It
    keeps the text of each (theorem, variant) head and params key it has
    rendered, so each is encoded once per sweep."""

    def __init__(self, alphas: Sequence[float]):
        self.alphas = alphas
        self.alpha_texts = [_literal(alpha) for alpha in alphas]
        self.heads: dict[tuple[str, str], str] = {}
        self.keys: dict[str, str] = {}

    def _head(self, theorem: str, variant: str) -> str:
        """The cell text up to its graph id, in %-format."""
        head = self.heads.get((theorem, variant))
        if head is None:
            head = self.heads[theorem, variant] = (
                '{"theorem": ' + _literal(theorem) + ', "variant": '
                + _literal(variant) + ', "alpha": %s, "graph_id": '
            )
        return head

    def _format(self, head: str, column: Column, tail: str) -> str:
        """The %-format of column's evaluated cells. Its slots take the
        alpha text, the holds text, lhs, bound, slack, the varying params
        (all %r of finite Python floats, as Outcome guarantees) and the
        direction."""
        keys, varying = self.keys, column.varying
        parts = [
            head,
            "true" if column.precondition_met else "false",
            ', "lhs": %r, "bound": %r, "slack": %r, "params": {',
        ]
        for key, value in column.params.items():
            text = keys.get(key)
            if text is None:
                text = keys[key] = _literal(key) + ": "
            parts.append(text)
            parts.append("%r, " if key in varying else _literal(value) + ", ")
        parts += (tail, _literal(column.tolerance), "}}")
        return "".join(parts)

    def graph(self, graph_id: str, rows: list[_Row]) -> str:
        """One graph's cells, comma-separated, in sweep order."""
        graph_text = _literal(graph_id) + ', "holds": %s, "precondition_met": '
        cells = []
        for row in rows:
            tail = (
                '"family": ' + _literal(row.family)
                + ', "direction": "%s", "tolerance": '
            )
            formats = [
                self._format(self._head(theorem.id, variant) + graph_text, column, tail)
                if any(o.__class__ is tuple for o in column.outcomes)
                else None
                for (theorem, variant), column in zip(row.plan, row.columns)
            ]
            for i, alpha_text in enumerate(self.alpha_texts):
                for fmt, (theorem, variant), column in zip(
                    formats, row.plan, row.columns
                ):
                    outcome = column.outcomes[i]
                    if outcome.__class__ is str:
                        cells.append(_ENCODE(_cell(
                            theorem.id, variant, self.alphas[i], graph_id,
                            row.family, column, i,
                        )))
                    else:
                        cells.append(
                            fmt % (alpha_text, _HOLDS[outcome[0]], *outcome[1:])
                        )
        return ", ".join(cells)


def _json_cells(
    cfg: SweepConfig, graphs: Iterable[tuple[str, list[_Row]]]
) -> Iterator[str]:
    """The canonical JSON up to the end of its cells, in chunks: the config,
    then each graph's cells."""
    yield '{"config": ' + _ENCODE(cfg.to_dict()) + ', "cells": ['
    writer = _CellWriter(cfg.alpha_grid)
    separator = ""
    for graph_id, rows in graphs:
        text = writer.graph(graph_id, rows)
        if text:
            if separator:
                yield separator
            yield text
            separator = ", "


def _json_tail(summary: SweepSummary) -> str:
    """The canonical JSON after its cells."""
    return (
        '], "aggregates": ' + _ENCODE(summary.aggregates)
        + ', "exemplars": ' + _ENCODE(summary.exemplars) + "}"
    )


def summarize_report(report: SweepSummary, format: str = "json") -> str:
    """Render a sweep report as canonical JSON, aggregate CSV, or a text
    table; only the JSON needs the report's cells."""
    if format == "json":
        if not isinstance(report, SweepReport):
            raise DomainError("canonical JSON needs a sweep report that kept its cells")
        return "".join([*_json_cells(report.config, report.graphs), _json_tail(report)])
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
            f" cells: {sum(agg['checked'] for agg in report.aggregates.values())},"
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
