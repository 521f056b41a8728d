"""Seeded graph corpora and full-grid sweeps over the bound catalog.

A sweep walks (graph, family, alpha, theorem, variant) cells in a fixed
order, emitting exactly one report per cell. Each (graph, family, theorem)
is evaluated over the whole alpha grid in one call, which gives one column
per variant, kept in that shape: run_sweep's report holds the columns and
builds cell dicts only when they are read, and the canonical JSON holds
one object per (graph, family, theorem), written by the standard encoder:
what its variants share once, then each variant's own lists side by side,
all pointing at the columns' lists over the alpha grid. Aggregates and
exemplars are folded graph by graph, so stream_sweep, which `graphent
sweep` uses, writes each graph's objects as that graph finishes and keeps
none: its memory grows only by one 8-byte slack per evaluated cell.
Randomness is derived per cell coordinate from the config seed, so
scheduling cannot change sampled coefficients and equal configs reproduce
byte-identical canonical JSON (runtime is kept out of the canonical form).
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import time
from array import array
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, GraphEntropyError
from .graph import (
    GNP_MAX_REDRAWS,
    DistanceData,
    Graph,
    SeededStream,
    distance_matrix,
    generate_gnp_connected,
    generate_graph,
)
from .inequalities import (
    ROW_KINDS,
    THEOREMS,
    VARIANTS,
    BoundInputs,
    Column,
    Theorem,
    _check_alpha,
    _weighted_sum,
)
from .measures import (
    Distribution,
    FunctionalSpec,
    _as_float,
    distribution_from_values,
    functional_values,
    partition_distribution,
)
from .orbits import ORBIT_CAP, vertex_orbits

DEFAULT_ALPHA_GRID = (0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0)

EXEMPLAR_CAP = 5

_BATTERY = (("star", 3), ("path", 2), ("cycle", 3), ("wheel", 4), ("complete", 2))

# Fixed tags keeping per-cell RNG streams disjoint.
_TAG_GNP = 101
_TAG_FUNCTIONAL = 7
_PURPOSE_COEFFS_A = 0
_PURPOSE_COEFFS_B = 1
_PURPOSE_WEIGHTS = 2

_PHI_FLOOR = 0.01


def _thm5_pair(
    distances: DistanceData, spec: FunctionalSpec, spec_second: FunctionalSpec
) -> tuple[Distribution, Distribution]:
    """The two functionals' distributions as thm5's column reads them,
    normalized in numpy.

    thm5 draws phi = max(p1 - p2). Where the two distributions agree in
    exact arithmetic (vertex-transitive graphs, where both are uniform) that
    maximum is rounding noise of about 1e-17, and the bound moves with its
    last bits. The sweep references fix those bits as numpy gives them (a
    matmul of the sphere profiles, numpy's log and exp), so thm5 keeps that
    recipe rather than the libm route of functional_values.
    """
    import numpy as np

    spheres, eta = distances.spheres, distances.eta
    counts = np.array(spheres, dtype=np.int64).reshape(len(spheres), eta)

    def normalized(spec: FunctionalSpec) -> Distribution:
        raw = counts @ np.asarray(spec.coeffs, dtype=float)
        a = raw * math.log(spec.beta) if spec.kind == "exponential" else np.log(raw)
        m = float(a.max())
        total_log = m + math.log(float(np.exp(a - m).sum()))
        return Distribution(p=np.exp(a - total_log).tolist())

    return normalized(spec), normalized(spec_second)


class _Family(NamedTuple):
    """One (graph, family) row before evaluation: its label, its kind
    ("orbit" or the template's functional kind, which picks its plan), the
    BoundInputs its cells read or the reason the row failed, and per
    theorem id a record or reason of that id's own in its place."""

    label: str
    kind: str
    inputs: BoundInputs | str
    own: dict[str, BoundInputs | str]


ALL_THEOREMS = tuple(t.id for t in THEOREMS)


def _listed(values: Any, name: str) -> tuple:
    """values as a tuple, refusing anything but a list or a tuple: a str
    would otherwise be read one character at a time."""
    if not isinstance(values, (list, tuple)):
        raise DomainError(
            f"malformed {name}: expected a list, got {type(values).__name__}"
        )
    return tuple(values)


def _reals(values: Any, name: str) -> tuple[float, ...]:
    """A list of numbers as floats, an int past float range as inf; a str
    or a bool in it is refused rather than coerced."""
    values = _listed(values, name)
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must hold numbers, got {value!r}")
    return tuple(map(_as_float, values))


def _whole(value: Any, name: str) -> int:
    """int(value) of an int or a whole float. A str, a bool and a float with
    a fractional part (or no finite value) are refused, not coerced."""
    if isinstance(value, float):
        whole = value.is_integer()
    else:
        whole = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not whole:
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FunctionalTemplate:
    """Sampling rule for one functional family in a sweep."""

    kind: str
    c_range: tuple[float, float] = (0.5, 2.0)
    beta: float | None = None

    def __post_init__(self):
        beta = self.beta  # a str or a bool is refused, not coerced
        if isinstance(beta, bool) or not isinstance(beta, (numbers.Real, type(None))):
            raise DomainError(f"beta must be a number, got {beta!r}")
        FunctionalSpec(kind=self.kind, beta=beta)  # checks kind and beta's range
        lo, hi = _reals(self.c_range, "c_range")
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
        lo, hi = (_whole(n, "n_range") for n in _listed(self.n_range, "n_range"))
        if not 1 <= lo <= hi:
            raise DomainError(f"bad n_range {self.n_range}")
        if hi > ORBIT_CAP:
            raise DomainError(f"n_range exceeds the exact-orbit cap {ORBIT_CAP}")
        trials = _whole(self.trials_per_cell, "trials_per_cell")
        if trials < 1:
            raise DomainError("trials_per_cell must be >= 1")
        alpha_grid = _reals(self.alpha_grid, "alpha_grid")
        for alpha in alpha_grid:
            _check_alpha(alpha)
        edge_probabilities = _reals(self.edge_probabilities, "edge_probabilities")
        if any(not 0.0 <= p <= 1.0 for p in edge_probabilities):
            raise DomainError("edge probabilities must lie in [0, 1]")
        variants = _listed(self.variants, "variants")
        for v in variants:
            if v not in VARIANTS:
                raise DomainError(f"unknown variant {v!r}")
        theorems = _listed(self.theorems, "theorems")
        for t in theorems:
            if t not in ALL_THEOREMS:
                raise DomainError(f"unknown theorem id {t!r}")
        templates = _listed(self.functional_specs, "functional_specs")
        # every cell key (theorem, variant, alpha, graph id, family) is unique
        _distinct("alpha_grid", "alpha", alpha_grid)
        _distinct("variants", "variant", variants)
        _distinct("theorems", "theorem id", theorems)
        _distinct("edge_probabilities", "graph id part",
                  [f"p{p:g}" for p in edge_probabilities])
        _distinct("functional_specs", "family label", [t.label for t in templates])
        seed = _whole(self.seed, "seed")
        if seed < 0:
            raise DomainError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "n_range", (lo, hi))
        object.__setattr__(self, "edge_probabilities", edge_probabilities)
        object.__setattr__(self, "trials_per_cell", trials)
        object.__setattr__(self, "alpha_grid", alpha_grid)
        object.__setattr__(self, "variants", variants)
        object.__setattr__(self, "theorems", theorems)
        object.__setattr__(self, "functional_specs", templates)

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

    A non-object, a missing or unknown field (each named) or a value of the
    wrong shape is a DomainError; a GraphEntropyError from cls's own checks
    passes through.
    """
    name = cls.__name__
    if not isinstance(data, dict):
        raise DomainError(f"{name} must be a JSON object, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise DomainError(f"unknown {name} field(s) {unknown}")
    missing = [
        k for k, f in known.items()
        if k not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise DomainError(f"missing {name} field(s) {missing}")
    kwargs = dict(data)
    try:
        for k, v in data.items():
            item = known[k].metadata.get("item")
            if item is not None:
                kwargs[k] = tuple(_decode(item, x) for x in v)
        return cls(**kwargs)
    except GraphEntropyError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
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
    its id and rows. cells (one dict per cell) and the canonical document
    (one object per graph, family and theorem) are built on each read."""

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
            "columns": [
                column
                for graph_id, rows in self.graphs
                for column in _graph_columns(graph_id, rows)
            ],
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
                # SeededStream mixes the whole list into the stream's seed
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
    rng = SeededStream([cfg_seed, _TAG_FUNCTIONAL, gi, ti, purpose])
    return tuple(rng.uniform(lo, hi, size))


def _cell(
    theorem: str, variant: str, alpha: float, graph_id: str, family: str,
    column: Column, i: int,
) -> dict[str, Any]:
    """The cell of column at alpha index i, in the fixed key order of the
    canonical JSON.

    theorem is the sweep grid's id (which distinguishes e.g. thm4's psi and
    corollary modes on top of the operation's own id).
    """
    reason = column.reason[i]
    if reason is not None:
        holds, met, lhs, bound, slack = None, False, None, None, None
        params = {"family": family, "reason": reason}
    else:
        holds, lhs, bound, slack = (
            column.holds[i], column.lhs[i], column.bound[i], column.slack[i]
        )
        met = column.precondition_met
        params = column.params_at(i)
        params.update(
            family=family, direction=column.direction[i], tolerance=column.tolerance
        )
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


def _error_rows(cfg: SweepConfig, reason: str) -> list[_Family]:
    """The rows of a graph whose every cell fails for one reason; each row
    carries its template's kind, so it emits the cells a working row would."""
    return [_Family("orbit", "orbit", reason, {})] + [
        _Family(t.label, t.kind, reason, {}) for t in cfg.functional_specs
    ]


def _family_rows(
    cfg: SweepConfig, g: Graph, gi: int, distances: DistanceData
) -> list[_Family]:
    """g's orbit row and one row per functional template. A row's record
    holds what its columns share (the orbits and their distribution, the
    diameter, the two functionals, the weights and their combination).
    When thm5 is planned, thm5 gets its own record, the row's with p1, p2
    and phi from _thm5_pair, which only the sweep derives; a failure there
    is thm5's own reason, so it fails thm5's columns alone; a p1 or p2 with
    the probs of dist or of fv_second's distribution is that object. thm4's
    and thm4_cor's cores derive their own inputs from the functionals."""
    try:
        part = vertex_orbits(g)
    except GraphEntropyError as exc:
        # every cell of the graph reads the orbits
        return _error_rows(cfg, str(exc))
    pdist = partition_distribution(part)
    orbit = BoundInputs(
        graph=g, dist=pdist, part=part, pdist=pdist, eta=distances.eta
    )
    rows = [_Family("orbit", "orbit", orbit, {})]
    for ti, template in enumerate(cfg.functional_specs):
        try:
            spec_a, spec_b = (
                FunctionalSpec(template.kind, _uniform(
                    *template.c_range, distances.eta, cfg.seed, gi, ti, purpose
                ), template.beta)
                for purpose in (_PURPOSE_COEFFS_A, _PURPOSE_COEFFS_B)
            )
            fv_a = functional_values(g, spec_a, distances)
            fv_b = functional_values(g, spec_b, distances)
            dist = distribution_from_values(fv_a)
        except GraphEntropyError as exc:
            rows.append(_Family(template.label, template.kind, str(exc), {}))
            continue
        c1, c2 = _uniform(0.5, 2.0, 2, cfg.seed, gi, ti, _PURPOSE_WEIGHTS)
        inputs = orbit._replace(
            dist=dist,
            spec=spec_a,
            fv=fv_a,
            fv_second=fv_b,
            weights=(c1, c2),
            # built once per row, so the four thm6 columns share its Renyi memo
            combined=_weighted_sum(fv_a, fv_b, c1, c2),
        )
        own: dict[str, BoundInputs | str] = {}
        if "thm5" in cfg.theorems:
            try:
                p1, p2 = _thm5_pair(distances, spec_a, spec_b)
            except GraphEntropyError as exc:
                own["thm5"] = str(exc)
            else:
                phi = max(a - b for a, b in zip(p1.probs, p2.probs))
                with suppress(GraphEntropyError):  # keep p2 if f2 cannot normalize
                    if fv_b.distribution.probs == p2.probs:
                        p2 = fv_b.distribution
                own["thm5"] = inputs._replace(
                    dist=dist if dist.probs == p1.probs else p1, dist_second=p2,
                    phi=phi if phi > 0.0 else _PHI_FLOOR,
                )
        rows.append(_Family(template.label, template.kind, inputs, own))
    return rows


def _column(
    row: _Family, theorem: Theorem, alphas: tuple[float, ...], variants: tuple[str, ...]
) -> list[Column]:
    """theorem's columns on row over the grid, one per variant, from one
    call of the core evaluate runs, input checks included, on the id's own
    record or else the row's, while the config has checked every alpha. A
    failed row or input, or a failure that does not depend on alpha, gives
    the same reason at every alpha of every variant."""
    inputs = row.own.get(theorem.id, row.inputs)  # a record or a reason
    if not isinstance(inputs, str):
        try:
            return theorem.column(inputs, alphas, variants, 2.0)
        except GraphEntropyError as exc:
            inputs = str(exc)
    return [Column.failed(theorem.id, inputs, len(alphas))] * len(variants)


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
        calls = {  # per row kind, each theorem with a column and its variants
            kind: [
                (t, cfg.variants if t.variants else ("na",))
                for t in map(by_id.get, cfg.theorems)
                if kind in t.kinds and (cfg.variants or not t.variants)
            ]
            for kind in ROW_KINDS
        }
        plans = {
            kind: [(theorem, v) for theorem, variants in kind_calls for v in variants]
            for kind, kind_calls in calls.items()
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
                columns = []
                for theorem, variants in calls[fam.kind]:
                    columns += _column(fam, theorem, alphas, variants)
                rows.append(_Row(fam.label, plans[fam.kind], columns))
            self._fold(graph_id, g, rows)
            yield graph_id, rows

    def _fold(self, graph_id: str, g: Graph | str, rows: list[_Row]) -> None:
        """Add one graph's cells to the tallies and the exemplars, counting
        each column's holds list; only a column with a violation is walked
        alpha by alpha."""
        tallies = self.tallies
        violations = []
        for ri, row in enumerate(rows):
            for ci, ((theorem, variant), column) in enumerate(
                zip(row.plan, row.columns)
            ):
                holds = column.holds
                if not holds:
                    continue
                key = f"{theorem.id}|{variant}"
                tally = tallies.get(key)
                if tally is None:
                    tally = tallies[key] = _Tally()
                held, violated = holds.count(True), holds.count(False)
                tally.checked += len(holds)
                tally.held += held
                tally.violated += violated
                tally.not_applicable += len(holds) - held - violated
                if held + violated == len(holds):
                    tally.slacks.extend(column.slack)
                elif held or violated:  # a failed alpha's slack is None
                    tally.slacks.extend(
                        s for h, s in zip(holds, column.slack) if h is not None
                    )
                if violated:
                    violations += [
                        (ri, ai, ci) for ai, h in enumerate(holds) if h is False
                    ]
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
    canonical JSON chunk by chunk, each graph's objects as that graph
    finishes. Memory grows only by one 8-byte slack per evaluated cell."""
    sweep = _Sweep(cfg)
    if write is None:
        for _ in sweep.graphs():
            pass
        return SweepSummary(**sweep.summary())
    for chunk in _json_columns(cfg, sweep.graphs()):
        write(chunk)
    summary = SweepSummary(**sweep.summary())
    write(_json_tail(summary))
    return summary


# The canonical JSON is json.dumps(report.to_canonical_dict(),
# allow_nan=False), written graph by graph: one encode of each graph's
# objects. Cycle tracking is off: what is encoded is built fresh from lists,
# tuples, dicts, str, numbers, bools and None, so it cannot hold a cycle.
_ENCODE = json.JSONEncoder(allow_nan=False, check_circular=False).encode


_SHARED = ("tolerance", "params", "varying", "lhs", "direction")


def _graph_columns(graph_id: str, rows: list[_Row]) -> list[dict[str, Any]]:
    """One graph's canonical objects in sweep order, one per (row, theorem):
    the _SHARED fields of its first variant's Column once, then per variant
    its own lists and any _SHARED field that is not the first one's very
    object. Identity, not equality, decides, so -0.0 and 0.0, or 1, 1.0 and
    True, are never merged. The lists are the Columns' own."""
    objects: list[dict[str, Any]] = []
    for row in rows:
        current = first = variants = None
        for (theorem, variant), column in zip(row.plan, row.columns):
            # a plan lists each theorem's variants in a run; a repeated one
            # starts a new object rather than overwrite a column
            if theorem is not current or variant in variants:
                current, first, variants = theorem, column, {}
                objects.append({
                    "graph_id": graph_id, "family": row.family, "theorem": theorem.id,
                    **{name: getattr(column, name) for name in _SHARED},
                    "variants": variants,
                })
            entry = variants[variant] = {
                "precondition_met": column.precondition_met, "holds": column.holds,
                "bound": column.bound, "slack": column.slack, "reason": column.reason,
            }
            if column is not first:
                entry.update((name, value) for name in _SHARED if (
                    value := getattr(column, name)) is not getattr(first, name))
    return objects


def _json_columns(
    cfg: SweepConfig, graphs: Iterable[tuple[str, list[_Row]]]
) -> Iterator[str]:
    """The canonical JSON up to the end of its columns list, in chunks:
    the config, then each graph's objects, with a ", " chunk between
    graphs."""
    yield '{"config": ' + _ENCODE(cfg.to_dict()) + ', "columns": ['
    separator = ""
    for graph_id, rows in graphs:
        text = _ENCODE(_graph_columns(graph_id, rows))[1:-1]  # the list's items
        if text:
            if separator:
                yield separator
            yield text
            separator = ", "


def _json_tail(summary: SweepSummary) -> str:
    """The canonical JSON after its columns."""
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
        chunks = _json_columns(report.config, report.graphs)
        return "".join([*chunks, _json_tail(report)])
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = ("checked", "held", "violated", "not_applicable",
                "min_slack", "mean_slack")
        writer.writerow(["theorem", "variant", *keys])
        for key, agg in report.aggregates.items():
            # csv writes None as an empty field and a float as its repr
            writer.writerow([*key.split("|", 1), *(agg[k] for k in keys)])
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
            lines += ["", "violation exemplars:"]
            for key, items in report.exemplars.items():
                first = items[0]["cell"]
                lines.append(
                    f"  {key}: {len(items)} kept; first on {first['graph_id']} "
                    f"alpha={first['alpha']} slack={first['slack']:.6g}"
                )
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown report format {format!r}")
