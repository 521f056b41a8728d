import csv
import io
import json
import math
import random
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import straightline as sl
from graphent import (
    DomainError,
    FunctionalTemplate,
    SweepConfig,
    distance_matrix,
    generate_corpus,
    generate_graph,
    run_sweep,
    summarize_report,
)
import graphent.inequalities as inequalities
import graphent.orbits as orbits
from graphent import cli
from graphent.graph import GNP_MAX_REDRAWS
from graphent.harness import (
    ALL_THEOREMS,
    THEOREMS,
    SweepReport,
    _column,
    _family_rows,
    _Row,
    _Sweep,
    stream_sweep,
)
from graphent.inequalities import TOLERANCE, VARIANTS, Column, _finish

# marks a field to leave out of a config dict
DROP = object()


def _cell_key(c):
    return c["theorem"], c["variant"], c["alpha"], c["graph_id"], c["params"]["family"]


def small_config(**overrides):
    base = dict(
        seed=42,
        n_range=(3, 5),
        edge_probabilities=(0.5,),
        trials_per_cell=2,
        alpha_grid=(0.5, 2.0),
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestConfig:
    def test_round_trips_through_dict(self):
        cfg = small_config()
        assert SweepConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_keeps_field_order_and_lists(self):
        doc = small_config(functional_specs=(FunctionalTemplate("linear"),)).to_dict()
        assert doc == {
            "seed": 42,
            "n_range": [3, 5],
            "edge_probabilities": [0.5],
            "trials_per_cell": 2,
            "alpha_grid": [0.5, 2.0],
            "functional_specs": [{"kind": "linear", "c_range": [0.5, 2.0], "beta": None}],
            "variants": ["literal", "corrected"],
            "theorems": list(ALL_THEOREMS),
        }
        assert list(doc) == list(SweepConfig.__dataclass_fields__)

    def test_from_dict_coerces_numbers(self):
        doc = small_config().to_dict()
        doc.update(seed="42", trials_per_cell="2", n_range=[3.0, 5])
        assert SweepConfig.from_dict(doc) == small_config()

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"seed": DROP}, "missing 1 required"),
            ({"alpha_grdi": [0.5]}, "unknown SweepConfig field"),
            ({"n_range": 5}, "malformed"),
            ({"functional_specs": 5}, "malformed"),
            ({"functional_specs": [{"beta": 2.0}]}, "malformed FunctionalTemplate"),
            ({"functional_specs": [{"kind": "linear", "c": [1, 2]}]},
             "unknown FunctionalTemplate field"),
            ({"functional_specs": [[1, 2]]}, "must be a JSON object"),
            ({"alpha_grid": [float("nan")]}, "alpha must be"),
            ({"seed": 1.9, "n_range": [3.7, 4.2], "trials_per_cell": 2.5},
             "must be a whole number"),
            ({"seed": 1.9}, "seed must be a whole number, got 1.9"),
            ({"seed": float("inf")}, "seed must be a whole number, got inf"),
            ({"n_range": [3, 4.2]}, "n_range must be a whole number, got 4.2"),
            ({"trials_per_cell": 2.5}, "trials_per_cell must be a whole number"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_from_dict_rejects_malformed(self, change, match):
        doc = {**small_config().to_dict(), **change}
        with pytest.raises(DomainError, match=match):
            SweepConfig.from_dict({k: v for k, v in doc.items() if v is not DROP})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(DomainError, match="must be a JSON object, got list"):
            SweepConfig.from_dict([small_config().to_dict()])

    def test_validation(self):
        with pytest.raises(DomainError):
            small_config(alpha_grid=(0.5, 1.0))
        with pytest.raises(DomainError):
            small_config(trials_per_cell=0)
        with pytest.raises(DomainError):
            small_config(n_range=(3, 100))
        with pytest.raises(DomainError):
            small_config(edge_probabilities=(1.5,))
        with pytest.raises(DomainError):
            small_config(theorems=("thm99",))
        with pytest.raises(DomainError):
            small_config(variants=("fixed",))
        for alpha in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="alpha must be"):
                small_config(alpha_grid=(0.5, alpha))

    @pytest.mark.parametrize(
        "change, clash",
        [
            pytest.param(dict(edge_probabilities=(0.5, 0.5)), "graph id part 'p0.5'",
                         id="repeated-probability"),
            # both print as 0.5 in the graph id
            pytest.param(dict(edge_probabilities=(0.5, 0.5000001)),
                         "graph id part 'p0.5'", id="probabilities-print-alike"),
            pytest.param(dict(functional_specs=(
                FunctionalTemplate("exponential", beta=2.0),
                FunctionalTemplate("exponential", (1.0, 3.0), 2.0),
            )), "family label 'exponential_b2'", id="exponential-labels"),
            pytest.param(dict(functional_specs=(
                FunctionalTemplate("linear"), FunctionalTemplate("linear", (1.0, 3.0)),
            )), "family label 'linear'", id="linear-labels"),
            pytest.param(dict(alpha_grid=(0.5, 2.0, 0.5)), "alpha 0.5",
                         id="repeated-alpha"),
            pytest.param(dict(variants=("literal", "literal")), "variant 'literal'",
                         id="repeated-variant"),
            pytest.param(dict(theorems=("thm1", "thm5", "thm1")), "theorem id 'thm1'",
                         id="repeated-theorem"),
        ],
    )
    def test_cell_keys_must_be_unique(self, change, clash):
        with pytest.raises(DomainError, match=re.escape(clash)):
            small_config(n_range=(4, 4), **change)

    def test_default_cell_keys_are_unique(self):
        keys = [_cell_key(c) for c in run_sweep(small_config(n_range=(4, 4))).cells]
        assert keys and len(set(keys)) == len(keys)

    def test_template_validation(self):
        with pytest.raises(DomainError):
            FunctionalTemplate("exponential")
        with pytest.raises(DomainError):
            FunctionalTemplate("linear", beta=2.0)
        with pytest.raises(DomainError):
            FunctionalTemplate("linear", c_range=(0.0, 1.0))
        with pytest.raises(DomainError):
            FunctionalTemplate("linear", c_range=(1.0, float("inf")))


class TestCorpus:
    def test_deterministic(self):
        cfg = small_config()
        a = generate_corpus(cfg)
        b = generate_corpus(cfg)
        assert [gid for gid, _ in a] == [gid for gid, _ in b]
        assert all(x.edges == y.edges for (_, x), (_, y) in zip(a, b))

    def test_battery_members_at_4(self):
        ids = {gid for gid, _ in generate_corpus(small_config(n_range=(4, 4)))}
        assert {"star_4", "path_4", "cycle_4", "wheel_4", "complete_4"} <= ids

    def test_p1_yields_complete_gnp(self):
        cfg = small_config(edge_probabilities=(1.0,), n_range=(4, 4))
        for gid, g in generate_corpus(cfg):
            if gid.startswith("gnp"):
                assert g.m == g.n * (g.n - 1) // 2

    def test_all_connected(self):
        for _, g in generate_corpus(small_config(edge_probabilities=(0.3,))):
            assert g.is_connected()


class TestSweep:
    def test_counts_are_consistent(self):
        rep = run_sweep(small_config())
        for agg in rep.aggregates.values():
            assert (
                agg["checked"]
                == agg["held"] + agg["violated"] + agg["not_applicable"]
            )

    def test_each_graph_builds_its_sphere_profiles_once(self, monkeypatch):
        """Every functional of a graph reads the profiles of its one
        distance matrix, so a sweep builds them once per corpus graph."""
        from graphent.graph import DistanceData

        built = []
        spheres = DistanceData.spheres.func
        monkeypatch.setattr(
            DistanceData.spheres, "func", lambda d: built.append(d) or spheres(d)
        )
        rep = run_sweep(small_config())
        assert rep.corpus_size > 0 and len(built) == rep.corpus_size

    def test_sweep_without_thm5_loads_no_numpy(self):
        """numpy is imported only by thm5's rows (harness._thm5_pair), so a
        sweep over every other theorem, run in a fresh interpreter, leaves
        it out of sys.modules."""
        theorems = tuple(t for t in ALL_THEOREMS if t != "thm5")
        script = f"""
import sys
from graphent import SweepConfig, run_sweep, summarize_report
cfg = SweepConfig(seed=42, n_range=(3, 5), edge_probabilities=(0.5,),
                  trials_per_cell=2, alpha_grid=(0.5, 2.0), theorems={theorems!r})
report = run_sweep(cfg)
assert report.corpus_size > 0 and report.aggregates["jensen|na"]["checked"] > 0
summarize_report(report, "json")
print("numpy" in sys.modules)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_thm5_precondition_holds_on_every_row(self):
        """phi = max(p1 - p2) is drawn from the distributions the column
        checks, so p1 <= p2 + phi holds by construction, including on the
        12-vertex exponential rows where a last-bit mismatch between the
        two would break it."""
        cfg = SweepConfig(
            seed=20240810, n_range=(3, 12), edge_probabilities=(0.3, 0.5, 0.8),
            trials_per_cell=16, theorems=("thm5",),
        )
        cells = [c for c in run_sweep(cfg).cells if c["lhs"] is not None]
        assert cells and all(c["precondition_met"] for c in cells)

    def test_empty_theorems(self):
        rep = run_sweep(small_config(theorems=()))
        assert rep.cells == [] and rep.aggregates == {}

    def test_s10_orbit_skew_violates_literal_thm1(self):
        cfg = SweepConfig(
            seed=1,
            n_range=(10, 10),
            edge_probabilities=(),
            trials_per_cell=1,
            alpha_grid=(0.5,),
            functional_specs=(),
            variants=("literal",),
            theorems=("thm1",),
        )
        rep = run_sweep(cfg)
        agg = rep.aggregates["thm1|literal"]
        assert agg["violated"] >= 1
        star_cells = [
            c for c in rep.cells if c["graph_id"] == "star_10" and c["holds"] is False
        ]
        assert star_cells, "star_10 orbit distribution must violate literal thm1"
        assert rep.exemplars["thm1|literal"]

    def test_corrected_only_run_has_no_violations_at_all(self):
        rep = run_sweep(small_config(variants=("corrected",)))
        for key, agg in rep.aggregates.items():
            assert agg["violated"] == 0, key

    def test_holds_consistent_with_slack_tolerance(self):
        rep = run_sweep(small_config())
        for cell in rep.cells:
            tol = cell["params"].get("tolerance", 1e-9)
            if cell["holds"] is None:
                assert cell["precondition_met"] is False or cell["slack"] is None
            else:
                assert cell["holds"] is (cell["slack"] >= -tol)

    def test_exemplars_present_iff_violations(self):
        rep = run_sweep(small_config())
        for key, agg in rep.aggregates.items():
            if agg["violated"] > 0:
                assert rep.exemplars.get(key), key
            else:
                assert key not in rep.exemplars
        for key, items in rep.exemplars.items():
            for item in items:
                assert item["cell"]["holds"] is False
                assert all(len(e) == 2 for e in item["edges"])

    def test_reproducible_canonical_json(self):
        cfg = small_config()
        a = summarize_report(run_sweep(cfg), "json")
        b = summarize_report(run_sweep(cfg), "json")
        assert a == b

    def test_cell_schema(self):
        rep = run_sweep(small_config(n_range=(4, 4), alpha_grid=(0.5,)))
        keys = [
            "theorem",
            "variant",
            "alpha",
            "graph_id",
            "holds",
            "precondition_met",
            "lhs",
            "bound",
            "slack",
            "params",
        ]
        for cell in rep.cells:
            assert list(cell.keys()) == keys

    def test_overflowing_totals_record_error_cells(self):
        # exponential totals pass 1e308 at n=12, so thm4_cor's psi = S2/S1
        # cannot be formed; the sweep records that instead of aborting
        cfg = SweepConfig(
            seed=1,
            n_range=(12, 12),
            edge_probabilities=(0.3,),
            trials_per_cell=1,
            alpha_grid=(0.5, 2.0),
            functional_specs=(
                FunctionalTemplate("exponential", c_range=(50.0, 100.0), beta=2.0),
            ),
        )
        errors = [c for c in run_sweep(cfg).cells if c["lhs"] is None]
        assert errors and {c["theorem"] for c in errors} == {"thm4_cor"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_family_rows_record_error_cells(self):
        # sphere sums past 1e308 (linear) or log values too far apart to
        # normalize (exponential) fail the whole family row, not the sweep
        cfg = SweepConfig(
            seed=1,
            n_range=(4, 4),
            edge_probabilities=(),
            trials_per_cell=1,
            alpha_grid=(0.5,),
            functional_specs=(
                FunctionalTemplate("exponential", c_range=(1e307, 1e308), beta=2.0),
                FunctionalTemplate("linear", c_range=(1e308, 1.7e308)),
            ),
        )
        rep = run_sweep(cfg)
        working = replace(
            cfg,
            functional_specs=(
                FunctionalTemplate("exponential", beta=2.0),
                FunctionalTemplate("linear"),
            ),
        )
        # an error row emits exactly the cells of a working row of its kind
        assert [_cell_key(c) for c in rep.cells] == [
            _cell_key(c) for c in run_sweep(working).cells
        ]
        for cell in rep.cells:
            if cell["params"]["family"] == "orbit":
                assert cell["lhs"] is not None
                assert list(cell["params"])[-3:] == ["family", "direction", "tolerance"]
            else:
                assert (cell["holds"], cell["precondition_met"]) == (None, False)
                assert cell["lhs"] is cell["bound"] is cell["slack"] is None
                assert list(cell["params"]) == ["family", "reason"]
        assert {c["params"]["family"] for c in rep.cells if c["lhs"] is None} == {
            "exponential_b2",
            "linear",
        }
        # complete_4's values pass the finite check but not normalization
        reasons = {
            c["params"]["reason"] for c in rep.cells
            if c["graph_id"] == "complete_4" and c["lhs"] is None
        }
        assert len(reasons) == 2
        assert any(r.startswith("functional values cannot be normalized at ln S = ")
                   and "probabilities sum to" in r for r in reasons)
        json.loads(summarize_report(rep, "json"))

    def test_orbit_budget_gives_error_cells_not_an_abort(self, monkeypatch):
        # path_4 and cycle_4 each need a 2-node orbit search; the twins of
        # star_4, wheel_4 (= K_4) and complete_4 are joined without one
        cfg = SweepConfig(
            seed=1,
            n_range=(4, 4),
            edge_probabilities=(),
            trials_per_cell=1,
            alpha_grid=(0.5,),
        )
        full = run_sweep(cfg)
        monkeypatch.setattr(orbits, "ORBIT_NODE_BUDGET", 1)
        rep = run_sweep(cfg)
        searched = {"path_4", "cycle_4"}
        assert rep.corpus_size == 5 and {c["graph_id"] for c in rep.cells} == {
            "star_4", "path_4", "cycle_4", "wheel_4", "complete_4",
        }

        # each error row carries its template's kind, so it covers exactly
        # the cells the graph has when its orbits are known
        assert len(full.cells) == 285
        assert [_cell_key(c) for c in rep.cells] == [_cell_key(c) for c in full.cells]
        for cell, expected in zip(rep.cells, full.cells):
            if cell["graph_id"] in searched:
                assert (cell["holds"], cell["precondition_met"]) == (None, False)
                assert cell["params"]["reason"] == (
                    "exact orbit search gave up after 2 search nodes (budget 1)"
                )
            else:
                assert cell == expected
        assert sum(c["graph_id"] in searched for c in rep.cells) == 2 * 57
        json.loads(summarize_report(rep, "json"))

    def test_failed_gnp_draws_give_error_cells(self):
        # p = 0 never gives a connected sample with more than one vertex
        cfg = SweepConfig.from_dict({
            "seed": 1, "n_range": [3, 4], "edge_probabilities": [0.0],
            "trials_per_cell": 1, "alpha_grid": [0.5],
        })
        rep = run_sweep(cfg)
        # the battery's 4 graphs at n=3 and 5 at n=4; the two slots count
        # their redraws but no graph
        assert rep.corpus_size == 9 == len(generate_corpus(cfg))
        assert rep.gnp_redraws == 2 * GNP_MAX_REDRAWS

        def keys(graph_id):
            return [
                (c["theorem"], c["variant"], c["alpha"], c["params"]["family"])
                for c in rep.cells if c["graph_id"] == graph_id
            ]

        for n in (3, 4):
            failed = [c for c in rep.cells if c["graph_id"] == f"gnp_n{n}_p0_t0"]
            assert failed and keys(f"gnp_n{n}_p0_t0") == keys(f"path_{n}")
            for cell in failed:
                assert (cell["holds"], cell["precondition_met"]) == (None, False)
                assert cell["lhs"] is cell["bound"] is cell["slack"] is None
                assert cell["params"]["reason"] == (
                    f"gnp(n={n}, p=0.0): no connected sample within "
                    f"{GNP_MAX_REDRAWS} redraws"
                )
        json.loads(summarize_report(rep, "json"))

    def test_one_vertex_graphs_give_error_cells(self):
        # diameter 0: no sphere coefficients, so the linear functional is 0
        # and the connected-graph interval has nothing to span
        rep = run_sweep(
            SweepConfig(
                seed=1, n_range=(1, 1), edge_probabilities=(0.5,), trials_per_cell=1
            )
        )
        assert {c["graph_id"] for c in rep.cells} == {"gnp_n1_p0.5_t0"}
        reasons = {c["params"]["family"]: c["params"]["reason"]
                   for c in rep.cells if c["lhs"] is None}
        no_edge = "connected-graph bounds need at least one edge (diameter 0)"
        assert reasons == {
            "linear": "linear functional produced a non-positive value",
            "exponential_b0.5": no_edge,
            "exponential_b2": no_edge,
        }
        # per alpha: 6 cells on the orbit row and 17 on each functional row
        assert len(rep.cells) == 8 * (6 + 3 * 17)
        json.loads(summarize_report(rep, "json"))

    def test_extreme_config_completes_with_strict_json(self):
        cfg = SweepConfig(
            seed=1,
            n_range=(40, 40),
            edge_probabilities=(0.3,),
            trials_per_cell=1,
            alpha_grid=(0.25, 30.0),
            functional_specs=(
                FunctionalTemplate("exponential", c_range=(1.0, 40.0), beta=2.0),
            ),
        )
        rep = run_sweep(cfg)
        assert rep.aggregates["jensen|na"]["violated"] == 0
        json.dumps(rep.to_canonical_dict(), allow_nan=False)

    def test_fold_equals_a_pass_over_the_cells(self):
        rep = run_sweep(small_config())
        assert rep.exemplars
        assert _ordered(_cell_pass(rep.cells)) == _ordered(
            (rep.aggregates, rep.exemplars)
        )

    def test_fold_follows_cell_order_within_a_graph(self):
        # the first column violates only at the second alpha and the second
        # only at the first, so the second column's key comes first; slacks
        # 0.0 and -0.0 tie, and the first in cell order is the minimum
        def column(theorem_id, outcomes):
            return Column(theorem_id, {}, outcomes)

        held_zero = _finish("t", 1.0, 1.0, "upper")  # slack 0.0
        held_minus_zero = _finish("t", 1.0, 1.0, "equal")  # slack -0.0
        violated = _finish("t", 2.0, 1.0, "upper")
        plan = [(THEOREMS[0], "na"), (THEOREMS[1], "na"), (THEOREMS[2], "na")]
        rows = [_Row("orbit", plan, [
            column("a", [held_zero, violated]),
            column("b", [violated, held_minus_zero]),
            column("c", [held_zero, held_minus_zero]),
        ])]
        cfg = small_config(alpha_grid=(0.5, 2.0))
        sweep = _Sweep(cfg)
        sweep._fold("g", generate_graph("path", 3), rows)
        rep = SweepReport(graphs=[("g", rows)], **sweep.summary())
        assert list(rep.exemplars) == ["jensen|na", "ordering|na"]
        assert repr(rep.aggregates["thm1|na"]["min_slack"]) == "0.0"
        assert _ordered(_cell_pass(rep.cells)) == _ordered(
            (rep.aggregates, rep.exemplars)
        )

    def test_aggregate_order_independent(self):
        rep = run_sweep(small_config())
        rng = random.Random(7)
        sweep = _Sweep(rep.config)
        graphs = dict(generate_corpus(rep.config))
        shuffled = list(rep.graphs)
        rng.shuffle(shuffled)
        for graph_id, rows in shuffled:
            rows = list(rows)
            rng.shuffle(rows)
            for row in rows:
                pairs = list(zip(row.plan, row.columns))
                rng.shuffle(pairs)
                plan, columns = zip(*pairs)
                row = _Row(row.family, plan, columns)
                sweep._fold(graph_id, graphs[graph_id], [row])
        assert sweep.summary()["aggregates"] == rep.aggregates


def _cell_pass(cells):
    """(aggregates, exemplars without edges) from one pass over finished
    cells in order: the fold's reference."""
    groups, exemplars = {}, {}
    for cell in cells:
        key = f"{cell['theorem']}|{cell['variant']}"
        groups.setdefault(key, []).append(cell)
        if cell["holds"] is False:
            bucket = exemplars.setdefault(key, [])
            if len(bucket) < 5:
                bucket.append(cell)
    aggregates = {}
    for key, group in groups.items():
        slacks = [c["slack"] for c in group if c["holds"] is not None]
        aggregates[key] = {
            "checked": len(group),
            "held": sum(1 for c in group if c["holds"] is True),
            "violated": sum(1 for c in group if c["holds"] is False),
            "not_applicable": sum(1 for c in group if c["holds"] is None),
            "min_slack": min(slacks) if slacks else None,
            "mean_slack": math.fsum(slacks) / len(slacks) if slacks else None,
        }
    return aggregates, exemplars


def _ordered(summary):
    """Aggregates and exemplar cells as JSON text, so key order and the
    sign of a zero count."""
    aggregates, exemplars = summary
    cells = {
        key: [item.get("cell", item) for item in items]
        for key, items in exemplars.items()
    }
    return json.dumps(aggregates), json.dumps(cells)


def _oracle(report):
    """The canonical JSON as one json.dumps of the whole document."""
    return json.dumps(report.to_canonical_dict(), allow_nan=False)


# the sweep_catalog benchmark's corpus shape
CATALOG_SHAPE = dict(
    n_range=(3, 6), edge_probabilities=(0.3, 0.5, 0.8), trials_per_cell=1
)


class TestCanonicalWriter:
    """summarize_report renders the canonical JSON from the columns; it must
    give the bytes of json.dumps over the document built from them."""

    @pytest.mark.parametrize("seed", range(4))
    def test_catalog_corpus_seeds(self, seed):
        rep = run_sweep(SweepConfig(seed=seed, **CATALOG_SHAPE))
        assert summarize_report(rep, "json") == _oracle(rep)

    def test_orbit_budget_of_one(self, monkeypatch):
        monkeypatch.setattr(orbits, "ORBIT_NODE_BUDGET", 1)
        rep = run_sweep(small_config(trials_per_cell=1))
        assert any(c["lhs"] is None for c in rep.cells)
        assert summarize_report(rep, "json") == _oracle(rep)

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(
                SweepConfig(seed=1, n_range=(1, 1), edge_probabilities=(0.5,),
                            trials_per_cell=1),
                id="n_range-1-1",
            ),
            pytest.param(
                SweepConfig(seed=1, n_range=(3, 4), edge_probabilities=(0.0,),
                            trials_per_cell=1, alpha_grid=(0.5,)),
                id="p0",
            ),
            pytest.param(
                SweepConfig(
                    seed=1, n_range=(40, 40), edge_probabilities=(0.3,),
                    trials_per_cell=1, alpha_grid=(0.25, 30.0),
                    functional_specs=(FunctionalTemplate(
                        "exponential", c_range=(1.0, 40.0), beta=2.0
                    ),),
                ),
                id="n40-exponential-alpha30",
            ),
            pytest.param(small_config(theorems=()), id="no-theorems"),
            pytest.param(small_config(alpha_grid=()), id="no-alphas"),
        ],
    )
    def test_edge_configs(self, cfg):
        rep = run_sweep(cfg)
        assert summarize_report(rep, "json") == _oracle(rep)

    @staticmethod
    def _report(*columns, graph_id="g", family="orbit", alphas=(0.5, 2.0)):
        """A report holding one row of hand-built columns, each under the
        ordering theorem's id."""
        cfg = SweepConfig(seed=0, n_range=(1, 1), edge_probabilities=(),
                          trials_per_cell=1, alpha_grid=alphas)
        plan = [(THEOREMS[0], "na")] * len(columns)
        return SweepReport(
            config=cfg, aggregates={}, exemplars={}, runtime_seconds=0.0,
            corpus_size=1, gnp_redraws=0,
            graphs=[(graph_id, [_Row(family, plan, list(columns))])],
        )

    def test_percent_signs_are_literal(self):
        reason = "100% of %s and %r and %(x)s failed"
        evaluated = Column(
            "t", {"mode": "50%", "%x": 1, "h": None}, [
                _finish("t", 1.0, 2.0, "upper", (0.5,)),
                _finish("t", 2.0, 1.0, "lower", (0.25,)),
            ], ("h",),
        )
        rep = self._report(
            Column.failed("t", reason, 2), evaluated,
            graph_id="g%s%%", family="f%r",
        )
        text = summarize_report(rep, "json")
        assert text == _oracle(rep)
        assert reason in {c["params"].get("reason") for c in json.loads(text)["cells"]}

    def test_signed_zeros_stay_apart(self):
        # slack -|0 - 0| is -0.0, and no value is merged with an equal one
        column = Column(
            "t", {"zero": 0.0, "minus_zero": -0.0, "h": None},
            [_finish("t", 0.0, 0.0, "equal", (-0.0,)),
             _finish("t", -0.0, 0.0, "equal", (0.0,))],
            ("h",),
        )
        rep = self._report(column)
        text = summarize_report(rep, "json")
        assert text == _oracle(rep)
        signs = [
            [math.copysign(1.0, v) for v in
             (c["lhs"], c["slack"], c["params"]["zero"], c["params"]["minus_zero"],
              c["params"]["h"])]
            for c in json.loads(text)["cells"]
        ]
        assert signs == [[1.0, -1.0, 1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, -1.0, 1.0]]

    def test_numpy_floats_render_as_floats(self):
        column = Column(
            "t", {"c": np.float64(0.1), "n": 3, "h": None},
            [_finish("t", np.float64(1.0), np.float64(2.0), "upper",
                     (np.float64(1.0 / 3.0),))] * 2,
            ("h",),
        )
        rep = self._report(column)
        text = summarize_report(rep, "json")
        assert text == _oracle(rep)
        assert "np.float64" not in text

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, np.float64(math.inf)]
    )
    def test_non_finite_param_raises_like_json(self, value):
        column = Column("t", {"c": value}, [_finish("t", 1.0, 2.0, "upper")] * 2)
        rep = self._report(column)
        with pytest.raises(ValueError):
            _oracle(rep)
        with pytest.raises(ValueError):
            summarize_report(rep, "json")

    def test_non_finite_varying_param_is_a_domain_error(self):
        with pytest.raises(DomainError, match="params are not finite"):
            _finish("t", 1.0, 2.0, "upper", (math.inf,))

    def test_summary_without_cells_has_no_json(self):
        summary = stream_sweep(small_config())
        assert summarize_report(summary, "csv") == summarize_report(
            run_sweep(small_config()), "csv"
        )
        with pytest.raises(DomainError):
            summarize_report(summary, "json")

    def test_streamed_chunks_join_to_the_report(self):
        cfg = small_config()
        chunks = []
        summary = stream_sweep(cfg, chunks.append)
        rep = run_sweep(cfg)
        assert "".join(chunks) == summarize_report(rep, "json")
        assert summary.aggregates == rep.aggregates
        assert summary.exemplars == rep.exemplars
        # the config, one chunk of cells per graph with a separator between
        # graphs, and the aggregates and exemplars
        assert len(chunks) == 1 + (2 * len(rep.graphs) - 1) + 1


@pytest.fixture(scope="module")
def report():
    return run_sweep(small_config(n_range=(3, 4)))


class TestSummaries:

    def test_json_round_trip_byte_identical(self, report):
        text = summarize_report(report, "json")
        assert json.dumps(json.loads(text)) == text

    def test_json_schema_keys(self, report):
        doc = json.loads(summarize_report(report, "json"))
        assert list(doc.keys()) == ["config", "cells", "aggregates", "exemplars"]
        assert doc["config"] == report.config.to_dict()

    def test_csv_one_row_per_cell(self, report):
        rows = list(csv.reader(io.StringIO(summarize_report(report, "csv"))))
        assert rows[0][:3] == ["theorem", "variant", "checked"]
        assert len(rows) - 1 == len(report.aggregates)

    def test_text_contains_min_slack(self, report):
        text = summarize_report(report, "text")
        assert "min_slack" in text
        assert "runtime" in text

    def test_unknown_format(self, report):
        with pytest.raises(DomainError):
            summarize_report(report, "yaml")


class TestTheoremTable:
    def test_sweep_cells_follow_the_table(self, report):
        for theorem in THEOREMS:
            cells = [c for c in report.cells if c["theorem"] == theorem.id]
            assert cells, theorem.id
            variants = {c["variant"] for c in cells}
            assert (variants == {"na"}) is (not theorem.variants), theorem.id
            kinds = {c["params"]["family"].split("_")[0] for c in cells}
            assert kinds == set(theorem.kinds), theorem.id
        families = {
            t: {c["params"]["family"] for c in report.cells if c["theorem"] == t}
            for t in ("conn_linear", "conn_exp")
        }
        assert families["conn_linear"] == {"linear"}
        assert all(f.startswith("exponential_") for f in families["conn_exp"])

    def test_cli_checks_come_from_the_table(self):
        assert cli._CHECKS == (
            "ordering", "jensen", "thm1", "thm3", "thm4", "thm5", "thm6", "conn",
            "star", "wheel", "path",
        )
        assert cli._BASE_CHECKS == ("thm3", "thm4", "thm5", "thm6")
        assert {t.check for t in THEOREMS} == set(cli._CHECKS[:-3])
        assert {t.check for t in THEOREMS if t.log_base} == set(cli._BASE_CHECKS)


# Both sides of the Shannon band, the default grid's regimes and a large
# alpha where tiny atoms leave float range.
COLUMN_GRID = (0.25, 0.5, 1 - 1e-10, 1 + 1e-10, 1.1, 2.0, 30.0)


def _rows(cfg):
    """(graph id, family row) for each row of cfg's corpus, built afresh, so
    no distribution shares its power-sum memo with an earlier call."""
    return [
        (graph_id, row)
        for gi, (graph_id, g) in enumerate(generate_corpus(cfg))
        for row in _family_rows(cfg, g, gi, distance_matrix(g))
    ]


def _plan():
    return [
        (theorem, variant)
        for theorem in THEOREMS
        for variant in (VARIANTS if theorem.variants else ("na",))
    ]


class TestColumnCores:
    def test_grid_column_equals_one_row_calls(self):
        cfg = small_config(trials_per_cell=1, alpha_grid=COLUMN_GRID)
        grid_rows = _rows(cfg)
        one_row = [_rows(cfg) for _ in COLUMN_GRID]
        checked = set()
        for theorem, variant in _plan():
            for i, (graph_id, row) in enumerate(grid_rows):
                if row.kind not in theorem.kinds:
                    continue
                column = _column(row, theorem, COLUMN_GRID, variant)
                assert len(column.outcomes) == len(COLUMN_GRID)
                for ai, alpha in enumerate(COLUMN_GRID):
                    single = _column(one_row[ai][i][1], theorem, (alpha,), variant)
                    # an outcome tuple (holds, lhs, bound, slack, ...) with the
                    # same params, or the same error message
                    got, want = column.outcomes[ai], single.outcomes[0]
                    where = (theorem.id, variant, graph_id, alpha)
                    assert got == want, where
                    if not isinstance(want, str):
                        assert column.params_at(ai) == single.params_at(0), where
                        assert column.precondition_met is single.precondition_met
                    checked.add((theorem.id, isinstance(want, str)))
        evaluated = {t for t, failed in checked if not failed}
        assert evaluated == set(ALL_THEOREMS)

    def test_sweep_builds_no_bound_report(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built a BoundReport")

        monkeypatch.setattr(inequalities.BoundReport, "__init__", refuse)
        assert run_sweep(small_config(n_range=(3, 4))).cells

    def test_sweep_matches_straightline_reference(self):
        cfg = small_config(trials_per_cell=1, alpha_grid=SweepConfig.alpha_grid)
        rows = {(graph_id, row.label): row for graph_id, row in _rows(cfg)}
        evaluated = 0
        for cell in run_sweep(cfg).cells:
            if cell["lhs"] is None:
                continue
            evaluated += 1
            row = rows[cell["graph_id"], cell["params"]["family"]]
            met, lhs, bound, slack = _straightline(cell, row)
            where = (cell["theorem"], cell["variant"], cell["alpha"], cell["graph_id"])
            for got, want in ((cell["lhs"], lhs), (cell["bound"], bound)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), where
            met = cell["precondition_met"] if met is None else met
            assert cell["precondition_met"] is met, where
            assert cell["holds"] is (slack >= -TOLERANCE if met else None), where
        assert evaluated > 0


def _straightline(cell, row):
    """(precondition or None when the reference has none, lhs, bound, slack)
    of one cell, from the row's raw inputs through tests/straightline.py.

    thm5's phi is read from the cell: the sweep floors a phi of 0 at 0.01,
    and p1 - p2 is 0 exactly in one float evaluation and 1e-17 in another.
    """
    theorem, variant, alpha = cell["theorem"], cell["variant"], cell["alpha"]
    if row.kind == "orbit":
        sizes = list(row.part.sizes)
        p = [size / sum(sizes) for size in sizes]
    else:
        f1, f2 = list(row.fv.linear), list(row.fv_second.linear)
        p = [f / sum(f1) for f in f1]
        p2 = [f / sum(f2) for f in f2]
    lhs = sl.sl_renyi(p, alpha)
    met = None
    if theorem == "ordering":
        direction = "lower" if alpha < 1.0 else "upper"
        bound = sl.sl_shannon(p)
    elif theorem == "jensen":
        gap = sl.sl_jensen_bound(p, alpha)
        direction = "upper" if alpha < 1.0 else "lower"
        bound = sl.sl_shannon(p) + (gap if alpha < 1.0 else -gap)
    elif theorem in ("thm1", "thm1_eps"):
        direction, bound = sl.sl_thm1_bound(p, alpha, variant, theorem == "thm1_eps")
    elif theorem == "thm3":
        sizes = list(row.part.sizes)
        lhs = sl.sl_renyi([size / sum(sizes) for size in sizes], alpha)
        met, direction, bound = sl.sl_thm3_bound(sizes, f1, alpha)
    elif theorem == "thm4":
        psi = max(a / b for a, b in zip(p, p2))
        direction, bound = sl.sl_thm4_bound(p2, psi, alpha)
    elif theorem == "thm4_cor":
        dominating = [a + b for a, b in zip(f1, f2)]
        psi = sum(dominating) / sum(f1)
        direction, bound = sl.sl_thm4_bound(
            [f / sum(dominating) for f in dominating], psi, alpha
        )
    elif theorem == "thm5":
        phi = cell["params"]["phi"]
        assert phi == 0.01 or abs(phi - max(a - b for a, b in zip(p, p2))) <= 1e-12
        direction, bound = sl.sl_thm5_bound(p2, phi, alpha, variant)
    elif theorem in ("thm6", "thm6_avg"):
        lhs, direction, bound = sl.sl_thm6(
            f1, f2, *row.weights, alpha, variant, symmetric=theorem == "thm6_avg"
        )
    else:  # conn_linear, conn_exp
        lo, hi = sl.sl_conn_interval(
            len(p), row.spec.coeffs, alpha, row.spec.kind, row.spec.beta, variant
        )
        for got, want in ((cell["params"]["bound_lower"], lo),
                          (cell["params"]["bound_upper"], hi)):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        # at the interval's midpoint either end is the nearer one
        nearer = lo if cell["bound"] == cell["params"]["bound_lower"] else hi
        return None, lhs, nearer, min(lhs - lo, hi - lhs)
    return met, lhs, bound, (bound - lhs if direction == "upper" else lhs - bound)
