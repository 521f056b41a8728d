import csv
import io
import json
import math
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import straightline as sl
from canonical import expand_cells, first_difference, strict_loads
from graphent import (
    Distribution,
    DomainError,
    FunctionalSpec,
    FunctionalTemplate,
    FunctionalValues,
    SweepConfig,
    distance_matrix,
    generate_corpus,
    generate_graph,
    run_sweep,
    summarize_report,
    vertex_orbits,
)
import graphent.harness as harness
import graphent.inequalities as inequalities
import graphent.orbits as orbits
from graphent import cli
from graphent.graph import GNP_MAX_REDRAWS, Graph
from graphent.harness import (
    ALL_THEOREMS,
    SweepReport,
    _column,
    _Family,
    _family_rows,
    _Row,
    _Sweep,
    stream_sweep,
)
from graphent.inequalities import (
    THEOREMS,
    TOLERANCE,
    VARIANTS,
    BoundInputs,
    Column,
    _outcomes,
    _weighted_sum,
    evaluate,
)

# marks a field to leave out of a config dict
DROP = object()


def _outcome(lhs, bound, direction, varying=()):
    """One alpha's (holds, lhs, bound, slack, *varying, direction) in a
    column "t", or the reason it failed."""
    names = tuple(f"v{k}" for k in range(len(varying)))
    params = {name: [value] for name, value in zip(names, varying)}
    return _outcome_at(
        _outcomes("t", params, names, [lhs], [bound], [direction]), 0
    )


def _outcome_at(column, i):
    """column's alpha i as (holds, lhs, bound, slack, *varying, direction),
    or the reason it failed."""
    if column.reason[i] is not None:
        return column.reason[i]
    return (
        column.holds[i], column.lhs[i], column.bound[i], column.slack[i],
        *(column.params[name][i] for name in column.varying), column.direction[i],
    )


def _column_of(theorem_id, params, outcomes, varying=()):
    """A hand-built Column holding per alpha an _outcome tuple or a reason;
    params holds None for each varying param."""
    width = 5 + len(varying)
    reasons = [o if isinstance(o, str) else None for o in outcomes]
    rows = [(None,) * width if isinstance(o, str) else o for o in outcomes]
    holds, lhs, bound, slack, *values, direction = map(list, zip(*rows))
    return Column(
        theorem_id, {**params, **dict(zip(varying, values))}, tuple(varying),
        holds, lhs, bound, slack, direction, reasons,
    )


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
        doc.update(
            seed=42.0, trials_per_cell=2.0, n_range=[3.0, 5], alpha_grid=[0.5, 2]
        )
        assert SweepConfig.from_dict(doc) == small_config()

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"seed": DROP}, "missing SweepConfig field.*'seed'"),
            ({"alpha_grdi": [0.5]}, "unknown SweepConfig field"),
            ({"n_range": 5}, "malformed"),
            ({"functional_specs": 5}, "malformed"),
            ({"functional_specs": [{"beta": 2.0}]},
             "missing FunctionalTemplate field.*'kind'"),
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
            # a str or a bool is refused, not coerced or read char by char
            ({"n_range": "34"}, "malformed n_range: expected a list, got str"),
            ({"seed": "7"}, "seed must be a whole number, got '7'"),
            ({"seed": True}, "seed must be a whole number, got True"),
            ({"trials_per_cell": "2"}, "trials_per_cell must be a whole number"),
            ({"n_range": [3, "4"]}, "n_range must be a whole number, got '4'"),
            ({"edge_probabilities": [0.5, "0.8"]},
             "edge_probabilities must hold numbers, got '0.8'"),
            ({"alpha_grid": [0.5, True]}, "alpha_grid must hold numbers, got True"),
            ({"theorems": "thm1"}, "malformed theorems: expected a list, got str"),
            ({"variants": "literal"}, "malformed variants: expected a list, got str"),
            ({"functional_specs": [{"kind": "linear", "c_range": ["0.5", 2.0]}]},
             "c_range must hold numbers, got '0.5'"),
            ({"functional_specs": [{"kind": "exponential", "beta": True}]},
             "beta must be a number, got True"),
            ({"functional_specs": [{"kind": "exponential", "beta": "2"}]},
             "beta must be a number, got '2'"),
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

    def test_process_wide_caches_do_not_leak_between_sweeps(self):
        """A, then B, then A again in one interpreter: the seed-head cache
        warmed by one sweep leaves the next one's bytes alone, and A's bytes
        are those of a fresh interpreter."""
        a = small_config()
        b = small_config(seed=7, n_range=(3, 6), alpha_grid=(0.25, 0.5, 1.5, 3.0))
        first = summarize_report(run_sweep(a), "json")
        summarize_report(run_sweep(b), "json")
        assert summarize_report(run_sweep(a), "json") == first
        script = (
            "import json, sys; from graphent import SweepConfig, run_sweep, "
            "summarize_report; cfg = SweepConfig.from_dict(json.loads(sys.argv[1])); "
            "sys.stdout.write(summarize_report(run_sweep(cfg), 'json'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(a.to_dict())],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == first

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
        # (functional_values names that cause) and the connected-graph
        # interval has nothing to span
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
            "linear": "linear functional is 0 on a one-vertex graph "
            "(diameter 0, no spheres)",
            "exponential_b0.5": no_edge,
            "exponential_b2": no_edge,
        }
        # per alpha: 6 cells on the orbit row and 17 on each functional row
        assert len(rep.cells) == 8 * (6 + 3 * 17)
        json.loads(summarize_report(rep, "json"))

    def test_thm5_power_sum_underflow_fails_only_its_alpha(self):
        # sum p2**2000 underflows to 0 on every row, so thm5's power mean
        # has nothing to divide by at alpha 2000 alone
        big = run_sweep(small_config(alpha_grid=(2.0, 2000.0), theorems=("thm5",)))
        two = run_sweep(small_config(alpha_grid=(2.0,), theorems=("thm5",)))
        assert [c for c in big.cells if c["alpha"] == 2.0] == two.cells
        at_2000 = [c for c in big.cells if c["alpha"] == 2000.0]
        assert len(at_2000) == len(two.cells)
        for cell in at_2000:
            assert (cell["holds"], cell["precondition_met"]) == (None, False)
            assert cell["params"]["reason"] == (
                "thm5 power_sum_2 underflows a float at alpha = 2000"
            )
        json.loads(summarize_report(big, "json"))

    def test_thm5_pair_failure_fails_only_thm5_cells(self, monkeypatch):
        cfg = small_config(n_range=(3, 4), trials_per_cell=1)
        full = run_sweep(cfg)

        def refuse(*args):
            raise DomainError("x")

        monkeypatch.setattr(harness, "_thm5_pair", refuse)
        rep = run_sweep(cfg)
        assert [_cell_key(c) for c in rep.cells] == [_cell_key(c) for c in full.cells]
        thm5 = 0
        for cell, expected in zip(rep.cells, full.cells):
            if cell["theorem"] == "thm5":
                thm5 += 1
                assert (cell["holds"], cell["precondition_met"]) == (None, False)
                assert cell["params"] == {"family": cell["params"]["family"],
                                          "reason": "x"}
            else:
                assert cell == expected
        assert thm5 > 0

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
        # 0.0 and -0.0 tie, and the first in cell order is the minimum. The
        # fourth column's alphas give a reason, a not-applicable outcome, a
        # held one and a violated one, in that order
        def column(theorem_id, outcomes):
            return _column_of(theorem_id, {}, outcomes)

        held_zero = _outcome(1.0, 1.0, "upper")  # slack 0.0
        held_minus_zero = _outcome(1.0, 1.0, "equal")  # slack -0.0
        violated = _outcome(2.0, 1.0, "upper")
        not_applicable = _outcome_at(_outcomes(
            "t", {}, (), [2.0], [5.0], ["upper"], precondition_met=False
        ), 0)
        plan = [(THEOREMS[i], "na") for i in range(4)]
        rows = [_Row("orbit", plan, [
            column("a", [held_zero, violated, held_zero, held_zero]),
            column("b", [violated, held_minus_zero, held_zero, held_zero]),
            column("c", [held_zero, held_minus_zero, held_zero, held_zero]),
            column("d", ["d failed here", not_applicable, held_zero, violated]),
        ])]
        cfg = small_config(alpha_grid=(0.5, 2.0, 3.0, 4.0))
        sweep = _Sweep(cfg)
        sweep._fold("g", generate_graph("path", 3), rows)
        rep = SweepReport(graphs=[("g", rows)], **sweep.summary())
        assert list(rep.exemplars) == ["jensen|na", "ordering|na", "thm1_eps|na"]
        assert repr(rep.aggregates["thm1|na"]["min_slack"]) == "0.0"
        mixed = rep.aggregates["thm1_eps|na"]
        assert (mixed["checked"], mixed["held"], mixed["violated"]) == (4, 1, 1)
        assert mixed["not_applicable"] == 2 and mixed["min_slack"] == -1.0
        assert mixed["mean_slack"] == -0.5  # the held 0.0 and the violated -1.0
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


def _round_trip(report):
    """report's canonical JSON, checked three ways: it is the oracle's text,
    it parses strictly, and expanding its columns gives report.cells, as
    json.dumps text. Returns the text and the expanded cells."""
    text = summarize_report(report, "json")
    _assert_same_text(text, _oracle(report))
    cells = list(expand_cells(strict_loads(text)))
    assert first_difference(cells, report.cells) is None
    return text, cells


def _assert_same_text(got, want):
    """got == want. On a mismatch, fail naming the first differing offset
    with a short window of each side: pytest's own diff of two multi-MB
    strings can run for minutes."""
    if got == want:
        return
    at = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
        min(len(got), len(want)),
    )
    lo, hi = max(0, at - 80), at + 80
    pytest.fail(
        f"texts differ at offset {at} (lengths {len(got)} and {len(want)})\n"
        f"got:  {got[lo:hi]!r}\nwant: {want[lo:hi]!r}",
        pytrace=False,
    )


# the sweep_catalog benchmark's corpus shape
CATALOG_SHAPE = dict(
    n_range=(3, 6), edge_probabilities=(0.3, 0.5, 0.8), trials_per_cell=1
)


class TestCanonicalWriter:
    """summarize_report writes the canonical JSON graph by graph; it must
    give the bytes of json.dumps over the document built from the columns,
    and expanding its columns must give back every cell."""

    @pytest.mark.parametrize("seed", range(4))
    def test_catalog_corpus_seeds(self, seed):
        _round_trip(run_sweep(SweepConfig(seed=seed, **CATALOG_SHAPE)))

    def test_orbit_budget_of_one(self, monkeypatch):
        monkeypatch.setattr(orbits, "ORBIT_NODE_BUDGET", 1)
        rep = run_sweep(small_config(trials_per_cell=1))
        assert any(c["lhs"] is None for c in rep.cells)
        _round_trip(rep)

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
        _round_trip(run_sweep(cfg))

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
        evaluated = _column_of(
            "t", {"mode": "50%", "%x": 1, "h": None}, [
                _outcome(1.0, 2.0, "upper", (0.5,)),
                _outcome(2.0, 1.0, "lower", (0.25,)),
            ], ("h",),
        )
        rep = self._report(
            Column.failed("t", reason, 2), evaluated,
            graph_id="g%s%%", family="f%r",
        )
        _, cells = _round_trip(rep)
        assert reason in {c["params"].get("reason") for c in cells}

    def test_signed_zeros_stay_apart(self):
        # slack -|0 - 0| is -0.0, and no value is merged with an equal one
        column = _column_of(
            "t", {"zero": 0.0, "minus_zero": -0.0, "h": None},
            [_outcome(0.0, 0.0, "equal", (-0.0,)),
             _outcome(-0.0, 0.0, "equal", (0.0,))],
            ("h",),
        )
        _, cells = _round_trip(self._report(column))
        signs = [
            [math.copysign(1.0, v) for v in
             (c["lhs"], c["slack"], c["params"]["zero"], c["params"]["minus_zero"],
              c["params"]["h"])]
            for c in cells
        ]
        assert signs == [[1.0, -1.0, 1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, -1.0, 1.0]]

    def test_equal_keys_keep_their_own_texts(self):
        """0.0 == -0.0, 0.1 == np.float64(0.1) and 1.0 == 1 == True compare
        equal. Each value must keep its own text whichever comes first, in
        one graph and in the next."""

        def zeros():
            return _column_of(
                "t", {"zero": 0.0, "minus_zero": -0.0, "h": None},
                [_outcome(0.0, 0.0, "equal", (-0.0,)),
                 _outcome(-0.0, 0.0, "equal", (0.0,))],
                ("h",),
            )

        def ones():
            return _column_of(
                "t", {"int": 1, "bool": True, "h": None},
                [_outcome(1.0, 2.0, "upper", (1.0,))] * 2, ("h",),
            )

        def numpy_tenth():
            return _column_of(
                "t", {"c": np.float64(0.1)}, [_outcome(0.5, 1.0, "upper")] * 2
            )

        def python_tenth():
            return _column_of(
                "t", {"c": 0.1, "h": None},
                [_outcome(0.1, 1.0, "upper", (0.1,))] * 2, ("h",),
            )

        cfg = SweepConfig(seed=0, n_range=(1, 1), edge_probabilities=(),
                          trials_per_cell=1, alpha_grid=(0.5, 2.0))
        plan2 = [(THEOREMS[0], "na")] * 2
        rep = SweepReport(
            config=cfg, aggregates={}, exemplars={}, runtime_seconds=0.0,
            corpus_size=2, gnp_redraws=0,
            graphs=[
                ("g1", [_Row("a", plan2, [zeros(), ones()]),
                        _Row("b", plan2, [numpy_tenth(), python_tenth()])]),
                ("g2", [_Row("a", plan2, [ones(), zeros()]),
                        _Row("b", plan2, [python_tenth(), numpy_tenth()])]),
            ],
        )
        text, cells = _round_trip(rep)
        assert {c["params"].get("int").__class__ for c in cells} == {int, type(None)}
        assert "np.float64" not in text and "True" not in text

    def test_variants_share_lists_by_identity_only(self):
        """A variant's entry omits a shared field only where its Column holds
        the first variant's very object. thm1's variants hold lhs lists and
        params that are equal under == but not as text (0.0 and -0.0; 1, 1.0
        and True), so each is written and expands to its own values; thm5's
        second variant holds the first one's objects, so only its own lists
        are written."""
        by_id = {t.id: t for t in THEOREMS}
        literal = _column_of(
            "thm1", {"c": 1, "h": None},
            [_outcome(0.0, 1.0, "upper", (1,)), _outcome(1, 2.0, "upper", (True,))],
            ("h",),
        )
        corrected = _column_of(
            "thm1", {"c": 1.0, "h": None},
            [_outcome(-0.0, 1.0, "upper", (1.0,)), _outcome(True, 2.0, "upper", (1,))],
            ("h",),
        )
        first = _column_of("thm5", {"c": True}, [_outcome(1.0, 2.0, "upper")] * 2)
        second = first._replace(bound=[3.0, 3.0], slack=[2.0, 2.0])
        plan = [(by_id[t], v) for t in ("thm1", "thm5") for v in VARIANTS]
        cfg = SweepConfig(seed=0, n_range=(1, 1), edge_probabilities=(),
                          trials_per_cell=1, alpha_grid=(0.5, 2.0))
        rep = SweepReport(
            config=cfg, aggregates={}, exemplars={}, runtime_seconds=0.0,
            corpus_size=1, gnp_redraws=0,
            graphs=[("g", [_Row("orbit", plan, [literal, corrected, first, second])])],
        )
        text, cells = _round_trip(rep)
        thm1, thm5 = strict_loads(text)["columns"]
        own = {"precondition_met", "holds", "bound", "slack", "reason"}
        assert list(thm1["variants"]) == list(VARIANTS)
        assert set(thm1["variants"]["corrected"]) == own | {"lhs", "params", "direction"}
        assert set(thm5["variants"]["corrected"]) == own

        def texts(key, variant):
            return json.dumps([
                c[key] for c in cells if (c["theorem"], c["variant"]) == ("thm1", variant)
            ])

        assert texts("lhs", "literal") == "[0.0, 1]"
        assert texts("lhs", "corrected") == "[-0.0, true]"
        tail = '"family": "orbit", "direction": "upper", "tolerance": 1e-09}'
        assert texts("params", "literal") == (
            '[{"c": 1, "h": 1, ' + tail + ', {"c": 1, "h": true, ' + tail + "]"
        )
        assert texts("params", "corrected") == (
            '[{"c": 1.0, "h": 1.0, ' + tail + ', {"c": 1.0, "h": 1, ' + tail + "]"
        )

    def test_numpy_floats_render_as_floats(self):
        column = _column_of(
            "t", {"c": np.float64(0.1), "n": 3, "h": None},
            [_outcome(np.float64(1.0), np.float64(2.0), "upper",
                     (np.float64(1.0 / 3.0),))] * 2,
            ("h",),
        )
        text, _ = _round_trip(self._report(column))
        assert "np.float64" not in text

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, np.float64(math.inf)]
    )
    def test_non_finite_param_raises_like_json(self, value):
        column = _column_of("t", {"c": value}, [_outcome(1.0, 2.0, "upper")] * 2)
        rep = self._report(column)
        with pytest.raises(ValueError):
            _oracle(rep)
        with pytest.raises(ValueError):
            summarize_report(rep, "json")

    def test_non_finite_varying_param_is_a_domain_error(self):
        assert _outcome(1.0, 2.0, "upper", (math.inf,)) == (
            "t params are not finite: (inf,)"
        )

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
        # the config, one chunk of columns per graph with a separator between
        # graphs, and the aggregates and exemplars
        assert len(chunks) == 1 + (2 * len(rep.graphs) - 1) + 1


@pytest.fixture(scope="module")
def report():
    return run_sweep(small_config(n_range=(3, 4)))


class TestSummaries:

    def test_json_round_trip_byte_identical(self, report):
        text = summarize_report(report, "json")
        _assert_same_text(json.dumps(strict_loads(text)), text)

    def test_json_schema_keys(self, report):
        doc = json.loads(summarize_report(report, "json"))
        assert list(doc.keys()) == ["config", "columns", "aggregates", "exemplars"]
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

    def test_check_agrees_with_the_sweep_bit_for_bit(self):
        """`graphent check`, given a row's probabilities and constants as
        repr strings, evaluates the sweep's cell to the same bits."""
        cfg = small_config(seed=3, n_range=(4, 5), alpha_grid=(0.5, 2.0))
        rows = {(graph_id, row.label): row for graph_id, row in _rows(cfg)}

        def probs(d):
            return ",".join(map(repr, d.probs))

        compared = set()
        for cell in run_sweep(cfg).cells:
            theorem, variant = cell["theorem"], cell["variant"]
            row = rows[cell["graph_id"], cell["params"]["family"]]
            inputs = row.own.get(theorem, row.inputs)
            if cell["params"]["family"] == "orbit":
                if theorem not in ("ordering", "jensen", "thm1", "thm1_eps"):
                    continue
                flags = ["--probs", probs(inputs.dist)]
                if theorem == "thm1_eps":
                    theorem, flags = "thm1", [*flags, "--use-epsilon"]
            elif theorem == "thm4":
                flags = ["--probs1", probs(inputs.dist),
                         "--probs2", probs(inputs.fv_second.distribution),
                         "--psi", repr(cell["params"]["psi"])]
            elif theorem == "thm5":
                flags = ["--probs1", probs(inputs.dist),
                         "--probs2", probs(inputs.dist_second),
                         "--phi", repr(inputs.phi)]
            else:
                continue
            if variant != "na":
                flags += ["--variant", variant]
            status, out = cli.dispatch(
                ["check", theorem, "--alpha", repr(cell["alpha"]), *flags]
            )
            where = (cell["theorem"], variant, cell["alpha"], cell["graph_id"])
            if cell["lhs"] is None:
                assert status == 2, where
                continue
            assert status == 0, where
            doc = json.loads(out)
            got = tuple(map(float.hex, (doc["lhs"], doc["bound"], doc["slack"])))
            want = tuple(map(float.hex, (cell["lhs"], cell["bound"], cell["slack"])))
            assert got == want, where
            compared.add(cell["theorem"])
        assert compared == {"ordering", "jensen", "thm1", "thm1_eps", "thm4", "thm5"}


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


# A grid whose alpha 5000 takes thm1's rho power and thm5's power sum past
# float range on some rows of this corpus, each variant on its own rows.
WIDE_CONFIG = dict(
    seed=3, n_range=(3, 6), trials_per_cell=1, alpha_grid=(0.5, 2.0, 5000.0)
)


def _assert_same_column(got, want, where):
    """got and want hold the same lists and values, bit for bit."""
    for name in Column._fields:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), (name, where)


class TestColumnCores:
    def test_fused_cores_equal_one_variant_calls(self):
        """An id with a literal/corrected split gives, from one core call
        over both variants, each variant's one-variant Column, list for
        list, including the alphas whose reasons differ by variant."""
        cfg = small_config(**WIDE_CONFIG)
        fused_rows = _rows(cfg)
        single_rows = {variant: _rows(cfg) for variant in VARIANTS}
        reasons = Counter()
        for theorem in THEOREMS:
            if not theorem.variants:
                continue
            for i, (graph_id, row) in enumerate(fused_rows):
                if row.kind not in theorem.kinds:
                    continue
                record = row.own.get(theorem.id, row.inputs)
                fused = theorem.column(record, cfg.alpha_grid, VARIANTS, 2.0)
                assert len(fused) == len(VARIANTS)
                for variant, got in zip(VARIANTS, fused):
                    single = single_rows[variant][i][1]
                    (want,) = theorem.column(
                        single.own.get(theorem.id, single.inputs), cfg.alpha_grid,
                        (variant,), 2.0,
                    )
                    _assert_same_column(got, want, (theorem.id, variant, graph_id))
                    reasons[theorem.id, variant] += sum(
                        reason is not None for reason in got.reason
                    )
        assert (reasons["thm1", "literal"], reasons["thm1", "corrected"]) == (44, 45)
        assert reasons["thm5", "literal"] == reasons["thm5", "corrected"] == 69

    def test_conn_exp_precondition_is_per_variant(self):
        """beta < 1 fails the literal precondition and not the corrected
        one, from one fused call as from two one-variant calls."""
        conn_exp = next(t for t in THEOREMS if t.id == "conn_exp")
        spec = FunctionalSpec("exponential", coeffs=(1.0, 2.0, 0.5), beta=0.5)
        record = BoundInputs(graph=generate_graph("path", 4), spec=spec)
        fused = conn_exp.column(record, COLUMN_GRID, VARIANTS, 2.0)
        assert [column.precondition_met for column in fused] == [False, True]
        assert fused[0].params["reason"] == "literal form needs beta >= 1"
        assert "reason" not in fused[1].params
        assert all(h is None for h in fused[0].holds)
        assert None not in fused[1].holds
        for variant, got in zip(VARIANTS, fused):
            (want,) = conn_exp.column(record, COLUMN_GRID, (variant,), 2.0)
            _assert_same_column(got, want, variant)

    def test_sweep_calls_each_core_once_per_row_and_theorem(self, monkeypatch):
        calls = Counter()

        def counted(theorem):
            def column(inputs, alphas, variants, base):
                calls[theorem.id] += 1
                return theorem.column(inputs, alphas, variants, base)

            return theorem._replace(column=column)

        monkeypatch.setattr(harness, "THEOREMS", tuple(map(counted, THEOREMS)))
        rep = run_sweep(small_config())
        rows = [row for _, rows in rep.graphs for row in rows]
        assert calls == Counter(
            theorem_id for row in rows for theorem_id in {t.id for t, _ in row.plan}
        )
        assert sum(len(row.plan) for row in rows) > sum(calls.values())

    def test_every_list_spans_the_grid(self):
        """Every list of every swept Column holds one entry per alpha; at a
        failed alpha each holds None and reason the reason."""
        cfg = small_config(**WIDE_CONFIG)
        failed = 0
        for _, rows in run_sweep(cfg).graphs:
            for row in rows:
                for column in row.columns:
                    lists = [
                        column.holds, column.lhs, column.bound, column.slack,
                        column.direction,
                        *(column.params[name] for name in column.varying),
                    ]
                    assert len(column.reason) == len(cfg.alpha_grid)
                    assert all(len(x) == len(cfg.alpha_grid) for x in lists)
                    for i, reason in enumerate(column.reason):
                        if reason is None:
                            assert None not in [x[i] for x in lists[1:]]
                            continue
                        assert isinstance(reason, str)
                        assert all(x[i] is None for x in lists)
                        failed += 1
        assert failed == 360

    def test_variants_come_in_config_order(self):
        rep = run_sweep(small_config(variants=("corrected", "literal")))
        reference = run_sweep(small_config())
        for (graph_id, rows), (_, ref_rows) in zip(rep.graphs, reference.graphs):
            for row, ref_row in zip(rows, ref_rows):
                ref = {
                    (t.id, v): c for (t, v), c in zip(ref_row.plan, ref_row.columns)
                }
                keys = [(t.id, v) for t, v in row.plan]
                assert sorted(keys) == sorted(ref)
                for (theorem_id, variant), column in zip(keys, row.columns):
                    if variant != "na":
                        order = [v for t, v in keys if t == theorem_id]
                        assert order == ["corrected", "literal"]
                    where = (graph_id, row.family, theorem_id, variant)
                    _assert_same_column(column, ref[theorem_id, variant], where)
        doc = strict_loads(summarize_report(rep, "json"))
        variants = [list(c["variants"]) for c in doc["columns"] if c["theorem"] == "thm1"]
        assert variants and all(v == ["corrected", "literal"] for v in variants)

    def test_grid_column_equals_one_row_calls(self):
        cfg = small_config(trials_per_cell=1, alpha_grid=COLUMN_GRID)
        grid_rows = _rows(cfg)
        one_row = [_rows(cfg) for _ in COLUMN_GRID]
        checked = set()
        for theorem, variant in _plan():
            for i, (graph_id, row) in enumerate(grid_rows):
                if row.kind not in theorem.kinds:
                    continue
                (column,) = _column(row, theorem, COLUMN_GRID, (variant,))
                assert len(column.reason) == len(COLUMN_GRID)
                for ai, alpha in enumerate(COLUMN_GRID):
                    (single,) = _column(
                        one_row[ai][i][1], theorem, (alpha,), (variant,)
                    )
                    # an outcome tuple (holds, lhs, bound, slack, ...) with the
                    # same params, or the same error message
                    got, want = _outcome_at(column, ai), _outcome_at(single, 0)
                    where = (theorem.id, variant, graph_id, alpha)
                    assert got == want, where
                    if not isinstance(want, str):
                        assert column.params_at(ai) == single.params_at(0), where
                        assert column.precondition_met is single.precondition_met
                    checked.add((theorem.id, isinstance(want, str)))
        evaluated = {t for t, failed in checked if not failed}
        assert evaluated == set(ALL_THEOREMS)

    def test_thm5_reads_the_rows_own_distributions(self, monkeypatch):
        """thm5's record holds the row's dist and fv_second's distribution
        exactly where numpy's p1 and p2 have their probs bit for bit, and
        its columns, read after the row's other columns filled those memos,
        equal columns on fresh copies of p1 and p2."""
        cfg = small_config()
        thm5 = next(t for t in THEOREMS if t.id == "thm5")
        swept = {
            (graph_id, row.family, variant): column
            for graph_id, rows in run_sweep(cfg).graphs
            for row in rows
            for (theorem, variant), column in zip(row.plan, row.columns)
            if theorem is thm5
        }
        pairs, pair = [], harness._thm5_pair
        monkeypatch.setattr(
            harness, "_thm5_pair", lambda *args: pairs.append(pair(*args)) or pairs[-1]
        )
        shared = [0, 0]
        for gi, (graph_id, g) in enumerate(generate_corpus(cfg)):
            for fam in _family_rows(cfg, g, gi, distance_matrix(g)):
                if fam.kind == "orbit":
                    continue
                p1, p2 = pairs.pop(0)
                record, row = fam.own["thm5"], fam.inputs
                for i, (got, numpy_p, own) in enumerate([
                    (record.dist, p1, row.dist),
                    (record.dist_second, p2, row.fv_second.distribution),
                ]):
                    assert got is (own if own.probs == numpy_p.probs else numpy_p)
                    shared[i] += got is own
                fresh = fam._replace(own={"thm5": record._replace(
                    dist=Distribution(p1.probs), dist_second=Distribution(p2.probs)
                )})
                wants = _column(fresh, thm5, cfg.alpha_grid, cfg.variants)
                for variant, want in zip(cfg.variants, wants):
                    assert repr(swept[graph_id, fam.label, variant]) == repr(want)
        assert not pairs and shared[0] > 0 and shared[1] > 0

    def test_sweep_builds_no_bound_report(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built a BoundReport")

        monkeypatch.setattr(inequalities.BoundReport, "__init__", refuse)
        assert run_sweep(small_config(n_range=(3, 4))).cells

    def test_sweep_matches_straightline_reference(self):
        cfg = small_config(trials_per_cell=1, alpha_grid=SweepConfig.alpha_grid)
        rows = {(graph_id, row.label): row.inputs for graph_id, row in _rows(cfg)}
        evaluated = 0
        for cell in run_sweep(cfg).cells:
            if cell["lhs"] is None:
                continue
            evaluated += 1
            inputs = rows[cell["graph_id"], cell["params"]["family"]]
            met, lhs, bound, slack = _straightline(cell, inputs)
            where = (cell["theorem"], cell["variant"], cell["alpha"], cell["graph_id"])
            for got, want in ((cell["lhs"], lhs), (cell["bound"], bound)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), where
            met = cell["precondition_met"] if met is None else met
            assert cell["precondition_met"] is met, where
            assert cell["holds"] is (slack >= -TOLERANCE if met else None), where
        assert evaluated > 0


def test_thm4_cores_derive_what_the_record_leaves_none():
    """thm4's p2 and psi and thm4_cor's p2 (the dominating functional's
    distribution) and totals, derived by the core from fv and fv_second,
    give the bits of a record that carries them."""
    cfg = small_config(trials_per_cell=1, alpha_grid=SweepConfig.alpha_grid)
    checked = 0
    for _, row in _rows(cfg):
        if row.kind == "orbit" or isinstance(row.inputs, str):
            continue
        d1, fv, fv2 = row.inputs.dist, row.inputs.fv, row.inputs.fv_second
        d2 = fv2.distribution
        dominating = _weighted_sum(fv, fv2, 1.0, 1.0)
        pairs = [
            ("thm4", BoundInputs(dist=d1, fv_second=fv2), BoundInputs(
                dist=d1, dist_second=d2,
                psi=max(a / b for a, b in zip(d1.probs, d2.probs)),
            )),
            ("thm4_cor", BoundInputs(dist=d1, fv=fv, fv_second=fv2), BoundInputs(
                dist=d1, dist_second=dominating.distribution,
                totals=(fv.total, dominating.total),
            )),
        ]
        for theorem_id, derived, explicit in pairs:
            for alpha in SweepConfig.alpha_grid:
                got, want = [], []
                for record, out in ((derived, got), (explicit, want)):
                    try:
                        out.append(repr(evaluate(theorem_id, record, alpha)))
                    except DomainError as exc:
                        out.append(str(exc))
                assert got == want, (theorem_id, alpha)
                checked += 1
    assert checked > 0


def _broken_records():
    """(theorem id, record) pairs, each record failing one of the id's own
    input checks."""
    two, three = Distribution([0.5, 0.5]), Distribution([0.2, 0.3, 0.5])
    apart = Graph.from_edges(4, [(0, 1), (2, 3)])
    star = generate_graph("star", 4)
    fv = FunctionalValues.from_values([1.0, 2.0, 3.0, 4.0])
    linear, exp = FunctionalSpec("linear"), FunctionalSpec("exponential", beta=2.0)
    thm6 = BoundInputs(graph=star, fv=fv, fv_second=fv, weights=(0.0, 1.0))
    return [
        ("thm3", BoundInputs(graph=apart, part=vertex_orbits(apart), fv=fv)),
        ("thm4", BoundInputs(dist=two, dist_second=three, psi=2.0)),
        ("thm4_cor", BoundInputs(dist=two, dist_second=three, totals=(1.0, 2.0))),
        ("thm5", BoundInputs(dist=two, dist_second=three, phi=0.1)),
        ("thm5", BoundInputs(dist=two, dist_second=two, phi=0.0)),
        ("thm6", thm6),
        ("thm6_avg", thm6),
        ("conn_linear", BoundInputs(graph=apart, spec=linear)),
        ("conn_exp", BoundInputs(graph=apart, spec=exp)),
        ("conn_linear", BoundInputs(graph=Graph.from_edges(1, []), spec=linear)),
        ("conn_exp", BoundInputs(graph=Graph.from_edges(1, []), spec=exp)),
    ]


@pytest.mark.parametrize(
    "theorem_id, record", _broken_records(),
    ids=[f"{t}-{i}" for i, (t, _) in enumerate(_broken_records())],
)
def test_sweep_and_evaluate_share_each_input_check(theorem_id, record):
    """A record that breaks an input check fails evaluate and the sweep's
    column alike, with one text at every alpha."""
    theorem = next(t for t in THEOREMS if t.id == theorem_id)
    variant = "corrected" if theorem.variants else "na"
    with pytest.raises(DomainError) as exc:
        evaluate(theorem_id, record, 2.0, variant)
    row = _Family("row", theorem.kinds[-1], record, {})
    (column,) = _column(row, theorem, COLUMN_GRID, (variant,))
    assert column.reason == [str(exc.value)] * len(COLUMN_GRID)
    assert column.holds == column.slack == [None] * len(COLUMN_GRID)


def _straightline(cell, inputs):
    """(precondition or None when the reference has none, lhs, bound, slack)
    of one cell, from the row's raw inputs through tests/straightline.py.

    thm5's phi is read from the cell: the sweep floors a phi of 0 at 0.01,
    and p1 - p2 is 0 exactly in one float evaluation and 1e-17 in another.
    """
    theorem, variant, alpha = cell["theorem"], cell["variant"], cell["alpha"]
    if inputs.fv is None:  # the orbit row
        sizes = list(inputs.part.sizes)
        p = [size / sum(sizes) for size in sizes]
    else:
        f1, f2 = list(inputs.fv.linear), list(inputs.fv_second.linear)
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
        sizes = list(inputs.part.sizes)
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
            f1, f2, *inputs.weights, alpha, variant, symmetric=theorem == "thm6_avg"
        )
    else:  # conn_linear, conn_exp
        lo, hi = sl.sl_conn_interval(
            len(p), inputs.spec.coeffs, alpha, inputs.spec.kind, inputs.spec.beta,
            variant,
        )
        for got, want in ((cell["params"]["bound_lower"], lo),
                          (cell["params"]["bound_upper"], hi)):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        # at the interval's midpoint either end is the nearer one
        nearer = lo if cell["bound"] == cell["params"]["bound_lower"] else hi
        return None, lhs, nearer, min(lhs - lo, hi - lhs)
    return met, lhs, bound, (bound - lhs if direction == "upper" else lhs - bound)
