import csv
import io
import json
import random

import pytest

from graphent import (
    DomainError,
    FunctionalTemplate,
    SweepConfig,
    generate_corpus,
    run_sweep,
    summarize_report,
)
from graphent import cli
from graphent.harness import ALL_THEOREMS, THEOREMS, _aggregate

# marks a field to leave out of a config dict
DROP = object()


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

    def test_aggregate_order_independent(self):
        rep = run_sweep(small_config())
        shuffled = list(rep.cells)
        random.Random(7).shuffle(shuffled)
        assert _aggregate(shuffled) == rep.aggregates


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
            families = {c["params"]["family"] for c in cells}
            if theorem.functional:
                assert "orbit" not in families, theorem.id
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
