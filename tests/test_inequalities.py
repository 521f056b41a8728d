import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

import straightline as sl
from graphent import (
    Distribution,
    DomainError,
    FunctionalSpec,
    FunctionalValues,
    class_closed_forms,
    connected_functional_bounds,
    distance_matrix,
    distribution_from_values,
    functional_values,
    generate_graph,
    jensen_gap_bound,
    lemma_checks,
    ordering_bound,
    renyi_entropy,
    thm1_refined_bound,
    thm3_partition_vs_functional,
    thm4_scaled_dominance,
    thm5_additive_dominance,
    thm6_convex_combination,
    vertex_orbits,
)
from graphent.harness import DEFAULT_ALPHA_GRID, FunctionalTemplate, SweepConfig
from graphent.inequalities import (
    THEOREMS,
    BoundInputs,
    _jensen_sums,
    _thm1_column,
    evaluate,
)

# frozen via an independent high-precision evaluation (mpmath, 40 digits)
L3_GAP = 0.3219280948873623
L3_BOUND = 0.8115159605000419
JENSEN_GAP_91 = 0.2090763115233564
JENSEN_BOUND_91 = 0.3462468098133512
LITERAL_LOW_ALPHA_BOUND = 0.4957121684205583
CORRECTED_LOW_ALPHA_BOUND = 19.945378645590287
RENYI_91_A05 = 0.6780719051126376
SHANNON_99 = 0.0807931358959112
LITERAL_HIGH_ALPHA_BOUND = 0.0516477815345180
RENYI_99_A3 = 0.0217486111149779
THM3_S4_LHS = 0.8999686269529917
THM3_S4_BOUND = 4.157728441894158
THM4_EX_BOUND = 1.8999686269529917
THM5_EX_BOUND = 1.8944271909999159


def dist(*values):
    return Distribution(p=np.array(values, dtype=float))


def _decimal_pair_sum(probs, alpha):
    """Lemma 3's sum over ordered pairs of p_i p_j (x_i - x_j)**2 / (x_i x_j),
    x = p**(alpha-1), in 50-digit decimal from the exact float inputs."""
    with localcontext() as ctx:
        ctx.prec = 50
        p = [Decimal(v) for v in probs]
        x = [((Decimal(alpha) - 1) * v.ln()).exp() for v in p]
        return 2 * sum(
            p[i] * p[j] * (x[i] - x[j]) ** 2 / (x[i] * x[j])
            for i in range(len(p))
            for j in range(i + 1, len(p))
        )


def tol_ok(report):
    assert report.holds is (report.slack >= -report.tolerance)


class TestLemmaExamples:
    def test_l1_hand_example(self):
        from graphent.inequalities import _check_lemma1

        check = _check_lemma1(2.0, 1.0, 2.0)
        # chain evaluates to 2 < 3 < 4
        assert check.satisfied and check.margin == pytest.approx(1.0)

    def test_l2_equality_at_disjoint_supports(self):
        from graphent.inequalities import _check_lemma2

        rows = [[1.0, 0.0], [0.0, 1.0]]
        check = _check_lemma2(rows, 0.5)
        assert check.satisfied
        assert check.margin == pytest.approx(0.0, abs=1e-12)

    def test_l3_hand_example(self):
        from graphent.inequalities import _check_lemma3

        check = _check_lemma3([0.5, 0.5], [1.0, 4.0])
        assert check.satisfied
        gap = math.log2(2.5) - 1.0
        assert gap == pytest.approx(L3_GAP, abs=1e-14)
        assert check.margin == pytest.approx(min(L3_GAP, L3_BOUND - L3_GAP), abs=1e-12)

    def test_seeded_runs_are_clean(self):
        checks = lemma_checks(seed=20240811, trials=2000)
        assert len(checks) == 6000
        assert all(c.satisfied for c in checks)

    def test_deterministic(self):
        a = lemma_checks(seed=5, trials=10)
        b = lemma_checks(seed=5, trials=10)
        assert [(c.lemma_id, c.inputs, c.margin) for c in a] == [
            (c.lemma_id, c.inputs, c.margin) for c in b
        ]
        other = lemma_checks(seed=6, trials=10)
        assert [c.inputs for c in other] != [c.inputs for c in a]

    def test_dirichlet_draws_sum_to_one(self):
        """Lemma 3's p, a zeroed atom renormalized included, is a
        probability vector to 1e-15."""
        l3 = [c for c in lemma_checks(seed=9, trials=2000) if c.lemma_id == "L3"]
        assert any(0.0 in c.inputs["p"] for c in l3)
        assert {len(c.inputs["p"]) for c in l3} == {2, 3, 4, 5, 6}
        for c in l3:
            assert all(x >= 0.0 for x in c.inputs["p"])
            assert abs(math.fsum(c.inputs["p"]) - 1.0) <= 1e-15

    def test_trials_validation(self):
        with pytest.raises(DomainError):
            lemma_checks(seed=1, trials=0)


class TestJensenGap:
    def test_frozen_example(self):
        r = jensen_gap_bound(dist(0.9, 0.1), 0.5)
        assert r.lhs - r.params["shannon"] == pytest.approx(JENSEN_GAP_91, abs=1e-12)
        assert r.bound - r.params["shannon"] == pytest.approx(
            JENSEN_BOUND_91, abs=1e-12
        )
        assert r.holds is True
        tol_ok(r)

    def test_uniform_equality(self):
        for alpha in (0.5, 2.0):
            r = jensen_gap_bound(dist(0.25, 0.25, 0.25, 0.25), alpha)
            assert r.slack == pytest.approx(0.0, abs=1e-12)
            assert r.holds is True

    def test_quarter_alpha2_both_sides_brute(self):
        p = [0.25, 0.75]
        r = jensen_gap_bound(dist(*p), 2.0)
        assert r.lhs == pytest.approx(sl.sl_renyi(p, 2.0), abs=1e-12)
        expected_bound = sl.sl_shannon(p) - sl.sl_jensen_bound(p, 2.0)
        assert r.bound == pytest.approx(expected_bound, abs=1e-12)
        assert r.holds is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_slack_is_domain_error(self):
        # the 1e-20 atom's pair terms are about 1e550, past float range
        raw = np.array([0.5, 0.5 - 1e-20, 1e-20])
        with pytest.raises(DomainError):
            jensen_gap_bound(Distribution(p=raw / raw.sum()), 30.0)

    @pytest.mark.parametrize("kind", ["sampled", "near_uniform", "tiny_atoms"])
    def test_sum_term_matches_50_digit_decimal(self, kind):
        """The sum term within 1e-14 relative of Lemma 3's sum over ordered
        pairs, p_i p_j (x_i - x_j)**2 / (x_i x_j) with x = p**(alpha-1),
        evaluated in 50-digit decimal on the same float inputs; inf only
        where that sum is past float range. Near-uniform atoms make
        x_i - x_j cancel, and atoms down to 1e-300 make h large."""
        rng = np.random.default_rng({"sampled": 1, "near_uniform": 2, "tiny_atoms": 3}[kind])
        alphas = (0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0)
        finite = 0
        for _ in range(25):
            size = int(rng.integers(2, 9))
            if kind == "sampled":
                raw = rng.uniform(0.01, 5.0, size=size)
            elif kind == "near_uniform":
                raw = 1.0 + rng.uniform(-1.0, 1.0, size=size) * 10.0 ** rng.uniform(-12, -3)
            else:
                raw = 10.0 ** rng.uniform(-300, 0, size=size)
            d = Distribution(p=raw / raw.sum())
            grid = alphas + tuple((10.0 ** rng.uniform(-3, 3, size=2)).tolist())
            for alpha, got in zip(grid, _jensen_sums(d, grid)):
                want = _decimal_pair_sum(d.probs, alpha)
                if math.isinf(got):
                    assert want > Decimal(sys.float_info.max), (d.probs, alpha)
                    continue
                finite += 1
                assert abs(Decimal(got) - want) <= Decimal("1e-14") * want, (d.probs, alpha)
        assert finite >= 150

    def test_holds_on_random_corpus(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            raw = rng.uniform(0.01, 5.0, size=int(rng.integers(2, 9)))
            d = Distribution(p=raw / raw.sum())
            for alpha in (0.25, 0.5, 0.9, 1.1, 2.0, 3.0):
                assert jensen_gap_bound(d, alpha).holds is True


class TestOrdering:
    def test_directions(self):
        d = dist(0.7, 0.3)
        low = ordering_bound(d, 0.5)
        high = ordering_bound(d, 2.0)
        assert low.direction == "lower" and low.holds is True
        assert high.direction == "upper" and high.holds is True

    def test_uniform_equality(self):
        r = ordering_bound(dist(0.5, 0.5), 0.5)
        assert r.slack == pytest.approx(0.0, abs=1e-12)


class TestThm1:
    def test_literal_low_alpha_counterexample(self):
        r = thm1_refined_bound(dist(0.9, 0.1), 0.5, "literal")
        assert r.bound == pytest.approx(LITERAL_LOW_ALPHA_BOUND, abs=1e-12)
        assert r.lhs == pytest.approx(RENYI_91_A05, abs=1e-12)
        assert r.holds is False
        tol_ok(r)

    def test_corrected_low_alpha_holds(self):
        r = thm1_refined_bound(dist(0.9, 0.1), 0.5, "corrected")
        assert r.bound == pytest.approx(CORRECTED_LOW_ALPHA_BOUND, abs=1e-9)
        assert r.holds is True

    def test_literal_high_alpha_counterexample(self):
        r = thm1_refined_bound(dist(0.99, 0.01), 3.0, "literal")
        assert r.params["shannon"] == pytest.approx(SHANNON_99, abs=1e-12)
        assert r.bound == pytest.approx(LITERAL_HIGH_ALPHA_BOUND, abs=1e-12)
        assert r.lhs == pytest.approx(RENYI_99_A3, abs=1e-12)
        assert r.holds is False

    def test_corrected_high_alpha_holds(self):
        assert thm1_refined_bound(dist(0.99, 0.01), 3.0, "corrected").holds is True

    def test_uniform_variants_coincide(self):
        d = dist(0.25, 0.25, 0.25, 0.25)
        for alpha in (0.5, 2.0, 3.0):
            lit = thm1_refined_bound(d, alpha, "literal")
            cor = thm1_refined_bound(d, alpha, "corrected")
            assert lit.bound == pytest.approx(cor.bound, abs=1e-12)
            assert lit.holds and cor.holds

    def test_literal_equals_corrected_between_one_and_two(self):
        # dividing by rho**(alpha-2) with a negative exponent is the same
        # as multiplying by rho**abs(alpha-2)
        d = dist(0.6, 0.3, 0.1)
        lit = thm1_refined_bound(d, 1.5, "literal")
        cor = thm1_refined_bound(d, 1.5, "corrected")
        assert lit.bound == pytest.approx(cor.bound, abs=1e-12)

    def test_epsilon_variant(self):
        d = dist(0.9, 0.1)
        r = thm1_refined_bound(d, 0.5, "corrected", use_epsilon=True)
        direction, bound = sl.sl_thm1_bound([0.9, 0.1], 0.5, "corrected", True)
        assert r.direction == direction
        assert r.bound == pytest.approx(bound, abs=1e-12)
        # literal alpha>1 carries no epsilon factor, exactly as printed
        lit = thm1_refined_bound(d, 3.0, "literal", use_epsilon=True)
        lit_plain = thm1_refined_bound(d, 3.0, "literal", use_epsilon=False)
        assert lit.bound == pytest.approx(lit_plain.bound, abs=1e-15)

    def test_corrected_holds_on_random_corpus(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            raw = rng.uniform(0.01, 5.0, size=int(rng.integers(2, 9)))
            d = Distribution(p=raw / raw.sum())
            for alpha in (0.25, 0.5, 0.9, 1.1, 2.0, 3.0):
                for use_eps in (False, True):
                    r = thm1_refined_bound(d, alpha, "corrected", use_epsilon=use_eps)
                    assert r.holds is True, (d.probs, alpha, use_eps)

    def test_alpha_one_rejected(self):
        for alpha in (1.0, math.nan, math.inf, 0.0):
            with pytest.raises(DomainError, match="alpha must be"):
                thm1_refined_bound(dist(0.5, 0.5), alpha, "literal")

    @pytest.mark.parametrize(
        "tail, alpha, variant",
        [(1e-200, 0.25, "corrected"), (1e-20, 30.0, "literal"), (1e-20, 30.0, "corrected")],
    )
    def test_rho_power_overflow_is_domain_error(self, tail, alpha, variant):
        with pytest.raises(DomainError):
            thm1_refined_bound(dist(1.0, tail), alpha, variant)

    def test_infinite_bound_is_domain_error(self):
        # rho**28 ~ 1e307 is finite, but the gap times 29 * 6 passes 1e308
        raw = np.array([1.0, 1.0, 10**-10.96])
        d = Distribution(p=raw / raw.sum())
        with pytest.raises(DomainError, match="not finite"):
            thm1_refined_bound(d, 30.0, "corrected")
        assert math.isfinite(thm1_refined_bound(d, 30.0, "literal").bound)

    def test_infinite_bound_fails_only_its_alpha_on_a_grid(self):
        raw = np.array([1.0, 1.0, 10**-10.96])
        d = Distribution(p=raw / raw.sum())
        (column,) = _thm1_column(
            BoundInputs(dist=d), (0.5, 2.0, 30.0), ("corrected",), 2.0
        )
        assert column.reason[:2] == [None, None]
        failed = column.reason[2]
        for i, alpha in enumerate((0.5, 2.0)):
            r = thm1_refined_bound(d, alpha, "corrected")
            assert (
                column.holds[i], column.lhs[i], column.bound[i], column.slack[i],
                column.direction[i],
            ) == (r.holds, r.lhs, r.bound, r.slack, r.direction)
            assert (
                column.theorem_id, column.precondition_met, column.tolerance,
                column.params_at(i),
            ) == (r.theorem_id, r.precondition_met, r.tolerance, r.params)
        assert failed.startswith("thm1 is not finite: lhs ")
        assert "bound -inf" in failed
        with pytest.raises(DomainError) as exc:
            thm1_refined_bound(d, 30.0, "corrected")
        assert str(exc.value) == failed

    @pytest.mark.parametrize(
        "theorem_id, record, reason, failing",
        [
            pytest.param(
                "thm1", BoundInputs(dist=Distribution(p=[1 - 1e-200, 1e-200])),
                "rho ** 1.75 overflows a float at rho = 1e+200", {0.25},
                id="thm1-rho-power",
            ),
            *(
                pytest.param(
                    theorem_id,
                    BoundInputs(
                        graph=generate_graph("path", 3),
                        fv=FunctionalValues(log_values=first),
                        fv_second=FunctionalValues(log_values=second),
                        weights=(1.0, 1.0),
                    ),
                    "thm6 penalty exp(735) overflows a float",
                    {2.0, 3.0, 1.1, 1.5},
                    id=f"{theorem_id}-{side}",
                )
                for theorem_id, side, first, second in (
                    ("thm6", "exp-e", [0.0, 1.0, 0.5], [735.0, 736.0, 735.5]),
                    ("thm6_avg", "exp-e", [0.0, 1.0, 0.5], [735.0, 736.0, 735.5]),
                    ("thm6_avg", "exp-minus-e", [735.0, 736.0, 735.5],
                     [0.0, 1.0, 0.5]),
                )
            ),
        ],
    )
    def test_overflow_reasons_keep_their_alpha_on_a_grid(
        self, theorem_id, record, reason, failing
    ):
        """A power or a penalty past float range fails its own alphas with
        its own text; every other alpha of the column is evaluated and
        equals the one-alpha evaluate."""
        theorem = next(t for t in THEOREMS if t.id == theorem_id)
        (column,) = theorem.column(record, DEFAULT_ALPHA_GRID, ("corrected",), 2.0)
        for i, alpha in enumerate(DEFAULT_ALPHA_GRID):
            if alpha in failing:
                assert column.reason[i] == reason, alpha
                with pytest.raises(DomainError) as exc:
                    evaluate(theorem_id, record, alpha, "corrected")
                assert str(exc.value) == reason
                continue
            assert column.reason[i] is None, (alpha, column.reason[i])
            r = evaluate(theorem_id, record, alpha, "corrected")
            assert (
                column.holds[i], column.lhs[i], column.bound[i], column.slack[i],
                column.direction[i],
            ) == (r.holds, r.lhs, r.bound, r.slack, r.direction)
            assert column.params_at(i) == r.params


class TestThm3:
    def test_s4_frozen_example(self):
        g = generate_graph("star", 4)
        fv = functional_values(g, FunctionalSpec("linear", coeffs=(2, 1)))
        r = thm3_partition_vs_functional(g, vertex_orbits(g), fv, 0.5)
        assert r.precondition_met
        assert r.lhs == pytest.approx(THM3_S4_LHS, abs=1e-12)
        assert r.bound == pytest.approx(THM3_S4_BOUND, abs=1e-12)
        assert r.holds is True

    def test_precondition_failure_not_applicable(self):
        g = generate_graph("star", 4)
        fv = FunctionalValues.from_values([1.0, 1.0, 1.0, 1.0])
        r = thm3_partition_vs_functional(g, vertex_orbits(g), fv, 0.5)
        assert r.precondition_met is False
        assert r.holds is None

    def test_k4_single_block(self):
        g = generate_graph("complete", 4)
        fv = functional_values(g, FunctionalSpec("linear", coeffs=(2.0,)))
        for alpha in (0.5, 2.0):
            r = thm3_partition_vs_functional(g, vertex_orbits(g), fv, alpha)
            assert r.precondition_met and r.holds is True
            assert r.lhs == pytest.approx(0.0, abs=1e-12)

    def test_matches_straightline(self):
        g = generate_graph("wheel", 6)
        fv = functional_values(
            g, FunctionalSpec("linear", coeffs=(1.7, 0.9))
        )
        part = vertex_orbits(g)
        for alpha in (0.25, 3.0):
            r = thm3_partition_vs_functional(g, part, fv, alpha)
            met, direction, bound = sl.sl_thm3_bound(
                list(part.sizes), list(fv.linear), alpha
            )
            assert r.precondition_met == met and r.direction == direction
            assert r.bound == pytest.approx(bound, abs=1e-9)

    def test_disconnected_rejected(self):
        from graphent import Graph

        fv = FunctionalValues.from_values([2, 2, 2, 2])
        # m < n - 1, and a triangle plus an isolated vertex (m = n - 1)
        for g in (
            Graph.from_edges(4, [(0, 1), (2, 3)]),
            Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]),
        ):
            with pytest.raises(DomainError, match="thm3 needs a connected graph"):
                thm3_partition_vs_functional(g, vertex_orbits(g), fv, 0.5)


class TestThm4:
    def test_identity_pair_equality(self):
        d = dist(0.4, 0.6)
        r = thm4_scaled_dominance(d, d, 1.0, 0.5)
        assert r.precondition_met and r.holds is True
        assert r.slack == pytest.approx(0.0, abs=1e-12)

    def test_frozen_example(self):
        r = thm4_scaled_dominance(dist(0.5, 0.5), dist(0.25, 0.75), 2.0, 0.5)
        assert r.precondition_met
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.bound == pytest.approx(THM4_EX_BOUND, abs=1e-12)
        assert r.holds is True

    def test_precondition_failure(self):
        r = thm4_scaled_dominance(dist(0.9, 0.1), dist(0.5, 0.5), 1.0, 0.5)
        assert r.precondition_met is False and r.holds is None

    def test_corollary_mode(self):
        # f1 = (1, 2), f2 = (2, 3): f1 <= f2, psi = S2/S1 = 5/3
        d1 = distribution_from_values(FunctionalValues.from_values([1, 2]))
        d2 = distribution_from_values(FunctionalValues.from_values([2, 3]))
        r = thm4_scaled_dominance(d1, d2, None, 2.0, derive_psi_from=(3.0, 5.0))
        assert r.params["psi"] == pytest.approx(5 / 3)
        assert r.precondition_met and r.holds is True
        direction, bound = sl.sl_thm4_bound([0.4, 0.6], 5 / 3, 2.0)
        assert r.direction == direction
        assert r.bound == pytest.approx(bound, abs=1e-12)

    # 0 < x < inf holds for an int of any size, which float() refuses
    @pytest.mark.parametrize(
        "psi", [0.0, -1.0, math.nan, math.inf, pytest.param(10**400, id="int-1e400")]
    )
    def test_psi_must_be_positive_and_finite(self, psi):
        d = dist(0.5, 0.5)
        with pytest.raises(DomainError, match="psi must be positive and finite"):
            thm4_scaled_dominance(d, d, psi, 0.5)

    @pytest.mark.parametrize("totals", [(1.0, math.inf), (math.inf, math.inf),
                                        (1.0, math.nan), (1.0, 10**400)])
    def test_corollary_totals_must_be_finite(self, totals):
        d = dist(0.5, 0.5)
        with pytest.raises(DomainError):
            thm4_scaled_dominance(d, d, None, 0.5, derive_psi_from=totals)

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            thm4_scaled_dominance(dist(1.0), dist(0.5, 0.5), 1.0, 0.5)

    def test_holds_whenever_applicable(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            raw1 = rng.uniform(0.01, 3.0, size=n)
            raw2 = rng.uniform(0.01, 3.0, size=n)
            d1 = Distribution(p=raw1 / raw1.sum())
            d2 = Distribution(p=raw2 / raw2.sum())
            psi = max(a / b for a, b in zip(d1.probs, d2.probs))
            for alpha in (0.25, 0.75, 1.5, 3.0):
                r = thm4_scaled_dominance(d1, d2, psi, alpha)
                assert r.precondition_met and r.holds is True


class TestThm5:
    def test_frozen_literal_example(self):
        d = dist(0.5, 0.5)
        r = thm5_additive_dominance(d, d, 0.1, 0.5, "literal")
        assert r.precondition_met
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.bound == pytest.approx(THM5_EX_BOUND, abs=1e-12)
        assert r.holds is True

    def test_corrected_scales_penalty(self):
        d = dist(0.5, 0.5)
        lit = thm5_additive_dominance(d, d, 0.1, 0.5, "literal")
        cor = thm5_additive_dominance(d, d, 0.1, 0.5, "corrected")
        assert (cor.bound - 1.0) == pytest.approx(
            (lit.bound - 1.0) / math.log(2.0), abs=1e-12
        )

    def test_vanishing_phi_limit(self):
        d = dist(0.3, 0.7)
        r = thm5_additive_dominance(d, d, 1e-9, 2.0, "corrected")
        assert r.holds is True
        assert r.bound == pytest.approx(r.params["h_other"], abs=1e-6)

    def test_base_e_matches_corrected_shape(self):
        # with natural logs the literal penalty is already the valid one
        d1 = dist(0.6, 0.4)
        d2 = dist(0.5, 0.5)
        lit_e = thm5_additive_dominance(d1, d2, 0.2, 0.5, "literal", base=math.e)
        cor_e = thm5_additive_dominance(d1, d2, 0.2, 0.5, "corrected", base=math.e)
        assert lit_e.bound == pytest.approx(cor_e.bound, abs=1e-14)
        direction, bound = sl.sl_thm5_bound([0.5, 0.5], 0.2, 0.5, "literal", base=math.e)
        assert lit_e.bound == pytest.approx(bound, abs=1e-12)

    def test_phi_validation(self):
        for phi in (0.0, -1.0, math.nan, math.inf, 10**400):
            with pytest.raises(DomainError, match="phi must be positive and finite"):
                thm5_additive_dominance(
                    dist(0.5, 0.5), dist(0.5, 0.5), phi, 0.5, "literal"
                )

    def test_power_sum_underflow_is_domain_error(self):
        # sum p2**2000 = 2**-1999 underflows to 0, so the power mean's
        # division has no finite answer
        d = dist(0.5, 0.5)
        for variant in ("literal", "corrected"):
            with pytest.raises(DomainError) as exc:
                thm5_additive_dominance(d, d, 0.1, 2000.0, variant)
            assert str(exc.value) == "thm5 power_sum_2 underflows a float at alpha = 2000"

    def test_corrected_holds_when_applicable(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            raw1 = rng.uniform(0.01, 3.0, size=n)
            raw2 = rng.uniform(0.01, 3.0, size=n)
            d1 = Distribution(p=raw1 / raw1.sum())
            d2 = Distribution(p=raw2 / raw2.sum())
            phi = max(max(a - b for a, b in zip(d1.probs, d2.probs)), 0.01)
            for alpha in (0.25, 0.75, 1.5, 3.0):
                r = thm5_additive_dominance(d1, d2, phi, alpha, "corrected")
                assert r.precondition_met and r.holds is True


class TestThm6:
    def test_equal_components_slack_one_below_one(self):
        g = generate_graph("star", 4)
        fv = functional_values(g, FunctionalSpec("linear", coeffs=(2, 1)))
        r = thm6_convex_combination(g, fv, fv, 0.5, 0.5, 0.5, "literal")
        assert r.params["A1"] == pytest.approx(0.5, abs=1e-15)
        assert r.slack == pytest.approx(1.0, abs=1e-12)
        assert r.holds is True

    def test_equal_components_equality_above_one(self):
        g = generate_graph("star", 4)
        fv = functional_values(g, FunctionalSpec("linear", coeffs=(2, 1)))
        r = thm6_convex_combination(g, fv, fv, 0.5, 0.5, 2.0, "literal")
        assert r.slack == pytest.approx(0.0, abs=1e-12)
        assert r.holds is True

    def test_s4_against_straightline(self):
        g = generate_graph("star", 4)
        fv1 = functional_values(g, FunctionalSpec("linear", coeffs=(2, 1)))
        fv2 = FunctionalValues.from_values([5.0] * 4)
        f1 = list(fv1.linear)
        f2 = list(fv2.linear)
        for alpha in (0.5, 2.0):
            for variant in ("literal", "corrected"):
                for symmetric in (False, True):
                    r = thm6_convex_combination(
                        g, fv1, fv2, 1.0, 1.0, alpha, variant, symmetric=symmetric
                    )
                    lhs, direction, bound = sl.sl_thm6(
                        f1, f2, 1.0, 1.0, alpha, variant, symmetric=symmetric
                    )
                    assert r.direction == direction
                    assert r.lhs == pytest.approx(lhs, abs=1e-10)
                    assert r.bound == pytest.approx(bound, abs=1e-10)
                    expect_holds = (
                        lhs <= bound + 1e-9 if direction == "upper"
                        else lhs >= bound - 1e-9
                    )
                    assert r.holds is expect_holds

    @pytest.mark.parametrize("variant", ["literal", "corrected"])
    @pytest.mark.parametrize("base", [2.0, math.e])
    def test_average_is_the_mean_of_both_sides(self, variant, base):
        """thm6_avg's bound is the mean of the one-sided bound from f1's side
        and the one from f2's side (roles and weights swapped)."""
        g = generate_graph("gnp", 8, p=0.5, seed=3)
        d = distance_matrix(g)
        coeffs = tuple(2.0 / (j + 1) for j in range(d.eta))
        fv1 = functional_values(g, FunctionalSpec("linear", coeffs), d)
        fv2 = functional_values(g, FunctionalSpec("exponential", coeffs[::-1], 0.5), d)
        for alpha in (0.1, 0.5, 0.9, 1.1, 2.0, 7.5):
            avg = thm6_convex_combination(
                g, fv1, fv2, 0.7, 1.9, alpha, variant, symmetric=True, base=base
            )
            from_1 = thm6_convex_combination(g, fv1, fv2, 0.7, 1.9, alpha, variant,
                                             base=base)
            from_2 = thm6_convex_combination(g, fv2, fv1, 1.9, 0.7, alpha, variant,
                                             base=base)
            assert from_1.lhs == pytest.approx(avg.lhs, rel=1e-12)
            assert from_2.lhs == pytest.approx(avg.lhs, rel=1e-12)
            assert from_1.direction == from_2.direction == avg.direction
            assert avg.bound == pytest.approx(
                (from_1.bound + from_2.bound) / 2.0, rel=1e-12
            )

    def test_zero_weight_rejected(self):
        g = generate_graph("star", 4)
        fv = functional_values(g, FunctionalSpec("linear", coeffs=(2, 1)))
        for c1, c2 in (
            (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf), (10**309, 1.0)
        ):
            with pytest.raises(DomainError, match="weights"):
                thm6_convex_combination(g, fv, fv, c1, c2, 0.5, "literal")

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_share_underflow_is_domain_error(self, alpha, symmetric):
        # A_1 = S_1 / (S_1 + S_2) underflows to 0 once S_2 / S_1 = 2**(50*59)
        g = generate_graph("path", 60)
        eta = distance_matrix(g).eta
        fv1, fv2 = (
            functional_values(g, FunctionalSpec("exponential", (c,) * eta, 2.0))
            for c in (50.0, 100.0)
        )
        with pytest.raises(DomainError):
            thm6_convex_combination(
                g, fv1, fv2, 1.0, 1.0, alpha, "corrected", symmetric=symmetric
            )

    def test_penalty_overflow_is_domain_error(self):
        # ln(c2/c1) = 713: A_1 stays a subnormal, exp(713) overflows
        g = generate_graph("path", 5)
        fv = functional_values(g, FunctionalSpec("linear", (1.0,) * 4))
        with pytest.raises(DomainError):
            thm6_convex_combination(g, fv, fv, 1e-10, 1e300, 2.0, "corrected")

    def test_corrected_holds_on_random_functionals(self):
        rng = np.random.default_rng(41)
        for seed in range(15):
            g = generate_graph("gnp", int(rng.integers(3, 10)), p=0.5, seed=seed)
            d = distance_matrix(g)
            c_a = tuple(rng.uniform(0.5, 2.0, d.eta))
            c_b = tuple(rng.uniform(0.5, 2.0, d.eta))
            fv1 = functional_values(g, FunctionalSpec("linear", coeffs=c_a), d)
            fv2 = functional_values(g, FunctionalSpec("linear", coeffs=c_b), d)
            c1, c2 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
            for alpha in (0.25, 0.9, 1.5, 3.0):
                for symmetric in (False, True):
                    r = thm6_convex_combination(
                        g, fv1, fv2, c1, c2, alpha, "corrected", symmetric=symmetric
                    )
                    assert r.holds is True


@pytest.mark.parametrize("base", [1.0, 0.5, math.inf, math.nan])
def test_log_base_must_exceed_1_and_be_finite(base):
    g = generate_graph("star", 4)
    fv = functional_values(g, FunctionalSpec("linear", coeffs=(2, 1)))
    d = distribution_from_values(fv)
    calls = [
        lambda: thm3_partition_vs_functional(g, vertex_orbits(g), fv, 2.0, base),
        lambda: thm4_scaled_dominance(d, d, 2.0, 0.5, base=base),
        lambda: thm5_additive_dominance(d, d, 0.1, 0.5, "corrected", base=base),
        lambda: thm6_convex_combination(g, fv, fv, 1.0, 1.0, 2.0, "corrected",
                                        base=base),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="log base must exceed 1 and be finite"):
            call()


@pytest.mark.parametrize("theorem", [t for t in THEOREMS if not t.log_base],
                         ids=lambda t: t.id)
def test_evaluate_refuses_a_log_base_its_id_ignores(theorem):
    g = generate_graph("star", 5)
    kind = theorem.kinds[-1]
    spec = FunctionalSpec(kind, beta=2.0 if kind == "exponential" else None)
    record = BoundInputs(graph=g, dist=dist(0.5, 0.3, 0.2), spec=spec)
    variant = "corrected" if theorem.variants else "na"
    assert evaluate(theorem.id, record, 2.0, variant).theorem_id == theorem.id
    with pytest.raises(DomainError, match=f"{theorem.id} reports base 2 only"):
        evaluate(theorem.id, record, 2.0, variant, base=math.e)


@pytest.mark.parametrize("theorem_id, kind", [
    ("conn_linear", "exponential"), ("conn_exp", "linear"),
])
def test_evaluate_refuses_a_conn_spec_of_the_other_kind(theorem_id, kind):
    spec = FunctionalSpec(kind, beta=2.0 if kind == "exponential" else None)
    record = BoundInputs(graph=generate_graph("star", 5), spec=spec)
    with pytest.raises(DomainError, match=f"{theorem_id} takes no {kind} functional"):
        evaluate(theorem_id, record, 2.0, "corrected")


BIG = 10**400  # an int past float range


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: ordering_bound(dist(0.5, 0.5), BIG), id="ordering"),
        pytest.param(lambda: jensen_gap_bound(dist(0.5, 0.5), BIG), id="jensen"),
        pytest.param(lambda: thm1_refined_bound(dist(0.5, 0.5), BIG, "corrected"),
                     id="thm1"),
        pytest.param(lambda: renyi_entropy(dist(0.5, 0.5), BIG), id="renyi"),
        pytest.param(lambda: class_closed_forms("star", 5, BIG), id="star"),
        pytest.param(lambda: Distribution([BIG]), id="distribution"),
        pytest.param(lambda: FunctionalValues.from_values([BIG]), id="values"),
        pytest.param(lambda: FunctionalSpec("linear", coeffs=[BIG]), id="coeffs"),
        pytest.param(lambda: FunctionalSpec("exponential", beta=BIG), id="beta"),
        pytest.param(
            lambda: SweepConfig(seed=1, n_range=(3, 4), edge_probabilities=(),
                                trials_per_cell=1, alpha_grid=(BIG,)),
            id="config-alpha",
        ),
        pytest.param(
            lambda: SweepConfig(seed=1, n_range=(3, 4), edge_probabilities=(BIG,),
                                trials_per_cell=1),
            id="config-p",
        ),
        pytest.param(lambda: FunctionalTemplate("linear", c_range=(0.5, BIG)),
                     id="template-c"),
    ],
)
def test_int_past_float_range_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


class TestClassClosedForms:
    def test_star_4_renyi_exact(self):
        reports = class_closed_forms("star", 4, 2.0)
        exact = next(r for r in reports if r.theorem_id == "class_renyi_exact")
        assert exact.bound == pytest.approx(4.0 - math.log2(10.0), abs=1e-15)
        assert abs(exact.lhs - exact.bound) <= 1e-12
        assert exact.holds is True and exact.tolerance == 1e-12

    def test_star_shannon_exact(self):
        reports = class_closed_forms("star", 7, 0.5)
        r = next(r for r in reports if r.theorem_id == "class_shannon_exact")
        assert r.bound == pytest.approx(sl.sl_star_shannon_closed(7), abs=1e-15)
        assert r.holds is True

    def test_star_gamma_bounds_both_variants(self):
        for n in (4, 8):
            for alpha in (0.5, 3.0):
                reports = class_closed_forms("star", n, alpha)
                gammas = [r for r in reports if r.theorem_id == "class_gamma_bound"]
                assert {r.variant for r in gammas} == {"literal", "corrected"}
                for r in gammas:
                    direction, bound = sl.sl_star_gamma_bound(n, alpha, r.variant)
                    assert r.direction == direction
                    assert r.bound == pytest.approx(bound, abs=1e-12)
                    if r.variant == "corrected":
                        assert r.holds is True

    def test_gamma_bound_is_thm1_on_the_two_orbit_distribution(self):
        for n in (4, 9, 25):
            d = dist(1.0 / n, (n - 1) / n)
            for alpha in (0.25, 0.9, 1.5, 3.0, 20.0):
                reports = class_closed_forms("star", n, alpha)
                for r in reports:
                    if r.theorem_id != "class_gamma_bound":
                        continue
                    thm1 = thm1_refined_bound(d, alpha, r.variant)
                    assert r.direction == thm1.direction
                    assert r.bound == pytest.approx(thm1.bound, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "kind, n, alpha", [("star", 10, 400.0), ("wheel", 10, 400.0), ("path", 5, 1000.0)]
    )
    def test_float_range_exits_are_domain_errors(self, kind, n, alpha):
        with pytest.raises(DomainError, match="float range"):
            class_closed_forms(kind, n, alpha)

    def test_path_even_exact(self):
        for alpha in (0.25, 0.5, 2.0, 3.0):
            reports = class_closed_forms("path", 6, alpha)
            exact = next(r for r in reports if r.theorem_id == "class_renyi_exact")
            assert exact.bound == pytest.approx(math.log2(3.0), abs=1e-15)
            assert exact.holds is True

    def test_path_odd_fallback(self):
        reports = class_closed_forms("path", 5, 0.5)
        exact = next(r for r in reports if r.theorem_id == "class_renyi_exact")
        assert exact.params["even"] is False
        # straight-line block formula: two pairs and a center singleton
        expected = math.log2(2 * (2 / 5) ** 0.5 + (1 / 5) ** 0.5) / 0.5
        assert exact.bound == pytest.approx(expected, abs=1e-12)
        assert exact.holds is True

    def test_path_functional_bound_zero_slack_case(self):
        fv = FunctionalValues.from_values([3.0] * 6)
        reports = class_closed_forms("path", 6, 0.5, fv=fv)
        r = next(r for r in reports if r.theorem_id == "class_functional_bound")
        assert r.precondition_met
        assert r.bound == pytest.approx(0.0, abs=1e-12)
        assert r.lhs == pytest.approx(math.log2(6.0), abs=1e-12)
        assert r.holds is True

    def test_path_functional_precondition(self):
        fv = FunctionalValues.from_values([1.5] * 6)
        reports = class_closed_forms("path", 6, 0.5, fv=fv)
        r = next(r for r in reports if r.theorem_id == "class_functional_bound")
        assert r.precondition_met is False and r.holds is None

    def test_path_functional_odd_not_applicable(self):
        fv = FunctionalValues.from_values([3.0] * 5)
        reports = class_closed_forms("path", 5, 0.5, fv=fv)
        r = next(r for r in reports if r.theorem_id == "class_functional_bound")
        assert r.precondition_met is False

    def test_star_functional_bound(self):
        g = generate_graph("star", 4)
        fv = functional_values(g, FunctionalSpec("linear", coeffs=(2, 1)))
        for alpha in (0.5, 2.0):
            reports = class_closed_forms("star", 4, alpha, fv=fv)
            r = next(r for r in reports if r.theorem_id == "class_functional_bound")
            assert r.precondition_met  # f values (6,4,4,4): 6 > 3 and 4 > 1
            direction, bound = sl.sl_star_functional_bound(4, 18.0, alpha)
            assert r.direction == direction
            assert r.bound == pytest.approx(bound, abs=1e-12)
            assert r.holds is True

    def test_star_functional_precondition_failure(self):
        fv = FunctionalValues.from_values([2.0, 2.0, 2.0, 2.0])
        reports = class_closed_forms("star", 4, 0.5, fv=fv)
        r = next(r for r in reports if r.theorem_id == "class_functional_bound")
        # no vertex exceeds n-1 = 3
        assert r.precondition_met is False

    def test_wheel_matches_star_forms(self):
        for n in (5, 8):
            star = class_closed_forms("star", n, 2.0)
            wheel = class_closed_forms("wheel", n, 2.0)
            for s, w in zip(star, wheel):
                assert s.theorem_id == w.theorem_id
                assert w.precondition_met
                assert s.bound == pytest.approx(w.bound, abs=1e-12)
                assert s.lhs == pytest.approx(w.lhs, abs=1e-12)

    def test_wheel_4_reported_as_exception(self):
        reports = class_closed_forms("wheel", 4, 2.0)
        assert all(r.precondition_met is False for r in reports)
        assert all(r.holds is None for r in reports)

    def test_class_n_mismatch(self):
        with pytest.raises(DomainError):
            class_closed_forms("star", 2, 0.5)
        with pytest.raises(DomainError):
            class_closed_forms("cycle", 5, 0.5)


class TestConnectedBounds:
    def test_s4_linear_interval(self):
        g = generate_graph("star", 4)
        r = connected_functional_bounds(
            g, FunctionalSpec("linear", coeffs=(2, 1)), 0.5, "literal"
        )
        assert r.params["bound_lower"] == pytest.approx(1.0, abs=1e-12)
        assert r.params["bound_upper"] == pytest.approx(3.0, abs=1e-12)
        assert r.lhs == pytest.approx(1.9878034404518454, abs=1e-12)
        assert r.holds is True

    def test_equal_coeffs_collapse(self):
        g = generate_graph("gnp", 7, p=0.5, seed=2)
        eta = distance_matrix(g).eta
        r = connected_functional_bounds(
            g, FunctionalSpec("linear", coeffs=(1.3,) * eta), 2.0, "corrected"
        )
        assert r.params["bound_lower"] == pytest.approx(math.log2(7), abs=1e-12)
        assert r.params["bound_upper"] == pytest.approx(math.log2(7), abs=1e-12)
        assert r.holds is True

    def test_p3_exponential_collapse(self):
        g = generate_graph("path", 3)
        r = connected_functional_bounds(
            g, FunctionalSpec("exponential", coeffs=(1, 1), beta=2.0), 0.5, "literal"
        )
        assert r.params["X"] == pytest.approx(0.0)
        assert r.lhs == pytest.approx(math.log2(3.0), abs=1e-12)
        assert r.holds is True

    def test_literal_beta_below_one_not_applicable(self):
        g = generate_graph("path", 4)
        spec = FunctionalSpec("exponential", coeffs=(1, 0.5, 2), beta=0.5)
        lit = connected_functional_bounds(g, spec, 0.5, "literal")
        assert lit.precondition_met is False and lit.holds is None
        cor = connected_functional_bounds(g, spec, 0.5, "corrected")
        assert cor.precondition_met and cor.holds is True

    def test_matches_straightline_interval(self):
        g = generate_graph("wheel", 6)
        coeffs = (1.7, 0.6)
        for alpha in (0.25, 3.0):
            r = connected_functional_bounds(
                g, FunctionalSpec("linear", coeffs=coeffs), alpha, "literal"
            )
            lo, hi = sl.sl_conn_interval(6, coeffs, alpha, "linear")
            assert r.params["bound_lower"] == pytest.approx(lo, abs=1e-12)
            assert r.params["bound_upper"] == pytest.approx(hi, abs=1e-12)
            spec = FunctionalSpec("exponential", coeffs=coeffs, beta=2.0)
            re = connected_functional_bounds(g, spec, alpha, "corrected")
            lo_e, hi_e = sl.sl_conn_interval(
                6, coeffs, alpha, "exponential", beta=2.0, variant="corrected"
            )
            assert re.params["bound_lower"] == pytest.approx(lo_e, abs=1e-12)
            assert re.params["bound_upper"] == pytest.approx(hi_e, abs=1e-12)
            assert re.holds is True


    def test_disconnected_rejected(self):
        from graphent import Graph

        spec = FunctionalSpec("linear")
        # m < n - 1, and a triangle plus an isolated vertex (m = n - 1)
        for g in (
            Graph.from_edges(4, [(0, 1), (2, 3)]),
            Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]),
        ):
            with pytest.raises(
                DomainError, match="connected-graph bounds need a connected graph"
            ):
                connected_functional_bounds(g, spec, 0.5, "corrected")


class TestStraightLineRecompute:
    """Every report's lhs/bound/slack must reproduce under an independent
    straight-line evaluation of the same raw inputs, within 1e-9."""

    def test_thm1_family(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            raw = rng.uniform(0.02, 4.0, size=int(rng.integers(2, 7)))
            p = (raw / raw.sum()).tolist()
            d = Distribution(p=np.array(p))
            for alpha in (0.25, 0.9, 1.5, 3.0):
                for variant in ("literal", "corrected"):
                    for use_eps in (False, True):
                        r = thm1_refined_bound(d, alpha, variant, use_epsilon=use_eps)
                        direction, bound = sl.sl_thm1_bound(p, alpha, variant, use_eps)
                        lhs = sl.sl_renyi(p, alpha)
                        assert r.direction == direction
                        assert abs(r.lhs - lhs) <= 1e-9
                        assert abs(r.bound - bound) <= 1e-9
                        expected_slack = (
                            bound - lhs if direction == "upper" else lhs - bound
                        )
                        assert abs(r.slack - expected_slack) <= 1e-9

    def test_jensen(self):
        rng = np.random.default_rng(78)
        for _ in range(40):
            raw = rng.uniform(0.02, 4.0, size=int(rng.integers(2, 7)))
            p = (raw / raw.sum()).tolist()
            d = Distribution(p=np.array(p))
            for alpha in (0.5, 2.0):
                r = jensen_gap_bound(d, alpha)
                gap_bound = sl.sl_jensen_bound(p, alpha)
                h = sl.sl_shannon(p)
                bound = h + gap_bound if alpha < 1 else h - gap_bound
                assert abs(r.bound - bound) <= 1e-9

    def test_thm5_and_thm4(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            raw1 = rng.uniform(0.02, 4.0, size=n)
            raw2 = rng.uniform(0.02, 4.0, size=n)
            p1 = (raw1 / raw1.sum()).tolist()
            p2 = (raw2 / raw2.sum()).tolist()
            d1, d2 = Distribution(p=np.array(p1)), Distribution(p=np.array(p2))
            psi = max(a / b for a, b in zip(p1, p2))
            phi = max(max(a - b for a, b in zip(p1, p2)), 0.01)
            for alpha in (0.25, 1.5, 3.0):
                r4 = thm4_scaled_dominance(d1, d2, psi, alpha)
                _, bound4 = sl.sl_thm4_bound(p2, psi, alpha)
                assert abs(r4.bound - bound4) <= 1e-9
                for variant in ("literal", "corrected"):
                    r5 = thm5_additive_dominance(d1, d2, phi, alpha, variant)
                    _, bound5 = sl.sl_thm5_bound(p2, phi, alpha, variant)
                    assert abs(r5.bound - bound5) <= 1e-9
