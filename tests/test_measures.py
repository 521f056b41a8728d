import math

import numpy as np
import pytest
import straightline as sl
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphent import (
    Distribution,
    DomainError,
    FunctionalSpec,
    FunctionalValues,
    default_coefficients,
    distance_matrix,
    distribution_from_values,
    distribution_stats,
    functional_values,
    generate_graph,
    partition_distribution,
    renyi_entropy,
    shannon_entropy,
    vertex_orbits,
)
import graphent.measures as measures
from graphent.harness import DEFAULT_ALPHA_GRID
from graphent.inequalities import _weighted_sum
from graphent.measures import (
    ALPHA_ONE_BAND,
    LN2,
    log2_power_sums,
    logsumexp,
    renyi_entropies,
)

# frozen via an independent high-precision evaluation
SHANNON_QUARTER = 0.8112781244591328
RENYI_S4_A2 = 0.6780719051126376
RENYI_91_A05 = 0.6780719051126376


def dist(*values):
    return Distribution(p=np.array(values, dtype=float))


def probs(seq):
    arr = np.asarray(seq, dtype=float)
    return Distribution(p=arr / arr.sum())


positive_lists = st.lists(
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    min_size=2,
    max_size=8,
)


class TestDistribution:
    def test_rejects_zero_atom(self):
        with pytest.raises(DomainError):
            dist(0.5, 0.5, 0.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            dist(0.5, 0.6)

    def test_rejects_sum_past_float_range(self):
        with pytest.raises(DomainError, match=r"probabilities sum to inf,"):
            dist(1e308, 1e308)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Distribution(p=np.array([]))

    def test_partition_examples(self):
        s4 = partition_distribution(vertex_orbits(generate_graph("star", 4)))
        assert np.allclose(s4.probs, [0.25, 0.75], atol=0)
        p6 = partition_distribution(vertex_orbits(generate_graph("path", 6)))
        assert np.allclose(p6.probs, [1 / 3] * 3, atol=1e-15)
        k4 = partition_distribution(vertex_orbits(generate_graph("complete", 4)))
        assert k4.probs == (1.0,)


class TestLogSumExp:
    @pytest.mark.parametrize("center", [0.0, 700.0, -700.0, 1e5, -1e5])
    def test_matches_fsum_reference(self, center):
        rng = np.random.default_rng(11)
        for _ in range(500):
            size = int(rng.integers(1, 13))
            # spread keeps the result at least 1 away from zero when centered
            # at 0, so the relative tolerance is meaningful
            a = center + rng.uniform(1.0, 40.0, size=size)
            want = sl.sl_logsumexp(a.tolist())
            assert math.isclose(logsumexp(a), want, rel_tol=1e-15, abs_tol=0.0)

    def test_single_element_is_identity(self):
        for x in (-1e5, -700.0, 0.0, 3.25, 700.0, 1e5):
            assert logsumexp(np.array([x])) == x

    def test_all_equal_entries(self):
        for x in (-1e5, -700.0, 0.0, 700.0, 1e5):
            for size in (2, 5, 12):
                got = logsumexp(np.full(size, x))
                assert math.isclose(got, x + math.log(size), rel_tol=1e-15)

    def test_non_finite_max_returned_unchanged(self):
        assert logsumexp(np.array([1.0, math.inf])) == math.inf
        assert logsumexp(np.array([-math.inf, -math.inf])) == -math.inf

    # the default grid's alphas, the unscaled sum and three far scales
    SCALES = DEFAULT_ALPHA_GRID + (1.0, 1e-3, 400.0, 1000.0)

    @given(
        a=st.lists(
            st.one_of(
                st.floats(min_value=-745.0, max_value=709.0),
                # repeated values give ties; -inf entries add nothing
                st.sampled_from([0.0, -0.0, -math.inf, 1.5, -3.25, 709.0, -745.0]),
            ),
            min_size=1, max_size=12,
        ),
        scale=st.sampled_from(SCALES),
    )
    @example(a=[0.0, -0.0], scale=1.0)
    @example(a=[-0.0, 0.0], scale=2.0)
    @example(a=[-math.inf, -math.inf], scale=0.5)
    @example(a=[-math.inf, 3.0], scale=1000.0)
    @example(a=[1.5, 1.5, 1.5], scale=1e-3)
    @example(a=[709.0, -745.0], scale=1000.0)
    @settings(max_examples=400, deadline=None)
    def test_scaled_bits_match_the_plain_recipe(self, a, scale):
        """logsumexp(a, scale) has the bits of scaling a into a new list and
        summing that, on the general and the two-term path alike."""
        assert logsumexp(a, scale).hex() == sl.sl_logsumexp(a, scale).hex()

    def test_callers_have_the_plain_recipes_bits(self):
        """log2_power_sums, a weighted sum's logs and its total give the
        oracle's bits on random distributions and weights."""
        rng = np.random.default_rng(17)
        grid = self.SCALES
        for _ in range(200):
            size = int(rng.integers(1, 13))
            raw = 10 ** rng.uniform(-12, 0, size=size)
            d = Distribution(p=raw / raw.sum())
            logs = [math.log(x) for x in d.probs]
            assert [x.hex() for x in log2_power_sums(d, grid)] == [
                (sl.sl_logsumexp(logs, a) / LN2).hex() for a in grid
            ]
            fv1 = FunctionalValues(rng.uniform(-30.0, 30.0, size=size))
            fv2 = FunctionalValues(rng.uniform(-30.0, 30.0, size=size))
            c1, c2 = 10 ** rng.uniform(-3, 3, size=2)
            combined = _weighted_sum(fv1, fv2, c1, c2)
            want = [
                sl.sl_logsumexp([math.log(c1) + x1, math.log(c2) + x2])
                for x1, x2 in zip(fv1.logs, fv2.logs)
            ]
            assert [x.hex() for x in combined.logs] == [x.hex() for x in want]
            assert combined.total_log.hex() == sl.sl_logsumexp(want).hex()


class TestMemoizedDerivedValues:
    def test_interleaved_alphas_match_fresh_distribution(self):
        p = probs([3, 1, 4, 1, 5, 9, 2, 6]).probs
        d = Distribution(p=p)
        for alpha in (0.5, 2.0, 0.25, 3.0, 0.5, 1.1, 2.0, 0.25, 0.9, 3.0):
            got = renyi_entropy(d, alpha)
            fresh = renyi_entropy(Distribution(p=p), alpha)
            assert got == fresh

    def test_grid_fill_matches_one_alpha_calls(self):
        rng = np.random.default_rng(13)
        grid = (0.25, 0.5, 1 - 1e-10, 1 + 1e-10, 1.1, 2.0, 30.0, 0.5)
        for _ in range(200):
            raw = 10 ** rng.uniform(-12, 0, size=int(rng.integers(1, 65)))
            p = raw / raw.sum()
            d = Distribution(p=p)
            assert renyi_entropies(d, grid) == [
                renyi_entropy(Distribution(p=p.copy()), alpha) for alpha in grid
            ]
            assert log2_power_sums(d, grid) == [
                log2_power_sums(Distribution(p=p.copy()), [alpha])[0]
                for alpha in grid
            ]

    def test_renyi_grid_is_computed_once(self, monkeypatch):
        d = probs([3, 1, 4, 1, 5])
        grid = (0.25, 0.5, 2.0, 3.0)
        first = renyi_entropies(d, grid)

        def refuse(*args):
            raise AssertionError("the grid's Renyi entropies were computed again")

        monkeypatch.setattr(measures, "renyi_entropy", refuse)
        monkeypatch.setattr(measures, "log2_power_sums", refuse)
        again = renyi_entropies(d, list(grid))
        assert again is first  # the memo itself, shared by every reader
        assert isinstance(again, list)
        converted = renyi_entropies(d, grid, 2.0)
        assert renyi_entropies(d, list(grid), 2.0) is converted is not first

    @settings(max_examples=150, deadline=None)
    @given(positive_lists, st.data())
    @example(values=[3.0, 1.0, 4.0], data=None)
    def test_grid_fill_matches_fresh_one_alpha_calls(self, values, data):
        """Grid fills give per-alpha renyi_entropy's bits on fresh copies:
        repeated alphas, alphas inside the Shannon band, power sums far
        below float range and two overlapping grids on one Distribution."""
        d = probs(values)
        if data is None:  # alphas whose power sum 2**log2_sum underflows
            first, second = [5000.0, 0.5, 1 + ALPHA_ONE_BAND / 2], [0.5, 1e4, 1e4]
        else:
            alphas = st.one_of(
                st.floats(0.01, 50.0),
                st.floats(-ALPHA_ONE_BAND, ALPHA_ONE_BAND).map(lambda e: 1.0 + e),
                st.floats(2000.0, 1e5),
            )
            first = data.draw(st.lists(alphas, min_size=1, max_size=9))
            second = data.draw(st.lists(
                st.one_of(st.sampled_from(first), alphas), min_size=1, max_size=9
            ))
        for grid in (first, second, first):
            fresh = [Distribution(p=d.probs) for _ in grid]
            want = [renyi_entropy(f, a) for f, a in zip(fresh, grid)]
            assert renyi_entropies(d, grid) == want
            assert log2_power_sums(d, grid) == [
                log2_power_sums(Distribution(p=d.probs), [a])[0] for a in grid
            ]
        if data is None:
            assert max(log2_power_sums(d, [5000.0, 1e4])) < -1100  # past 2**-1074

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 10**400])
    def test_grid_with_a_bad_alpha_memoizes_nothing(self, bad):
        d = probs([3, 1, 4, 1, 5])
        grid = (0.5, 2.0, bad, 3.0)
        with pytest.raises(DomainError) as want:
            renyi_entropy(Distribution(p=d.probs), bad)
        with pytest.raises(DomainError) as got:
            renyi_entropies(d, grid)
        assert str(got.value) == str(want.value)
        with pytest.raises(DomainError) as got:
            renyi_entropies(d, grid, 2.0)
        assert str(got.value) == str(want.value)
        assert d._renyi_lists == {} and d._log2_power_sums == {}

    @pytest.mark.parametrize("base", [1.0, 0.5, -2.0, math.inf, math.nan])
    def test_bad_base_memoizes_nothing(self, base):
        d = probs([3, 1, 4, 1, 5])
        with pytest.raises(DomainError, match="log base must exceed 1"):
            renyi_entropies(d, (0.5, 2.0), base)
        assert d._renyi_lists == {} and d._log2_power_sums == {}

    def test_base_entries_are_the_converted_bits(self):
        """A base entry is the bits entry times ln 2 / ln(base), bit for bit,
        as the cores used to convert each list they built. At base 2 that
        product moves some values by an ulp, so the entry is its own."""
        rng = np.random.default_rng(29)
        grid = (0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0)
        moved = 0
        for _ in range(100):
            raw = 10 ** rng.uniform(-6, 0, size=int(rng.integers(2, 13)))
            d = Distribution(p=raw / raw.sum())
            bits = renyi_entropies(d, grid)
            for base in (2.0, math.e):
                want = [b * math.log(2.0) / math.log(base) for b in bits]
                got = renyi_entropies(d, grid, base)
                assert list(map(float.hex, got)) == list(map(float.hex, want))
                assert renyi_entropies(d, grid, base) is got
            moved += sum(a != b for a, b in zip(bits, renyi_entropies(d, grid, 2.0)))
            assert renyi_entropies(d, grid) is bits
        assert moved > 0

    def test_functional_distribution_built_once(self):
        fv = FunctionalValues.from_values([6, 4, 4, 4])
        assert distribution_from_values(fv) is distribution_from_values(fv)


class TestFunctionals:
    def test_linear_s4(self):
        g = generate_graph("star", 4)
        fv = functional_values(g, FunctionalSpec("linear", coeffs=(2, 1)))
        assert fv.linear == (6.0, 4.0, 4.0, 4.0)
        assert fv.total == pytest.approx(18.0, abs=1e-12)
        # cross-check against (2 c1 + c2 (n - 2)) (n - 1)
        assert fv.total == pytest.approx((2 * 2 + 1 * 2) * 3, abs=1e-12)

    def test_equal_coeffs_constant(self):
        g = generate_graph("gnp", 7, p=0.5, seed=9)
        eta = distance_matrix(g).eta
        fv = functional_values(g, FunctionalSpec("linear", coeffs=(1.5,) * eta))
        assert np.allclose(fv.linear, 1.5 * (g.n - 1), atol=1e-12)

    def test_p4_all_ones(self):
        g = generate_graph("path", 4)
        fv = functional_values(g, FunctionalSpec("linear", coeffs=(1, 1, 1)))
        assert fv.linear[0] == pytest.approx(3.0)
        assert fv.linear[1] == pytest.approx(3.0)

    def test_coeff_length_mismatch(self):
        g = generate_graph("star", 4)
        with pytest.raises(DomainError):
            functional_values(g, FunctionalSpec("linear", coeffs=(1,)))

    def test_disconnected_rejected(self):
        from graphent import Graph

        # m < n - 1, and a triangle plus an isolated vertex (m = n - 1)
        for g in (
            Graph.from_edges(3, [(0, 1)]),
            Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]),
        ):
            with pytest.raises(DomainError):
                functional_values(g, FunctionalSpec("linear", coeffs=(1,)))

    def test_default_coefficients(self):
        assert default_coefficients(3) == (3.0, 2.0, 1.0)
        g = generate_graph("path", 4)
        fv = functional_values(g, FunctionalSpec("linear"))
        expected = functional_values(
            g, FunctionalSpec("linear", coeffs=(3, 2, 1))
        )
        assert np.allclose(fv.linear, expected.linear)

    def test_exponential_p3_uniform(self):
        g = generate_graph("path", 3)
        fv = functional_values(
            g, FunctionalSpec("exponential", coeffs=(1, 1), beta=2.0)
        )
        d = distribution_from_values(fv)
        assert np.allclose(d.probs, [1 / 3] * 3, atol=1e-15)

    def test_exponential_beta_one_uniform(self):
        g = generate_graph("gnp", 6, p=0.6, seed=1)
        eta = distance_matrix(g).eta
        fv = functional_values(
            g, FunctionalSpec("exponential", coeffs=tuple(range(1, eta + 1)), beta=1.0)
        )
        assert np.allclose(distribution_from_values(fv).probs, 1 / g.n, atol=1e-15)

    def test_exponential_s4_uniform(self):
        g = generate_graph("star", 4)
        fv = functional_values(
            g, FunctionalSpec("exponential", coeffs=(1, 1), beta=2.0)
        )
        assert np.allclose(distribution_from_values(fv).probs, 0.25, atol=1e-15)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            FunctionalSpec("exponential", coeffs=(1,))
        with pytest.raises(DomainError):
            FunctionalSpec("linear", coeffs=(1,), beta=2.0)
        with pytest.raises(DomainError):
            FunctionalSpec("linear", coeffs=(0.0, 1.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                FunctionalSpec("linear", coeffs=(bad, 1.0))
            with pytest.raises(DomainError):
                FunctionalSpec("exponential", beta=bad)


class TestDistributionFromValues:
    def test_direct_normalization(self):
        d = distribution_from_values(FunctionalValues.from_values([6, 4, 4, 4]))
        assert np.allclose(d.probs, [1 / 3, 2 / 9, 2 / 9, 2 / 9], atol=1e-15)

    def test_uniform(self):
        d = distribution_from_values(FunctionalValues.from_values([7, 7, 7]))
        assert np.allclose(d.probs, 1 / 3, atol=1e-15)

    def test_total_overflows_to_inf(self):
        fv = FunctionalValues(log_values=np.array([800.0, 1.0]))
        assert fv.total == math.inf
        assert fv.total_log == pytest.approx(800.0, abs=1e-12)

    def test_unnormalizable_values_name_the_total(self):
        # ln f ~ 1e308: exp(ln f - ln S) is 1 for every vertex
        fv = FunctionalValues(log_values=np.full(4, 1e308))
        with pytest.raises(DomainError, match=r"cannot be normalized at ln S = 1e\+308: "
                           r"probabilities sum to"):
            fv.distribution

    def test_huge_log_values_no_overflow(self):
        fv = FunctionalValues(log_values=np.array([1000.0, 1000.0]))
        assert fv.linear is None
        d = distribution_from_values(fv)
        assert np.allclose(d.probs, 0.5, atol=1e-15)


class TestEntropies:
    def test_shannon_quarter(self):
        assert shannon_entropy(dist(0.25, 0.75)) == pytest.approx(
            SHANNON_QUARTER, abs=1e-14
        )

    def test_shannon_uniform8(self):
        assert shannon_entropy(probs([1] * 8)) == pytest.approx(3.0, abs=1e-12)

    def test_shannon_degenerate(self):
        assert shannon_entropy(dist(1.0)) == 0.0

    def test_renyi_s4_alpha2(self):
        assert renyi_entropy(dist(0.25, 0.75), 2.0) == pytest.approx(
            RENYI_S4_A2, abs=1e-14
        )

    def test_renyi_uniform_any_alpha(self):
        for alpha in (0.25, 0.5, 2.0, 3.0):
            assert renyi_entropy(probs([1] * 5), alpha) == pytest.approx(
                math.log2(5), abs=1e-12
            )

    def test_renyi_91(self):
        got = renyi_entropy(dist(0.9, 0.1), 0.5)
        assert got == pytest.approx(RENYI_91_A05, abs=1e-14)
        assert got == pytest.approx(
            2 * math.log2(math.sqrt(0.9) + math.sqrt(0.1)), abs=1e-14
        )

    def test_renyi_alpha_domain(self):
        with pytest.raises(DomainError):
            renyi_entropy(dist(0.5, 0.5), 0.0)
        with pytest.raises(DomainError):
            renyi_entropy(dist(0.5, 0.5), -1.0)
        for alpha in (math.nan, math.inf):
            with pytest.raises(DomainError):
                renyi_entropy(dist(0.5, 0.5), alpha)

    def test_renyi_alpha_one_band(self):
        d = dist(0.3, 0.7)
        assert renyi_entropy(d, 1.0 + 1e-12) == shannon_entropy(d)

    def test_stats(self):
        s = distribution_stats(dist(0.9, 0.1))
        assert s.rho == pytest.approx(9.0) and s.epsilon == pytest.approx(0.8)
        s2 = distribution_stats(dist(0.25, 0.75))
        assert s2.rho == pytest.approx(3.0) and s2.epsilon == pytest.approx(0.5)
        s3 = distribution_stats(probs([1, 1, 1]))
        assert s3.rho == 1.0 and s3.epsilon == 0.0

    def test_stats_subnormal_atom_gives_infinite_rho(self):
        # max p / min p overflows without a numpy warning
        s = distribution_stats(Distribution(p=np.array([1.0, 5e-310])))
        assert s.rho == math.inf and s.epsilon == 1.0


class TestEntropyProperties:
    @given(positive_lists, st.floats(0.1, 0.99), st.floats(1.01, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_renyi_monotone_in_alpha(self, raw, a_low, a_high):
        d = probs(raw)
        assert renyi_entropy(d, a_low) >= renyi_entropy(d, a_high) - 1e-9

    @given(positive_lists)
    @settings(max_examples=200, deadline=None)
    def test_limit_consistency(self, raw):
        d = probs(raw)
        h = shannon_entropy(d)
        assert abs(renyi_entropy(d, 1 + 1e-4) - h) <= 1e-3
        assert abs(renyi_entropy(d, 1 - 1e-4) - h) <= 1e-3

    @given(positive_lists, st.floats(0.2, 3.5))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, raw, alpha):
        d = probs(raw)
        if abs(alpha - 1.0) < 1e-3:
            alpha = 0.5
        for h in (shannon_entropy(d), renyi_entropy(d, alpha)):
            assert -1e-12 <= h <= math.log2(d.size) + 1e-9

    @given(st.floats(0.1, 9.5))
    @settings(max_examples=50, deadline=None)
    def test_linear_scale_invariance(self, t):
        g = generate_graph("gnp", 7, p=0.5, seed=3)
        eta = distance_matrix(g).eta
        base = tuple(float(j) for j in range(1, eta + 1))
        d1 = distribution_from_values(
            functional_values(g, FunctionalSpec("linear", coeffs=base))
        )
        d2 = distribution_from_values(
            functional_values(
                g, FunctionalSpec("linear", coeffs=tuple(t * c for c in base))
            )
        )
        assert np.allclose(d1.probs, d2.probs, atol=1e-12)


class TestIsomorphismInvariance:
    def test_all_measures(self):
        rng = np.random.default_rng(3)
        g = generate_graph("gnp", 8, p=0.5, seed=14)
        eta = distance_matrix(g).eta
        lin = FunctionalSpec("linear", coeffs=tuple(rng.uniform(0.5, 2, eta)))
        exp = FunctionalSpec(
            "exponential", coeffs=tuple(rng.uniform(0.5, 2, eta)), beta=2.0
        )
        for _ in range(4):
            perm = list(rng.permutation(g.n))
            h = g.relabel(perm)
            for alpha in (0.5, 2.0):
                d_g = partition_distribution(vertex_orbits(g))
                d_h = partition_distribution(vertex_orbits(h))
                assert renyi_entropy(d_g, alpha) == pytest.approx(
                    renyi_entropy(d_h, alpha), abs=1e-12
                )
                assert shannon_entropy(d_g) == pytest.approx(
                    shannon_entropy(d_h), abs=1e-12
                )
                for spec in (lin, exp):
                    e_g = renyi_entropy(
                        distribution_from_values(functional_values(g, spec)), alpha
                    )
                    e_h = renyi_entropy(
                        distribution_from_values(functional_values(h, spec)), alpha
                    )
                    assert e_g == pytest.approx(e_h, abs=1e-12)
