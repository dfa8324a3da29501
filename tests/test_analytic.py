import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from aloha_noma.analytic import (
    BracketingError,
    _scan_for_bracket,
    max_throughput,
    poisson_arrival_pmf,
    throughput,
    throughput_curve,
    throughput_derivative,
)

CUBE_ROOT_EPS = (2.0**-52) ** (1.0 / 3.0)


def central_difference(g, n):
    """Independent derivative oracle; one-sided second-order form near G=0."""
    h = CUBE_ROOT_EPS * max(1.0, g)
    if g >= h:
        return (throughput(g + h, n) - throughput(g - h, n)) / (2.0 * h)
    return (
        -3.0 * throughput(g, n)
        + 4.0 * throughput(g + h, n)
        - throughput(g + 2.0 * h, n)
    ) / (2.0 * h)


class TestPoissonArrivalPmf:
    def test_empty_channel_is_certain(self):
        assert poisson_arrival_pmf(0, 0.0) == 1.0

    def test_single_arrival_at_unit_mean(self):
        assert poisson_arrival_pmf(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_zero_mean_gives_zero_for_positive_counts(self):
        assert poisson_arrival_pmf(3, 0.0) == 0.0

    def test_normalization_by_direct_summation(self):
        total = math.fsum(poisson_arrival_pmf(i, 10.0) for i in range(201))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("two_g", [0.1, 1.0, 10.0, 100.0])
    def test_truncated_sum_is_one(self, two_g):
        total, i = 0.0, 0
        while True:
            term = poisson_arrival_pmf(i, two_g)
            total += term
            if i > two_g and term < 1e-18:
                break
            i += 1
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_log_domain_matches_reference_pmf(self):
        for i, two_g in [(300, 200.0), (25, 35.0), (1000, 900.0), (5, 0.3)]:
            assert poisson_arrival_pmf(i, two_g) == pytest.approx(
                float(sps.poisson.pmf(i, two_g)), rel=1e-11
            )

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_rejects_bad_means(self, bad):
        with pytest.raises(ValueError):
            poisson_arrival_pmf(0, bad)

    def test_rejects_negative_and_fractional_counts(self):
        with pytest.raises(ValueError):
            poisson_arrival_pmf(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_arrival_pmf(1.5, 1.0)


class TestThroughput:
    def test_classic_pure_aloha_peak(self):
        assert throughput(0.5, 1) == pytest.approx(1.0 / (2.0 * math.e), rel=1e-12)
        assert throughput(0.5, 1) == pytest.approx(0.18394, abs=1e-5)

    def test_zero_load_is_exactly_zero(self):
        assert throughput(0.0, 7) == 0.0

    def test_degree_two_near_optimum(self):
        assert throughput(0.809, 2) == pytest.approx(0.4200, abs=5e-4)

    def test_survives_large_degree_and_load(self):
        value = throughput(60.0, 100)
        assert math.isfinite(value) and value > 0.0

    def test_matches_poisson_cdf_identity(self):
        # S(G, N) = G * P(Poisson(2G) <= N - 1), an independent evaluation path
        for g, n in [(0.3, 1), (0.809, 2), (2.5, 7), (42.0, 100), (60.0, 100)]:
            reference = g * float(sps.poisson.cdf(n - 1, 2.0 * g))
            assert throughput(g, n) == pytest.approx(reference, rel=1e-12)

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError):
            throughput(-0.1, 1)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            throughput(0.5, 0)

    @given(st.floats(min_value=0.0, max_value=60.0))
    def test_closed_form_degree_one(self, g):
        assert throughput(g, 1) == pytest.approx(g * math.exp(-2.0 * g), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=60.0))
    def test_closed_form_degree_two(self, g):
        expected = math.exp(-2.0 * g) * (g + 2.0 * g * g)
        assert throughput(g, 2) == pytest.approx(expected, abs=1e-12)

    @given(
        st.floats(min_value=1e-6, max_value=60.0),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=120),
    )
    def test_dominance_in_degree(self, g, n1, n2):
        lo, hi = sorted((n1, n2))
        assert throughput(g, lo) <= throughput(g, hi)

    @given(
        st.floats(min_value=0.5, max_value=20.0),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
    )
    def test_strict_dominance_where_mass_is_representable(self, g, n, extra):
        # keep N small enough that the added series mass stays well above
        # one ulp of the total; for tiny G and large N the strict gap is
        # mathematically positive but vanishes in float arithmetic
        assert throughput(g, n + extra) > throughput(g, n)

    @given(
        st.floats(min_value=0.0, max_value=60.0),
        st.integers(min_value=1, max_value=100),
    )
    def test_bounded_by_offered_load(self, g, n):
        s = throughput(g, n)
        assert 0.0 <= s <= g + 1e-12


class TestThroughputDerivative:
    def test_zero_at_pure_aloha_optimum(self):
        assert throughput_derivative(0.5, 1) == 0.0

    def test_direct_substitution_degree_one(self):
        expected = (1.0 - 0.5) * math.exp(-0.5)
        assert throughput_derivative(0.25, 1) == pytest.approx(expected, rel=1e-12)

    def test_near_zero_at_degree_two_optimum(self):
        assert abs(throughput_derivative(0.809, 2)) <= 1e-3

    def test_unit_slope_at_origin(self):
        for n in (1, 3, 50):
            assert throughput_derivative(0.0, n) == 1.0

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError):
            throughput_derivative(-1.0, 2)

    def test_agrees_with_central_differences(self):
        rng = np.random.default_rng(8571)
        for _ in range(300):
            g = float(rng.uniform(0.0, 10.0))
            n = int(rng.integers(1, 51))
            value = throughput_derivative(g, n)
            oracle = central_difference(g, n)
            assert abs(value - oracle) <= max(1e-8, 1e-6 * abs(value))


class TestMaxThroughput:
    def test_degree_one(self):
        res = max_throughput(1)
        assert res.g_star == pytest.approx(0.5, abs=1e-9)
        assert res.s_max == pytest.approx(0.18394, abs=1e-5)

    def test_degree_two_golden_ratio_root(self):
        res = max_throughput(2)
        assert res.g_star == pytest.approx((1.0 + math.sqrt(5.0)) / 4.0, abs=1e-9)
        assert res.s_max == pytest.approx(0.42, abs=2e-3)

    def test_degree_three(self):
        res = max_throughput(3)
        assert res.g_star == pytest.approx(1.1348, abs=1e-3)
        assert res.s_max == pytest.approx(0.6856, abs=1e-3)

    def test_degree_five(self):
        assert max_throughput(5).s_max == pytest.approx(1.27, abs=1e-2)

    def test_residual_within_tolerance(self):
        for n in (1, 2, 3, 10, 100):
            res = max_throughput(n, tol=1e-9)
            assert abs(res.derivative_residual) <= 1e-9
            assert res.s_max == throughput(res.g_star, n)

    def test_optimum_certification_over_full_range(self):
        # the located maximum beats both neighbours and the derivative
        # changes sign across it
        for n in range(1, 101):
            res = max_throughput(n, tol=1e-3)
            delta = 1e-3
            assert throughput(res.g_star - delta, n) <= throughput(res.g_star, n)
            assert throughput(res.g_star + delta, n) <= throughput(res.g_star, n)
            assert throughput_derivative(res.g_star - delta, n) > 0.0
            assert throughput_derivative(res.g_star + delta, n) < 0.0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            max_throughput(1, tol=0.0)
        with pytest.raises(ValueError):
            max_throughput(1, tol=1e-2)

    def test_scan_reports_missing_bracket(self):
        with pytest.raises(BracketingError, match="no sign change"):
            _scan_for_bracket(lambda g: 1.0, 0.01, 10.0)

    def test_scan_reports_multiple_brackets(self):
        with pytest.raises(BracketingError, match="sign changes"):
            _scan_for_bracket(lambda g: math.sin(g), 0.01, 20.0)


class TestLargeDegree:
    @pytest.mark.parametrize("n", [1000, 3000, 10000])
    def test_optimum_where_the_tail_underflows(self, n):
        res = max_throughput(n)
        assert throughput_derivative(res.g_star - 1e-3, n) > 0.0
        assert throughput_derivative(res.g_star + 1e-3, n) < 0.0
        assert abs(res.derivative_residual) <= 1e-9
        # the truncated Poisson sum of the series form, not the incomplete gamma
        two_g = 2.0 * res.g_star
        series = res.g_star * math.fsum(poisson_arrival_pmf(i, two_g) for i in range(n))
        assert res.s_max == pytest.approx(series, rel=1e-10, abs=0.0)

    def test_curve_equals_scalar_throughput_bitwise(self):
        for n in (1, 5, 200, 3000):
            grid = np.linspace(0.0, 1.5 * n, 257).tolist()
            curve = throughput_curve(n, grid)
            assert [p.s for p in curve.points] == [throughput(g, n) for g in grid]


class TestThroughputCurve:
    def test_single_zero_point(self):
        curve = throughput_curve(1, [0.0])
        assert len(curve) == 1
        assert curve.points[0].g == 0.0
        assert curve.points[0].s == 0.0

    def test_known_degree_two_point(self):
        curve = throughput_curve(2, [0.809])
        assert curve.points[0].s == pytest.approx(0.42, abs=5e-4)

    def test_grid_argmax_matches_analytic_peak(self):
        grid = np.linspace(0.0, 3.0, 301).tolist()
        curve = throughput_curve(1, grid)
        best = max(curve.points, key=lambda p: p.s)
        assert best.g == pytest.approx(0.5, abs=1e-12)

    def test_order_preserving(self):
        grid = [0.0, 0.25, 1.0, 2.0]
        curve = throughput_curve(3, grid)
        assert [p.g for p in curve.points] == grid

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            throughput_curve(1, [0.0, 1.0, 0.5])

    def test_rejects_negative_grid(self):
        with pytest.raises(ValueError):
            throughput_curve(1, [-0.5, 0.5])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            throughput_curve(1, [])


def test_superlinear_growth_of_maxima():
    maxima = [max_throughput(n).s_max for n in range(1, 22)]
    gains = np.diff(maxima)
    assert np.all(np.diff(gains) >= 0.0)
