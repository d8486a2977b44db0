"""Correlation, F conversion, and F-distribution tail behaviour.

The p-value route (continued-fraction incomplete beta) is checked
against an independent adaptive-quadrature integration of the F
density, never against itself.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from tiediv.stats import (
    DegenerateInputError,
    PerfectCorrelationError,
    SampleSizeError,
    StatsError,
    betainc_reg,
    evaluate_feature,
    f_from_r,
    f_sf,
    pearson_r,
)


def f_pdf(x: float, df1: float, df2: float) -> float:
    """Density of the F distribution, written directly from gamma functions."""
    if x <= 0.0:
        return 0.0
    log_num = 0.5 * (
        df1 * math.log(df1 * x) + df2 * math.log(df2) - (df1 + df2) * math.log(df1 * x + df2)
    )
    log_beta = (
        math.lgamma(df1 / 2.0) + math.lgamma(df2 / 2.0) - math.lgamma((df1 + df2) / 2.0)
    )
    return math.exp(log_num - log_beta) / x


def f_sf_quadrature(f_value: float, df1: float, df2: float) -> float:
    """Upper-tail probability by adaptive quadrature of the density."""
    value, _ = quad(
        f_pdf, f_value, np.inf, args=(df1, df2), epsabs=1e-12, epsrel=1e-12, limit=500
    )
    return value


def t_pdf(x: float, df: float) -> float:
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm - (df + 1.0) / 2.0 * math.log1p(x * x / df))


class TestPearson:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2 * v + 1 for v in x]
        assert pearson_r(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inverse(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson_r(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_example_against_covariance_oracle(self):
        x = [1.0, 2.0, 3.0]
        y = [1.0, 2.0, 4.0]

        def oracle(xs, ys):
            n = len(xs)
            mx = sum(xs) / n
            my = sum(ys) / n
            cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
            vx = sum((a - mx) ** 2 for a in xs)
            vy = sum((b - my) ** 2 for b in ys)
            return cov / math.sqrt(vx * vy)

        assert pearson_r(x, y) == pytest.approx(oracle(x, y), rel=1e-12)
        # frozen from the oracle: 3 / sqrt(2 * 14/3)
        assert pearson_r(x, y) == pytest.approx(0.9819805060619659, rel=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInputError):
            pearson_r([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_too_short_or_mismatched(self):
        with pytest.raises(ValueError):
            pearson_r([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pearson_r([1.0, 2.0, 3.0], [1.0, 2.0])


    def test_too_short_is_a_stats_error(self):
        # callers that turn a StatsError into an error row must catch this one too
        with pytest.raises(SampleSizeError, match="need at least 3 samples, got 2"):
            pearson_r([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(SampleSizeError, match="need n >= 3, got 2"):
            f_from_r(0.5, 2)
        assert issubclass(SampleSizeError, StatsError)


class TestFFromR:
    def test_zero_correlation(self):
        assert f_from_r(0.0, 100) == 0.0

    def test_direct_substitution(self):
        assert f_from_r(0.5, 102) == pytest.approx(0.25 * 100 / 0.75, rel=1e-12)

    def test_moderate_correlation_large_sample(self):
        # r = 0.30 on ~708 observations sits near F = 69.8
        assert f_from_r(0.30, 708) == pytest.approx(69.8, abs=0.1)

    def test_perfect_correlation_is_infinite(self):
        with pytest.raises(PerfectCorrelationError):
            f_from_r(1.0, 10)
        with pytest.raises(PerfectCorrelationError):
            f_from_r(-1.0, 10)


class TestFSurvival:
    def test_zero_statistic_full_tail(self):
        assert f_sf(0.0, 1, 10) == 1.0

    def test_against_quadrature_f1_10_at_4(self):
        expected = f_sf_quadrature(4.0, 1.0, 10.0)
        assert expected == pytest.approx(0.073, abs=5e-4)
        assert abs(f_sf(4.0, 1, 10) - expected) < 1e-10

    @pytest.mark.parametrize("f_value", [0.1, 1.0, 4.0, 10.0, 50.0])
    @pytest.mark.parametrize("df2", [5, 10, 100, 700])
    def test_against_quadrature_grid(self, f_value, df2):
        assert abs(f_sf(f_value, 1, df2) - f_sf_quadrature(f_value, 1.0, df2)) < 1e-8

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("df", [5, 30])
    def test_matches_two_sided_t_tail(self, t, df):
        # F(1, n) above t^2 is exactly twice the t(n) tail above t
        t_tail, _ = quad(t_pdf, t, np.inf, args=(df,), epsabs=1e-13, limit=500)
        assert f_sf(t * t, 1, df) == pytest.approx(2.0 * t_tail, abs=1e-10)

    def test_strictly_decreasing_in_f(self):
        values = [f_sf(f, 1, 20) for f in np.linspace(0.0, 40.0, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_tiny_tail_reported_as_zero(self):
        assert f_sf(5000.0, 1, 700) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            f_sf(1.0, 0, 10)
        with pytest.raises(ValueError):
            f_sf(-1.0, 1, 10)

    def test_betainc_range_errors(self):
        with pytest.raises(ValueError):
            betainc_reg(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            betainc_reg(1.0, 2.0, 1.5)


class TestEvaluateFeature:
    def test_result_invariant(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + 0.3 * x
            res = evaluate_feature("x", list(x), list(y))
            expected_f = res.r**2 * (n - 2) / (1 - res.r**2)
            assert res.f_value == pytest.approx(expected_f, rel=1e-9)
            assert 0.0 < res.p_value <= 1.0

    def test_affine_rescaling_leaves_f_unchanged(self):
        rng = np.random.default_rng(7)
        x = list(rng.normal(size=60))
        y = list(rng.normal(size=60))
        base = evaluate_feature("x", x, y)
        scaled = evaluate_feature("x", [3.5 * v + 11.0 for v in x], y)
        assert scaled.f_value == pytest.approx(base.f_value, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)

    def test_round_trip_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(5, 500))
            r = float(rng.uniform(-0.99, 0.99))
            p = f_sf(f_from_r(r, n), 1, n - 2)
            assert 0.0 < p <= 1.0
