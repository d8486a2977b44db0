"""Univariate feature evaluation: Pearson correlation, F-statistic, p-value.

The evaluation of a single feature against a numeric target is the
classic univariate regression test: the cross correlation r between
feature and target is converted to an F score with (1, n-2) degrees of
freedom, and the F score to a p-value through the survival function of
the F distribution.

The F survival function is computed here from the regularized
incomplete beta function, evaluated by its continued-fraction
expansion (modified Lentz), rather than from tables, so that true
p-value magnitudes come out for small samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, sqrt
from typing import Sequence


class StatsError(ValueError):
    """Base class for statistical evaluation errors."""


class DegenerateInputError(StatsError):
    """Raised when an input column is constant (correlation undefined)."""


class PerfectCorrelationError(StatsError):
    """Raised when |r| = 1 and the F statistic would be infinite."""


class SampleSizeError(StatsError):
    """Raised for fewer than 3 samples: an F with (1, n-2) degrees of freedom needs n >= 3."""


@dataclass(frozen=True)
class RegressionResult:
    """Outcome of regressing one feature against the target."""

    feature: str
    n: int
    r: float
    f_value: float
    p_value: float


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation between two equal-length samples.

    Raises DegenerateInputError if either sample is constant,
    SampleSizeError for n < 3 and ValueError for length mismatch.
    """
    n = len(x)
    if n != len(y):
        raise ValueError(f"length mismatch: {n} vs {len(y)}")
    if n < 3:
        raise SampleSizeError(f"need at least 3 samples, got {n}")
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    sxx = syy = sxy = 0.0
    for xi, yi in zip(x, y):
        dx = xi - mean_x
        dy = yi - mean_y
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("constant input column, correlation undefined")
    r = sxy / sqrt(sxx * syy)
    # roundoff can push |r| marginally past 1
    return max(-1.0, min(1.0, r))


def f_from_r(r: float, n: int) -> float:
    """Univariate regression F with (1, n-2) degrees of freedom.

    F = r^2 (n-2) / (1 - r^2).
    """
    if n < 3:
        raise SampleSizeError(f"need n >= 3, got {n}")
    if abs(r) >= 1.0:
        raise PerfectCorrelationError("|r| = 1, F statistic is infinite")
    r2 = r * r
    return r2 * (n - 2) / (1.0 - r2)


_BETACF_MAX_ITER = 500
_BETACF_EPS = 3e-16
_BETACF_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_FPMIN:
        d = _BETACF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0, 0 <= x <= 1."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"need a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x)
    )
    front = exp(ln_front)
    # symmetry switch keeps the continued fraction in its convergent regime
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(f_value: float, df1: float = 1.0, df2: float = 1.0) -> float:
    """Survival function (upper tail) of the F distribution.

    P(F(df1, df2) > f_value), via I_x(df2/2, df1/2) with
    x = df2 / (df2 + df1 * f_value). Values below 1e-300 are reported
    as exactly 0.
    """
    if df1 <= 0 or df2 <= 0:
        raise ValueError(f"degrees of freedom must be positive, got ({df1}, {df2})")
    if f_value < 0:
        raise ValueError(f"F statistic must be non-negative, got {f_value}")
    if f_value == 0.0:
        return 1.0
    x = df2 / (df2 + df1 * f_value)
    p = betainc_reg(df2 / 2.0, df1 / 2.0, x)
    if p < 1e-300:
        return 0.0
    return min(1.0, p)


def evaluate_feature(
    feature: str, values: Sequence[float], target: Sequence[float]
) -> RegressionResult:
    """Run the full r -> F -> p chain of one feature against the target."""
    n = len(values)
    r = pearson_r(values, target)
    f = f_from_r(r, n)
    p = f_sf(f, 1.0, n - 2)
    return RegressionResult(feature=feature, n=n, r=r, f_value=f, p_value=p)
