"""Statistical verification primitives: normal CDF, KS test, sheet covariance, moments.

The normal CDF uses the Abramowitz and Stegun 26.2.17 rational approximation
(absolute error below 7.5e-8); its coefficients are fixed here and documented
in the README.  Kolmogorov-Smirnov critical values come from the asymptotic
Kolmogorov distribution, so a minimum sample size of 200 is enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .tolerances import SE_BOUND

# Abramowitz and Stegun 26.2.17: Phi(x) = 1 - phi(x) * poly(1 / (1 + p x)),
# x >= 0, |error| < 7.5e-8.
_AS_P = 0.2316419
_AS_B = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)

_INV_SQRT_2PI = 0.3989422804014327

# Asymptotic Kolmogorov distribution quantiles for the supported levels.
KS_COEFFICIENTS = {0.05: 1.3581, 0.01: 1.6276}

MIN_KS_SAMPLES = 200


def normal_cdf(x):
    """Standard normal CDF, accurate to 1e-7 absolute and monotone nondecreasing.

    Accepts scalars or arrays; negative arguments go through the exact
    symmetry ``Phi(-x) = 1 - Phi(x)``.
    """
    arr = np.asarray(x, dtype=np.float64)
    a = np.abs(arr)
    t = 1.0 / (1.0 + _AS_P * a)
    poly = t * (
        _AS_B[0] + t * (_AS_B[1] + t * (_AS_B[2] + t * (_AS_B[3] + t * _AS_B[4])))
    )
    upper = 1.0 - _INV_SQRT_2PI * np.exp(-0.5 * a * a) * poly
    out = np.where(arr >= 0.0, upper, 1.0 - upper)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


@dataclass(frozen=True)
class TestResult:
    """Outcome of one goodness-of-fit test; passes iff the statistic is within the critical value."""

    statistic: float
    critical_value: float
    level: float
    passed: bool
    sample_size: int


def ks_test(samples, cdf, level: float = 0.01) -> TestResult:
    """One-sample Kolmogorov-Smirnov test against a continuous CDF.

    ``cdf`` maps an array elementwise (as :func:`normal_cdf` does) and is
    called once, on the sorted sample.  The statistic is the sup distance
    between the empirical CDF and ``cdf`` at the sorted sample; the critical
    value is the asymptotic Kolmogorov quantile divided by sqrt(m).
    """
    if level not in KS_COEFFICIENTS:
        raise ValueError(f"level must be one of {sorted(KS_COEFFICIENTS)}")
    data = np.sort(np.asarray(samples, dtype=np.float64))
    m = data.size
    if m < MIN_KS_SAMPLES:
        raise ValueError(f"need at least {MIN_KS_SAMPLES} samples, got {m}")
    f_vals = np.asarray(cdf(data), dtype=np.float64)
    grid = np.arange(1, m + 1, dtype=np.float64) / m
    d_plus = float(np.max(grid - f_vals))
    d_minus = float(np.max(f_vals - (grid - 1.0 / m)))
    statistic = max(d_plus, d_minus)
    critical = KS_COEFFICIENTS[level] / sqrt(m)
    return TestResult(
        statistic=statistic,
        critical_value=critical,
        level=level,
        passed=statistic <= critical,
        sample_size=m,
    )


@dataclass(frozen=True)
class CovarianceRow:
    """Empirical path covariance at one time pair against the sheet kernel target."""

    s: tuple[float, ...]
    t: tuple[float, ...]
    empirical: float
    target: float
    se: float
    deviation_se: float

    @property
    def within(self) -> bool:
        return abs(self.deviation_se) <= SE_BOUND


def sheet_covariance_check(paths, pairs, sigma2: float) -> list[CovarianceRow]:
    """Compare empirical path covariances with the Brownian-sheet kernel.

    The target at times ``(s, t)`` is ``sigma2`` times the product of
    coordinatewise minima; deviations are reported in units of the asymptotic
    standard error of the sample covariance.  ``paths`` is one grid's
    :class:`~orthofield.montecarlo.PathSamples`.
    """
    m = paths.replicates
    if m < MIN_KS_SAMPLES:
        raise ValueError(f"need at least {MIN_KS_SAMPLES} paths, got {m}")
    rows = []
    for s, t in pairs:
        s = tuple(float(c) for c in s)
        t = tuple(float(c) for c in t)
        x = paths.at(s)
        y = paths.at(t)
        xc = x - x.mean()
        yc = y - y.mean()
        emp = float(xc @ yc / (m - 1))
        target = sigma2 * float(np.prod(np.minimum(s, t)))
        var_cov = float(np.mean(xc**2 * yc**2) - emp**2)
        se = sqrt(max(var_cov, 0.0) / m)
        dev = (emp - target) / se if se > 0 else 0.0
        rows.append(
            CovarianceRow(s=s, t=t, empirical=emp, target=target, se=se, deviation_se=dev)
        )
    return rows


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    var: float
    se_mean: float
    se_var: float
    count: int


def moment_summary(samples) -> MomentSummary:
    """Mean and unbiased variance with standard errors from standard asymptotics.

    The variance standard error uses the fourth central moment:
    ``Var(s^2) ~ (m4 - var^2 (n-3)/(n-1)) / n``.
    """
    data = np.asarray(samples, dtype=np.float64)
    n = data.size
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = float(data.mean())
    var = float(data.var(ddof=1))
    centered = data - mean
    m4 = float(np.mean(centered**4))
    se_var = sqrt(max(m4 - var**2 * (n - 3) / (n - 1), 0.0) / n)
    return MomentSummary(
        mean=mean, var=var, se_mean=sqrt(var / n), se_var=se_var, count=n
    )
