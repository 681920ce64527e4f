import math

import numpy as np
import pytest

from orthofield.montecarlo import PathSamples
from orthofield.stats import (
    ks_test,
    moment_summary,
    normal_cdf,
    sheet_covariance_check,
)


def test_cdf_at_zero():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-9)


def test_cdf_symmetry():
    xs = np.linspace(-8, 8, 1001)
    assert np.max(np.abs(normal_cdf(xs) + normal_cdf(-xs) - 1.0)) <= 2e-7


def test_cdf_upper_quantile():
    # target from a high-precision offline evaluation: Phi(1.959964) = 0.97500000090...
    assert abs(normal_cdf(1.959964) - 0.975) <= 1e-6


def test_cdf_accuracy_against_erf_oracle():
    xs = np.linspace(-8.0, 8.0, 4001)
    oracle = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in xs])
    assert np.max(np.abs(normal_cdf(xs) - oracle)) <= 1e-7


def test_cdf_monotone_on_dense_grid():
    xs = np.linspace(-8.0, 8.0, 10_000)
    values = normal_cdf(xs)
    assert np.all(np.diff(values) >= 0.0)


def test_ks_statistic_at_exact_quantiles():
    m = 400
    # samples placed exactly at the (i - 0.5)/m quantiles of the uniform cdf
    samples = [(i - 0.5) / m for i in range(1, m + 1)]
    result = ks_test(samples, lambda x: np.clip(x, 0.0, 1.0), level=0.05)
    assert result.statistic == pytest.approx(0.5 / m, abs=1e-12)
    assert result.passed


def test_ks_critical_value_2000():
    rng = np.random.default_rng(2)
    result = ks_test(rng.normal(size=2000), normal_cdf, level=0.01)
    assert result.critical_value == pytest.approx(1.6276 / math.sqrt(2000), abs=1e-12)
    assert result.critical_value == pytest.approx(0.0364, abs=1e-4)


def test_ks_constant_samples_fail():
    result = ks_test([0.3] * 500, normal_cdf, level=0.05)
    assert result.statistic >= 0.5
    assert not result.passed


def test_ks_normal_draws_pass():
    rng = np.random.default_rng(12345)
    result = ks_test(rng.normal(size=2000), normal_cdf, level=0.01)
    assert result.passed


def test_ks_input_validation():
    with pytest.raises(ValueError, match="at least"):
        ks_test([0.1] * 50, normal_cdf)
    with pytest.raises(ValueError, match="level"):
        ks_test([0.1] * 500, normal_cdf, level=0.2)


def make_paths(values_by_t):
    grid = tuple(values_by_t)
    values = np.array([values_by_t[t] for t in grid], dtype=np.float64)
    return PathSamples(grid_n=(4, 4), t_grid=grid, values=values, gaps=None)


def test_sheet_covariance_targets_and_symmetry():
    rng = np.random.default_rng(4)
    x = rng.normal(size=500)
    y = 0.5 * x + rng.normal(size=500) * 0.1
    zeros = np.zeros(500)
    paths = make_paths({(1.0, 1.0): x, (0.5, 1.0): y, (0.0, 0.5): zeros})
    rows = sheet_covariance_check(
        paths,
        [((1.0, 1.0), (1.0, 1.0)), ((0.5, 1.0), (1.0, 1.0)), ((1.0, 1.0), (0.5, 1.0))],
        sigma2=1.0,
    )
    assert rows[0].target == pytest.approx(1.0)
    assert rows[1].target == pytest.approx(0.5)
    # symmetry in the pair
    assert rows[1].empirical == pytest.approx(rows[2].empirical)
    assert rows[1].se == pytest.approx(rows[2].se)


def test_sheet_covariance_degenerate_coordinate():
    rng = np.random.default_rng(5)
    x = rng.normal(size=300)
    paths = make_paths({(1.0, 1.0): x, (0.0, 0.5): np.zeros(300)})
    rows = sheet_covariance_check(paths, [((0.0, 0.5), (1.0, 1.0))], sigma2=2.0)
    assert rows[0].target == 0.0
    assert rows[0].empirical == 0.0


def test_sheet_covariance_needs_enough_paths():
    paths = make_paths({(1.0,): np.zeros(10)})
    with pytest.raises(ValueError, match="200"):
        sheet_covariance_check(paths, [((1.0,), (1.0,))], sigma2=1.0)


def test_moment_summary_examples():
    s = moment_summary([1.0, -1.0])
    assert s.mean == 0.0
    assert s.var == pytest.approx(2.0)
    s0 = moment_summary([3.0] * 10)
    assert s0.var == 0.0
    with pytest.raises(ValueError):
        moment_summary([1.0])


def test_moment_summary_normal_selftest():
    rng = np.random.default_rng(6)
    s = moment_summary(rng.normal(size=10_000))
    assert abs(s.var - 1.0) <= 4 * s.se_var
    assert abs(s.mean) <= 4 * s.se_mean
