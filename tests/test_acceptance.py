"""Acceptance suite: one test per criterion, at the stated sizes and tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints a summary line with the measured numbers
(visible with ``-s`` or on failure).
"""

import math
import time

import numpy as np
import pytest

from orthofield.cli import DEFAULT_SEED
from orthofield.counterexample import comparison_report, site_delta_lower_bound
from orthofield.dependence import martingale_kernel, physical_dependence, tail_sum_inequality
from orthofield.functional import innovation_at
from orthofield.innovation import InnovationLaw
from orthofield.montecarlo import (
    GapStatistic,
    cairoli_ratio,
    maximal_inequality_check,
    sample_paths,
    uniform_grid,
)
from orthofield.stats import ks_test, moment_summary, normal_cdf, sheet_covariance_check
from orthofield.suites import completeness_suite, coboundary_suite, projection_suite
from orthofield.counterexample import truncated_martingale

LAW = InnovationLaw.rademacher()
SEED = DEFAULT_SEED


def report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def sheet_paths():
    """Criteria 5 and 6 share one seeded path run: identity field, 64 x 64, 2000 replicates."""
    f = innovation_at(LAW, (0, 0))
    t_grid = ((0.5, 1.0), (1.0, 0.5), (1.0, 1.0))
    return sample_paths(f, (64, 64), t_grid, replicates=2000, seed=SEED)


def test_criterion_01_coboundary_round_trip():
    start = time.perf_counter()
    checks = coboundary_suite(SEED, count=100, dims=(1, 2, 3))
    elapsed = time.perf_counter() - start
    for c in checks:
        if "reconstruction" in c.label or "kernel" in c.label:
            assert c.violation <= 1e-9, c
        else:
            assert c.violation <= 1e-10, c
    assert elapsed <= 60.0
    worst = max(c.violation for c in checks)
    report(1, "coboundary round trip", f"300 functionals, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_projection_identities():
    start = time.perf_counter()
    checks = projection_suite(SEED, pairs=50)
    elapsed = time.perf_counter() - start
    for c in checks:
        assert c.violation <= 1e-10, c
    assert elapsed <= 30.0
    worst = max(c.violation for c in checks)
    report(2, "projection identities", f"50 pairs, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_projective_completeness():
    checks = completeness_suite(SEED, count=100, dims=(1, 2, 3))
    for c in checks:
        assert c.violation <= 1e-10, c
    worst = max(c.violation for c in checks)
    report(3, "projective completeness", f"300 functionals, worst {worst:.2e}")


def test_criterion_04_sigma2_formula():
    start = time.perf_counter()
    f = innovation_at(LAW, (0, 0)) + 0.5 * innovation_at(LAW, (-1, 0))
    kernel = martingale_kernel(f)
    assert kernel.sigma2 == pytest.approx(2.25, abs=1e-12)
    paths = sample_paths(f, (128, 128), ((1.0, 1.0),), replicates=2000, seed=SEED)
    summary = moment_summary(paths.at((1.0, 1.0)))
    assert abs(summary.var - 2.25) <= 4.0 * summary.se_var
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    report(4, "sigma2 formula", f"exact 2.25, mc var {summary.var:.4f} +- {summary.se_var:.4f}, {elapsed:.1f}s")


def test_criterion_05_clt_marginal_ks(sheet_paths):
    samples = sheet_paths.at((1.0, 1.0))  # sigma = 1 for the identity field
    result = ks_test(samples, normal_cdf, level=0.01)
    assert result.critical_value == pytest.approx(1.6276 / math.sqrt(2000), abs=1e-12)
    assert result.passed
    report(5, "clt marginal ks", f"stat {result.statistic:.4f} < crit {result.critical_value:.4f}")


def test_criterion_06_sheet_covariance(sheet_paths):
    rows = sheet_covariance_check(
        sheet_paths, [((0.5, 1.0), (1.0, 0.5))], sigma2=1.0
    )
    row = rows[0]
    assert row.target == pytest.approx(0.25)
    assert abs(row.empirical - row.target) <= 4.0 * row.se
    report(6, "sheet covariance", f"emp {row.empirical:.4f} vs 0.25, {row.deviation_se:+.2f} se")


def test_criterion_07_cairoli_bound():
    f = innovation_at(LAW, (0, 0))
    check = cairoli_ratio(f, (64, 64), replicates=1000, seed=SEED)
    assert check.bound == pytest.approx(16.0)
    assert check.ratio <= 16.0 * 1.1
    report(7, "cairoli bound", f"ratio {check.ratio:.3f} <= 17.6")


def test_criterion_08_maximal_inequality():
    functionals = [
        (innovation_at(LAW, (0,)), (64,)),
        (innovation_at(LAW, (0, 0)) + 0.5 * innovation_at(LAW, (-1, 0)), (32, 32)),
        (innovation_at(LAW, (-1,)) - innovation_at(LAW, (0,)), (64,)),
    ]
    details = []
    for f, n in functionals:
        check = maximal_inequality_check(f, n, replicates=500, seed=SEED)
        assert check.lhs <= check.rhs * 1.1 + 3.0 * check.se_lhs, check
        details.append(f"{check.lhs:.2f}<={check.rhs:.2f}")
    report(8, "maximal inequality", ", ".join(details))


def test_criterion_09_approximation_gap_trend():
    f = innovation_at(LAW, (0, 0)) + 0.5 * innovation_at(LAW, (-1, 0))
    kernel = martingale_kernel(f)

    def gaps(n):
        paths = sample_paths(f, n, uniform_grid(2, 1), 500, SEED, kernel=kernel)
        return GapStatistic.of(n, paths.gaps.tolist())

    small = gaps((16, 16))
    large = gaps((128, 128))
    assert large.median < small.median
    report(9, "approximation gap trend", f"median {small.median:.4f} -> {large.median:.4f}")


def test_criterion_10_counterexample():
    rep = comparison_report([2, 3, 4, 5])
    totals = [r.delta_total for r in rep.rows]
    assert all(r.hannan_total <= 1.28255 for r in rep.rows)
    assert all(a < b for a, b in zip(totals, totals[1:]))
    assert rep.growth_ratios[2] >= 1.2
    for n_max in (2, 3, 4):
        delta = physical_dependence(truncated_martingale(n_max))
        for i in range(-2 * n_max, 0):
            assert delta.get((i,), 0.0) >= site_delta_lower_bound(i, n_max) - 1e-12
    report(
        10,
        "counterexample",
        f"hannan <= {max(r.hannan_total for r in rep.rows):.5f}, growth {rep.growth_ratios[2]:.3f}",
    )


def test_criterion_11_tail_sum_inequality():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.0, 1.0, size=(n,) * dim)
        lhs, rhs, holds = tail_sum_inequality(a)
        assert holds
        worst = max(worst, rhs - lhs)
    assert worst <= 0.0
    report(11, "tail sum inequality", "200 arrays hold")
