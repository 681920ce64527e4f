"""Seeded Monte Carlo checks of the Brownian-sheet limit for a d=2 field.

Simulates normalized partial-sum paths of a moving-average field, tests the
Gaussian marginal and the sheet covariance, bounds the maximal moments, and
watches the orthomartingale approximation gap shrink with the grid.
"""

from math import sqrt

from orthofield import (
    GapStatistic,
    InnovationLaw,
    cairoli_ratio,
    innovation_at,
    ks_test,
    martingale_kernel,
    maximal_inequality_check,
    moment_summary,
    normal_cdf,
    sample_paths,
    sheet_covariance_check,
)

law = InnovationLaw.rademacher()
seed = 20260809

f = innovation_at(law, (0, 0)) + 0.5 * innovation_at(law, (-1, 0))
kernel = martingale_kernel(f)
sigma = sqrt(kernel.sigma2)
print("limit variance sigma^2 =", kernel.sigma2)

## Normalized paths on a coarse time grid; 800 replicates.
t_grid = ((0.5, 1.0), (1.0, 0.5), (1.0, 1.0))
paths = sample_paths(f, (64, 64), t_grid, replicates=800, seed=seed)

## Marginal at t = (1,1) against the standard normal, exact sigma.
corner = paths.at((1.0, 1.0)) / sigma
ks = ks_test(corner, normal_cdf, level=0.01)
print(f"KS statistic {ks.statistic:.4f} vs critical {ks.critical_value:.4f}: "
      f"{'pass' if ks.passed else 'fail'}")

## Empirical variance against sigma^2.
moments = moment_summary(paths.at((1.0, 1.0)))
print(f"variance {moments.var:.4f} target {kernel.sigma2} (se {moments.se_var:.4f})")

## Sheet covariance: target sigma^2 times the product of coordinate minima.
for row in sheet_covariance_check(paths, [((0.5, 1.0), (1.0, 0.5))], kernel.sigma2):
    print(f"cov{row.s}x{row.t}: empirical {row.empirical:.4f} "
          f"target {row.target:.4f} ({row.deviation_se:+.2f} se)")

## Cairoli maximal-moment ratio, bounded by (p/(p-1))^(dp) = 16 at p = 2, d = 2.
check = cairoli_ratio(innovation_at(law, (0, 0)), (64, 64), replicates=400, seed=seed)
print(f"maximal moment ratio {check.ratio:.3f} <= bound {check.bound}")

## Maximal inequality: the Monte Carlo norm of the running maximum against
## the exact projective bound.
m = maximal_inequality_check(f, (32, 32), replicates=400, seed=seed)
print(f"max partial-sum norm {m.lhs:.3f} <= exact bound {m.rhs:.3f}")

## Orthomartingale approximation gap shrinks as the grid grows.  Given the
## kernel, the samples carry every replicate's gap of its own draw, as in verify-clt.
for n in ((16, 16), (64, 64), (128, 128)):
    coupled = sample_paths(f, n, t_grid, replicates=300, seed=seed, kernel=kernel)
    gap = GapStatistic.of(n, coupled.gaps.tolist())
    print(f"gap at {n}: median {gap.median:.4f}")
