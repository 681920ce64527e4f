"""Seeded exact-identity suites shared by the self-test command and the test suite.

Each suite draws deterministic random functionals, exercises one family of
exact identities, and reports the worst violation against its tolerance.  The
suites are pure functions of their seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coboundary import center, decompose
from .dependence import martingale_kernel, tail_sum_inequality
from .functional import (
    Factor,
    FiniteRangeFunctional,
    constant,
    innovation_at,
    signed_sum,
)
from .innovation import InnovationLaw
from .projection import projection_identity_report, projective_decomposition
from .tolerances import IDENTITY_TOL, RESIDUAL_TOL, TAIL_SUM_TOL


def random_functional(
    rng: np.random.Generator,
    law: InnovationLaw,
    dim: int,
    max_terms: int = 2,
    max_factors: int = 2,
    coord_lo: int = -1,
    coord_hi: int = 1,
) -> FiniteRangeFunctional:
    """A random finite-range functional with sites inside the given box."""
    items = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        factors = []
        for _ in range(int(rng.integers(1, max_factors + 1))):
            site = tuple(int(c) for c in rng.integers(coord_lo, coord_hi + 1, size=dim))
            kind = ("value", "indicator", "power")[int(rng.integers(0, 3))]
            if kind == "indicator":
                arg = law.values[int(rng.integers(0, law.size))]
            elif kind == "power":
                arg = int(rng.integers(1, 4))
            else:
                arg = None
            factors.append(Factor(site, kind, arg))
        items.append((float(rng.uniform(-1.0, 1.0)), factors))
    return FiniteRangeFunctional.from_items(law, dim, items)


@dataclass(frozen=True)
class SuiteCheck:
    suite: str
    label: str
    violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violation <= self.tolerance


def _sizes(dim: int) -> tuple[int, int]:
    # Term and factor counts per dimension, sized to keep exact mode quick.
    return {1: (3, 3), 2: (3, 2), 3: (2, 2)}.get(dim, (2, 2))


def projection_suite(seed: int, pairs: int = 50) -> list[SuiteCheck]:
    """Projection identities on random pairs: commutation, orthogonality,
    annihilation of distinct-index products, and idempotence, over all index
    pairs in the box [-1, 1]^2."""
    law = InnovationLaw.rademacher()
    rng = np.random.default_rng(seed)
    indices = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    worst = {"commutation": 0.0, "orthogonality": 0.0, "annihilation": 0.0, "idempotence": 0.0}
    for _ in range(pairs):
        f = random_functional(rng, law, 2, 3, 2, -1, 1)
        g = random_functional(rng, law, 2, 3, 2, -1, 1)
        rep = projection_identity_report(f, g, indices)
        worst["commutation"] = max(worst["commutation"], rep.commutation)
        worst["orthogonality"] = max(worst["orthogonality"], rep.orthogonality)
        worst["annihilation"] = max(worst["annihilation"], rep.annihilation)
        worst["idempotence"] = max(worst["idempotence"], rep.idempotence)
    return [
        SuiteCheck("projection", label, value, IDENTITY_TOL) for label, value in worst.items()
    ]


def completeness_suite(seed: int, count: int = 100, dims=(1, 2, 3)) -> list[SuiteCheck]:
    """Summing all nonzero projections reconstructs a centered functional."""
    law = InnovationLaw.rademacher()
    rng = np.random.default_rng(seed)
    checks = []
    for dim in dims:
        mt, mf = _sizes(dim)
        worst = 0.0
        for _ in range(count):
            g = random_functional(
                rng, law, dim, mt, mf, -2 if dim < 3 else -1, 2 if dim < 3 else 1
            )
            f = g - constant(law, dim, g.expectation())
            # The pieces minus f, in one merge: bit for bit their sum minus f.
            pieces = [(1, piece) for piece in projective_decomposition(f).values()]
            worst = max(worst, signed_sum(law, dim, pieces + [(-1, f)]).deviation())
        checks.append(SuiteCheck("completeness", f"dim {dim}", worst, IDENTITY_TOL))
    return checks


def coboundary_suite(seed: int, count: int = 100, dims=(1, 2, 3)) -> list[SuiteCheck]:
    """Round-trip, kernel identity, and martingale checks of the coboundary decomposition."""
    law = InnovationLaw.rademacher()
    rng = np.random.default_rng(seed)
    checks = []
    for dim in dims:
        mt, mf = _sizes(dim)
        residual = kernel = martingale = 0.0
        done = 0
        while done < count:
            g = random_functional(rng, law, dim, mt, mf, -2, 2)
            f = center(g, 2)
            if f.is_zero:
                continue
            parts = decompose(f, 2)
            residual = max(residual, parts.residual)
            kernel = max(kernel, parts.kernel_residual)
            martingale = max(martingale, parts.martingale_violation)
            done += 1
        checks.append(SuiteCheck("coboundary", f"dim {dim} reconstruction", residual, RESIDUAL_TOL))
        checks.append(SuiteCheck("coboundary", f"dim {dim} kernel identity", kernel, RESIDUAL_TOL))
        checks.append(SuiteCheck("coboundary", f"dim {dim} martingale", martingale, IDENTITY_TOL))
    return checks


def kernel_suite(seed: int, count: int = 50) -> list[SuiteCheck]:
    """Martingale-kernel properties: one-step annihilation, adapted window, and
    the exact variance formula for linear functionals."""
    law = InnovationLaw.rademacher()
    rng = np.random.default_rng(seed)
    worst_mart = 0.0
    worst_window = 0.0
    worst_sigma = 0.0
    for _ in range(count):
        dim = int(rng.integers(1, 4))
        coeffs = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 4)))
        lags = [(1, float(c) * innovation_at(law, (-k,) * dim)) for k, c in enumerate(coeffs)]
        f = signed_sum(law, dim, lags)
        kern = martingale_kernel(f)
        worst_mart = max(worst_mart, kern.martingale_violation)
        if any(c > 0 for s in kern.d0.essential_window() for c in s):
            worst_window = 1.0
        exact = float(np.sum(coeffs)) ** 2 * law.variance
        worst_sigma = max(worst_sigma, abs(kern.sigma2 - exact))
    return [
        SuiteCheck("kernel", "one-step annihilation", worst_mart, IDENTITY_TOL),
        SuiteCheck("kernel", "adapted window", worst_window, 0.0),
        SuiteCheck("kernel", "linear variance formula", worst_sigma, IDENTITY_TOL),
    ]


def tail_inequality_suite(seed: int, count: int = 200) -> list[SuiteCheck]:
    """Random nonnegative arrays always satisfy the tail-sum comparison."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.0, 1.0, size=(n,) * dim)
        a[rng.uniform(size=a.shape) < 0.3] = 0.0
        lhs, rhs, _ = tail_sum_inequality(a)
        worst = max(worst, rhs - lhs)
    return [SuiteCheck("tail-sum", f"{count} random arrays", max(worst, 0.0), TAIL_SUM_TOL)]


def run_all(seed: int) -> list[SuiteCheck]:
    """Every exact-identity suite, at deliberately distinct derived seeds."""
    return (
        projection_suite(seed)
        + completeness_suite(seed + 1)
        + coboundary_suite(seed + 2)
        + kernel_suite(seed + 3)
        + tail_inequality_suite(seed + 4)
    )
