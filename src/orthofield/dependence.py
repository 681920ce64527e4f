"""Weak-dependence coefficients of finite-range stationary fields.

All sums here are exact and finite: a finite window means only finitely many
lattice shifts produce a nonzero projection, a nonzero conditional norm, or a
nonzero resampling distance, and each term is an exact L2 quantity under the
product law.  No truncation heuristics enter anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod, sqrt

from ._lazy import np
from .functional import Factor, FiniteRangeFunctional
from .lattice import Site
from .projection import (
    Corner,
    Halfspace,
    OriginProjections,
    cond_expect,
    kernel_sum,
    origin_projections,
)
from .tolerances import CENTER_RTOL, TAIL_SUM_RTOL, TERM_DROP


def _require_centered(f: FiniteRangeFunctional) -> None:
    if abs(f.expectation()) > CENTER_RTOL * (1.0 + f.norm()):
        raise ValueError("functional must be centered")


@dataclass(frozen=True)
class MartingaleKernel:
    """The summed origin projections of a centered functional.

    ``d0`` generates the approximating orthomartingale via its lattice shifts;
    ``sigma2`` is its squared L2 norm, the limit variance of normalized partial
    sums.  ``martingale_violation`` records the largest deviation of the
    one-step conditional expectations from zero (an exact-zero diagnostic).
    """

    d0: FiniteRangeFunctional
    sigma2: float
    martingale_violation: float


def hannan_profile(
    f: FiniteRangeFunctional, projections: OriginProjections | None = None
) -> dict[Site, float]:
    """Hannan coefficients: L2 norms of the origin projections of all shifts.

    Keys are the shifts with a nonzero projection; the Hannan sum is the sum
    of the values.  Requires a centered functional.  ``projections`` is
    :func:`origin_projections` of ``f`` when the caller already has it.
    """
    _require_centered(f)
    if projections is None:
        projections = origin_projections(f)
    drop = TERM_DROP * (1.0 + f.norm())
    out: dict[Site, float] = {}
    for i, p in projections:
        value = p.norm()
        if value > drop:
            out[i] = value
    return out


def martingale_kernel(
    f: FiniteRangeFunctional, projections: OriginProjections | None = None
) -> MartingaleKernel:
    """Kernel of the orthomartingale approximation, with its exact variance."""
    _require_centered(f)
    d0 = kernel_sum(f, projections)
    violation = 0.0
    for axis in range(f.dim):
        violation = max(violation, cond_expect(d0, Halfspace(axis, -1)).deviation())
    return MartingaleKernel(d0=d0, sigma2=d0.inner(d0), martingale_violation=violation)


def physical_dependence(f: FiniteRangeFunctional) -> dict[Site, float]:
    """Physical dependence measure: L2 distance after resampling one site.

    For each window site the innovation there is replaced by an independent
    copy; the copy lives on a fresh site outside the window so the joint law
    of the pair is enumerated exactly.  Only the terms that read the site enter
    the difference: every other term cancels against its unchanged copy as an
    exact ``c + (-c)`` pair.  Sites outside the window contribute zero and are
    omitted.
    """
    if f.is_zero:
        return {}
    drop = TERM_DROP * (1.0 + f.norm())
    spare = max(s[0] for s in f.window) + 1
    readers: dict[Site, list] = {}
    for c, fs in f.terms:
        for site in {fac.site for fac in fs}:
            readers.setdefault(site, []).append((c, fs))
    out: dict[Site, float] = {}
    for site in f.window:
        star = (spare,) + site[1:]
        terms = readers[site]
        relocated = FiniteRangeFunctional.from_items(
            f.law,
            f.dim,
            (
                (c, [Factor(star, fac.kind, fac.arg) if fac.site == site else fac for fac in fs])
                for c, fs in terms
            ),
        )
        diff = FiniteRangeFunctional(f.law, f.dim, tuple(terms)) - relocated
        value = diff.norm()
        if value > drop:
            out[site] = value
    return out


def maxwell_woodroofe_profile(f: FiniteRangeFunctional) -> dict[Site, float]:
    """Normalized conditional-norm coefficients over the positive orthant.

    For each positive lattice index ``k`` the value is the L2 norm of the
    conditional expectation of the field at ``k`` given the origin corner,
    divided by the square root of the index product.  Once every coordinate of
    ``k`` exceeds the window diameter the conditional expectation integrates
    the whole window out and the term vanishes, so the support is finite.

    A term that integrates out a site whose mean is exactly ``0.0`` only adds
    ``+-0.0`` to its product, so only the other terms are conditioned, and an
    index with no such term left is skipped.  The norm is shift-invariant and
    projections commute with shifts, so ``f`` is conditioned at the corner
    ``-k`` rather than shifted by ``k`` and conditioned at the origin.
    """
    _require_centered(f)
    if f.is_zero:
        return {}
    drop = TERM_DROP * (1.0 + f.norm())
    window = f.window
    kmax = [max((-s[axis] for s in window), default=0) for axis in range(f.dim)]
    if any(k < 1 for k in kmax):
        return {}
    null_sites = [
        [s for s, m in means.items() if m == 0.0] for _, _, means in f._term_data
    ]
    out: dict[Site, float] = {}
    for k in itertools.product(*(range(1, m + 1) for m in kmax)):
        if not any(all(kq <= -sq for kq, sq in zip(k, s)) for s in window):
            continue
        live = tuple(
            term
            for term, nulls in zip(f.terms, null_sites)
            if all(all(kq <= -sq for kq, sq in zip(k, s)) for s in nulls)
        )
        if not live:
            continue
        g = cond_expect(FiniteRangeFunctional(f.law, f.dim, live), Corner(tuple(-c for c in k)))
        value = g.norm()
        if value > drop:
            out[k] = value / sqrt(prod(k))
    return out


@dataclass(frozen=True)
class DependenceProfile:
    """All per-site dependence coefficients of one functional, with totals and its kernel."""

    hannan_terms: dict[Site, float]
    hannan_total: float
    delta_terms: dict[Site, float]
    delta_total: float
    wm_terms: dict[Site, float]
    wm_total: float
    kernel: MartingaleKernel

    @property
    def sigma2(self) -> float:
        return self.kernel.sigma2


def dependence_profile(f: FiniteRangeFunctional) -> DependenceProfile:
    """Bundle the Hannan, physical-dependence, and conditional-norm coefficients.

    The Hannan terms and the martingale kernel read one shared list of origin
    projections, so each shift is projected once.
    """
    _require_centered(f)  # before the projection pass, not after it
    projections = origin_projections(f)
    hannan = hannan_profile(f, projections)
    kernel = martingale_kernel(f, projections)
    del projections  # free them before the other profiles run
    delta = physical_dependence(f)
    wm = maxwell_woodroofe_profile(f)
    return DependenceProfile(
        hannan_terms=hannan,
        hannan_total=sum(hannan.values()),
        delta_terms=delta,
        delta_total=sum(delta.values()),
        wm_terms=wm,
        wm_total=sum(wm.values()),
        kernel=kernel,
    )


def tail_sum_inequality(a: np.ndarray) -> tuple[float, float, bool]:
    """Check that weighted tail-RMS sums dominate the plain sum of an array.

    For a nonnegative array over ``[1, N]^d``, compares
    ``sum_n |n|^{-1/2} (sum_{k >= n} a_k^2)^{1/2}`` (lhs) against
    ``2^{-d} sum_k a_k`` (rhs) and reports whether ``lhs >= rhs``.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim < 1:
        raise ValueError("array must have at least one axis")
    if np.any(arr < 0):
        raise ValueError("array entries must be nonnegative")
    # Suffix sums of squares: reverse, accumulate, reverse, per axis.
    tails = arr**2
    for axis in range(arr.ndim):
        tails = np.flip(np.cumsum(np.flip(tails, axis=axis), axis=axis), axis=axis)
    grids = np.meshgrid(
        *(np.arange(1, s + 1, dtype=np.float64) for s in arr.shape), indexing="ij"
    )
    sizes = np.ones_like(tails)
    for g in grids:
        sizes = sizes * g
    lhs = float(np.sum(np.sqrt(tails) / np.sqrt(sizes)))
    rhs = float(np.sum(arr)) / 2**arr.ndim
    return lhs, rhs, bool(lhs >= rhs * (1.0 - TAIL_SUM_RTOL))
