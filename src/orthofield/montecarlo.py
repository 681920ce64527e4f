"""Seeded simulation of partial-sum and orthomartingale fields with maximal statistics.

Every replicate derives its own innovation stream from ``(seed, replicate)``,
draws its sample once (:func:`_replicate`, the one per-replicate kernel) and
evaluates the field and its orthomartingale approximation on that sample, so
pathwise comparisons are genuinely coupled.  What does not change within a
grid is built once per grid: :func:`_fold` turns each functional into a read
plan (the array slice every factor reads), so a replicate costs the draw, the
reads and the prefix sums.  Aggregation folds
replicates in index order, which makes every statistic a pure function of
``(functional, grid, seed, replicates)``.  Replicates run one after another;
only :func:`sample_paths` can run several at once, which changes wall time and
never a result.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import floor, prod, sqrt

import numpy as np

from .dependence import MartingaleKernel, hannan_profile, martingale_kernel
from .functional import FiniteRangeFunctional, apply_read
from .innovation import InnovationLaw, sample_region
from .lattice import Rectangle, Site, prefix_sum

# Declared Monte Carlo slack for population inequalities: 10 percent plus
# three standard errors of the estimated side.
MC_SLACK_FACTOR = 1.10
MC_SLACK_SE = 3.0

# Largest sampled region (grid plus window margin on every side), in cells.
# One replicate's working set peaks at 32 bytes per cell when every factor is
# a value read (the innovations, the field's prefix sum, the kernel's values
# and one term buffer) and near 41 with an indicator read, which adds its
# float copy (tracemalloc at 1024^2), so 2**22 cells hold it in at most about
# 165 MiB.  The README configs sample at most 132^2 cells.
MAX_SAMPLE_CELLS = 2**22

# Most path values ``sample_paths`` may hold for one grid: ``replicates``
# paths, each with one 8-byte value per point of the ``(t_resolution + 1)^d``
# time grid, so 2**24 values are 128 MiB.  The README configs hold at most
# 2000 * 5^2 = 50000.
MAX_PATH_VALUES = 2**24


def window_radius(f: FiniteRangeFunctional) -> int:
    """Sampling margin that covers the window of ``f`` and of its kernel."""
    r = 0
    for axis in range(f.dim):
        coords = f.axis_coords(axis)
        if coords:
            r = max(r, abs(coords[0]), abs(coords[-1]), coords[-1] - coords[0])
    return r


def sample_rect(f: FiniteRangeFunctional, n: Site) -> Rectangle:
    """The region whose innovations determine the field on ``[1, n]``.

    Raises ``ValueError``, before anything is sampled, above ``MAX_SAMPLE_CELLS`` cells.
    """
    r = window_radius(f)
    cells = prod(c + 2 * r for c in n)
    if cells > MAX_SAMPLE_CELLS:
        raise ValueError(
            f"grid {list(n)} samples {cells} cells with its margin {r}, "
            f"above the budget of {MAX_SAMPLE_CELLS}"
        )
    return Rectangle(tuple(1 - r for _ in n), tuple(c + r for c in n))


def _read_plan(f: FiniteRangeFunctional, region: Rectangle, n: Site) -> tuple:
    """Where every factor of ``f`` reads a sample of ``region`` for the grid points of ``[1, n]``.

    One ``(coeff, ((slices, kind, arg), ...))`` per term, in term and factor
    order: ``values[slices]`` holds the factor's site at every grid point.
    """
    lo = region.lo

    def reads(factors) -> tuple:
        return tuple(
            (tuple(slice(s - l + 1, s - l + 1 + nq) for s, l, nq in zip(site, lo, n)), kind, arg)
            for site, kind, arg in factors
        )

    return tuple((coeff, reads(factors)) for coeff, factors in f.terms)


def _grid_values(plan: tuple, values: np.ndarray, n: Site) -> np.ndarray:
    """Evaluate the shifted functional of ``plan`` at every grid point of ``[1, n]``.

    Each term is ``coeff`` times its first read, then times each later read in
    place, added to a zero array in term order.
    """
    out = np.zeros(n)
    term = np.empty(n)
    for coeff, reads in plan:
        if not reads:
            out += coeff
            continue
        (sl, kind, arg), *rest = reads
        np.multiply(coeff, apply_read(kind, arg, values[sl]), out=term)
        for sl, kind, arg in rest:
            term *= apply_read(kind, arg, values[sl])
        out += term
    return out


def _replicate(
    f_plan: tuple,
    d0_plan: tuple | None,
    law: InnovationLaw,
    region: Rectangle,
    n: Site,
    seed: int,
    r: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The per-replicate kernel: one innovation draw feeds the field and its orthomartingale.

    Samples ``region`` (which is ``sample_rect(f, n)``) once for replicate
    ``r`` and returns the partial sums ``s`` of the field on ``[1, n]``
    (``s[m - 1] = S_m``) and, when the kernel's plan ``d0_plan`` is given, the
    partial sums ``m`` of the orthomartingale on the same sample (``None``
    otherwise).  The plans are :func:`_read_plan` of ``f`` and ``d0`` on ``region``.
    """
    values = sample_region(region, law, seed, r).values
    s = prefix_sum(_grid_values(f_plan, values, n))
    m = None if d0_plan is None else prefix_sum(_grid_values(d0_plan, values, n))
    return s, m


def _fold(stat, f, d0, n: Site, replicates: int, seed: int, threads: int = 1) -> list:
    """``stat(s, m)`` of the partial sums of every replicate's single draw, in replicate order."""
    region = sample_rect(f, n)
    f_plan = _read_plan(f, region, n)
    d0_plan = None if d0 is None else _read_plan(d0, region, n)

    def one(r: int):
        return stat(*_replicate(f_plan, d0_plan, f.law, region, n, seed, r))

    if threads <= 1:
        return [one(r) for r in range(replicates)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(replicates)))


def _gap(s: np.ndarray, m: np.ndarray, norm: float) -> float:
    """The normalized approximation gap ``max_m |S_m - M_m| / norm``; overwrites ``m``."""
    np.subtract(s, m, out=m)
    return float(np.abs(m, out=m).max()) / norm


@dataclass(frozen=True)
class GapStatistic:
    """Normalized maximal gaps between the field's partial sums and its orthomartingale."""

    grid_n: Site
    replicates: int
    samples: tuple[float, ...]
    mean: float
    median: float
    q75: float
    max: float

    @classmethod
    def of(cls, grid_n: Site, samples) -> "GapStatistic":
        """Summarize per-replicate gaps given in replicate order."""
        arr = np.asarray(samples)
        return cls(
            grid_n=grid_n,
            replicates=len(samples),
            samples=tuple(samples),
            mean=float(arr.mean()),
            median=float(np.median(arr)),
            q75=float(np.quantile(arr, 0.75)),
            max=float(arr.max()),
        )


@dataclass(frozen=True)
class CairoliCheck:
    """Monte Carlo ratio of the maximal moment to the corner moment of an orthomartingale."""

    ratio: float
    bound: float
    se_ratio: float
    num: float
    den: float
    replicates: int

    @property
    def holds(self) -> bool:
        return self.ratio <= self.bound * MC_SLACK_FACTOR + MC_SLACK_SE * self.se_ratio


def cairoli_ratio(f: FiniteRangeFunctional, n: Site, replicates: int, seed: int) -> CairoliCheck:
    """Estimate ``E (max |M_i|)^p / E |M_n|^p`` against the ``(p/(p-1))^(dp)`` bound.

    ``p = 2``: the second-moment case of the paper, where the bound is ``4^d``.
    """
    p = 2.0
    n = tuple(int(c) for c in n)
    kernel = martingale_kernel(f)
    if kernel.sigma2 <= 0.0:
        raise ValueError("degenerate kernel: sigma2 is zero")
    bound = (p / (p - 1.0)) ** (len(n) * p)
    corner = tuple(c - 1 for c in n)

    def stat(s, m) -> tuple[float, float]:
        return float(np.max(np.abs(m)) ** p), float(abs(m[corner]) ** p)

    pairs = _fold(stat, f, kernel.d0, n, replicates, seed)
    num = np.asarray([a for a, _ in pairs])
    den = np.asarray([b for _, b in pairs])
    ratio = float(num.mean() / den.mean())
    # Delta-method standard error of a ratio of dependent means.
    r_reps = len(pairs)
    cov = np.cov(num, den, ddof=1)
    grad = np.array([1.0 / den.mean(), -num.mean() / den.mean() ** 2])
    se = float(sqrt(max(grad @ cov @ grad, 0.0) / r_reps))
    return CairoliCheck(
        ratio=ratio, bound=bound, se_ratio=se, num=float(num.mean()), den=float(den.mean()),
        replicates=replicates,
    )


@dataclass(frozen=True)
class TruncatedMomentRow:
    """One cell of the uniform-integrability table."""

    grid_n: Site
    level: float
    value: float


def uniform_integrability_diagnostic(
    f: FiniteRangeFunctional,
    n_list,
    levels,
    replicates: int,
    seed: int,
) -> list[TruncatedMomentRow]:
    """Truncated second moments of normalized orthomartingale maxima.

    For each grid and each truncation level ``a``, estimates
    ``E[Y^2; Y^2 > a]`` with ``Y`` the normalized rectangular maximum; rows
    are nonincreasing in ``a`` by construction.
    """
    kernel = martingale_kernel(f)
    if kernel.sigma2 <= 0.0:
        raise ValueError("degenerate kernel: sigma2 is zero")
    rows: list[TruncatedMomentRow] = []
    for n in n_list:
        n = tuple(int(c) for c in n)
        norm = sqrt(prod(n))
        y = np.asarray(
            _fold(
                lambda s, m: float(np.max(np.abs(m))) / norm,
                f, kernel.d0, n, replicates, seed,
            )
        )
        y2 = y**2
        for a in levels:
            rows.append(
                TruncatedMomentRow(
                    grid_n=n, level=float(a), value=float(np.mean(y2 * (y2 > a)))
                )
            )
    return rows


@dataclass(frozen=True)
class MaximalInequalityCheck:
    """Monte Carlo maximal-partial-sum norm against its exact projective bound."""

    lhs: float
    rhs: float
    se_lhs: float
    grid_n: Site
    replicates: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs * MC_SLACK_FACTOR + MC_SLACK_SE * self.se_lhs


def maximal_inequality_check(
    f: FiniteRangeFunctional, n: Site, replicates: int, seed: int
) -> MaximalInequalityCheck:
    """Compare ``|| max_m S_m ||_2`` against ``2^d |n|^(1/2)`` times the Hannan sum."""
    n = tuple(int(c) for c in n)
    rhs = 2 ** len(n) * sqrt(prod(n)) * sum(hannan_profile(f).values())
    v = np.asarray(
        _fold(lambda s, m: float(np.max(s)) ** 2, f, None, n, replicates, seed)
    )
    mean = float(v.mean())
    lhs = sqrt(max(mean, 0.0))
    se_mean = float(v.std(ddof=1)) / sqrt(len(v))
    se_lhs = se_mean / (2.0 * lhs) if lhs > 0 else se_mean
    return MaximalInequalityCheck(
        lhs=lhs, rhs=rhs, se_lhs=se_lhs, grid_n=n, replicates=replicates
    )


@dataclass(frozen=True)
class PathSamples:
    """Every replicate's normalized partial-sum path on one time grid in [0,1]^d.

    ``values[j, r]`` is replicate ``r``'s path at time ``t_grid[j]``; the array
    is C-contiguous, so the row :meth:`at` returns is contiguous too.  ``gaps``
    holds each replicate's normalized approximation gap of the same draw when
    the paths were sampled with the martingale kernel, and is ``None`` otherwise.
    """

    grid_n: Site
    t_grid: tuple[tuple[float, ...], ...]
    values: np.ndarray
    gaps: np.ndarray | None

    @property
    def replicates(self) -> int:
        return self.values.shape[1]

    def at(self, t) -> np.ndarray:
        """Every replicate's value at time ``t``, in replicate order."""
        return self.values[self.t_grid.index(tuple(float(c) for c in t))]


def uniform_grid(dim: int, resolution: int) -> tuple[tuple[float, ...], ...]:
    """The dyadic-style grid ``{0, 1/res, ..., 1}^d`` in row-major order."""
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    axis = [i / resolution for i in range(resolution + 1)]
    out = [()]
    for _ in range(dim):
        out = [t + (a,) for t in out for a in axis]
    return tuple(out)


def sample_paths(
    f: FiniteRangeFunctional,
    n: Site,
    t_grid,
    replicates: int,
    seed: int,
    threads: int = 1,
    kernel: MartingaleKernel | None = None,
) -> PathSamples:
    """Normalized path samples ``S_{floor(n t)} / |n|^(1/2)`` at the given times.

    A time with any coordinate hitting index zero evaluates to the empty sum.
    Given the martingale ``kernel``, the samples also carry every replicate's
    gap ``max_m |S_m - M_m| / |n|^(1/2)`` of its own draw, so one pass over the
    replicates yields both the paths and :meth:`GapStatistic.of` their gaps.
    ``threads`` replicates run at once; the samples do not depend on it.  The
    benchmark's traced ``clt_2d`` run times this function at 1 and 2 threads.
    """
    n = tuple(int(c) for c in n)
    grid = tuple(tuple(float(c) for c in t) for t in t_grid)
    norm = sqrt(prod(n))
    # S_{floor(n t)} as one gather from the flat prefix array; empty sums read 0.
    k = np.array(
        [[floor(nq * tq) for nq, tq in zip(n, t)] for t in grid], dtype=np.intp
    ).reshape(len(grid), len(n))
    live = (k >= 1).all(axis=1)
    flat = np.ravel_multi_index(tuple(np.maximum(k - 1, 0).T), n)

    def stat(s, m) -> tuple[np.ndarray, float | None]:
        row = np.where(live, s.ravel()[flat], 0.0) / norm
        return row, None if m is None else _gap(s, m, norm)

    d0 = None if kernel is None else kernel.d0
    rows, gaps = zip(*_fold(stat, f, d0, n, replicates, seed, threads))
    values = np.ascontiguousarray(np.stack(rows).T)
    return PathSamples(n, grid, values, None if kernel is None else np.array(gaps))
