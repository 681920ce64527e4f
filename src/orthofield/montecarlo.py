"""Seeded simulation of partial-sum and orthomartingale fields with maximal statistics.

Every replicate derives its own innovation stream from ``(seed, replicate)``,
draws its sample once and evaluates the field and its orthomartingale
approximation on that sample (:func:`_replicates`, the one simulation
kernel), so pathwise comparisons are genuinely coupled.  What does not change
within a grid is built once per grid: :func:`_fold` turns each functional into
a read plan (the array slice every factor reads), so a replicate costs the
draw and the reads, and each statistic then takes only the sums it needs: a
prefix sum for the maximal checks, and for :func:`sample_paths` block sums at
the path points plus one prefix sum of ``f - d0`` for the gap.  Replicates
run in batches stacked on a leading axis (``BATCH_CELLS``), so a small grid
pays the per-call overhead once a batch; every sum and maximum runs over one
replicate's own axes in the same order as alone, so no bit depends on the
batch.  Results join in replicate order, which makes every statistic a pure
function of ``(functional, grid, seed, replicates)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, prod, sqrt

from ._lazy import np
from .dependence import MartingaleKernel, hannan_profile, martingale_kernel
from .functional import FiniteRangeFunctional, apply_read
from .innovation import InnovationLaw, sample_region
from .lattice import Rectangle, Site, prefix_sum
from .tolerances import MC_SLACK_FACTOR, MC_SLACK_SE

# Largest sampled region (grid plus window margin on every side), in cells.
# Such a replicate is a batch of one, whose working set peaks at 32 bytes per
# cell when every factor is a value read (the innovations, the field's values,
# the kernel's values and one term buffer, while the kernel is evaluated) and
# near 41 with an indicator read, which adds its float copy (tracemalloc at
# 1024^2, in sample_paths and cairoli_ratio alike), so 2**22 cells hold it in
# at most about 165 MiB.  The README configs sample at most 132^2 cells.
MAX_SAMPLE_CELLS = 2**22

# Sampled cells in one batch of replicates (a larger replicate is a batch of
# one).  A full batch peaks at 40 to 46 bytes per cell, 0.65 to 0.71 MiB
# (tracemalloc at 16^2: 50 replicates of 18^2 cells); 2**16 ran slower.
BATCH_CELLS = 2**14

# Most path values ``sample_paths`` may hold for one grid: ``replicates``
# paths, each with one 8-byte value per point of the ``(t_resolution + 1)^d``
# time grid, so 2**24 values are 128 MiB.  The README configs hold at most
# 2000 * 5^2 = 50000.
MAX_PATH_VALUES = 2**24


def _max_per_replicate(m: np.ndarray) -> np.ndarray:
    """The maximum over each replicate's grid, for a batch on the leading axis."""
    return m.reshape(len(m), -1).max(axis=1)


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
    order: ``values[slices]`` holds the factor's site at every grid point, for
    every sample of a batch stacked on the leading axes of ``values``.
    """
    lo = region.lo

    def reads(factors) -> tuple:
        return tuple(
            ((..., *(slice(s - l + 1, s - l + 1 + nq) for s, l, nq in zip(site, lo, n))), kind, arg)
            for site, kind, arg in factors
        )

    return tuple((coeff, reads(factors)) for coeff, factors in f.terms)


def _grid_values(plan: tuple, values: np.ndarray, n: Site) -> np.ndarray:
    """Evaluate the shifted functional of ``plan`` at every grid point of ``[1, n]``.

    ``values`` is a batch of samples on its leading axis, and so is the result.
    Each term is ``coeff`` times its first read, then times each later read in
    place, added to a zero array in term order.
    """
    out = np.zeros((len(values), *n))
    term = np.empty_like(out)
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


def _replicates(
    f_plan: tuple,
    d0_plan: tuple | None,
    law: InnovationLaw,
    region: Rectangle,
    n: Site,
    seed: int,
    batch: range,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The simulation kernel: each replicate's one draw feeds the field and its orthomartingale.

    Samples ``region`` (which is ``sample_rect(f, n)``) once for each replicate
    ``batch[b]`` and returns the field's values ``x`` on ``[1, n]`` (``x[b, i - 1]``
    is ``f`` shifted to ``i``) and, when the kernel's plan ``d0_plan`` is given,
    the orthomartingale's increments ``y`` on the same samples (``None``
    otherwise); ``prefix_sum(x, 1)`` gives the partial sums.  The plans are
    :func:`_read_plan` of ``f`` and ``d0`` on ``region``.
    """
    samples = [sample_region(region, law, seed, r).values for r in batch]
    values = samples[0][None] if len(samples) == 1 else np.stack(samples)
    x = _grid_values(f_plan, values, n)
    return x, None if d0_plan is None else _grid_values(d0_plan, values, n)


def _fold(stat, f, d0, n: Site, replicates: int, seed: int) -> tuple:
    """``stat(x, y)`` of the grid values of every replicate's single draw, in replicate order.

    ``stat`` takes a batch of replicates on the leading axis of ``x`` and ``y``
    and returns a tuple of arrays with one entry per replicate on their leading
    axis; each is joined over the batches.  A batch holds as many replicates as
    fit ``BATCH_CELLS`` sampled cells, and at least one.  Raises ``ValueError``
    unless ``seed`` is an integer in ``[0, 2^64)`` and ``replicates`` a positive
    integer: every Monte Carlo entry point checks its request here.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if isinstance(replicates, bool) or not isinstance(replicates, int) or replicates < 1:
        raise ValueError(f"replicates must be a positive integer, got {replicates!r}")
    region = sample_rect(f, n)
    f_plan = _read_plan(f, region, n)
    d0_plan = None if d0 is None else _read_plan(d0, region, n)
    size = max(1, BATCH_CELLS // prod(region.shape))
    batches = (range(r, min(r + size, replicates)) for r in range(0, replicates, size))
    parts = [stat(*_replicates(f_plan, d0_plan, f.law, region, n, seed, b)) for b in batches]
    return tuple(np.concatenate(col) for col in zip(*parts))


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

    def stat(x, y) -> tuple[np.ndarray, np.ndarray]:
        m = np.abs(prefix_sum(y, 1))
        return _max_per_replicate(m) ** p, m[(..., *corner)] ** p

    num, den = _fold(stat, f, kernel.d0, n, replicates, seed)
    ratio = float(num.mean() / den.mean())
    # Delta-method standard error of a ratio of dependent means.
    r_reps = len(num)
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
        (y,) = _fold(
            lambda x, y: (_max_per_replicate(np.abs(prefix_sum(y, 1))) / norm,),
            f, kernel.d0, n, replicates, seed,
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
    (v,) = _fold(
        lambda x, y: (_max_per_replicate(prefix_sum(x, 1)) ** 2,), f, None, n, replicates, seed
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
    The path points are block sums of the field's values between the per-axis
    cuts ``floor(n_q t_q) >= 1``, one ``np.add.reduceat`` per axis, followed by
    a prefix sum over the small block array; cells past the last cut are never
    summed.  Given the martingale ``kernel``, the samples also carry every
    replicate's gap ``max_m |S_m - M_m| / |n|^(1/2)`` of its own draw, read
    from one prefix sum of the values of ``f - d0``, so one pass over the
    replicates yields both the paths and :meth:`GapStatistic.of` their gaps.
    ``threads`` changes nothing, since batches run one after another; it stays
    while the benchmark's traced ``clt_2d`` run times this at 1 and 2 threads.
    """
    n = tuple(int(c) for c in n)
    grid = tuple(tuple(float(c) for c in t) for t in t_grid)
    norm = sqrt(prod(n))
    k = np.array(
        [[floor(nq * tq) for nq, tq in zip(n, t)] for t in grid], dtype=np.intp
    ).reshape(len(grid), len(n))
    live = (k >= 1).all(axis=1)
    # Built once per grid: the cuts, the block starts and each time's block.
    # With no live time every point reads 0, so one 1-cell block per axis does.
    cuts = [np.unique(col[col >= 1]) if live.any() else np.ones(1, np.intp) for col in k.T]
    starts = [np.concatenate(([0], c[:-1])) for c in cuts]
    head = tuple(slice(c[-1]) for c in cuts)
    at = [np.searchsorted(c, col) for c, col in zip(cuts, k.T)]
    flat = np.ravel_multi_index(at, [len(c) for c in cuts], mode="clip")

    def stat(x, y) -> tuple[np.ndarray, ...]:
        blocks = x[(..., *head)]
        for axis, idx in enumerate(starts, 1):
            blocks = np.add.reduceat(blocks, idx, axis=axis)
        rows = np.where(live, prefix_sum(blocks, 1).reshape(len(x), -1)[:, flat], 0.0) / norm
        if y is None:
            return (rows,)
        gap = prefix_sum(np.subtract(x, y, out=y), 1)
        return rows, _max_per_replicate(np.abs(gap, out=gap)) / norm

    d0 = None if kernel is None else kernel.d0
    rows, *gaps = _fold(stat, f, d0, n, replicates, seed)
    return PathSamples(n, grid, np.ascontiguousarray(rows.T), gaps[0] if gaps else None)
