import itertools
import math

import numpy as np
import pytest

from orthofield import montecarlo
from orthofield.dependence import martingale_kernel
from orthofield.functional import innovation_at, zero
from orthofield.innovation import InnovationLaw, sample_region
from orthofield.lattice import prefix_sum
from orthofield.montecarlo import (
    MAX_SAMPLE_CELLS,
    GapStatistic,
    _read_plan,
    _replicates,
    cairoli_ratio,
    maximal_inequality_check,
    sample_paths,
    sample_rect,
    uniform_grid,
    uniform_integrability_diagnostic,
    window_radius,
)
LAW = InnovationLaw.rademacher()


def sums(f, n, seed, r, coupled=False):
    """The field's partial sums of replicate ``r`` and, if ``coupled``, its orthomartingale's."""
    region = sample_rect(f, n)
    d0_plan = _read_plan(martingale_kernel(f).d0, region, n) if coupled else None
    x, y = _replicates(_read_plan(f, region, n), d0_plan, f.law, region, n, seed, range(r, r + 1))
    return prefix_sum(x[0]), None if y is None else prefix_sum(y[0])


def innovations(f, n, seed, r):
    """Replicate ``r``'s sampled innovation at a site, as ``site -> value``."""
    region = sample_rect(f, n)
    values = sample_region(region, LAW, seed=seed, replicate=r).values
    return lambda site: float(values[tuple(a - b for a, b in zip(site, region.lo))])


def gap_statistic(f, n, replicates, seed):
    """The approximation gaps as verify-clt reads them: off the coupled path samples."""
    paths = sample_paths(
        f, n, uniform_grid(len(n), 1), replicates, seed, kernel=martingale_kernel(f)
    )
    return GapStatistic.of(n, paths.gaps.tolist())


def test_window_radius_covers_field_and_kernel():
    f = innovation_at(LAW, (-1,)) + innovation_at(LAW, (1,))
    assert window_radius(f) == 2  # span dominates
    assert window_radius(zero(LAW, 2)) == 0


def test_identity_field_sums_sampled_values():
    f = innovation_at(LAW, (0, 0))
    s, m = sums(f, (2, 2), seed=5, r=0)
    sample = sample_region(sample_rect(f, (2, 2)), LAW, seed=5, replicate=0)
    assert m is None
    assert np.array_equal(s, prefix_sum(sample.values))
    assert s[1, 1] == pytest.approx(sample.values.sum())


def test_linear_field_hand_expansion_d1():
    f = innovation_at(LAW, (0,)) + innovation_at(LAW, (-1,))
    s, _ = sums(f, (3,), seed=9, r=2)
    eps = innovations(f, (3,), seed=9, r=2)
    expected = sum(eps((i,)) + eps((i - 1,)) for i in range(1, 4))
    assert s[2] == pytest.approx(expected)


def test_field_mean_within_clt_bound():
    f = innovation_at(LAW, (0,)) + 0.5 * innovation_at(LAW, (-1,))
    vals = [sums(f, (64,), seed=31, r=r)[0][63] for r in range(500)]
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals)) <= 4 * se


def test_orthomartingale_identity_coupling():
    f = innovation_at(LAW, (0, 0))
    s, m = sums(f, (8, 8), seed=3, r=1, coupled=True)
    assert np.array_equal(s, m)


def test_orthomartingale_telescope_is_zero():
    f = innovation_at(LAW, (-1,)) - innovation_at(LAW, (0,))
    s, m = sums(f, (16,), seed=3, r=1, coupled=True)
    assert np.all(m == 0.0)
    # while the field telescopes to a boundary difference
    eps = innovations(f, (16,), seed=3, r=1)
    for k in (1, 7, 16):
        assert s[k - 1] == pytest.approx(eps((0,)) - eps((k,)))


def test_orthomartingale_linear_kernel():
    a = 0.5
    f = innovation_at(LAW, (0,)) + a * innovation_at(LAW, (-1,))
    _, m = sums(f, (12,), seed=21, r=0, coupled=True)
    eps = innovations(f, (12,), seed=21, r=0)
    total = (1 + a) * sum(eps((i,)) for i in range(1, 13))
    assert m[11] == pytest.approx(total)


def test_gap_zero_for_kernel_generated_field():
    f = innovation_at(LAW, (0, 0))
    gap = gap_statistic(f, (8, 8), replicates=20, seed=4)
    assert gap.max == 0.0


def test_gap_telescope_bound():
    f = innovation_at(LAW, (-1,)) - innovation_at(LAW, (0,))
    n = 64
    gap = gap_statistic(f, (n,), replicates=50, seed=4)
    assert gap.max <= 2.0 / math.sqrt(n) + 1e-12


def test_gap_decreases_with_grid():
    f = innovation_at(LAW, (0, 0)) + 0.5 * innovation_at(LAW, (-1, 0))
    small = gap_statistic(f, (16, 16), replicates=100, seed=6)
    large = gap_statistic(f, (96, 96), replicates=100, seed=6)
    assert large.median < small.median


def test_cairoli_bounds():
    f2 = innovation_at(LAW, (0, 0))
    check = cairoli_ratio(f2, (16, 16), replicates=200, seed=8)
    assert check.bound == pytest.approx(16.0)
    assert check.holds
    f1 = innovation_at(LAW, (0,))
    check1 = cairoli_ratio(f1, (64,), replicates=200, seed=8)
    assert check1.bound == pytest.approx(4.0)
    assert check1.holds


def test_cairoli_rejects_degenerate_kernel():
    f = innovation_at(LAW, (-1,)) - innovation_at(LAW, (0,))
    with pytest.raises(ValueError, match="degenerate"):
        cairoli_ratio(f, (8,), replicates=10, seed=1)


def test_uniform_integrability_rows_decrease_in_level():
    f = innovation_at(LAW, (0, 0))
    rows = uniform_integrability_diagnostic(
        f, [(8, 8), (16, 16)], [0.0, 1.0, 4.0, 100.0], replicates=100, seed=10
    )
    by_grid = {}
    for row in rows:
        by_grid.setdefault(row.grid_n, []).append(row.value)
    for values in by_grid.values():
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] >= values[-1]


def test_maximal_inequality_identity_d1():
    f = innovation_at(LAW, (0,))
    check = maximal_inequality_check(f, (64,), replicates=200, seed=12)
    assert check.rhs == pytest.approx(2 * 8 * 1.0)
    assert check.lhs <= check.rhs
    assert check.holds


def test_maximal_inequality_zero_functional():
    check = maximal_inequality_check(zero(LAW, 1), (16,), replicates=10, seed=12)
    assert check.lhs == 0.0
    assert check.rhs == 0.0
    assert check.holds


def test_maximal_inequality_d2():
    f = innovation_at(LAW, (0, 0)) + 0.5 * innovation_at(LAW, (-1, 0))
    check = maximal_inequality_check(f, (32, 32), replicates=200, seed=14)
    assert check.holds


def test_paths_values_and_grid():
    f = innovation_at(LAW, (0, 0))
    grid = uniform_grid(2, 2)
    assert grid[0] == (0.0, 0.0) and grid[-1] == (1.0, 1.0) and len(grid) == 9
    paths = sample_paths(f, (8, 8), grid, replicates=3, seed=16)
    assert paths.grid_n == (8, 8) and paths.t_grid == grid and paths.replicates == 3
    assert paths.values.shape == (9, 3) and paths.values.dtype == np.float64
    assert paths.values.flags.c_contiguous and paths.gaps is None
    s, _ = sums(f, (8, 8), seed=16, r=1)
    assert paths.at((1.0, 1.0))[1] == pytest.approx(s[7, 7] / 8.0)
    assert paths.at((0.0, 0.5))[1] == 0.0
    assert paths.at((0.5, 1.0))[1] == pytest.approx(s[3, 7] / 8.0)
    assert np.array_equal(paths.at([1, 1]), paths.at((1.0, 1.0)))
    assert paths.at((1.0, 1.0)).flags.c_contiguous
    with pytest.raises(ValueError):
        paths.at((0.25, 1.0))


def test_oversized_grid_rejected_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(montecarlo, "sample_region", no_sampling)
    f = innovation_at(LAW, (0, 0)) + 0.5 * innovation_at(LAW, (-1, 0))
    side = math.isqrt(MAX_SAMPLE_CELLS) - 2  # 2046 + 2 * margin 1 = 2048 cells a side
    assert math.prod(sample_rect(f, (side, side)).shape) == MAX_SAMPLE_CELLS
    with pytest.raises(ValueError, match="budget"):
        sample_paths(f, (side + 1, side), uniform_grid(2, 1), replicates=2, seed=1)


ENTRY_POINTS = {
    "sample_paths": lambda f, replicates, seed: sample_paths(
        f, (4, 4), uniform_grid(2, 1), replicates, seed
    ),
    "cairoli_ratio": lambda f, replicates, seed: cairoli_ratio(f, (4, 4), replicates, seed),
    "uniform_integrability_diagnostic": lambda f, replicates, seed: (
        uniform_integrability_diagnostic(f, [(4, 4)], [1.0], replicates, seed)
    ),
    "maximal_inequality_check": lambda f, replicates, seed: (
        maximal_inequality_check(f, (4, 4), replicates, seed)
    ),
}


def refuse_compute(monkeypatch):
    """Make sampling and both kernel builders fail the test if they start."""
    for name in ("sample_region", "martingale_kernel", "hannan_profile"):

        def started(*args, name=name, **kwargs):
            raise AssertionError(f"{name} started")

        monkeypatch.setattr(montecarlo, name, started)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "replicates, seed, field",
    [
        (5, -1, "seed"),
        (5, 2**64, "seed"),
        (5, 1.0, "seed"),
        (5, True, "seed"),
        (0, 1, "replicates"),
        (-3, 1, "replicates"),
        (2.0, 1, "replicates"),
        (True, 1, "replicates"),
    ],
)
def test_monte_carlo_entry_points_refuse_bad_seed_and_replicates(
    monkeypatch, entry, replicates, seed, field
):
    # Each entry point refuses before any compute: no seed outside [0, 2^64)
    # replays the streams of another seed, and no replicate count reaches the
    # batch loop unchecked.  Neither the kernel nor the Hannan profile is built.
    f = innovation_at(LAW, (0, 0)) + 0.5 * innovation_at(LAW, (-1, 0))
    refuse_compute(monkeypatch)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ENTRY_POINTS[entry](f, replicates, seed)


@pytest.mark.parametrize("entry", ["cairoli_ratio", "maximal_inequality_check"])
def test_standard_error_entry_points_refuse_one_replicate(monkeypatch, entry):
    # One replicate has no sample variance: refused, not answered with a nan
    # standard error and a RuntimeWarning.
    f = innovation_at(LAW, (0, 0)) + 0.5 * innovation_at(LAW, (-1, 0))
    refuse_compute(monkeypatch)
    with pytest.raises(ValueError, match=r"^replicates must be an integer >= 2, got 1$"):
        ENTRY_POINTS[entry](f, 1, 5)


def test_monte_carlo_entry_points_take_the_range_ends():
    f = innovation_at(LAW, (0, 0)) + 0.5 * innovation_at(LAW, (-1, 0))
    for entry in ENTRY_POINTS.values():
        entry(f, 2, 0)
        entry(f, 2, 2**64 - 1)
    assert sample_paths(f, (4, 4), uniform_grid(2, 1), 1, 0).replicates == 1


@pytest.mark.parametrize("n", [(11,), (10, 7), (6, 5, 9)])
def test_paths_below_one_read_no_cell_past_the_last_cut(monkeypatch, n):
    # Dyadic values make every summation order exact, so the block sums equal
    # the gather from the full prefix sum; NaN past the largest cut floor(0.55 n)
    # of each grid axis (behind the leading batch axis) shows those cells are
    # never summed.
    grid_values = montecarlo._grid_values

    def poisoned(plan, values, m):
        x = grid_values(plan, values, m)
        for axis, c in enumerate(m, 1):
            x[(slice(None),) * axis + (slice(math.floor(0.55 * c), None),)] = np.nan
        return x

    f = innovation_at(LAW, (0,) * len(n)) + 0.5 * innovation_at(LAW, (-1,) + (0,) * (len(n) - 1))
    grid = list(itertools.product((0.0, 0.3, 0.55), repeat=len(n)))
    ks = [tuple(math.floor(c * tq) for c, tq in zip(n, t)) for t in grid]
    norm = math.sqrt(math.prod(n))
    expected = []
    for r in range(4):
        s, _ = sums(f, n, seed=22, r=r)
        expected.append([0.0 if min(k) < 1 else s[tuple(c - 1 for c in k)] / norm for k in ks])
    monkeypatch.setattr(montecarlo, "_grid_values", poisoned)
    paths = sample_paths(f, n, grid, replicates=4, seed=22)
    assert np.array_equal(paths.values, np.array(expected).T)


def test_monte_carlo_checks_are_pinned():
    # Non-dyadic coefficients on a three-point law: any change to the order in
    # which the orthomartingale's or the field's partial sums are taken moves
    # these values.
    law = InnovationLaw((-1.0, 0.0, 2.0), (0.5, 0.25, 0.25))
    f = (
        innovation_at(law, (0, 0))
        + 0.3 * innovation_at(law, (-1, 0))
        - 0.7 * innovation_at(law, (0, -1))
    )
    check = cairoli_ratio(f, (12, 10), replicates=40, seed=5)
    assert (check.ratio, check.se_ratio, check.num, check.den) == (
        1.8884114023778829, 0.2503703133434367, 118.64700000000005, 62.82900000000002,
    )
    rows = uniform_integrability_diagnostic(
        f, [(6, 9), (12, 10)], [0.0, 0.5, 2.0], replicates=40, seed=5
    )
    assert [row.value for row in rows] == [
        1.3088333333333337, 1.2053333333333338, 0.8383333333333336,
        0.9887250000000003, 0.9157500000000003, 0.32475000000000015,
    ]
    maximal = maximal_inequality_check(f, (12, 10), replicates=40, seed=5)
    assert (maximal.lhs, maximal.rhs, maximal.se_lhs) == (
        12.631706139710502, 107.3312629199899, 1.1066850924404044,
    )
