import itertools
from math import prod

import numpy as np
import pytest

from orthofield.lattice import Rectangle, leq, prefix_sum, unit


def corner(table: np.ndarray, m) -> float:
    """``S_m`` read off a prefix-sum array; the empty sum when a coordinate of ``m`` is below 1."""
    if any(c < 1 for c in m):
        return 0.0
    return float(table[tuple(c - 1 for c in m)])


def rect_sum(table: np.ndarray, rect: Rectangle) -> float:
    """Sum of the source array over ``rect`` by 2^d-term inclusion-exclusion."""
    if len(rect.lo) != table.ndim:
        raise ValueError(f"dimension mismatch: {len(rect.lo)} vs {table.ndim}")
    if any(l < 1 for l in rect.lo) or any(h > e for h, e in zip(rect.hi, table.shape)):
        raise ValueError(f"rectangle [{rect.lo}, {rect.hi}] outside [1, {table.shape}]")
    total = 0.0
    for mask in itertools.product((0, 1), repeat=len(rect.lo)):
        m = tuple(h if bit == 0 else l - 1 for bit, l, h in zip(mask, rect.lo, rect.hi))
        total += (-1) ** sum(mask) * corner(table, m)
    return total


def brute_rect_sum(src, lo, hi):
    """Direct summation oracle over [lo, hi], 1-based."""
    total = 0.0
    for idx in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        total += src[tuple(i - 1 for i in idx)]
    return total


def test_leq_examples():
    assert leq((1, 2), (2, 2))
    assert not leq((1, 3), (2, 2))
    assert leq((0, 0), (0, 0))


def test_leq_dimension_mismatch():
    with pytest.raises(ValueError):
        leq((1, 2), (1, 2, 3))


def test_unit_vectors():
    assert unit(3, 1) == (0, 1, 0)
    with pytest.raises(ValueError):
        unit(2, 2)


def test_prefix_sum_ones_2x2():
    table = prefix_sum(np.ones((2, 2)))
    assert table.tolist() == [[1, 2], [2, 4]]


def test_prefix_sum_running_1d():
    table = prefix_sum(np.array([3.0, -1.0, 2.0]))
    assert table.tolist() == [3, 2, 4]


def test_prefix_sum_single_entry():
    src = np.zeros((2, 2))
    src[1, 0] = 1.0
    table = prefix_sum(src)
    assert table.tolist() == [[0, 0], [1, 1]]
    for lo, hi in [((1, 1), (2, 2)), ((2, 1), (2, 1)), ((1, 1), (1, 2))]:
        assert rect_sum(table, Rectangle(lo, hi)) == brute_rect_sum(src, lo, hi)


def test_rect_sum_ones():
    table = prefix_sum(np.ones((2, 2)))
    assert rect_sum(table, Rectangle((1, 1), (2, 2))) == 4
    assert rect_sum(table, Rectangle((2, 2), (2, 2))) == 1


def test_rect_sum_random_vs_bruteforce():
    rng = np.random.default_rng(42)
    src = rng.integers(-5, 6, size=(3, 3)).astype(float)
    table = prefix_sum(src)
    for _ in range(20):
        lo = tuple(int(v) for v in rng.integers(1, 4, size=2))
        hi = tuple(int(rng.integers(l, 4)) for l in lo)
        got = rect_sum(table, Rectangle(lo, hi))
        assert got == pytest.approx(brute_rect_sum(src, lo, hi), abs=1e-12)


@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 2)])
def test_rect_sum_exhaustive_small_extents(shape):
    rng = np.random.default_rng(7)
    src = rng.normal(size=shape)
    table = prefix_sum(src)
    axis_ranges = [range(1, s + 1) for s in shape]
    for lo in itertools.product(*axis_ranges):
        for hi in itertools.product(*(range(l, s + 1) for l, s in zip(lo, shape))):
            got = rect_sum(table, Rectangle(lo, hi))
            assert got == pytest.approx(brute_rect_sum(src, lo, hi), abs=1e-10)


def test_prefix_sum_linearity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(4, 5))
    np.testing.assert_allclose(
        prefix_sum(a + b), prefix_sum(a) + prefix_sum(b), atol=1e-12
    )


def test_rect_out_of_bounds():
    table = prefix_sum(np.ones((2, 2)))
    with pytest.raises(ValueError):
        rect_sum(table, Rectangle((1, 1), (3, 2)))
    with pytest.raises(ValueError):
        rect_sum(table, Rectangle((0, 1), (2, 2)))


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle((2, 1), (1, 2))
    r = Rectangle((-1, 0), (1, 2))
    assert prod(r.shape) == 9
    assert leq(r.lo, (0, 1)) and leq((0, 1), r.hi)
    assert not (leq(r.lo, (2, 1)) and leq((2, 1), r.hi))


def test_corner_below_one_is_zero():
    table = prefix_sum(np.ones((2, 2)))
    assert table.dtype == np.float64 and table.shape == (2, 2)
    assert corner(table, (0, 2)) == 0.0
    assert corner(table, (2, 2)) == 4.0
