"""Integer lattice geometry: sites, rectangles, and d-dimensional prefix sums.

All partial-sum machinery works with dense arrays indexed by rectangles
``[lo, hi]`` in the coordinatewise order on Z^d.  A prefix-sum array holds
the running sums ``S_m`` over ``[1, m]`` for every ``m`` up to its shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Site = tuple[int, ...]


def unit(dim: int, axis: int) -> Site:
    """Canonical unit vector along ``axis`` (0-based) in dimension ``dim``."""
    if not 0 <= axis < dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")
    return tuple(1 if q == axis else 0 for q in range(dim))


def leq(i: Site, j: Site) -> bool:
    """Coordinatewise partial order: true iff ``i_q <= j_q`` for every axis."""
    _check_dims(i, j)
    return all(a <= b for a, b in zip(i, j))


def _check_dims(i: Site, j: Site) -> None:
    if len(i) != len(j):
        raise ValueError(f"dimension mismatch: {len(i)} vs {len(j)}")


@dataclass(frozen=True)
class Rectangle:
    """The discrete box ``[lo, hi] = {i : lo <= i <= hi}``, both ends included."""

    lo: Site
    hi: Site

    def __post_init__(self) -> None:
        _check_dims(self.lo, self.hi)
        if not leq(self.lo, self.hi):
            raise ValueError(f"empty rectangle: lo={self.lo} hi={self.hi}")

    @property
    def shape(self) -> Site:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))


def prefix_sum(src: np.ndarray, batch_axes: int = 0) -> np.ndarray:
    """The running sums of a dense array indexed over ``[1, n]``: entry ``m - 1`` is ``S_m``.

    The first ``batch_axes`` axes index independent arrays and are not summed.
    Runs one cumulative sum per summed axis, in axis order, so the cost is
    ``O(d * |n|)`` with 64-bit float accumulation.  When the innermost length
    is even, every axis but the innermost is summed on a ``complex128`` view:
    each complex add is the two double adds of two neighbouring columns, so the
    sums are those of the plain per-axis ``np.cumsum``, bit for bit.
    """
    arr = np.ascontiguousarray(src, dtype=np.float64)
    if arr.ndim <= batch_axes:
        raise ValueError("source array must have at least one axis past the batch axes")
    out = np.empty_like(arr)
    paired = np.complex128 if arr.shape[-1] % 2 == 0 else np.float64
    for axis in range(batch_axes, arr.ndim):
        lanes = paired if axis < arr.ndim - 1 else np.float64
        np.cumsum(arr.view(lanes), axis=axis, out=out.view(lanes))
        arr = out
    return out
