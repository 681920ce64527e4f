"""Integer lattice geometry: sites, rectangles, and d-dimensional prefix sums.

All partial-sum machinery works with dense arrays indexed by rectangles
``[lo, hi]`` in the coordinatewise order on Z^d.  A prefix-sum array holds
the running sums ``S_m`` over ``[1, m]`` for every ``m`` up to its shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

Site = tuple[int, ...]


def as_site(coords) -> Site:
    """Coerce a coordinate sequence to a canonical site tuple."""
    site = tuple(int(c) for c in coords)
    if not site:
        raise ValueError("a lattice site needs at least one coordinate")
    return site


def unit(dim: int, axis: int) -> Site:
    """Canonical unit vector along ``axis`` (0-based) in dimension ``dim``."""
    if not 0 <= axis < dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")
    return tuple(1 if q == axis else 0 for q in range(dim))


def sub(i: Site, j: Site) -> Site:
    _check_dims(i, j)
    return tuple(a - b for a, b in zip(i, j))


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
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> Site:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def cardinality(self) -> int:
        return prod(self.shape)

    def contains(self, site: Site) -> bool:
        return leq(self.lo, site) and leq(site, self.hi)

    def index_of(self, site: Site) -> Site:
        """0-based array index of ``site`` inside the box."""
        if not self.contains(site):
            raise ValueError(f"site {site} outside rectangle [{self.lo}, {self.hi}]")
        return sub(site, self.lo)

    def sites(self):
        """Iterate all sites in row-major (lexicographic) order."""
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        for coords in itertools.product(*ranges):
            yield coords


def box(lo, hi) -> Rectangle:
    return Rectangle(as_site(lo), as_site(hi))


def prefix_sum(src: np.ndarray) -> np.ndarray:
    """The running sums of a dense array indexed over ``[1, n]``: entry ``m - 1`` is ``S_m``.

    Runs one cumulative sum per axis, so the cost is ``O(d * |n|)`` with
    64-bit float accumulation.
    """
    arr = np.asarray(src, dtype=np.float64)
    if arr.ndim < 1:
        raise ValueError("source array must have at least one axis")
    out = np.cumsum(arr, axis=0)
    for axis in range(1, arr.ndim):
        np.cumsum(out, axis=axis, out=out)
    return out
