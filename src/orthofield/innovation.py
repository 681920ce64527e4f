"""Finite-alphabet i.i.d. innovation fields: laws, exact enumeration, seeded sampling.

The innovation field assigns an independent draw from a finite-alphabet law to
every lattice site.  Exact mode enumerates all joint configurations of a finite
window (conditional expectations become finite sums); Monte Carlo mode samples
rectangular regions from counter-based streams so that replicates are
reproducible and independent of scheduling.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, prod

import numpy as np

from .lattice import Rectangle, Site
from .tolerances import PROB_SUM_TOL

# Exact mode refuses to enumerate more weighted configurations than this.
ENUM_CAP = 2**24

_MASK64 = (1 << 64) - 1


class CapExceededError(RuntimeError):
    """An exact computation would enumerate more configurations than allowed."""


@dataclass(frozen=True)
class InnovationLaw:
    """Finite-alphabet distribution of a single innovation.

    ``values`` are the distinct alphabet points and ``probs`` their
    probabilities; probabilities must be strictly positive and sum to one
    within ``PROB_SUM_TOL``.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.values) != len(self.probs):
            raise ValueError("values and probs must have equal length")
        if len(self.values) < 2:
            raise ValueError("alphabet needs at least two points")
        if len(set(self.values)) != len(self.values):
            raise ValueError("alphabet values must be distinct")
        if any(p <= 0.0 for p in self.probs):
            raise ValueError("all probabilities must be positive")
        if abs(sum(self.probs) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {sum(self.probs)!r}, not 1")

    @classmethod
    def rademacher(cls) -> "InnovationLaw":
        return cls((-1.0, 1.0), (0.5, 0.5))

    @property
    def size(self) -> int:
        return len(self.values)

    def moment(self, k: int) -> float:
        """Raw moment ``E[eps^k] = sum_j p_j v_j^k`` for integer ``k >= 0``."""
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        return float(sum(p * v**k for v, p in zip(self.values, self.probs)))

    @property
    def variance(self) -> float:
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1


@dataclass(frozen=True)
class Configuration:
    """One joint assignment of alphabet values to a finite site set."""

    sites: tuple[Site, ...]
    values: tuple[float, ...]
    weight: float

    @property
    def assignment(self) -> dict[Site, float]:
        return dict(zip(self.sites, self.values))


def check_enum_cap(n_sites: int, law: InnovationLaw) -> int:
    count = law.size**n_sites
    if count > ENUM_CAP:
        raise CapExceededError(
            f"window too large for exact mode: {law.size}^{n_sites} = {count} "
            f"configurations exceeds cap {ENUM_CAP}"
        )
    return count


def enumerate_configs(sites, law: InnovationLaw):
    """Yield every joint configuration of ``sites`` exactly once.

    Weights are the product probabilities and sum to one over the stream.
    Raises :class:`CapExceededError` when the configuration count exceeds
    ``ENUM_CAP``.
    """
    site_list = tuple(tuple(s) for s in sites)
    check_enum_cap(len(site_list), law)
    for idx in itertools.product(range(law.size), repeat=len(site_list)):
        values = tuple(law.values[j] for j in idx)
        weight = prod(law.probs[j] for j in idx)
        yield Configuration(site_list, values, weight)


def _splitmix64(x: int) -> int:
    """One splitmix64 step; the fixed avalanche mixer behind stream derivation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stream_key(seed: int, replicate: int, region: Rectangle) -> tuple[int, int]:
    """Derive the 128-bit Philox key of one sampling stream.

    The key is a fixed avalanche mix of ``(seed, replicate, region)``: fold the
    seed, the replicate index, and every region corner coordinate through
    splitmix64, then emit two further splitmix64 outputs.  Streams are derived,
    never advanced, so concurrent replicates share no state.  The mixing
    function is part of the on-disk reproducibility contract and must not
    change between releases.
    """
    h = _splitmix64(seed & _MASK64)
    h = _splitmix64(h ^ (replicate & _MASK64))
    for c in region.lo + region.hi:
        h = _splitmix64(h ^ (c & _MASK64))
    k0 = _splitmix64(h)
    k1 = _splitmix64(k0)
    return (k0, k1)


@dataclass(frozen=True, eq=False)
class FieldSample:
    """I.i.d. innovation draws over a rectangular region.

    ``values[idx]`` holds the innovation at lattice site ``region.lo + idx``.
    Identical ``(seed, replicate, region, law)`` always reproduce identical
    arrays.  The wrapper stays because the benchmark's tracer reads
    ``sample_region(...).values``.
    """

    values: np.ndarray


@lru_cache(maxsize=256)
def _inverse_cdf_table(law: InnovationLaw) -> tuple[tuple[np.uint64, ...], np.ndarray]:
    """The raw-word thresholds of the bin edges of ``law`` and its value array.

    An edge ``c`` (a cumulative probability but the last) becomes the 64-bit
    threshold ``ceil(c 2^53) << 11``: a word ``w`` reaches it exactly when the
    double ``(w >> 11) 2^-53`` reaches ``c``.  An edge no such double reaches
    (``ceil(c 2^53) >= 2^53``) is dropped.
    """
    values = np.asarray(law.values, dtype=np.float64)
    values.setflags(write=False)
    steps = (ceil(c * 2.0**53) for c in np.cumsum(law.probs[:-1]).tolist())
    return tuple(np.uint64(k << 11) for k in steps if k < 2**53), values


_ZEROS4 = np.zeros(4, dtype=np.uint64)
_local = threading.local()


def _stream(key: tuple[int, int]) -> np.random.Philox:
    """This thread's bit generator, set to the fresh state of ``Philox(key=key)``.

    The state is the one a new ``Philox`` with this key starts from: counter,
    buffer and cached 32-bit word at zero, buffer empty.
    """
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Philox(0)
    rng.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": np.array(key, dtype=np.uint64)},
        "buffer": _ZEROS4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def sample_region(
    region: Rectangle, law: InnovationLaw, seed: int, replicate: int = 0
) -> FieldSample:
    """Sample the innovation field on ``region`` from a derived Philox stream.

    The draw starts from the fresh ``(key, counter 0)`` state of the stream on
    this thread's generator, so it equals a draw from a new
    ``Philox(key=stream_key(seed, replicate, region))`` and concurrent
    replicates share no state.  Each site takes one 64-bit word ``w`` in
    row-major order, the word ``Generator.random`` turns into ``(w >> 11) 2^-53``.
    """
    w = _stream(stream_key(seed, replicate, region)).random_raw(region.shape)
    thresholds, table = _inverse_cdf_table(law)
    # Inverse CDF: the alphabet index is the number of bin edges <= the word's
    # uniform double, that is, of thresholds <= w.
    if len(thresholds) == 1:
        idx = (w >= thresholds[0]).view(np.uint8)
    else:
        idx = sum((w >= t for t in thresholds), np.zeros(w.shape, np.intp))
    return FieldSample(table.take(idx))
