"""A martingale difference with a bounded projective sum but divergent resampling sums.

The construction stacks disjoint indicator patterns of growing depth: block
``n`` requires two minus-one innovations followed by ``2n - 2`` plus-one
innovations and multiplies the current innovation.  Weighting block ``n`` by
``2^n / n`` keeps the L2 norm (and with it the Hannan sum of the truncation)
bounded by the partial sums of ``sum 1/n^2``, while the physical dependence
measures grow without bound as the truncation deepens.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

from .dependence import hannan_profile, physical_dependence
from .functional import Factor, FiniteRangeFunctional
from .innovation import InnovationLaw
from .tolerances import DELTA_BOUND_SLACK

# Exact mode enumerates the 2N+1 window sites; beyond this only closed forms
# are reported.
EXACT_MODE_MAX = 11

# Every truncation's Hannan sum stays below sqrt(zeta(2)).
HANNAN_CEILING = sqrt(pi**2 / 6.0)

# delta_lower_bound_closed_form(n) adds about n^2 / 2 terms; the sum of n^2
# over the distinct requested depths may be at most this (one depth of 4096,
# about 1.4 s on a 2-core host).
MAX_TRUNCATION_WORK = 2**24


def pattern_block(n: int) -> FiniteRangeFunctional:
    """Block ``n``: the depth-``2n`` indicator pattern times the current innovation.

    Sites ``-2n`` and ``-2n + 1`` must read minus one, sites ``-2n + 2``
    through ``-1`` must read plus one; under the Rademacher law the pattern
    has probability ``2^(-2n)`` so the block's squared norm is ``2^(-2n)``.
    """
    if n < 1:
        raise ValueError("block index must be a positive integer")
    factors = [Factor((-2 * n,), "indicator", -1.0), Factor((-2 * n + 1,), "indicator", -1.0)]
    factors += [Factor((k,), "indicator", 1.0) for k in range(-2 * n + 2, 0)]
    factors.append(Factor((0,), "value"))
    return FiniteRangeFunctional.from_items(InnovationLaw.rademacher(), 1, [(1.0, factors)])


def block_coefficient(n: int) -> float:
    """Weight of block ``n``, chosen so the weighted block has squared norm ``1/n^2``."""
    return 2.0**n / n


def truncated_martingale(n_max: int, law: InnovationLaw | None = None) -> FiniteRangeFunctional:
    """The truncated block combination: an adapted martingale difference.

    Its window spans ``2 n_max + 1`` sites, so exact mode caps ``n_max`` at
    ``EXACT_MODE_MAX``.
    """
    if not 1 <= n_max <= EXACT_MODE_MAX:
        raise ValueError(f"truncation must lie in [1, {EXACT_MODE_MAX}] for exact mode")
    if law is not None and law != InnovationLaw.rademacher():
        raise ValueError("the construction requires the Rademacher law")
    out = None
    for n in range(1, n_max + 1):
        piece = block_coefficient(n) * pattern_block(n)
        out = piece if out is None else out + piece
    return out


def hannan_total_closed_form(n_max: int) -> float:
    """The exact Hannan sum of the truncation: sqrt of a partial sum of ``1/n^2``."""
    return sqrt(sum(1.0 / n**2 for n in range(1, n_max + 1)))


def delta_lower_bound_closed_form(n_max: int) -> float:
    """Closed-form lower bound on the physical dependence total of the truncation."""
    return sum(
        sqrt(2.0 * sum(1.0 / j**2 for j in range(k, n_max + 1)))
        for k in range(1, n_max + 1)
    )


def site_delta_lower_bound(i: int, n_max: int) -> float:
    """Per-site lower bound ``(1/2 sum_{j>=k} 1/j^2)^(1/2)`` at negative site ``i``."""
    if i >= 0:
        raise ValueError("the per-site bound applies to negative sites only")
    k = (-i + 1) // 2
    if k > n_max:
        return 0.0
    return sqrt(0.5 * sum(1.0 / j**2 for j in range(k, n_max + 1)))


@dataclass(frozen=True)
class CounterexampleRow:
    n_max: int
    hannan_total: float
    hannan_bound: float
    delta_total: float | None
    delta_lower_bound: float
    mode: str
    lower_bound_ok: bool | None


@dataclass(frozen=True)
class CounterexampleReport:
    """Per-truncation dependence totals and the growth of the resampling sums."""

    rows: tuple[CounterexampleRow, ...]
    growth_ratios: dict[int, float]


def comparison_report(n_list) -> CounterexampleReport:
    """Exact dependence totals per truncation, with doubling growth ratios.

    Truncations beyond the exact-mode cap report only the closed forms and are
    flagged ``analytic``.  In exact mode the per-site physical dependence is
    verified against its closed-form lower bound.
    """
    rows = []
    delta_totals: dict[int, float] = {}
    for n_max in sorted(set(int(n) for n in n_list)):
        if n_max <= EXACT_MODE_MAX:
            f = truncated_martingale(n_max)
            hannan = sum(hannan_profile(f).values())
            delta = physical_dependence(f)
            delta_total = sum(delta.values())
            ok = all(
                delta.get((i,), 0.0) >= site_delta_lower_bound(i, n_max) - DELTA_BOUND_SLACK
                for i in range(-2 * n_max, 0)
            )
            rows.append(
                CounterexampleRow(
                    n_max=n_max,
                    hannan_total=hannan,
                    hannan_bound=HANNAN_CEILING,
                    delta_total=delta_total,
                    delta_lower_bound=delta_lower_bound_closed_form(n_max),
                    mode="exact",
                    lower_bound_ok=ok,
                )
            )
            delta_totals[n_max] = delta_total
        else:
            rows.append(
                CounterexampleRow(
                    n_max=n_max,
                    hannan_total=hannan_total_closed_form(n_max),
                    hannan_bound=HANNAN_CEILING,
                    delta_total=None,
                    delta_lower_bound=delta_lower_bound_closed_form(n_max),
                    mode="analytic",
                    lower_bound_ok=None,
                )
            )
    ratios = {
        n: delta_totals[2 * n] / delta_totals[n]
        for n in delta_totals
        if 2 * n in delta_totals
    }
    return CounterexampleReport(rows=tuple(rows), growth_ratios=ratios)


def embed_diagonal(f: FiniteRangeFunctional, dim: int) -> FiniteRangeFunctional:
    """Relabel a one-dimensional functional onto the diagonal of Z^dim.

    The diagonal is totally ordered under the coordinatewise order, so
    adaptedness and the martingale-difference property transfer verbatim, and
    the relabeling is an L2 isometry.
    """
    if f.dim != 1:
        raise ValueError("only one-dimensional functionals can be embedded")
    if dim < 2:
        raise ValueError("embedding dimension must be at least 2")
    terms = tuple(
        (c, tuple(Factor(fac.site * dim, fac.kind, fac.arg) for fac in factors))
        for c, factors in f.terms
    )
    return FiniteRangeFunctional.from_items(f.law, dim, terms)
