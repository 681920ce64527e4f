"""Orthomartingale coboundary decomposition of banded centered functionals.

A functional of order ``m`` (measurable within level ``m`` and conditionally
centered below level ``-m`` on every axis) splits into ``2^d`` components
indexed by axis subsets: for each subset the component is a martingale
difference along the member axes, and the remaining axes contribute telescoping
one-step difference operators.  Both building operators are exact finite sums
for finite-range inputs, with ranges read off the window; decomposition always
verifies the reconstruction identity before returning.  Each sum is formed by
:func:`~orthofield.functional.signed_sum` in one merge, bit for bit the left
fold of its terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .functional import FiniteRangeFunctional, signed_sum
from .lattice import unit
from .projection import Halfspace, cond_expect, kernel_sum, project_line
from .tolerances import MARTINGALE_TOL, ORDER_CHECK_TOL, RESIDUAL_TOL


def _keep_all(site) -> bool:
    """Keep every site: ``integrate_sites(_keep_all)`` is the functional itself."""
    return True


class VerificationError(ArithmeticError):
    """A verified bound of the decomposition failed.

    ``check`` names the bound, ``amount`` is its measured size and
    ``tolerance`` the largest size allowed.
    """

    def __init__(self, check: str, amount: float, tolerance: float) -> None:
        super().__init__(f"{check} {amount:.3e} exceeds {tolerance:g}")
        self.check = check
        self.amount = amount
        self.tolerance = tolerance


def check_order(f: FiniteRangeFunctional, m: int) -> bool:
    """True iff ``f`` is banded at order ``m`` on every axis.

    Two conditions per axis: conditioning at level ``-m`` annihilates ``f``,
    and conditioning at level ``m`` reproduces it.
    """
    return not order_violations(f, m)


def order_violations(f: FiniteRangeFunctional, m: int) -> list[tuple[int, str, float]]:
    """All per-axis violations of the order-``m`` band conditions."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    out = []
    for axis in range(f.dim):
        low = cond_expect(f, Halfspace(axis, -m)).deviation()
        if low > ORDER_CHECK_TOL:
            out.append((axis, "conditional expectation below level -m is nonzero", low))
        high = f.integrate_difference(_keep_all, lambda s: s[axis] <= m).deviation()
        if high > ORDER_CHECK_TOL:
            out.append((axis, "not measurable at level m", high))
    return out


def center(g: FiniteRangeFunctional, m: int) -> FiniteRangeFunctional:
    """Project ``g`` into the order-``m`` band by removing each axis's deep past.

    Applies ``I`` minus the level ``-m`` conditioning on every axis in turn;
    idempotent on inputs already in the band.  The window must lie within
    ``[-m, m]^d``.
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    if any(abs(c) > m for s in g.window for c in s):
        raise ValueError(f"window {g.window} exceeds the box [-{m}, {m}]^{g.dim}")
    out = g
    for axis in range(g.dim):
        out = out.integrate_difference(_keep_all, lambda s: s[axis] <= -m)
    return out


def martingale_op(f: FiniteRangeFunctional, axis: int) -> FiniteRangeFunctional:
    """Sum of origin line projections over all shifts of ``f`` along one axis.

    The output is a martingale difference along ``axis``: its one-step past
    conditional expectation vanishes and its window keeps nonpositive
    coordinates on that axis.
    """
    if not 0 <= axis < f.dim:
        raise ValueError(f"axis {axis} out of range for dimension {f.dim}")
    e = unit(f.dim, axis)
    shifts = [tuple(-c * x for x in e) for c in f.axis_coords(axis)]
    return signed_sum(f.law, f.dim, ((1, project_line(f.shift(i), axis, 0)) for i in shifts))


def transfer_op(f: FiniteRangeFunctional, axis: int) -> FiniteRangeFunctional:
    """The transfer component along one axis: the generator of the telescoping part.

    Exact finite double sum over (level, shift) pairs read off the window:
    nonnegative levels collect the negatively shifted projections with a minus
    sign, negative levels collect the nonnegatively shifted ones with a plus
    sign.
    """
    if not 0 <= axis < f.dim:
        raise ValueError(f"axis {axis} out of range for dimension {f.dim}")
    coords = f.axis_coords(axis)
    e = unit(f.dim, axis)
    # (sign, level, shift) in the order of the double sum.
    steps = []
    if coords:
        w_lo, w_hi = coords[0], coords[-1]
        steps += [(-1, lv, lv - c) for lv in range(0, w_hi) for c in coords if lv - c <= -1]
        steps += [(1, lv, lv - c) for lv in range(w_lo, 0) for c in coords if lv - c >= 0]
    return signed_sum(
        f.law,
        f.dim,
        (
            (sign, project_line(f.shift(tuple(k * x for x in e)), axis, level))
            for sign, level, k in steps
        ),
    )


@dataclass(frozen=True)
class CoboundaryParts:
    """Verified coboundary components of one functional.

    ``components`` maps the d-bit axis-subset mask (bit q set means axis q
    carries the martingale operator) to its component.  ``residual`` is the
    verified bound on the reconstruction deviation, ``kernel_residual`` the
    deviation of the all-axes component from the summed origin projections,
    and ``martingale_violation`` the largest one-step conditional expectation
    across components and their martingale axes.
    """

    order: int
    dim: int
    components: dict[int, FiniteRangeFunctional]
    residual: float
    kernel_residual: float
    martingale_violation: float


def decompose(f: FiniteRangeFunctional, m: int) -> CoboundaryParts:
    """Compute and verify all ``2^d`` coboundary components of an order-``m`` functional.

    Raises ``ValueError`` naming the violated axis and condition when ``f`` is
    not banded at order ``m``, and :class:`VerificationError` if any verified
    bound exceeds its tolerance (callers never receive unverified parts).  The
    tolerances are ``RESIDUAL_TOL`` and ``MARTINGALE_TOL`` of the table in
    :mod:`orthofield.tolerances`.
    """
    violations = order_violations(f, m)
    if violations:
        axis, what, size = violations[0]
        raise ValueError(f"order-{m} band condition fails on axis {axis}: {what} ({size:.3e})")

    d = f.dim
    # Masks that agree on the axes below ``axis`` share their partial product,
    # so each distinct prefix is built once: 2^(d+1) - 2 operators, not d 2^d.
    prefixes = {0: f}
    for axis in range(d):
        prefixes = {
            mask | bit << axis: martingale_op(h, axis) if bit else transfer_op(h, axis)
            for mask, h in prefixes.items()
            for bit in (0, 1)
        }
    components = {mask: prefixes[mask] for mask in range(1 << d)}

    residual = reconstruct_sum(components, d).deviation(f)
    kernel_residual = components[(1 << d) - 1].deviation(kernel_sum(f))
    martingale_violation = 0.0
    for mask, h in components.items():
        for axis in range(d):
            if mask >> axis & 1:
                one_step = cond_expect(h, Halfspace(axis, -1)).deviation()
                martingale_violation = max(martingale_violation, one_step)
                level = max((s[axis] for s in h.essential_window()), default=0)
                if level > 0:
                    raise VerificationError(
                        f"component {mask:b} window level on axis {axis}", level, 0
                    )

    if residual > RESIDUAL_TOL:
        raise VerificationError("reconstruction residual", residual, RESIDUAL_TOL)
    if kernel_residual > RESIDUAL_TOL:
        raise VerificationError("kernel identity residual", kernel_residual, RESIDUAL_TOL)
    if martingale_violation > MARTINGALE_TOL:
        raise VerificationError(
            "martingale property violation", martingale_violation, MARTINGALE_TOL
        )
    return CoboundaryParts(
        order=m,
        dim=d,
        components=components,
        residual=residual,
        kernel_residual=kernel_residual,
        martingale_violation=martingale_violation,
    )


def reconstruct(parts: CoboundaryParts) -> FiniteRangeFunctional:
    """Reassemble the functional from verified parts."""
    return reconstruct_sum(parts.components, parts.dim)


def reconstruct_sum(
    components: dict[int, FiniteRangeFunctional], dim: int
) -> FiniteRangeFunctional:
    """Sum each component through the one-step difference operators of its complement axes.

    The empty product of difference operators is the identity, so the all-axes
    component enters as is.
    """
    if set(components) != set(range(1 << dim)):
        missing = sorted(set(range(1 << dim)) - set(components))
        raise ValueError(f"missing components for masks {missing}")
    summands = []
    for mask in range(1 << dim):
        g = components[mask]
        for axis in range(dim):
            if not mask >> axis & 1:
                g = g - g.shift(unit(dim, axis))
        summands.append((1, g))
    return signed_sum(components[0].law, dim, summands)
