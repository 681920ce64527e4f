import itertools

import numpy as np
import pytest

from orthofield import coboundary
from orthofield.coboundary import (
    VerificationError,
    center,
    check_order,
    decompose,
    martingale_op,
    reconstruct,
    reconstruct_sum,
    transfer_op,
)
from orthofield.functional import innovation_at, zero
from orthofield.innovation import InnovationLaw
from orthofield.lattice import unit
from orthofield.projection import Halfspace, cond_expect, kernel_sum
from orthofield.suites import random_functional

LAW = InnovationLaw.rademacher()


def banded(rng, dim, m=2):
    g = random_functional(rng, LAW, dim, 3 if dim < 3 else 2, 2, -m, m)
    return center(g, m)


def test_check_order_telescope():
    f = innovation_at(LAW, (-1,)) - innovation_at(LAW, (0,))
    assert check_order(f, 2)
    assert not check_order(f, 1)  # conditioning at -1 leaves the lagged innovation


def test_check_order_identity():
    assert check_order(innovation_at(LAW, (0,)), 1)


def test_check_order_window_outside_band():
    f = innovation_at(LAW, (3,))
    assert not check_order(f, 2)


def test_center_fixed_point():
    f = innovation_at(LAW, (0,))
    assert center(f, 1).equal(f)


def test_center_annihilates_deep_past():
    f = innovation_at(LAW, (-1,))
    assert center(f, 1).deviation() <= 1e-14


def test_center_produces_banded_inputs():
    rng = np.random.default_rng(71)
    for _ in range(10):
        g = random_functional(rng, LAW, 2, 3, 2, -1, 1)
        f = center(g, 1)
        assert check_order(f, 1) or f.is_zero
        assert center(f, 1).deviation(f) <= 1e-12


def test_center_window_validation():
    with pytest.raises(ValueError, match="window"):
        center(innovation_at(LAW, (-3,)), 2)


def test_martingale_op_examples():
    e0 = innovation_at(LAW, (0,))
    assert martingale_op(e0, 0).equal(e0)
    telescope = innovation_at(LAW, (-1,)) - e0
    assert martingale_op(telescope, 0).deviation() <= 1e-14
    linear = e0 + 0.5 * innovation_at(LAW, (-1,))
    assert martingale_op(linear, 0).equal(1.5 * e0)


def test_transfer_op_examples():
    e0 = innovation_at(LAW, (0,))
    assert transfer_op(e0, 0).deviation() <= 1e-14
    telescope = innovation_at(LAW, (-1,)) - e0
    assert transfer_op(telescope, 0).equal(innovation_at(LAW, (-1,)))


def test_one_dimensional_identity():
    # f = Af + Bf - U(Bf) for banded inputs
    rng = np.random.default_rng(73)
    for _ in range(20):
        f = banded(rng, 1)
        if f.is_zero:
            continue
        a = martingale_op(f, 0)
        b = transfer_op(f, 0)
        recon = a + b - b.shift((1,))
        assert recon.deviation(f) <= 1e-10


def test_decompose_telescope_worked_example():
    f = innovation_at(LAW, (-1,)) - innovation_at(LAW, (0,))
    parts = decompose(f, 2)
    assert parts.residual <= 1e-10
    assert parts.components[1].deviation() <= 1e-14  # martingale part vanishes
    assert parts.components[0].equal(innovation_at(LAW, (-1,)))
    assert reconstruct(parts).equal(f)


def test_decompose_identity_functional():
    for dim in (1, 2, 3):
        f = innovation_at(LAW, (0,) * dim)
        parts = decompose(f, 1)
        full = (1 << dim) - 1
        assert parts.components[full].equal(f)
        for mask in range(full):
            assert parts.components[mask].deviation() <= 1e-14


def test_two_dimensional_component_structure():
    # the reconstruction expands exactly into the four-term two-axis identity
    rng = np.random.default_rng(77)
    f = banded(rng, 2)
    parts = decompose(f, 2)
    h = parts.components
    u10 = unit(2, 0)
    u01 = unit(2, 1)
    expansion = (
        h[3]
        + (h[2] - h[2].shift(u10))
        + (h[1] - h[1].shift(u01))
        + (h[0] - h[0].shift(u01) - h[0].shift(u10) + h[0].shift(u10).shift(u01))
    )
    assert expansion.deviation(f) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_decompose_round_trip_random(dim):
    rng = np.random.default_rng(100 + dim)
    done = 0
    while done < 20:
        f = banded(rng, dim)
        if f.is_zero:
            continue
        parts = decompose(f, 2)
        assert parts.residual <= 1e-9
        assert parts.kernel_residual <= 1e-9
        assert parts.martingale_violation <= 1e-10
        assert reconstruct(parts).deviation(f) <= 1e-9
        done += 1


def test_components_are_axis_martingales():
    rng = np.random.default_rng(79)
    f = banded(rng, 2)
    parts = decompose(f, 2)
    for mask, h in parts.components.items():
        for axis in range(2):
            if mask >> axis & 1:
                assert cond_expect(h, Halfspace(axis, -1)).deviation() <= 1e-10
                assert all(s[axis] <= 0 for s in h.essential_window())


def test_operator_commutation():
    rng = np.random.default_rng(81)
    for _ in range(5):
        f = banded(rng, 2)
        pairs = [
            (lambda g: martingale_op(g, 0), lambda g: martingale_op(g, 1)),
            (lambda g: martingale_op(g, 0), lambda g: transfer_op(g, 1)),
            (lambda g: transfer_op(g, 0), lambda g: transfer_op(g, 1)),
        ]
        for op1, op2 in pairs:
            assert op1(op2(f)).deviation(op2(op1(f))) <= 1e-10


def test_full_component_vanishes_for_kernel_complement():
    # inputs of the form f minus its kernel have no martingale component
    rng = np.random.default_rng(83)
    for dim in (1, 2):
        f = banded(rng, dim)
        if f.is_zero:
            continue
        g = f - kernel_sum(f)
        parts = decompose(g, 3)
        assert parts.components[(1 << dim) - 1].deviation() <= 1e-10


def test_decompose_rejects_unbanded_input():
    f = innovation_at(LAW, (-1,))  # conditioning below -1 does not vanish
    with pytest.raises(ValueError, match="axis 0"):
        decompose(f, 1)


def test_reconstruct_sum_requires_all_components():
    f = innovation_at(LAW, (0, 0))
    parts = decompose(f, 1)
    incomplete = dict(parts.components)
    del incomplete[1]
    with pytest.raises(ValueError, match="missing"):
        reconstruct_sum(incomplete, 2)


def test_reconstruct_single_transfer_component():
    # telescoping expansion oracle for a lone complement-axes component
    dim = 2
    h0 = innovation_at(LAW, (-1, -1))
    components = {0: h0}
    for mask in range(1, 1 << dim):
        components[mask] = zero(LAW, dim)
    recon = reconstruct_sum(components, dim)
    expected = zero(LAW, dim)
    for bits in itertools.product((0, 1), repeat=dim):
        sign = (-1.0) ** sum(bits)
        expected = expected + sign * h0.shift(bits)
    assert recon.deviation(expected) <= 1e-14


def test_zero_reconstructs_to_zero():
    components = {mask: zero(LAW, 2) for mask in range(4)}
    assert reconstruct_sum(components, 2).is_zero


def test_failed_bounds_raise_verification_error_naming_the_check(monkeypatch):
    f = innovation_at(LAW, (-1,)) - innovation_at(LAW, (0,))
    for name, check in (
        ("RESIDUAL_TOL", "reconstruction residual"),
        ("MARTINGALE_TOL", "martingale property violation"),
    ):
        with monkeypatch.context() as patch, pytest.raises(VerificationError) as info:
            patch.setattr(coboundary, name, -1.0)
            decompose(f, 2)
        err = info.value
        assert isinstance(err, ArithmeticError)
        assert err.check == check and err.tolerance == -1.0 and err.amount >= 0.0
        assert str(err).startswith(check) and "exceeds -1" in str(err)
