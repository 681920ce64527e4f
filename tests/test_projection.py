import itertools

import numpy as np
import pytest

from orthofield.functional import constant, indicator_at, innovation_at, zero
from orthofield.innovation import InnovationLaw
from orthofield.projection import (
    Corner,
    Halfspace,
    cond_expect,
    kernel_sum,
    project_full,
    project_line,
    projection_identity_report,
    projective_decomposition,
)
from orthofield.suites import random_functional

LAW = InnovationLaw.rademacher()


def meet(i, j):
    """Coordinatewise minimum (the lattice meet ``i ^ j``)."""
    return tuple(min(a, b) for a, b in zip(i, j))

def corner_inclusion_exclusion(f, j):
    """Independent d=2 oracle: the four-term corner formula for the full projection."""
    j1, j2 = j
    return (
        cond_expect(f, Corner((j1, j2)))
        - cond_expect(f, Corner((j1, j2 - 1)))
        - cond_expect(f, Corner((j1 - 1, j2)))
        + cond_expect(f, Corner((j1 - 1, j2 - 1)))
    )


def centered(rng, dim, lo=-1, hi=1):
    g = random_functional(rng, LAW, dim, 3, 2, lo, hi)
    return g - constant(LAW, dim, g.expectation())


def test_halfspace_integrates_out_future_sites():
    a = 0.7
    f = innovation_at(LAW, (0, 0)) + a * innovation_at(LAW, (-1, 0))
    g = cond_expect(f, Halfspace(0, -1))
    assert g.equal(a * innovation_at(LAW, (-1, 0)))


def test_measurable_input_is_fixed():
    f = innovation_at(LAW, (-1, -2)) * innovation_at(LAW, (0, -1))
    assert cond_expect(f, Corner((0, -1))).equal(f)


def test_corner_annihilates_centered_product():
    f = indicator_at(LAW, (-1, -1), -1.0) * innovation_at(LAW, (0, 0))
    g = cond_expect(f, Corner((-1, -1)))
    assert g.deviation() <= 1e-12


def test_project_line_examples():
    e00 = innovation_at(LAW, (0, 0))
    assert project_line(e00, 0, 0).equal(e00)
    assert project_line(innovation_at(LAW, (1, 0)), 0, 0).is_zero
    prod = innovation_at(LAW, (0, 0)) * innovation_at(LAW, (-1, -1))
    assert project_line(prod, 0, 0).equal(prod)


def test_project_full_matches_inclusion_exclusion():
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = random_functional(rng, LAW, 2, 3, 2, -1, 1)
        for j in itertools.product((-1, 0, 1), repeat=2):
            assert project_full(f, j).deviation(corner_inclusion_exclusion(f, j)) <= 1e-12


def test_project_full_examples():
    e0 = innovation_at(LAW, (0, 0, 0))
    assert project_full(e0, (0, 0, 0)).equal(e0)
    f = innovation_at(LAW, (0, 0)) + 0.3 * innovation_at(LAW, (-1, 0))
    assert project_full(f, (0, 0)).equal(innovation_at(LAW, (0, 0)))


def test_projective_decomposition_examples():
    e0 = innovation_at(LAW, (0,))
    parts = projective_decomposition(e0)
    assert set(parts) == {(0,)}
    assert parts[(0,)].equal(e0)

    f = innovation_at(LAW, (0,)) + innovation_at(LAW, (-1,))
    parts = projective_decomposition(f)
    assert set(parts) == {(0,), (-1,)}
    assert parts[(0,)].equal(innovation_at(LAW, (0,)))
    assert parts[(-1,)].equal(innovation_at(LAW, (-1,)))


def test_projective_completeness_random():
    rng = np.random.default_rng(33)
    for dim in (1, 2):
        for _ in range(10):
            f = centered(rng, dim)
            total = zero(LAW, dim)
            for piece in projective_decomposition(f).values():
                total = total + piece
            assert total.deviation(f) <= 1e-10


def test_tower_property():
    rng = np.random.default_rng(35)
    for _ in range(10):
        f = random_functional(rng, LAW, 2, 3, 2, -1, 1)
        j = tuple(int(v) for v in rng.integers(-2, 3, size=2))
        k = tuple(int(v) for v in rng.integers(-2, 3, size=2))
        nested = cond_expect(cond_expect(f, Corner(j)), Corner(k))
        assert nested.deviation(cond_expect(f, Corner(meet(j, k)))) <= 1e-10


def test_conditioning_is_a_contraction():
    rng = np.random.default_rng(37)
    for _ in range(10):
        f = random_functional(rng, LAW, 2, 3, 2, -1, 1)
        assert cond_expect(f, Corner((0, 0))).norm() <= f.norm() + 1e-12
        assert cond_expect(f, Halfspace(1, -1)).norm() <= f.norm() + 1e-12


def test_annihilation_without_matching_coordinate():
    rng = np.random.default_rng(39)
    for _ in range(10):
        f = random_functional(rng, LAW, 2, 3, 2, -1, 1)
        coords = f.axis_coords(0)
        for level in range(-3, 4):
            if level not in coords:
                assert project_line(f, 0, level).is_zero


def test_sentinel_levels_match_identity_and_mean():
    f = innovation_at(LAW, (0,)) + 0.5 * innovation_at(LAW, (-2,))
    # Levels beyond the window behave as the infinite-level sentinels.
    assert cond_expect(f, Halfspace(0, 10)).equal(f)
    assert cond_expect(f, Halfspace(0, -10)).equal(constant(LAW, 1, f.expectation()))


def test_identity_report_on_random_pairs():
    rng = np.random.default_rng(41)
    indices = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    for _ in range(5):
        f = random_functional(rng, LAW, 2, 3, 2, -1, 1)
        g = random_functional(rng, LAW, 2, 3, 2, -1, 1)
        rep = projection_identity_report(f, g, indices)
        assert rep.max_violation <= 1e-10
        assert rep.pairs_checked == len(indices) * (len(indices) - 1)


def test_line_projections_commute():
    rng = np.random.default_rng(43)
    f = random_functional(rng, LAW, 2, 3, 2, -1, 1)
    a = project_line(project_line(f, 0, 0), 1, 1)
    b = project_line(project_line(f, 1, 1), 0, 0)
    assert a.deviation(b) <= 1e-12


def test_projection_idempotence():
    rng = np.random.default_rng(45)
    f = random_functional(rng, LAW, 2, 3, 2, -1, 1)
    p = project_full(f, (0, -1))
    assert project_full(p, (0, -1)).deviation(p) <= 1e-12


def test_kernel_sum_examples():
    f = innovation_at(LAW, (0,)) + 0.5 * innovation_at(LAW, (-1,))
    assert kernel_sum(f).equal(1.5 * innovation_at(LAW, (0,)))
    telescope = innovation_at(LAW, (-1,)) - innovation_at(LAW, (0,))
    assert kernel_sum(telescope).deviation() <= 1e-12


def test_axis_validation():
    f = innovation_at(LAW, (0, 0))
    with pytest.raises(ValueError):
        project_line(f, 2, 0)
    with pytest.raises(ValueError):
        cond_expect(f, Corner((0,)))
