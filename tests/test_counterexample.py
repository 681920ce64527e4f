import itertools
import math

import pytest

from orthofield.counterexample import (
    EXACT_MODE_MAX,
    block_coefficient,
    comparison_report,
    delta_lower_bound_closed_form,
    embed_diagonal,
    hannan_total_closed_form,
    pattern_block,
    site_delta_lower_bound,
    truncated_martingale,
)
from orthofield.dependence import hannan_profile, physical_dependence
from orthofield.functional import innovation_at
from orthofield.innovation import InnovationLaw
from orthofield.projection import Corner, Halfspace, cond_expect

LAW = InnovationLaw.rademacher()


def test_block_one_window_and_norm():
    z1 = pattern_block(1)
    assert z1.window == ((-2,), (-1,), (0,))
    # brute-force oracle over the 8 sign patterns
    expected = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=3):
        value = (signs[0] == -1.0) * (signs[1] == -1.0) * signs[2]
        expected += value**2 / 8.0
    assert expected == 0.25
    assert z1.inner(z1) == pytest.approx(0.25, abs=1e-14)


def test_block_two_matches_displayed_pattern():
    z2 = pattern_block(2)
    sites = {f.site: (f.kind, f.arg) for _, factors in z2.terms for f in factors}
    assert sites == {
        (-4,): ("indicator", -1.0),
        (-3,): ("indicator", -1.0),
        (-2,): ("indicator", 1.0),
        (-1,): ("indicator", 1.0),
        (0,): ("value", None),
    }
    assert z2.inner(z2) == pytest.approx(2.0**-4, abs=1e-15)


def test_blocks_are_orthogonal():
    for j, k in itertools.combinations((1, 2, 3), 2):
        assert pattern_block(j).inner(pattern_block(k)) == 0.0


def test_block_coefficients():
    assert block_coefficient(1) == pytest.approx(2.0)
    assert block_coefficient(2) == pytest.approx(2.0)
    assert block_coefficient(3) == pytest.approx(8.0 / 3.0)
    for n in range(1, 6):
        assert block_coefficient(n) ** 2 * pattern_block(n).inner(
            pattern_block(n)
        ) == pytest.approx(1.0 / n**2, abs=1e-12)


def test_truncation_norm():
    f2 = truncated_martingale(2)
    assert f2.inner(f2) == pytest.approx(1.25, abs=1e-12)


def test_truncation_is_adapted_martingale_difference():
    f3 = truncated_martingale(3)
    assert all(s <= (0,) for s in f3.window)
    assert cond_expect(f3, Halfspace(0, -1)).deviation() <= 1e-12


def test_truncation_hannan_single_term():
    for n_max in (2, 3, 4):
        f = truncated_martingale(n_max)
        profile = hannan_profile(f)
        assert set(profile) == {(0,)}
        assert profile[(0,)] == pytest.approx(hannan_total_closed_form(n_max), abs=1e-12)


def test_report_bounded_hannan_growing_delta():
    report = comparison_report([2, 3, 4, 5])
    totals = [r.delta_total for r in report.rows]
    hannans = [r.hannan_total for r in report.rows]
    assert all(h <= 1.28255 for h in hannans)
    assert all(a < b for a, b in zip(totals, totals[1:]))
    assert report.growth_ratios[2] >= 1.2
    assert all(r.lower_bound_ok for r in report.rows)
    assert all(r.mode == "exact" for r in report.rows)


def test_truncation_is_projection_fixed_point():
    from orthofield.projection import project_full

    for n_max in (2, 3):
        f = truncated_martingale(n_max)
        assert project_full(f, (0,)).deviation(f) <= 1e-12


def test_growth_ratios_across_doublings():
    report = comparison_report([2, 3, 4, 5, 6, 8, 10])
    for n in (2, 3, 4, 5):
        assert report.growth_ratios[n] >= 1.2


def test_report_per_site_lower_bound_exact():
    for n_max in (2, 3, 4):
        f = truncated_martingale(n_max)
        delta = physical_dependence(f)
        for i in range(-2 * n_max, 0):
            bound = site_delta_lower_bound(i, n_max)
            assert delta.get((i,), 0.0) >= bound - 1e-12


def test_report_analytic_mode_beyond_cap():
    report = comparison_report([EXACT_MODE_MAX + 1])
    row = report.rows[0]
    assert row.mode == "analytic"
    assert row.delta_total is None
    assert row.hannan_total == pytest.approx(hannan_total_closed_form(EXACT_MODE_MAX + 1))
    assert row.delta_lower_bound == pytest.approx(
        delta_lower_bound_closed_form(EXACT_MODE_MAX + 1)
    )


def test_delta_lower_bound_closed_form_value():
    # N = 2: sum_k sqrt(2 sum_{j=k}^{2} j^-2) = sqrt(2 * 1.25) + sqrt(2 * 0.25)
    expected = math.sqrt(2.5) + math.sqrt(0.5)
    assert delta_lower_bound_closed_form(2) == pytest.approx(expected, abs=1e-12)


def test_embed_identity():
    embedded = embed_diagonal(innovation_at(LAW, (0,)), 3)
    assert embedded.equal(innovation_at(LAW, (0, 0, 0)))


def test_embed_block_preserves_structure():
    z1 = pattern_block(1)
    embedded = embed_diagonal(z1, 2)
    assert embedded.window == ((-2, -2), (-1, -1), (0, 0))
    assert embedded.inner(embedded) == pytest.approx(0.25, abs=1e-14)


def test_embedded_truncation_is_martingale_difference():
    f = embed_diagonal(truncated_martingale(2), 2)
    assert cond_expect(f, Corner((-1, -1))).deviation() <= 1e-12
    profile = hannan_profile(f)
    assert set(profile) == {(0, 0)}


def test_input_validation():
    skewed = InnovationLaw((-1.0, 1.0), (0.25, 0.75))
    with pytest.raises(ValueError, match="Rademacher"):
        truncated_martingale(2, skewed)
    with pytest.raises(ValueError):
        truncated_martingale(EXACT_MODE_MAX + 1)
    with pytest.raises(ValueError):
        pattern_block(0)
    with pytest.raises(ValueError):
        embed_diagonal(innovation_at(LAW, (0, 0)), 3)
    with pytest.raises(ValueError):
        embed_diagonal(innovation_at(LAW, (0,)), 1)
