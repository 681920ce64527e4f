import itertools

import numpy as np
import pytest

from orthofield.functional import (
    Factor,
    constant,
    from_terms,
    indicator_at,
    innovation_at,
    power_at,
    zero,
)
from orthofield.innovation import Configuration, InnovationLaw, enumerate_configs
from orthofield.suites import random_functional

LAW = InnovationLaw.rademacher()


def max_abs(table):
    return float(np.max(np.abs(table.values))) if table.values.size else 0.0


def _expand(table, union):
    """The table's values broadcast onto the sorted site list ``union``."""
    full = (table.law.size,) * len(union)
    if not table.sites:
        return np.broadcast_to(table.values, full) if union else table.values
    src_axes = [union.index(s) for s in table.sites]
    arr = np.transpose(table.values, np.argsort(src_axes))
    shape = [1] * len(union)
    for axis in src_axes:
        shape[axis] = table.law.size
    return np.broadcast_to(arr.reshape(shape), full)


def max_deviation(a, b):
    """Max absolute difference of two value tables on the union of their sites."""
    union = tuple(sorted(set(a.sites) | set(b.sites)))
    x, y = _expand(a, union), _expand(b, union)
    return float(np.max(np.abs(x - y))) if union else abs(float(x) - float(y))


def config_of(assignment):
    sites = tuple(assignment)
    return Configuration(sites, tuple(assignment[s] for s in sites), weight=1.0)


def brute_inner(f, g):
    """Independent oracle: weighted sum of pointwise products over all configurations."""
    sites = sorted(set(f.window) | set(g.window))
    if not sites:
        return f.evaluate(config_of({})) * g.evaluate(config_of({}))
    total = 0.0
    for c in enumerate_configs(sites, f.law):
        total += c.weight * f.evaluate(c) * g.evaluate(c)
    return total


def test_evaluate_single_site():
    f = innovation_at(LAW, (0,))
    assert f.evaluate(config_of({(0,): -1.0})) == -1.0


def test_evaluate_indicator_pattern():
    f = indicator_at(LAW, (-2,), -1.0) * indicator_at(LAW, (-1,), -1.0) * innovation_at(LAW, (0,))
    assert f.evaluate(config_of({(-2,): -1.0, (-1,): -1.0, (0,): 1.0})) == 1.0
    assert f.evaluate(config_of({(-2,): 1.0, (-1,): -1.0, (0,): 1.0})) == 0.0


def test_evaluate_missing_site():
    f = innovation_at(LAW, (0,))
    with pytest.raises(ValueError, match="assign"):
        f.evaluate(config_of({(1,): 1.0}))


def test_shift_moves_sites():
    f = innovation_at(LAW, (0,))
    g = f.shift((1,))
    assert g.window == ((1,),)
    for c in enumerate_configs([(0,), (1,)], LAW):
        assert g.evaluate(c) == c.assignment[(1,)]


def test_zero_shift_is_identity():
    f = innovation_at(LAW, (0, 0)) + 2.0 * indicator_at(LAW, (1, -1), 1.0)
    assert f.shift((0, 0)).equal(f)


def test_shift_composition():
    rng = np.random.default_rng(8)
    for _ in range(5):
        f = random_functional(rng, LAW, 2, 2, 2, -2, 2)
        i = tuple(int(v) for v in rng.integers(-2, 3, size=2))
        j = tuple(int(v) for v in rng.integers(-2, 3, size=2))
        ij = tuple(a + b for a, b in zip(i, j))
        assert f.shift(i).shift(j).equal(f.shift(ij))


def test_add_cancellation_gives_zero_table():
    f = innovation_at(LAW, (0,)) + 0.5 * indicator_at(LAW, (-1,), 1.0)
    diff = f + (-1.0) * f
    assert diff.is_zero
    assert max_abs(diff.materialize()) == 0.0


def test_rademacher_square_is_constant_one():
    f = innovation_at(LAW, (0,))
    sq = f * f
    assert sq.equal(constant(LAW, 1, 1.0))


def test_scaling_linearity():
    f = innovation_at(LAW, (0,))
    assert (2.0 * f + 3.0 * f).equal(5.0 * f)


def test_expectation_and_norm():
    f = innovation_at(LAW, (0,))
    assert f.expectation() == 0.0
    assert f.norm() == 1.0


def test_pattern_block_norm_bruteforce():
    # Hand enumeration of the 8 sign patterns of sites -2, -1, 0.
    f = indicator_at(LAW, (-2,), -1.0) * indicator_at(LAW, (-1,), -1.0) * innovation_at(LAW, (0,))
    expected = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=3):
        value = (signs[0] == -1.0) * (signs[1] == -1.0) * signs[2]
        expected += 0.125 * value**2
    assert expected == 0.25
    assert f.inner(f) == pytest.approx(0.25, abs=1e-14)


def test_independent_sites_are_orthogonal():
    assert innovation_at(LAW, (0,)).inner(innovation_at(LAW, (-1,))) == 0.0


def test_inner_product_matches_bruteforce_enumeration():
    rng = np.random.default_rng(21)
    for dim in (1, 2):
        for _ in range(10):
            f = random_functional(rng, LAW, dim, 3, 2, -1, 1)
            g = random_functional(rng, LAW, dim, 3, 2, -1, 1)
            assert f.inner(g) == pytest.approx(brute_inner(f, g), abs=1e-12)
            assert f.expectation() == pytest.approx(
                brute_inner(f, constant(LAW, dim, 1.0)), abs=1e-12
            )


def test_inner_product_nonrademacher_law():
    law = InnovationLaw((0.0, 1.0, 3.0), (0.5, 0.3, 0.2))
    f = innovation_at(law, (0,)) * innovation_at(law, (0,)) + indicator_at(law, (1,), 3.0)
    g = power_at(law, (0,), 2)
    assert f.inner(g) == pytest.approx(brute_inner(f, g), abs=1e-12)


def test_materialize_equality_examples():
    f = innovation_at(LAW, (0,))
    g = innovation_at(LAW, (-1,))
    assert f.equal(f)
    assert (f + g).equal(g + f)
    assert f.equal(indicator_at(LAW, (0,), 1.0) - indicator_at(LAW, (0,), -1.0))


def test_shift_is_isometry():
    rng = np.random.default_rng(17)
    for _ in range(5):
        f = random_functional(rng, LAW, 2, 3, 2, -1, 1)
        g = random_functional(rng, LAW, 2, 3, 2, -1, 1)
        i = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        assert f.shift(i).norm() == pytest.approx(f.norm(), abs=1e-12)
        assert f.shift(i).inner(g.shift(i)) == pytest.approx(f.inner(g), abs=1e-12)


def test_algebra_matches_pointwise_evaluation():
    rng = np.random.default_rng(23)
    f = random_functional(rng, LAW, 1, 3, 2, -1, 1)
    g = random_functional(rng, LAW, 1, 3, 2, -1, 1)
    sites = sorted(set(f.window) | set(g.window))
    for c in enumerate_configs(sites, LAW):
        assert (f + g).evaluate(c) == pytest.approx(f.evaluate(c) + g.evaluate(c), abs=1e-12)
        assert (f * g).evaluate(c) == pytest.approx(f.evaluate(c) * g.evaluate(c), abs=1e-12)
        assert (-2.5 * f).evaluate(c) == pytest.approx(-2.5 * f.evaluate(c), abs=1e-12)


def test_zero_functional_degenerate_cases():
    z = zero(LAW, 2)
    assert z.is_zero
    assert z.window == ()
    assert z.norm() == 0.0
    assert z.expectation() == 0.0
    assert z.shift((3, -1)).is_zero
    assert max_abs(z.materialize()) == 0.0
    assert z.deviation() == 0.0
    assert (z + innovation_at(LAW, (0, 0))).equal(innovation_at(LAW, (0, 0)))


def test_law_mismatch_rejected():
    other = InnovationLaw((0.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError, match="law"):
        innovation_at(LAW, (0,)) + innovation_at(other, (0,))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="[Dd]imension"):
        innovation_at(LAW, (0,)) + innovation_at(LAW, (0, 0))


def test_from_terms_round_trip():
    spec = [
        {"coeff": 1.0, "factors": [{"site": [0, 0]}]},
        {"coeff": -0.5, "factors": [{"site": [-1, 0], "kind": "indicator", "arg": 1.0}]},
        {"coeff": 2.0, "factors": [{"site": [0, -1], "kind": "power", "arg": 2}]},
    ]
    f = from_terms(LAW, 2, spec)
    direct = (
        innovation_at(LAW, (0, 0))
        - 0.5 * indicator_at(LAW, (-1, 0), 1.0)
        + 2.0 * power_at(LAW, (0, -1), 2)
    )
    assert f.equal(direct)


def test_factor_validation():
    with pytest.raises(ValueError):
        Factor((0,), "indicator")
    with pytest.raises(ValueError):
        Factor((0,), "power", -1)
    with pytest.raises(ValueError):
        Factor((0,), "mystery")
    with pytest.raises(ValueError):
        Factor((0,), "value", 1.0)
    with pytest.raises(ValueError):
        Factor((0,), "power")
    with pytest.raises(ValueError):
        Factor(("a",))
    with pytest.raises(ValueError):
        Factor((0,), "indicator", "one")
    with pytest.raises(TypeError):
        Factor(0)


def test_factor_is_a_coerced_tuple():
    f = Factor([1.0, -2], kind="indicator", arg=1)
    assert isinstance(f, tuple) and f == ((1, -2), "indicator", 1.0)
    assert (f.site, f.kind, f.arg) == tuple(f)
    assert type(f.arg) is float and all(type(c) is int for c in f.site)
    p = Factor((0,), "power", 2.0)
    assert p.arg == 2 and type(p.arg) is int
    assert Factor((0,)) == ((0,), "value", None)
    moved = p._moved((3,))
    assert type(moved) is Factor and moved == ((3,), "power", 2)
    with pytest.raises(AttributeError):
        f.site = (0, 0)


def test_value_table_comparison_across_windows():
    f = innovation_at(LAW, (0,)) + 0.0 * innovation_at(LAW, (5,))
    g = innovation_at(LAW, (0,)) + innovation_at(LAW, (-1,))
    dev = max_deviation(f.materialize(), g.materialize())
    assert dev == pytest.approx(1.0)  # the lagged term sticks out by one
    assert max_deviation(f.materialize(), f.materialize()) == 0.0


def test_materialize_respects_cap():
    from orthofield.innovation import CapExceededError

    f = constant(LAW, 1, 1.0)
    for k in range(30):
        f = f * innovation_at(LAW, (-k,))
    with pytest.raises(CapExceededError):
        f.materialize()
    with pytest.raises(CapExceededError):
        f.deviation(2.0 * f)
    # norms stay exact without enumeration
    assert f.norm() == pytest.approx(1.0)
