"""The exact projection algebra against the enumeration oracle, on random inputs.

Every functional is evaluated (``evaluate``) on every weighted configuration
of its sites (``enumerate_configs``); a conditional expectation is then the
weighted mean over the configurations that agree on the kept sites.  Laws
have 2-6 atoms, dimensions run from 1 to 3 and a window holds at most 4096
configurations.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orthofield.functional import INDICATOR, POWER, VALUE, Factor, FiniteRangeFunctional
from orthofield.innovation import InnovationLaw, enumerate_configs
from orthofield.lattice import leq
from orthofield.projection import Corner, Halfspace, cond_expect, kernel_shift_candidates
from orthofield.projection import project_full

MAX_CONFIGS = 4096
COORDS = (-1, 0, 1)
PROPERTY = settings(max_examples=40, deadline=None)


# -- strategies ----------------------------------------------------------------


@st.composite
def laws(draw):
    k = draw(st.integers(2, 6))
    values = draw(st.permutations((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)))[:k]
    weights = draw(st.lists(st.integers(1, 20), min_size=k, max_size=k))
    probs = [w / sum(weights) for w in weights[:-1]]
    return InnovationLaw(tuple(values), (*probs, 1.0 - sum(probs)))


@st.composite
def setups(draw):
    """A law, a dimension and a sorted site list with at most ``MAX_CONFIGS`` configurations."""
    law = draw(laws())
    dim = draw(st.integers(1, 3))
    most = 1
    while law.size ** (most + 1) <= MAX_CONFIGS:
        most += 1
    box = list(itertools.product(COORDS, repeat=dim))
    n = draw(st.integers(1, min(most, len(box))))
    sites = draw(st.lists(st.sampled_from(box), min_size=n, max_size=n, unique=True))
    return law, dim, tuple(sorted(sites))


@st.composite
def functionals(draw, law, dim, sites):
    """1-4 product terms of 1-3 factors, each reading one of ``sites``."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            site = draw(st.sampled_from(sites))
            kind = draw(st.sampled_from((VALUE, INDICATOR, POWER)))
            if kind == VALUE:
                factors.append(Factor(site))
            elif kind == INDICATOR:
                factors.append(Factor(site, INDICATOR, draw(st.sampled_from(law.values))))
            else:
                factors.append(Factor(site, POWER, draw(st.integers(0, 3))))
        terms.append((draw(st.sampled_from((-1.5, -1.0, 0.25, 0.5, 2.0))), factors))
    return FiniteRangeFunctional.from_items(law, dim, terms)


# -- the oracle ------------------------------------------------------------------


def enumerated(sites, law, *fs):
    """The configuration weights and each functional's values, one axis per site."""
    configs = list(enumerate_configs(sites, law))
    shape = (law.size,) * len(sites)
    weights = np.array([c.weight for c in configs]).reshape(shape)
    return weights, [np.array([f.evaluate(c) for c in configs]).reshape(shape) for f in fs]


def conditioned(values, weights, sites, keep):
    """``E[values | the sites keep accepts]`` on every configuration."""
    dropped = tuple(a for a, s in enumerate(sites) if not keep(s))
    num = (weights * values).sum(axis=dropped, keepdims=True)
    return np.broadcast_to(num / weights.sum(axis=dropped, keepdims=True), values.shape)


def projected(values, weights, sites, j):
    """``P_j``: the inclusion-exclusion of the corner expectations at ``j - mask``."""
    out = np.zeros(values.shape)
    for mask in itertools.product((0, 1), repeat=len(j)):
        corner = tuple(c - b for c, b in zip(j, mask))
        out += (-1) ** sum(mask) * conditioned(values, weights, sites, lambda s: leq(s, corner))
    return out


def assert_close(got, expected, scale):
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9 * (1.0 + scale))


# -- properties --------------------------------------------------------------------


@PROPERTY
@given(data=st.data())
def test_cond_expect_matches_enumeration(data):
    law, dim, sites = data.draw(setups())
    f = data.draw(functionals(law, dim, sites))
    corner = tuple(data.draw(st.integers(-2, 1)) for _ in range(dim))
    axis, level = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(-2, 1))
    by_corner = cond_expect(f, Corner(corner))
    by_half = cond_expect(f, Halfspace(axis, level))
    weights, (values, got_corner, got_half) = enumerated(sites, law, f, by_corner, by_half)
    scale = float(np.abs(values).max())
    assert_close(got_corner, conditioned(values, weights, sites, lambda s: leq(s, corner)), scale)
    assert_close(got_half, conditioned(values, weights, sites, lambda s: s[axis] <= level), scale)


@PROPERTY
@given(data=st.data())
def test_inner_matches_enumeration(data):
    law, dim, sites = data.draw(setups())
    f = data.draw(functionals(law, dim, sites))
    g = data.draw(functionals(law, dim, sites))
    weights, (fv, gv) = enumerated(sites, law, f, g)
    expected = float((weights * fv * gv).sum())
    assert abs(f.inner(g) - expected) <= 1e-9 * (1.0 + float((weights * np.abs(fv * gv)).sum()))


@PROPERTY
@given(data=st.data())
def test_project_full_matches_enumeration(data):
    law, dim, sites = data.draw(setups())
    f = data.draw(functionals(law, dim, sites))
    j = tuple(data.draw(st.sampled_from(COORDS)) for _ in range(dim))
    weights, (values, got) = enumerated(sites, law, f, project_full(f, j))
    assert_close(got, projected(values, weights, sites, j), float(np.abs(values).max()))


@PROPERTY
@given(data=st.data())
def test_every_shift_left_out_of_the_candidates_projects_to_zero(data):
    law, dim, sites = data.draw(setups())
    f = data.draw(functionals(law, dim, sites))
    candidates = set(kernel_shift_candidates(f))
    weights, (values,) = enumerated(sites, law, f)
    scale = float(np.abs(values).max())
    origin = (0,) * dim
    # f.shift(i) reads site s + i wherever f reads s, so on the shifted sites
    # its values are f's values.  Beyond this box both conditionings along some
    # axis keep the same sites, so P_0 is zero there by construction.
    for t in itertools.product(range(-2, 3), repeat=dim):
        i = tuple(-c for c in t)
        if i not in candidates:
            shifted = [tuple(a + b for a, b in zip(s, i)) for s in sites]
            p0 = projected(values, weights, shifted, origin)
            assert_close(p0, np.zeros(values.shape), scale)
