"""The dependence profiles and ``inner`` skip exact zeros without changing a bit.

Each test keeps the unpruned computation as a reference and requires the
package to be ``==`` to it on random 2-6-atom laws in d = 1-3.  Half of the
laws are symmetric, so value reads and odd powers have a mean of exactly
``0.0`` and the Maxwell-Woodroofe skip is exercised.
"""

import itertools
from math import prod, sqrt

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthofield.dependence import maxwell_woodroofe_profile, physical_dependence
from orthofield.functional import (
    INDICATOR,
    POWER,
    VALUE,
    Factor,
    FiniteRangeFunctional,
    _merge_terms,
    constant,
)
from orthofield.innovation import InnovationLaw
from orthofield.projection import Corner, cond_expect
from orthofield.tolerances import TERM_DROP

# -- strategies ----------------------------------------------------------------


@st.composite
def laws(draw):
    k = draw(st.integers(2, 6))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    if draw(st.booleans()):
        # Symmetric: paired points +-a with equal probabilities, plus 0 when k is odd.
        points = draw(
            st.lists(
                st.floats(0.125, 3.0, allow_nan=False, width=32),
                min_size=k // 2,
                max_size=k // 2,
                unique=True,
            )
        )
        values = [v for a in points for v in (-a, a)] + [0.0] * (k % 2)
        weights = [w for w in weights[: k // 2] for _ in (0, 1)] + weights[k // 2 : k // 2 + k % 2]
    else:
        values = draw(
            st.lists(
                st.floats(-3.0, 3.0, allow_nan=False, width=32), min_size=k, max_size=k, unique=True
            )
        )
    total = sum(weights)
    return InnovationLaw(tuple(values), tuple(w / total for w in weights))


@st.composite
def factors(draw, law, dim):
    site = tuple(draw(st.integers(-2, 0)) for _ in range(dim))
    kind = draw(st.sampled_from((VALUE, INDICATOR, POWER)))
    if kind == VALUE:
        return Factor(site)
    if kind == INDICATOR:
        return Factor(site, INDICATOR, draw(st.sampled_from(law.values)))
    return Factor(site, POWER, draw(st.integers(0, 3)))


def functionals(law, dim):
    term = st.tuples(
        st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: c != 0.0),
        st.lists(factors(law, dim), min_size=1, max_size=3).map(tuple),
    )
    return st.lists(term, min_size=1, max_size=5).map(
        lambda terms: FiniteRangeFunctional(law, dim, _merge_terms(terms))
    )


@st.composite
def centered_functionals(draw):
    law = draw(laws())
    dim = draw(st.integers(1, 3))
    f = draw(functionals(law, dim))
    return f - constant(law, dim, f.expectation())


@st.composite
def functional_pairs(draw):
    law = draw(laws())
    dim = draw(st.integers(1, 3))
    return draw(functionals(law, dim)), draw(functionals(law, dim))


# -- unpruned references ----------------------------------------------------------


def reference_physical_dependence(f):
    """Relocate the site in every term and take the whole difference."""
    if f.is_zero:
        return {}
    drop = TERM_DROP * (1.0 + f.norm())
    spare = max(s[0] for s in f.window) + 1
    out = {}
    for site in f.window:
        star = (spare,) + site[1:]
        relocated = FiniteRangeFunctional.from_items(
            f.law,
            f.dim,
            (
                (c, [Factor(star, x.kind, x.arg) if x.site == site else x for x in fs])
                for c, fs in f.terms
            ),
        )
        value = (f - relocated).norm()
        if value > drop:
            out[site] = value
    return out


def reference_maxwell_woodroofe(f):
    """Shift the whole functional and condition it at every admissible index."""
    if f.is_zero:
        return {}
    drop = TERM_DROP * (1.0 + f.norm())
    window = f.window
    kmax = [max((-s[axis] for s in window), default=0) for axis in range(f.dim)]
    if any(k < 1 for k in kmax):
        return {}
    origin = Corner((0,) * f.dim)
    out = {}
    for k in itertools.product(*(range(1, m + 1) for m in kmax)):
        if not any(all(kq <= -sq for kq, sq in zip(k, s)) for s in window):
            continue
        value = cond_expect(f.shift(k), origin).norm()
        if value > drop:
            out[k] = value / sqrt(prod(k))
    return out


def _read(law, factor):
    """One factor at every alphabet point."""
    base = np.asarray(law.values, dtype=np.float64)
    if factor.kind == VALUE:
        return base
    if factor.kind == INDICATOR:
        return (base == factor.arg).astype(np.float64)
    return base**factor.arg


def _site_reads(f):
    """Per term: coefficient and ``{site: product of the factor reads there}``."""
    out = []
    for c, fs in f.terms:
        vecs = {}
        for x in fs:
            v = _read(f.law, x)
            vecs[x.site] = vecs[x.site] * v if x.site in vecs else v
        out.append((c, vecs))
    return out


def reference_inner(f, g):
    """Every per-site moment recomputed for every pair of terms."""
    probs = np.asarray(f.law.probs, dtype=np.float64)
    reads_g = _site_reads(g)
    total = 0.0
    for c1, vecs1 in _site_reads(f):
        for c2, vecs2 in reads_g:
            val = c1 * c2
            for site, v1 in vecs1.items():
                v2 = vecs2.get(site)
                val *= float(probs @ (v1 * v2 if v2 is not None else v1))
            for site, v2 in vecs2.items():
                if site not in vecs1:
                    val *= float(probs @ v2)
            if val == 0.0:
                continue
            total += val
    return total


# -- properties --------------------------------------------------------------------

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(f=centered_functionals())
def test_physical_dependence_matches_the_unpruned_reference(f):
    assert list(physical_dependence(f).items()) == list(reference_physical_dependence(f).items())


@SETTINGS
@given(f=centered_functionals())
def test_maxwell_woodroofe_matches_the_unpruned_reference(f):
    got = maxwell_woodroofe_profile(f)
    assert list(got.items()) == list(reference_maxwell_woodroofe(f).items())


@SETTINGS
@given(pair=functional_pairs())
def test_inner_matches_the_per_pair_reference(pair):
    f, g = pair
    assert f.inner(g) == reference_inner(f, g)
    assert f.inner(f) == reference_inner(f, f)
