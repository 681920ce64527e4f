"""Guards for the shared origin-projection pass behind ``describe``.

The pinned SHA-256 values are the ``describe`` and ``decompose`` report bytes
of small configurations on a non-dyadic law, where any reordering of a float
operation shows up in the last bits.  The property tests rebuild the Hannan
profile, the kernel sum and the shift the direct way -- one projection per
candidate, ``out = out + p`` and fresh ``Factor`` objects -- and require the
package's results to be equal to them, term by term.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthofield import dependence, projection
from orthofield.cli import main, resolve_config
from orthofield.dependence import _TERM_DROP, hannan_profile
from orthofield.functional import (
    INDICATOR,
    POWER,
    VALUE,
    Factor,
    FiniteRangeFunctional,
    _merge_terms,
    constant,
    zero,
)
from orthofield.innovation import InnovationLaw
from orthofield.projection import kernel_shift_candidates, kernel_sum, project_full

# A three-atom law whose probabilities and points are not dyadic: sums and
# products of its moments round, so a changed operation order changes bits.
NON_DYADIC_LAW = {"values": [-1.0, 0.5, 2.0], "probs": [0.2, 0.3, 0.5]}
M1 = 0.95  # E[x]
M2 = 2.275  # E[x^2]
P_TWO = 0.5  # P(x = 2)
P_HALF = 0.3  # P(x = 0.5)


def _value(site):
    return {"site": site}


def _indicator(site, target):
    return {"site": site, "kind": "indicator", "arg": target}


def _power(site, exponent):
    return {"site": site, "kind": "power", "arg": exponent}


def _term(coeff, *factors):
    return {"coeff": coeff, "factors": list(factors)}


# (x_0 - m1)(1{x_-1 = 2} - p) + 0.5 (x_-1^2 - m2)(x_-2 - m1), expanded.
NON_DYADIC_1D = [
    _term(1.0, _value([0]), _indicator([-1], 2.0)),
    _term(-P_TWO, _value([0])),
    _term(-M1, _indicator([-1], 2.0)),
    _term(M1 * P_TWO),
    _term(0.5, _power([-1], 2), _value([-2])),
    _term(-0.5 * M1, _power([-1], 2)),
    _term(-0.5 * M2, _value([-2])),
    _term(0.5 * M2 * M1),
]

# (x_00 - m1)(1{x_-1,0 = 0.5} - p) + 0.25 (x_0,-1^2 - m2)(x_-1,-1 - m1) + x_-1,0 - m1.
MIXED_2D = [
    _term(1.0, _value([0, 0]), _indicator([-1, 0], 0.5)),
    _term(-P_HALF, _value([0, 0])),
    _term(-M1, _indicator([-1, 0], 0.5)),
    _term(M1 * P_HALF),
    _term(0.25, _power([0, -1], 2), _value([-1, -1])),
    _term(-0.25 * M1, _power([0, -1], 2)),
    _term(-0.25 * M2, _value([-1, -1])),
    _term(0.25 * M2 * M1),
    _term(1.0, _value([-1, 0])),
    _term(-M1),
]

PINNED_REPORTS = {
    "non_dyadic_1d": (
        {"dimension": 1, "law": NON_DYADIC_LAW, "functional": {"terms": NON_DYADIC_1D}},
        {
            "describe": "c2ae6c8f917623cb1d71b0492f2b148ae169649e0ccba3dfd321907fb304677a",
            "decompose": "910db9f39d3298356b577dac72b87b1c3607b482cd92bbf0b32cd32c00230c2a",
        },
    ),
    "mixed_kinds_2d": (
        {"dimension": 2, "law": NON_DYADIC_LAW, "functional": {"terms": MIXED_2D}},
        {
            "describe": "112fee46d5b90e2c573e8a294c592a81111147f3dadec8e8b4faac92ed2c40f0",
            "decompose": "9ca24fbf3221534eca29531589f71f3428867fa6ddc8f3701ca101201c2ad71a",
        },
    ),
}


@pytest.mark.parametrize("command", ["describe", "decompose"])
@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_exact_report_bytes_are_pinned(tmp_path, name, command):
    doc, digests = PINNED_REPORTS[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == digests[command]


def test_describe_projects_each_candidate_once(tmp_path, monkeypatch):
    calls = []

    def counting(f, j):
        calls.append(j)
        return project_full(f, j)

    for module in (projection, dependence):
        if hasattr(module, "project_full"):
            monkeypatch.setattr(module, "project_full", counting)
    doc, _ = PINNED_REPORTS["mixed_kinds_2d"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    f = resolve_config(doc).functional
    assert len(calls) == len(list(kernel_shift_candidates(f))) == 4


# -- strategies ----------------------------------------------------------------


@st.composite
def laws(draw):
    k = draw(st.integers(2, 6))
    values = draw(
        st.lists(
            st.floats(-3.0, 3.0, allow_nan=False, width=32), min_size=k, max_size=k, unique=True
        )
    )
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    probs = [w / total for w in weights]
    return InnovationLaw(tuple(values), tuple(probs))


@st.composite
def factors(draw, law, dim):
    site = tuple(draw(st.integers(-2, 0)) for _ in range(dim))
    kind = draw(st.sampled_from((VALUE, INDICATOR, POWER)))
    if kind == VALUE:
        return Factor(site)
    if kind == INDICATOR:
        return Factor(site, INDICATOR, draw(st.sampled_from(law.values)))
    return Factor(site, POWER, draw(st.integers(0, 3)))


@st.composite
def centered_functionals(draw):
    law = draw(laws())
    dim = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: c != 0.0))
        terms.append((coeff, tuple(draw(st.lists(factors(law, dim), min_size=1, max_size=3)))))
    f = FiniteRangeFunctional(law, dim, _merge_terms(terms))
    return f - constant(law, dim, f.expectation())


# -- reference -------------------------------------------------------------------


def reference_shift(f, i):
    """The shift rebuilt from fresh ``Factor`` objects and one merge."""
    return FiniteRangeFunctional(
        f.law,
        f.dim,
        _merge_terms(
            (c, [Factor(tuple(a + b for a, b in zip(fac.site, i)), fac.kind, fac.arg) for fac in fs])
            for c, fs in f.terms
        ),
    )


def reference_projections(f):
    origin = (0,) * f.dim
    return [(i, project_full(reference_shift(f, i), origin)) for i in kernel_shift_candidates(f)]


def reference_hannan(f):
    drop = _TERM_DROP * (1.0 + f.norm())
    out = {}
    for i, p in reference_projections(f):
        value = p.norm()
        if value > drop:
            out[i] = value
    return out


def reference_kernel_sum(f):
    out = zero(f.law, f.dim)
    for _, p in reference_projections(f):
        out = out + p
    return out


# -- properties --------------------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f=centered_functionals(), data=st.data())
def test_projection_pass_matches_per_candidate_reference(f, data):
    assert list(hannan_profile(f).items()) == list(reference_hannan(f).items())
    assert kernel_sum(f).terms == reference_kernel_sum(f).terms
    i = tuple(data.draw(st.integers(-3, 3)) for _ in range(f.dim))
    assert f.shift(i).terms == reference_shift(f, i).terms
