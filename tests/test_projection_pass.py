"""Guards for the shared origin-projection pass behind ``describe``.

The pinned SHA-256 values are the ``describe`` and ``decompose`` report bytes
of small configurations on a non-dyadic law, where any reordering of a float
operation shows up in the last bits.  The property tests rebuild the Hannan
profile, the kernel sum and the shift the direct way -- one projection per
shift of the full product of negated window coordinates, ``out = out + p``
and fresh ``Factor`` objects -- and compare the package's results with them.

The package projects only the live shifts (``kernel_shift_candidates``).  At
every other shift the projection is zero as a function, but the full path can
leave a rounding residue there: the Hannan profile drops it, the kernel sum of
the full path carries it.  So the Hannan profile equals the full reference,
the kernel sum equals the reference summed over the live shifts, and every
pruned shift's full projection is below the Hannan drop threshold.
"""

import hashlib
import itertools
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from orthofield import coboundary, dependence, functional, projection
from orthofield.cli import main, resolve_config
from orthofield.dependence import hannan_profile
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
from orthofield.projection import Corner, kernel_shift_candidates, kernel_sum, project_full
from orthofield.tolerances import TERM_DROP

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

# (x_1,0,-1 - m1)(1{x_-1,1,0 = 0.5} - p) + 0.25 (x_0,-1,1^2 - m2)(x_1,1,-1 - m1),
# expanded: banded at order 2 with all eight coboundary components nonzero.
NON_DYADIC_3D = [
    _term(1.0, _value([1, 0, -1]), _indicator([-1, 1, 0], 0.5)),
    _term(-P_HALF, _value([1, 0, -1])),
    _term(-M1, _indicator([-1, 1, 0], 0.5)),
    _term(M1 * P_HALF),
    _term(0.25, _power([0, -1, 1], 2), _value([1, 1, -1])),
    _term(-0.25 * M1, _power([0, -1, 1], 2)),
    _term(-0.25 * M2, _value([1, 1, -1])),
    _term(0.25 * M2 * M1),
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
    "non_dyadic_3d": (
        {
            "dimension": 3,
            "law": NON_DYADIC_LAW,
            "order": 2,
            "functional": {"terms": NON_DYADIC_3D},
        },
        {
            "describe": "489f505eb1a736624bb26cc6afc27756f3bbe7f1233956d96718081a10c31620",
            "decompose": "fc6b1a30d4e08b7bafa6183cd847f6de08f90c49ce78714f75445ee36abfd50a",
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


def count_line_projections(monkeypatch, module):
    """Record ``(axis, level)`` of every nonzero ``project_line`` call made through ``module``.

    A level outside the window returns zero at once, unmerged, so it is not counted.
    """
    lines = []
    line = module.project_line

    def counting(g, axis, level):
        if level in g.axis_coords(axis):
            lines.append((axis, level))
        return line(g, axis, level)

    monkeypatch.setattr(module, "project_line", counting)
    return lines


def test_describe_projects_each_candidate_once(tmp_path, monkeypatch):
    # ``f`` is projected at every negated candidate in one pass that shares
    # axis prefixes, and each result is shifted: 5 line projections serve the
    # 4 candidates.
    lines = count_line_projections(monkeypatch, projection)
    doc, _ = PINNED_REPORTS["mixed_kinds_2d"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    f = resolve_config(doc).functional
    assert len(kernel_shift_candidates(f)) == 4
    assert len(lines) == 5


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


def full_candidates(f):
    """Every shift whose window meets all coordinate hyperplanes through the origin."""
    axes = [tuple(-c for c in f.axis_coords(axis)) for axis in range(f.dim)]
    return list(itertools.product(*axes))


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


def reference_projections(f, shifts):
    origin = (0,) * f.dim
    return [(i, project_full(reference_shift(f, i), origin)) for i in shifts]


def reference_hannan(f):
    drop = TERM_DROP * (1.0 + f.norm())
    out = {}
    for i, p in reference_projections(f, full_candidates(f)):
        value = p.norm()
        if value > drop:
            out[i] = value
    return out


def reference_kernel_sum(f, shifts):
    out = zero(f.law, f.dim)
    for _, p in reference_projections(f, shifts):
        out = out + p
    return out


def check_projection_pass(f):
    live = kernel_shift_candidates(f)
    full = full_candidates(f)
    assert live == [i for i in full if i in set(live)]  # a subset, in product order
    assert list(hannan_profile(f).items()) == list(reference_hannan(f).items())
    assert kernel_sum(f).terms == reference_kernel_sum(f, live).terms
    drop = TERM_DROP * (1.0 + f.norm())
    pruned = [i for i in full if i not in set(live)]
    for i, p in reference_projections(f, pruned):
        assert p.norm() <= drop, i


# A non-dyadic law on which the full path leaves a 3.47e-18 constant at the
# pruned shift (0, 0, 1); added into the kernel sum it moves the last bit of
# d0's constant term, so the kernel equals the live-shift sum, not the full one.
RESIDUE_LAW = InnovationLaw((0.0, 0.0546875), (2.0 / 3.0, 1.0 / 3.0))
RESIDUE_F = FiniteRangeFunctional(
    RESIDUE_LAW,
    3,
    _merge_terms(
        [
            (-0.02126736111111111, ()),
            (1.75, (Factor((0, -1, -1), INDICATOR, 0.0), Factor((0, 0, 0)))),
        ]
    ),
)


def test_pruned_shift_residue_is_kept_out_of_the_kernel():
    f = RESIDUE_F
    assert kernel_shift_candidates(f) == [(0, 1, 1), (0, 0, 0)]
    assert full_candidates(f) == [(0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    [(_, residue)] = reference_projections(f, [(0, 0, 1)])
    assert 0.0 < residue.norm() <= TERM_DROP * (1.0 + f.norm())
    full_sum = reference_kernel_sum(f, full_candidates(f))
    assert kernel_sum(f).terms != full_sum.terms
    assert kernel_sum(f).deviation(full_sum) <= 1e-17
    check_projection_pass(f)


# -- properties --------------------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f=centered_functionals(), data=st.data())
@example(f=RESIDUE_F, data=None)
def test_projection_pass_matches_per_candidate_reference(f, data):
    check_projection_pass(f)
    if data is None:
        return
    i = tuple(data.draw(st.integers(-3, 3)) for _ in range(f.dim))
    assert f.shift(i).terms == reference_shift(f, i).terms


def test_describe_projects_only_the_live_shifts(tmp_path, monkeypatch):
    doc = {"dimension": 3, "functional": "counterexample:5"}
    f = resolve_config(doc).functional
    lines = count_line_projections(monkeypatch, projection)
    corners = []

    cond_expect = dependence.cond_expect

    def counting_cond(g, cond):
        if isinstance(cond, Corner):
            corners.append(cond)
        return cond_expect(g, cond)

    monkeypatch.setattr(dependence, "cond_expect", counting_cond)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(full_candidates(f)) == 1331
    # The 11 live candidates, projected with shared prefixes: 13 line projections.
    assert len(kernel_shift_candidates(f)) == 11
    assert len(lines) == 13
    # Every Maxwell-Woodroofe index integrates out the origin read x_k, whose
    # Rademacher mean is exactly 0.0: no conditional expectation is built.
    # Without the zero-mean skip each of the 1000 indices would build one.
    kmax = [max(-s[axis] for s in f.window) for axis in range(f.dim)]
    indices = [
        k
        for k in itertools.product(*(range(1, m + 1) for m in kmax))
        if any(all(kq <= -sq for kq, sq in zip(k, s)) for s in f.window)
    ]
    assert len(indices) == 1000
    assert corners == []


# Canonicalizations in one decompose of mixed_kinds_2d at order 2.  The
# per-step code made one merge per +, -, negation, shift and conditional
# expectation: 124 merges (_merge_terms) for the same call.  Both operators on
# a prefix read one line projection per window level, shifted.
DECOMPOSE_CANONICALIZATIONS = 32


def test_decompose_canonicalizes_once_per_operator(monkeypatch):
    doc, _ = PINNED_REPORTS["mixed_kinds_2d"]
    f = resolve_config(doc).functional
    calls = []
    canonical = functional._canonical

    def counting_canonical(acc):
        calls.append(len(acc))
        return canonical(acc)

    monkeypatch.setattr(functional, "_canonical", counting_canonical)
    lines = count_line_projections(monkeypatch, coboundary)
    # One canonicalization per nonzero line projection plus one for the sum.
    for op in (coboundary.martingale_op, coboundary.transfer_op):
        for axis in range(f.dim):
            calls.clear()
            lines.clear()
            op(f, axis)
            assert len(calls) == len(lines) + 1, (op.__name__, axis)
    calls.clear()
    coboundary.decompose(f, 2)
    assert len(calls) == DECOMPOSE_CANONICALIZATIONS
