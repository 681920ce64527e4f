"""One merge per operator: the fused operators equal their per-step folds, bit for bit.

The package canonicalizes each operator's result once: ``shift`` relabels,
``project_line`` and ``center`` difference two accumulated integrations,
``signed_sum`` adds a whole fold in one dict and ``decompose`` builds each
shared prefix of operators once.  The reference below is the per-step code those replaced:
every ``+``, ``-``, negation, shift and conditional expectation re-sorts all
factors and terms.  Every check compares ``terms`` tuples with ``==`` on
random 2-6-atom non-dyadic laws in d = 1-3.
"""

import hashlib
import itertools
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthofield import coboundary, projection
from orthofield.cli import main
from orthofield.coboundary import (
    center,
    decompose,
    martingale_op,
    reconstruct_sum,
    transfer_op,
)
from orthofield.functional import (
    INDICATOR,
    POWER,
    VALUE,
    Factor,
    FiniteRangeFunctional,
    _merge_terms,
    constant,
    signed_sum,
    zero,
)
from orthofield.innovation import InnovationLaw
from orthofield.lattice import unit
from orthofield.projection import (
    Corner,
    Halfspace,
    cond_expect,
    kernel_shift_candidates,
    project_each,
    project_full,
    project_line,
    projection_identity_report,
    projective_decomposition,
)
from orthofield.suites import coboundary_suite, completeness_suite, kernel_suite, projection_suite

# -- the per-step reference ---------------------------------------------------------


def factor_key(f):
    """The explicit factor order: site, then kind, then the argument as a float (-inf for none)."""
    return (f.site, f.kind, float(f.arg) if f.arg is not None else float("-inf"))


def step_merge(items):
    """Sort every factor list, add equal products from 0.0, drop exact zeros, sort the terms."""
    acc = {}
    for coeff, factors in items:
        key = tuple(sorted(factors, key=factor_key))
        acc[key] = acc.get(key, 0.0) + float(coeff)
    merged = [(c, fs) for fs, c in acc.items() if c != 0.0]
    merged.sort(key=lambda t: tuple(factor_key(f) for f in t[1]))
    return tuple(merged)


def like(f, items):
    return FiniteRangeFunctional(f.law, f.dim, step_merge(items))


def step_add(f, g):
    return like(f, itertools.chain(f.terms, g.terms))


def step_neg(g):
    return like(g, ((-c, fs) for c, fs in g.terms))


def step_sub(f, g):
    return step_add(f, step_neg(g))


def step_shift(f, i):
    return like(
        f,
        (
            (c, [Factor(tuple(a + b for a, b in zip(x.site, i)), x.kind, x.arg) for x in fs])
            for c, fs in f.terms
        ),
    )


def step_integrate(f, keep):
    """Multiply each dropped site's mean in once, in sorted site order."""
    items = []
    for (coeff, factors), (_, _, means) in zip(f.terms, f._term_data):
        c = coeff
        kept = [x for x in factors if keep(x.site)]
        for site in sorted({x.site for x in factors if not keep(x.site)}):
            c *= means[site]
        items.append((c, kept))
    return like(f, items)


def step_cond(f, axis, level):
    return step_integrate(f, lambda s: s[axis] <= level)


def step_project_line(f, axis, level):
    if level not in sorted({s[axis] for s in f.window}):
        return zero(f.law, f.dim)
    return step_sub(step_cond(f, axis, level), step_cond(f, axis, level - 1))


def step_project_full(f, j):
    out = f
    for axis in range(f.dim):
        out = step_project_line(out, axis, j[axis])
        if out.is_zero:
            return out
    return out


def step_martingale_op(f, axis):
    e = unit(f.dim, axis)
    out = zero(f.law, f.dim)
    for c in f.axis_coords(axis):
        out = step_add(out, step_project_line(step_shift(f, [-c * x for x in e]), axis, 0))
    return out


def step_transfer_op(f, axis):
    coords = f.axis_coords(axis)
    if not coords:
        return zero(f.law, f.dim)
    e = unit(f.dim, axis)
    w_lo, w_hi = coords[0], coords[-1]
    out = zero(f.law, f.dim)
    for level in range(0, w_hi):
        for c in coords:
            k = level - c
            if k <= -1:
                g = step_project_line(step_shift(f, [k * x for x in e]), axis, level)
                out = step_sub(out, g)
    for level in range(w_lo, 0):
        for c in coords:
            k = level - c
            if k >= 0:
                g = step_project_line(step_shift(f, [k * x for x in e]), axis, level)
                out = step_add(out, g)
    return out


def step_components(f):
    components = {}
    for mask in range(1 << f.dim):
        h = f
        for axis in range(f.dim):
            h = step_martingale_op(h, axis) if mask >> axis & 1 else step_transfer_op(h, axis)
        components[mask] = h
    return components


def step_reconstruct_sum(components, dim):
    total = zero(components[0].law, dim)
    for mask in range(1 << dim):
        g = components[mask]
        for axis in range(dim):
            if not mask >> axis & 1:
                g = step_sub(g, step_shift(g, unit(dim, axis)))
        total = step_add(total, g)
    return total


def step_center(g, m):
    out = g
    for axis in range(g.dim):
        out = step_sub(out, step_cond(out, axis, -m))
    return out


def step_identity_report(f, g, idx):
    """The identity report with every projection built on its own, per pair."""
    proj_f = {i: step_project_full(f, i) for i in idx}
    proj_g = {i: step_project_full(g, i) for i in idx}
    commutation = 0.0
    for i, j in itertools.combinations(idx, 2):
        for q1, q2 in itertools.combinations(range(f.dim), 2):
            a = step_project_line(step_project_line(f, q1, i[q1]), q2, j[q2])
            b = step_project_line(step_project_line(f, q2, j[q2]), q1, i[q1])
            commutation = max(commutation, a.deviation(b))
    orthogonality = annihilation = 0.0
    for i, j in itertools.permutations(idx, 2):
        orthogonality = max(orthogonality, abs(proj_f[i].inner(proj_g[j])))
        annihilation = max(annihilation, step_project_full(proj_f[j], i).deviation())
    idempotence = 0.0
    for i in idx:
        idempotence = max(idempotence, step_project_full(proj_f[i], i).deviation(proj_f[i]))
    return commutation, orthogonality, annihilation, idempotence


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
    return InnovationLaw(tuple(values), tuple(w / total for w in weights))


@st.composite
def factors(draw, law, dim, lo, hi):
    site = tuple(draw(st.integers(lo, hi)) for _ in range(dim))
    kind = draw(st.sampled_from((VALUE, INDICATOR, POWER)))
    if kind == VALUE:
        return Factor(site)
    if kind == INDICATOR:
        return Factor(site, INDICATOR, draw(st.sampled_from(law.values)))
    return Factor(site, POWER, draw(st.integers(0, 3)))


@st.composite
def functionals(draw, law, dim, lo=-2, hi=1, max_terms=4):
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        coeff = draw(st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: c != 0.0))
        fs = draw(st.lists(factors(law, dim, lo, hi), min_size=0, max_size=3))
        terms.append((coeff, fs))
    return FiniteRangeFunctional(law, dim, _merge_terms(terms))


@st.composite
def any_functional(draw, lo=-2, hi=1):
    law = draw(laws())
    dim = draw(st.integers(1, 3))
    return draw(functionals(law, dim, lo, hi))


@st.composite
def banded(draw):
    """A functional centered into the order-2 band (the input ``decompose`` takes)."""
    law = draw(laws())
    dim = draw(st.integers(1, 3))
    return center(draw(functionals(law, dim, -2, 2, max_terms=3)), 2)


SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# -- properties --------------------------------------------------------------------


@st.composite
def any_factor(draw):
    """A factor in d = 1-2 on a small window, with signed-zero targets and powers 0-3."""
    site = tuple(draw(st.integers(-1, 1)) for _ in range(draw(st.integers(1, 2))))
    kind = draw(st.sampled_from((VALUE, INDICATOR, POWER)))
    if kind == VALUE:
        return Factor(site)
    if kind == INDICATOR:
        return Factor(site, INDICATOR, draw(st.sampled_from((-0.0, 0.0, -1.5, 0.5, 2.0))))
    return Factor(site, POWER, draw(st.integers(0, 3)))


@SETTINGS
@given(fs=st.lists(any_factor(), min_size=0, max_size=8).flatmap(
    lambda fs: st.permutations(fs + fs[: len(fs) // 2])
))
def test_factor_tuple_order_is_the_explicit_key_order(fs):
    # Factors are tuples, so plain comparison must order them exactly as factor_key
    # does, ties (repeats, and the targets -0.0 and 0.0) included.
    assert all(isinstance(f, tuple) for f in fs)
    for a in fs:
        for b in fs:
            assert (a < b) == (factor_key(a) < factor_key(b))
            assert (a == b) == (factor_key(a) == factor_key(b))
    assert sorted(fs) == sorted(fs, key=factor_key)
    assert [factor_key(f) for f in sorted(fs)] == sorted(map(factor_key, fs))


@SETTINGS
@given(data=st.data())
def test_signed_sum_is_the_left_fold(data):
    law = data.draw(laws())
    dim = data.draw(st.integers(1, 3))
    gs = data.draw(st.lists(functionals(law, dim), min_size=0, max_size=5))
    signs = [data.draw(st.sampled_from((1, -1))) for _ in gs]
    out = zero(law, dim)
    for sign, g in zip(signs, gs):
        out = step_add(out, g) if sign > 0 else step_sub(out, g)
    assert signed_sum(law, dim, zip(signs, gs)).terms == out.terms
    if len(gs) >= 2:
        assert (gs[0] + gs[1]).terms == step_add(gs[0], gs[1]).terms
        assert (gs[0] - gs[1]).terms == step_sub(gs[0], gs[1]).terms
        assert (-gs[0]).terms == step_neg(gs[0]).terms
        assert (gs[0] - gs[0]).terms == ()


@SETTINGS
@given(f=any_functional(), data=st.data())
def test_shift_is_a_relabel_of_the_merged_terms(f, data):
    i = tuple(data.draw(st.integers(-3, 3)) for _ in range(f.dim))
    assert f.shift(i).terms == step_shift(f, i).terms


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f=any_functional(), data=st.data())
def test_projections_commute_with_shifts_bit_for_bit(f, data):
    """Projecting ``f.shift(k)`` at ``j + k`` is projecting ``f`` at ``j``, shifted, bit for bit."""
    k = tuple(data.draw(st.integers(-3, 3)) for _ in range(f.dim))
    j = tuple(data.draw(st.integers(-2, 1)) for _ in range(f.dim))
    axis = data.draw(st.integers(0, f.dim - 1))
    g = f.shift(k)
    jk = tuple(a + b for a, b in zip(j, k))
    pairs = (
        (cond_expect(g, Corner(jk)), cond_expect(f, Corner(j))),
        (cond_expect(g, Halfspace(axis, jk[axis])), cond_expect(f, Halfspace(axis, j[axis]))),
        (project_line(g, axis, jk[axis]), project_line(f, axis, j[axis])),
        (project_full(g, jk), project_full(f, j)),
    )
    for shifted, unshifted in pairs:
        assert shifted.terms == unshifted.shift(k).terms


@SETTINGS
@given(f=any_functional(), data=st.data())
def test_from_items_canonicalizes_raw_items(f, data):
    """Raw items in any order, with factors reversed and terms split, give canonical terms."""
    items = [(c, fs[::-1]) for c, fs in f.terms] + [(c / 2, fs) for c, fs in f.terms]
    items = data.draw(st.permutations(items))
    raw = FiniteRangeFunctional.from_items(f.law, f.dim, items)
    assert raw.terms == step_merge(items)
    assert (raw - f).terms == step_sub(raw, f).terms


@pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -2.0, 0.1 + 0.2, 1e-300])
def test_constant_is_its_merged_term(value):
    law = InnovationLaw.rademacher()
    assert constant(law, 2, value).terms == step_merge([(value, ())])


@SETTINGS
@given(f=any_functional())
def test_project_line_is_the_fused_difference(f):
    for axis in range(f.dim):
        coords = f.axis_coords(axis)
        for level in sorted(set(coords) | {min(coords, default=0) - 1, max(coords, default=0) + 1}):
            got = project_line(f, axis, level).terms
            assert got == step_project_line(f, axis, level).terms
            if level in coords:
                diff = cond_expect(f, Halfspace(axis, level)) - cond_expect(
                    f, Halfspace(axis, level - 1)
                )
                assert got == diff.terms


@SETTINGS
@given(f=any_functional())
def test_project_each_shares_prefixes_bit_for_bit(f):
    indices = list(itertools.product(*(f.axis_coords(axis) for axis in range(f.dim))))
    got = project_each(f, indices)
    assert list(got) == indices
    for j in indices:
        assert got[j].terms == step_project_full(f, j).terms


@SETTINGS
@given(f=any_functional(lo=-2, hi=2))
def test_coboundary_operators_match_their_folds(f):
    for axis in range(f.dim):
        assert martingale_op(f, axis).terms == step_martingale_op(f, axis).terms
        assert transfer_op(f, axis).terms == step_transfer_op(f, axis).terms


@SETTINGS
@given(data=st.data())
def test_reconstruct_sum_matches_its_fold(data):
    law = data.draw(laws())
    dim = data.draw(st.integers(1, 3))
    components = {mask: data.draw(functionals(law, dim)) for mask in range(1 << dim)}
    got = reconstruct_sum(components, dim).terms
    assert got == step_reconstruct_sum(components, dim).terms


@SETTINGS
@given(data=st.data())
def test_center_matches_its_steps(data):
    law = data.draw(laws())
    dim = data.draw(st.integers(1, 3))
    g = data.draw(functionals(law, dim, -2, 2))
    assert center(g, 2).terms == step_center(g, 2).terms


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f=banded())
def test_decompose_components_match_the_per_mask_fold(f):
    if f.is_zero:
        return
    parts = decompose(f, 2)
    expected = step_components(f)
    assert list(parts.components) == list(expected)
    for mask, h in expected.items():
        assert parts.components[mask].terms == h.terms


def record_line_projections(mp, module):
    """Count ``(terms, axis, level)`` of every nonzero ``project_line`` call through ``module``."""
    seen = Counter()
    line = module.project_line

    def counting(g, axis, level):
        if level in g.axis_coords(axis):  # otherwise the projection is zero, unmerged
            seen[g.terms, axis, level] += 1
        return line(g, axis, level)

    mp.setattr(module, "project_line", counting)
    return seen


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f=banded())
def test_decompose_projects_each_prefix_once_per_window_level(f):
    """Both operators on a prefix ``h`` read one line projection of ``h`` per window level.

    The per-step reference projects a shifted copy of ``h`` for every
    (level, shift) step; the package projects ``h`` itself at each of its
    window coordinates once and shifts the results.  The kernel residual's
    origin projections project ``f`` once per distinct nonzero axis prefix of
    the negated shift candidates.
    """
    if f.is_zero:
        return
    with pytest.MonkeyPatch.context() as mp:
        operators = record_line_projections(mp, coboundary)
        residual = record_line_projections(mp, projection)
        parts = decompose(f, 2)
    expected = step_components(f)
    assert list(parts.components) == list(expected)
    for mask, h in expected.items():
        assert parts.components[mask].terms == h.terms

    want = Counter()
    prefixes = [f]
    for axis in range(f.dim):
        for h in prefixes:
            for c in h.axis_coords(axis):
                want[h.terms, axis, c] += 1
        prefixes = [op(h, axis) for h in prefixes for op in (step_transfer_op, step_martingale_op)]
    assert operators == want

    want = Counter()
    targets = [tuple(-c for c in i) for i in kernel_shift_candidates(f)]
    partial = {(): f}
    for axis in range(f.dim):
        prefixes = dict.fromkeys(t[: axis + 1] for t in targets)
        for t in prefixes:
            g = partial[t[:axis]]
            if t[axis] in g.axis_coords(axis):
                want[g.terms, axis, t[axis]] += 1
        partial = {t: step_project_line(partial[t[:axis]], axis, t[axis]) for t in prefixes}
    assert residual == want


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_identity_report_matches_the_per_pair_reference(data):
    law = data.draw(laws())
    dim = data.draw(st.integers(1, 3))
    f = data.draw(functionals(law, dim, -1, 1))
    g = data.draw(functionals(law, dim, -1, 1))
    box = list(itertools.product(*([(-1, 0, 1)] * dim)))
    idx = data.draw(st.lists(st.sampled_from(box), min_size=1, max_size=5, unique=True))
    rep = projection_identity_report(f, g, idx)
    got = (rep.commutation, rep.orthogonality, rep.annihilation, rep.idempotence)
    assert got == step_identity_report(f, g, idx)
    assert rep.pairs_checked == len(idx) * (len(idx) - 1)


@SETTINGS
@given(f=any_functional(lo=-2, hi=2))
def test_projective_decomposition_matches_the_per_index_reference(f):
    got = projective_decomposition(f)
    drop = 1e-12 * (1.0 + f.norm())
    expected = {}
    for j in itertools.product(*(f.axis_coords(axis) for axis in range(f.dim))):
        p = step_project_full(f, j)
        if not p.is_zero and p.norm() > drop:
            expected[j] = p
    assert list(got) == list(expected)
    for j, p in expected.items():
        assert got[j].terms == p.terms


# -- the invariant the relabel relies on -------------------------------------------------


def test_every_functional_the_package_builds_is_canonical(tmp_path, monkeypatch):
    """``shift`` and ``signed_sum`` skip the per-term sort: no construction may need it."""
    built = []
    broken = []
    original = FiniteRangeFunctional.__post_init__

    def checked(self):
        original(self)
        built.append(1)
        if self.terms != step_merge(self.terms):
            broken.append(self.terms)

    monkeypatch.setattr(FiniteRangeFunctional, "__post_init__", checked)
    law = {"values": [-1.0, 0.5, 2.0], "probs": [0.2, 0.3, 0.5]}
    linear = {"builtin": "linear", "a": 0.5}
    # (x_00 - 0.95)(x_-1,1 - 0.95): centered and banded at order 2 under ``law``.
    product = {
        "terms": [
            {"coeff": 1.0, "factors": [{"site": [0, 0]}, {"site": [-1, 1]}]},
            {"coeff": -0.95, "factors": [{"site": [0, 0]}]},
            {"coeff": -0.95, "factors": [{"site": [-1, 1]}]},
            {"coeff": 0.95 * 0.95, "factors": []},
        ]
    }
    runs = [
        ("describe", {"dimension": 3, "functional": "counterexample:3"}),
        ("describe", {"dimension": 2, "law": law, "functional": product}),
        ("decompose", {"dimension": 2, "law": law, "functional": product}),
        ("decompose", {"dimension": 2, "functional": "counterexample:2", "order": 4}),
        ("counterexample", {"truncations": [1, 2, 3, 4]}),
        ("verify-clt", {"dimension": 1, "functional": linear, "grids": [[16]], "replicates": 200}),
    ]
    for k, (command, doc) in enumerate(runs):
        cfg = tmp_path / f"config{k}.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / f"out{k}")]) in (0, 3)
    projection_suite(1, pairs=2)
    completeness_suite(2, count=3)
    coboundary_suite(3, count=3)
    kernel_suite(4, count=5)
    assert len(built) > 1000
    assert broken == []


# -- bytes ---------------------------------------------------------------------------


def test_selftest_report_bytes_are_pinned(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 20260809}))
    assert main(["selftest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == ""  # a caller's last stdout line stays its own
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == "22f191045442c0d693c28fca2d105c230000e14ea8823d1339e91bcecf557f8e"
