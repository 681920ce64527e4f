"""Guards for the Monte Carlo sampling path: pinned report bytes and a two-sample reference.

The pinned SHA-256 values are the ``verify-clt`` report bytes of small
configurations; any change to sampling, evaluation, prefix sums, path
extraction or the gap must leave them unchanged.  The property tests rebuild
the inverse-CDF draw and the coupled sums independently: the field and its
orthomartingale are evaluated point by point on two separate draws of the same
replicate stream, summed in the package's order (block sums for the path
points, one prefix sum of ``f - d0`` for the gap), and must agree exactly with
what the package computes from its single draw.
"""

import hashlib
import json
from math import ceil, floor, prod, sqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthofield import innovation, montecarlo
from orthofield.cli import main
from orthofield.dependence import martingale_kernel
from orthofield.functional import INDICATOR, POWER, VALUE, Factor, FiniteRangeFunctional, constant
from orthofield.innovation import InnovationLaw, _inverse_cdf_table, sample_region, stream_key
from orthofield.lattice import Rectangle
from orthofield.montecarlo import GapStatistic, sample_paths, sample_rect, uniform_grid

SMALL_GRIDS = [[8, 8], [16, 16]]

PINNED_REPORTS = {
    "identity_2d": (
        {"dimension": 2, "functional": "identity", "grids": SMALL_GRIDS, "replicates": 250},
        "2516ca9766dd67e2a22f23a4ac6616d54431a807cb95b6cae703846ab21adf73",
    ),
    "linear_2d": (
        {
            "dimension": 2,
            "functional": {"builtin": "linear", "a": 0.5},
            "grids": SMALL_GRIDS,
            "replicates": 250,
        },
        "2da436c0e0f48a74ffb6bf448c3fbba10e365e7b8a6af61329ba9021d1f81fe0",
    ),
    # three atoms exercise every bin edge of the inverse-CDF draw
    "three_point_1d": (
        {
            "dimension": 1,
            "law": {"values": [-1.0, 0.0, 2.0], "probs": [0.5, 0.25, 0.25]},
            "functional": {
                "terms": [
                    {"coeff": 1.0, "factors": [{"site": [0]}]},
                    {
                        "coeff": -0.5,
                        "factors": [
                            {"site": [-1], "kind": "indicator", "arg": 2.0},
                            {"site": [0]},
                        ],
                    },
                ]
            },
            "grids": [[32], [128]],
            "replicates": 250,
        },
        "58d953073d3528d6df9a672023fe89ad24d3a6f81fd4046206b2e46b1a80d89b",
    ),
}


def report_digest(tmp_path, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["verify-clt", "--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256((out / "report.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_verify_clt_report_bytes_are_pinned(tmp_path, name):
    doc, digest = PINNED_REPORTS[name]
    assert report_digest(tmp_path, doc) == digest


@pytest.mark.parametrize("batch_cells", [1, 2**20])
@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_pinned_report_bytes_do_not_depend_on_the_batch(tmp_path, monkeypatch, name, batch_cells):
    # One replicate per batch, and every replicate of a grid in one batch.
    monkeypatch.setattr(montecarlo, "BATCH_CELLS", batch_cells)
    doc, digest = PINNED_REPORTS[name]
    assert report_digest(tmp_path, doc) == digest


def test_verify_clt_draws_each_replicate_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3])
        return sample_region(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_region", counting)
    doc, _ = PINNED_REPORTS["linear_2d"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify-clt", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == list(range(250)) * len(SMALL_GRIDS)


# -- strategies ----------------------------------------------------------------

# Dyadic alphabet points keep every product and power exact.
ALPHABET = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0)


@st.composite
def laws(draw):
    k = draw(st.integers(2, 6))
    values = draw(st.permutations(ALPHABET))[:k]
    weights = draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
    total = sum(weights)
    probs = [w / total for w in weights[:-1]]
    probs.append(1.0 - sum(probs))
    return InnovationLaw(tuple(values), tuple(probs))


@st.composite
def factors(draw, law, dim):
    site = tuple(draw(st.integers(-1, 0)) for _ in range(dim))
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
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.sampled_from((-1.5, -1.0, -0.25, 0.5, 1.0, 2.0)))
        terms.append((coeff, tuple(draw(st.lists(factors(law, dim), min_size=1, max_size=2)))))
    f = FiniteRangeFunctional.from_items(law, dim, terms)
    return f - constant(law, dim, f.expectation())


# -- reference -------------------------------------------------------------------


def searchsorted_draw(law, seed, r, region):
    """The inverse-CDF draw of ``region`` from a new generator of the stream ``(seed, r)``."""
    key = stream_key(seed, r, region)
    u = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64))).random(
        region.shape
    )
    cum = np.cumsum(law.probs)
    cum[-1] = 1.0
    return np.asarray(law.values)[np.searchsorted(cum, u, side="right")]


def reference_values(f, values, lo, n):
    """Pointwise evaluation of the shifted functional at every grid point of ``[1, n]``.

    ``values`` is a sample of the region with lower corner ``lo``.
    """
    out = np.zeros(n)
    for idx in np.ndindex(*n):
        i = tuple(c + 1 for c in idx)
        total = 0.0
        for coeff, facs in f.terms:
            val = coeff
            for fac in facs:
                at = tuple(a + b - c for a, b, c in zip(i, fac.site, lo))
                val = val * fac.evaluate(float(values[at]))
            total = total + val
        out[idx] = total
    return out


def reference_draws(f, d0, n, seed, r):
    """Pointwise values of ``f`` and of ``d0``, each on its own draw of replicate ``r``."""
    region = sample_rect(f, n)
    return [
        reference_values(g, sample_region(region, f.law, seed, r).values, region.lo, n)
        for g in (f, d0)
    ]


def cumsum_each_axis(arr):
    for axis in range(arr.ndim):
        arr = np.cumsum(arr, axis=axis)
    return arr


def reference_path_point(x, grid, n, k):
    """``S_k`` from block sums of ``x`` between the per-axis cuts of ``grid``; 0 if empty."""
    if min(k) < 1:
        return 0.0
    cuts = [sorted({floor(nq * t[q]) for t in grid} - {0}) for q, nq in enumerate(n)]
    blocks = x[tuple(slice(c[-1]) for c in cuts)]
    for axis, c in enumerate(cuts):
        blocks = np.add.reduceat(blocks, [0] + c[:-1], axis=axis)
    return float(cumsum_each_axis(blocks)[tuple(c.index(kq) for c, kq in zip(cuts, k))])


# The last edge 0.1 + 0.9 (or 1.0) rounds to 1.0, which no uniform double
# reaches; the edges 0.25, 0.5 and 0.75 lie on the 2^-53 grid, so a uniform
# double can equal one.
EDGE_LAWS = (
    InnovationLaw((-1.0, 0.0, 2.0), (0.1, 0.9, 1e-17)),
    InnovationLaw((-1.0, 2.0), (1.0, 1e-17)),
    InnovationLaw((-1.0, 0.0, 2.0, 3.0), (0.25, 0.25, 0.25, 0.25)),
)


@pytest.mark.parametrize("law", EDGE_LAWS)
def test_threshold_draw_matches_searchsorted_at_its_edges(monkeypatch, law):
    region = Rectangle((0, 0), (63, 63))
    for seed, r in ((1, 0), (2**64 - 1, 7)):
        expected = searchsorted_draw(law, seed, r, region)
        assert np.array_equal(sample_region(region, law, seed, r).values, expected)
    # Words on both sides of every edge c: the uniform double (w >> 11) 2^-53
    # equals c when w >> 11 is c 2^53, which a random stream hits too rarely to test.
    steps = [ceil(c * 2**53) + d for c in np.cumsum(law.probs[:-1]) for d in (-1, 0, 1)]
    words = np.array(
        [k << 11 | low for k in steps if k < 2**53 for low in (0, 2047)], dtype=np.uint64
    )

    class Words:
        def random_raw(self, shape):
            return words.reshape(shape)

    monkeypatch.setattr(innovation, "_stream", lambda key: Words())
    got = sample_region(Rectangle((0,), (len(words) - 1,)), law, seed=0).values
    u = (words >> np.uint64(11)) * 2.0**-53
    cum = np.cumsum(law.probs)
    cum[-1] = 1.0
    assert np.array_equal(got, np.asarray(law.values)[np.searchsorted(cum, u, side="right")])


# -- properties --------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(law=laws(), dim=st.integers(1, 3), seed=st.integers(0, 2**64 - 1), r=st.integers(0, 99))
def test_sample_region_matches_searchsorted(law, dim, seed, r):
    region = Rectangle((-1,) * dim, tuple(3 + q for q in range(dim)))
    expected = searchsorted_draw(law, seed, r, region)
    assert np.array_equal(sample_region(region, law, seed, r).values, expected)


@settings(max_examples=60, deadline=None)
@given(
    law=laws(),
    other=laws(),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**64 - 1),
    r=st.integers(0, 99),
    earlier=st.lists(
        st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 99), st.integers(0, 4)), max_size=3
    ),
)
def test_reused_generator_draws_each_stream_fresh(law, other, dim, seed, r, earlier):
    # Earlier draws of other regions, laws and replicates leave the per-thread
    # generator mid-stream, often mid-buffer (odd cell counts).
    for s2, r2, width in earlier:
        sample_region(Rectangle((0,) * dim, (width,) * dim), other, s2, r2)
    region = Rectangle((-1,) * dim, tuple(3 + q for q in range(dim)))
    expected = searchsorted_draw(law, seed, r, region)
    first = sample_region(region, law, seed, r)
    assert np.array_equal(first.values, expected)
    # Each sample owns its values: writing into one changes neither the next
    # sample nor the cached value array of the law.
    first.values[...] = 99.0
    assert np.array_equal(sample_region(region, law, seed, r).values, expected)
    table = _inverse_cdf_table(law)[1]
    assert not table.flags.writeable
    assert np.array_equal(table, law.values)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    f=centered_functionals(),
    data=st.data(),
    seed=st.integers(0, 2**32),
    resolution=st.integers(1, 4),
)
def test_paths_and_gaps_match_two_sample_reference(f, data, seed, resolution):
    n = tuple(data.draw(st.integers(1, 6)) for _ in range(f.dim))
    replicates = 3
    grid = uniform_grid(f.dim, resolution)
    norm = sqrt(prod(n))
    kernel = martingale_kernel(f)
    paths = sample_paths(f, n, grid, replicates, seed)
    coupled = sample_paths(f, n, grid, replicates, seed, kernel=kernel)
    gap = GapStatistic.of(n, coupled.gaps.tolist())
    for r in range(replicates):
        x, y = reference_draws(f, kernel.d0, n, seed, r)
        for t in grid:
            k = tuple(floor(nq * tq) for nq, tq in zip(n, t))
            expected = reference_path_point(x, grid, n, k)
            assert paths.at(t)[r] == expected / norm
            assert coupled.at(t)[r] == expected / norm
        expected_gap = float(np.max(np.abs(cumsum_each_axis(x - y)))) / norm
        assert gap.samples[r] == expected_gap
        assert coupled.gaps[r] == expected_gap
    assert paths.gaps is None
