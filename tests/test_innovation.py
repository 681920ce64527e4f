import math

import numpy as np
import pytest

from orthofield.innovation import (
    CapExceededError,
    InnovationLaw,
    enumerate_configs,
    sample_region,
    stream_key,
)
from orthofield.lattice import Rectangle

RADEMACHER = InnovationLaw.rademacher()

# Chi-squared critical values at the 0.001 level (df 1 and 2), standard tables.
CHI2_001 = {1: 10.828, 2: 13.816}


def test_law_validation():
    with pytest.raises(ValueError):
        InnovationLaw((1.0,), (1.0,))
    with pytest.raises(ValueError):
        InnovationLaw((0.0, 1.0), (0.5, 0.4))
    with pytest.raises(ValueError):
        InnovationLaw((0.0, 0.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        InnovationLaw((0.0, 1.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        InnovationLaw((0.0, 1.0, 2.0), (0.5, 0.5))


def test_law_moments():
    assert RADEMACHER.moment(1) == 0.0
    assert RADEMACHER.moment(2) == 1.0
    half = InnovationLaw((0.0, 1.0), (0.5, 0.5))
    assert half.moment(2) == 0.5
    assert RADEMACHER.variance == 1.0


def test_enumerate_single_rademacher_site():
    configs = list(enumerate_configs([(0,)], RADEMACHER))
    assert len(configs) == 2
    assert all(c.weight == 0.5 for c in configs)
    assert {c.values[0] for c in configs} == {-1.0, 1.0}


def test_enumerate_three_rademacher_sites():
    configs = list(enumerate_configs([(0,), (1,), (2,)], RADEMACHER))
    assert len(configs) == 8
    assert all(c.weight == pytest.approx(0.125) for c in configs)


def test_enumerate_three_letter_law():
    law = InnovationLaw((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))
    configs = list(enumerate_configs([(0,), (1,)], law))
    assert len(configs) == 9
    assert sum(c.weight for c in configs) == pytest.approx(1.0, abs=1e-12)
    # product weights match the direct computation
    for c in configs:
        expected = math.prod(law.probs[law.values.index(v)] for v in c.values)
        assert c.weight == pytest.approx(expected, abs=1e-15)


def test_enumeration_weights_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        k = int(rng.integers(2, 5))
        p = rng.uniform(0.1, 1.0, size=k)
        p /= p.sum()
        law = InnovationLaw(tuple(float(v) for v in range(k)), tuple(p))
        sites = [(i,) for i in range(int(rng.integers(1, 6)))]
        total = sum(c.weight for c in enumerate_configs(sites, law))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_enumeration_cap():
    sites = [(i,) for i in range(30)]
    with pytest.raises(CapExceededError, match="window too large for exact mode"):
        list(enumerate_configs(sites, RADEMACHER))


def test_sampling_determinism():
    region = Rectangle((1, 1), (8, 8))
    a = sample_region(region, RADEMACHER, seed=99, replicate=3)
    b = sample_region(region, RADEMACHER, seed=99, replicate=3)
    assert np.array_equal(a.values, b.values)
    c = sample_region(region, RADEMACHER, seed=99, replicate=4)
    assert not np.array_equal(a.values, c.values)


def test_stream_key_is_stable():
    # Frozen value: the mixing function is part of the reproducibility contract.
    assert stream_key(12345, 7, Rectangle((1, 1), (4, 4))) == (
        4927825423162661299,
        2333810576389990585,
    )


def test_sample_mean_clt_bound():
    sample = sample_region(Rectangle((1,), (100_000,)), RADEMACHER, seed=11)
    assert abs(sample.values.mean()) <= 4 / math.sqrt(100_000)


def test_sample_frequency_binomial_bound():
    law = InnovationLaw((1.0, 2.0), (0.25, 0.75))
    sample = sample_region(Rectangle((1,), (100_000,)), law, seed=12)
    freq = float(np.mean(sample.values == 2.0))
    assert abs(freq - 0.75) <= 4 * math.sqrt(0.1875 / 100_000)


@pytest.mark.parametrize(
    "law",
    [
        RADEMACHER,
        InnovationLaw((0.0, 1.0, 2.0), (0.2, 0.3, 0.5)),
    ],
)
def test_sampler_chi_squared(law):
    sample = sample_region(Rectangle((1,), (100_000,)), law, seed=13)
    n = sample.values.size
    chi2 = 0.0
    for v, p in zip(law.values, law.probs):
        observed = float(np.sum(sample.values == v))
        chi2 += (observed - n * p) ** 2 / (n * p)
    assert chi2 <= CHI2_001[law.size - 1]


def test_value_at():
    region = Rectangle((0, 0), (2, 2))
    sample = sample_region(region, RADEMACHER, seed=1)
    assert sample.values.shape == region.shape
    site = (1, 2)
    assert sample.values[tuple(a - b for a, b in zip(site, region.lo))] == sample.values[1, 2]
