import numpy as np
import pytest

from latalg.seeding import seeded_rng


@pytest.mark.parametrize("seed", [0, 7, -1, 2**32 + 5, 2**40])
@pytest.mark.parametrize("key", [(), (1,), (42, 0), (42, 9999), (52, 2**32 - 1)])
def test_stream_equals_list_seeding(seed, key):
    ours = seeded_rng(seed, *key)
    plain = np.random.default_rng([seed % 2**32, *key])
    assert np.array_equal(ours.random(8), plain.random(8))
    assert np.array_equal(ours.integers(0, 1000, 8), plain.integers(0, 1000, 8))
    assert np.array_equal(ours.uniform(-1.0, 1.0, (3, 4)), plain.uniform(-1.0, 1.0, (3, 4)))
