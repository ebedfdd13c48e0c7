import numpy as np
import pytest

from qbands.seeding import counter_rng, spawn_rng


@pytest.mark.parametrize("t", [0, 1, 17, 2**40])
def test_counter_rng_is_keyed_philox_at_counter(t):
    key = np.random.SeedSequence([5, 1]).generate_state(2, dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key, counter=(0, 0, 0, t)))
    assert counter_rng(5, 1, counter=t).integers(2**63, size=8).tolist() == \
        expected.integers(2**63, size=8).tolist()


def test_streams_differ_by_counter_and_family():
    # spawn_rng(5, 1, 1) is the hashed stream of the same path.
    draws = [g.random(4).tolist() for g in (
        counter_rng(5, 1, counter=0), counter_rng(5, 1, counter=1),
        counter_rng(5, 2, counter=0), counter_rng(6, 1, counter=0), spawn_rng(5, 1, 1))]
    assert len({tuple(d) for d in draws}) == len(draws)
