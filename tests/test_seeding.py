import numpy as np
import pytest

from qbands.seeding import StreamFamily, spawn_rng

from conftest import philox_stream


def fresh_stream(t):
    return philox_stream((5, 1), t)


def _same_state(a, b):
    a, b = a.bit_generator.state, b.bit_generator.state
    return (a["state"]["counter"].tolist() == b["state"]["counter"].tolist()
            and a["state"]["key"].tolist() == b["state"]["key"].tolist()
            and a["buffer"].tolist() == b["buffer"].tolist()
            and (a["buffer_pos"], a["has_uint32"], a["uinteger"])
            == (b["buffer_pos"], b["has_uint32"], b["uinteger"]))


@pytest.mark.parametrize("t", [0, 1, 17, 2**40])
def test_family_stream_is_keyed_philox_at_counter(t):
    assert StreamFamily(5, 1).stream(t).integers(2**63, size=8).tolist() == \
        fresh_stream(t).integers(2**63, size=8).tolist()


@pytest.mark.parametrize("draws", [
    lambda g: g.integers(2**32, size=3, dtype=np.uint32),  # a spare 32-bit half left
    lambda g: g.random(1),  # one 64-bit word of a four-word block used
    lambda g: g.random(6),  # into the second block
    lambda g: (g.random(2), g.integers(2**32, dtype=np.uint32)),  # both at once
], ids=["odd-uint32", "part-block", "second-block", "both"])
def test_rekeyed_stream_forgets_the_previous_row(draws):
    # A row that leaves the output buffer half used must not leak into the
    # next: every stream starts as a fresh Philox at its counter, with an
    # empty buffer and no spare 32-bit half.
    family = StreamFamily(5, 1)
    for t in (0, 3, 4, 2**33):
        g = family.stream(t)
        assert _same_state(g, fresh_stream(t))
        expected = fresh_stream(t)
        assert g.integers(2**32, size=5, dtype=np.uint32).tolist() == \
            expected.integers(2**32, size=5, dtype=np.uint32).tolist()
        assert g.random(5).tolist() == expected.random(5).tolist()
        draws(g)
    # The one generator of the family serves every stream.
    assert family.stream(1) is family.stream(2)


def test_streams_differ_by_counter_and_family():
    # spawn_rng(5, 1, 1) is the hashed stream of the same path.
    draws = [StreamFamily(*family).stream(t).random(4).tolist()
             for family, t in (((5, 1), 0), ((5, 1), 1), ((5, 2), 0), ((6, 1), 0))]
    draws.append(spawn_rng(5, 1, 1).random(4).tolist())
    assert len({tuple(d) for d in draws}) == len(draws)
