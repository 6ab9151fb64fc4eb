"""Unit and property tests for the named RNG streams."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simkit.rng import RngRegistry, stable_hash


def test_same_seed_same_stream_reproduces():
    a = RngRegistry(seed=7).stream("tasks")
    b = RngRegistry(seed=7).stream("tasks")
    assert np.array_equal(a.random(16), b.random(16))


def test_different_names_give_independent_streams():
    registry = RngRegistry(seed=7)
    a = registry.stream("tasks").random(16)
    b = registry.stream("shuffle").random(16)
    assert not np.array_equal(a, b)


def test_stream_is_cached_not_recreated():
    registry = RngRegistry(seed=7)
    first = registry.stream("x")
    draw = first.random()
    again = registry.stream("x")
    assert again is first
    # Cached stream continues, does not restart.
    assert again.random() != pytest.approx(draw)


def test_adding_new_stream_does_not_perturb_existing():
    plain = RngRegistry(seed=3)
    draws_plain = plain.stream("alpha").random(8)

    interleaved = RngRegistry(seed=3)
    interleaved.stream("newcomer").random(8)
    draws_interleaved = interleaved.stream("alpha").random(8)
    assert np.array_equal(draws_plain, draws_interleaved)


def test_fork_derives_distinct_registry():
    base = RngRegistry(seed=11)
    fork_a = base.fork(1)
    fork_b = base.fork(2)
    assert fork_a.seed != fork_b.seed
    assert not np.array_equal(fork_a.stream("s").random(8), fork_b.stream("s").random(8))
    # Forking is deterministic.
    assert base.fork(1).seed == fork_a.seed


def test_seed_must_be_int():
    with pytest.raises(TypeError):
        RngRegistry(seed="7")  # type: ignore[arg-type]


def test_stable_hash_is_stable_known_values():
    # CRC32 is specified; pin a value so accidental algorithm swaps fail loudly.
    assert stable_hash("shuffle") == zlib_crc("shuffle")


def zlib_crc(text):
    import zlib

    return zlib.crc32(text.encode()) & 0xFFFFFFFF


@given(st.text(max_size=64))
def test_stable_hash_in_32bit_range(name):
    value = stable_hash(name)
    assert 0 <= value <= 0xFFFFFFFF


@given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=32))
def test_registry_deterministic_for_any_seed_and_name(seed, name):
    a = RngRegistry(seed).stream(name).random(4)
    b = RngRegistry(seed).stream(name).random(4)
    assert np.array_equal(a, b)
