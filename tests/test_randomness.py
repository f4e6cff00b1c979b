"""Addressing guarantees of the counter-based randomness source."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats as st

from branchlab.randomness import RandomnessSource


def test_same_address_same_block_across_instances():
    a = RandomnessSource(42)
    b = RandomnessSource(42)
    for path, gen in [(0, 0), (3, 7), (1_000_000, 2)]:
        np.testing.assert_array_equal(a.uniforms(path, gen, 16),
                                      b.uniforms(path, gen, 16))


def test_blocks_are_prefix_stable():
    src = RandomnessSource(7)
    long = src.uniforms(5, 9, 100)
    short = src.uniforms(5, 9, 13)
    np.testing.assert_array_equal(short, long[:13])


def test_read_order_is_irrelevant():
    src = RandomnessSource(11)
    forward = [src.uniforms(p, g, 8) for p in range(4) for g in range(4)]
    backward = [src.uniforms(p, g, 8)
                for p in reversed(range(4)) for g in reversed(range(4))]
    np.testing.assert_array_equal(np.array(forward),
                                  np.array(backward)[::-1])


def test_distinct_addresses_give_distinct_blocks():
    src = RandomnessSource(0)
    base = src.uniforms(0, 0, 32)
    assert not np.array_equal(base, src.uniforms(0, 1, 32))
    assert not np.array_equal(base, src.uniforms(1, 0, 32))
    assert not np.array_equal(base, RandomnessSource(1).uniforms(0, 0, 32))


def test_uniformity_of_pooled_blocks():
    src = RandomnessSource(2024)
    u = np.concatenate([src.uniforms(p, 0, 10_000) for p in range(20)])
    assert st.kstest(u, "uniform").pvalue > 1e-3
    assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / len(u))
    # adjacent blocks should be uncorrelated
    r = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(r) < 5 / np.sqrt(len(u))


def test_closure_stream_deterministic_and_order_free():
    a = RandomnessSource(13)
    b = RandomnessSource(13)
    # a reads path 3 then 5; b reads 5 then 3 — streams must not interact
    a3 = a.closure_generator(3).random(6).copy()
    a5 = a.closure_generator(5).random(6).copy()
    b5 = b.closure_generator(5).random(6).copy()
    b3 = b.closure_generator(3).random(6).copy()
    np.testing.assert_array_equal(a3, b3)
    np.testing.assert_array_equal(a5, b5)
    assert not np.array_equal(a3, a5)


def test_closure_stream_disjoint_from_pool_stream():
    src = RandomnessSource(21)
    pool = src.uniforms(4, 0, 16)
    closure = src.closure_generator(4).random(16)
    assert not np.array_equal(pool, closure)


def test_closure_generator_restarts_its_stream():
    """Each call gives a new generator at the start of the path's stream;
    one handed out before keeps its place."""
    src = RandomnessSource(8)
    g3 = src.closure_generator(3)
    first = g3.random(4).copy()
    assert src.closure_generator(5) is not g3
    np.testing.assert_array_equal(src.closure_generator(3).random(4), first)
    assert not np.array_equal(g3.random(4), first)


def test_handles_are_independent_objects():
    src = RandomnessSource(99)
    h1 = src.handle(path=1, generation=0)
    h2 = src.handle(path=2, generation=0)
    u1 = h1.random(1)
    u2 = h2.random(1)  # interleaved consumption must not interact
    fresh = RandomnessSource(99)
    assert fresh.handle(path=1).random(1) == u1
    assert fresh.handle(path=2).random(1) == u2


def test_handle_stream_disjoint_from_pool_and_closure():
    src = RandomnessSource(4)
    h = src.handle(path=0, generation=0)
    block = h.random(16)
    assert not np.array_equal(block, src.uniforms(0, 0, 16))
    assert not np.array_equal(block, src.closure_generator(0).random(16))


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
def test_extreme_seeds_are_accepted(seed):
    src = RandomnessSource(seed)
    assert src.uniforms(0, 0, 4).shape == (4,)
    assert 0.0 <= src.handle().random(1)[0] < 1.0


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7", None])
def test_bad_seeds_rejected(seed):
    with pytest.raises(ValueError):
        RandomnessSource(seed)


def test_bad_addresses_rejected():
    src = RandomnessSource(1)
    with pytest.raises(ValueError):
        src.uniforms(-1, 0, 4)
    with pytest.raises(ValueError):
        src.uniforms(0, -1, 4)
    with pytest.raises(ValueError):
        src.closure_generator(2**64)
    with pytest.raises(ValueError):
        src.handle(2**64)
    with pytest.raises(ValueError):
        src.handle(0, -1)
