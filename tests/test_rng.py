"""Counter RNG: scalar/vector agreement, determinism, distribution sanity."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcoord.rng import (
    DOMAIN_CADENCE,
    counter_hash,
    counter_hash_array,
    normal_array,
    normal_matrix,
    splitmix64,
    uniform,
)


def test_splitmix64_known_vector():
    # First output of the reference splitmix64 stream seeded at 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_range_and_determinism():
    for z in (0, 1, 2**63, 2**64 - 1):
        out = splitmix64(z)
        assert 0 <= out < 2**64
        assert out == splitmix64(z)


def test_counter_hash_scalar_vector_agree():
    for seed, a, b in itertools.product((0, 1, 987654321), (0, 5, 2**40), (0, 13)):
        scalar = counter_hash(seed, a, b)
        vec = counter_hash_array(seed, np.array([a], dtype=np.uint64), b)
        assert int(vec[0]) == scalar


def test_uniform_scalar_vector_agree():
    grid = np.arange(50, dtype=np.uint64)
    vec = uniform(7, 3, grid)
    for i in range(50):
        assert vec[i] == uniform(7, 3, i)
    # A numpy scalar counter takes the array path and gives a 0-d draw of the same value.
    assert uniform(7, 3, np.int64(4)) == uniform(7, 3, 4)


def test_normal_scalar_vector_agree():
    # Box-Muller over two counter_hash draws; u1 is shifted into (0, 1] so the
    # log is finite.
    grid = np.arange(20, dtype=np.uint64)
    vec = normal_array(7, 4, grid)
    for i in range(20):
        u1 = ((counter_hash(7, 4, i, 0) >> 11) + 1) * 2.0**-53
        u2 = (counter_hash(7, 4, i, 1) >> 11) * 2.0**-53
        assert vec[i] == math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def test_uniform_equals_its_counter_hash_formula_in_any_call_order():
    # uniform remembers the hash of the seed and all counters but the last;
    # every draw must still be the hash of all of them, whatever came before.
    keys = [
        (seed, *prefix, last)
        for seed in (0, 7, 2**64 + 3, -1)
        for prefix in ((), (5,), (DOMAIN_CADENCE, 2), (1, 2, 3))
        for last in (0, 1, 2**40, -3)
    ]
    keys += [(11,), (-2,)]
    for key in keys + keys[::-1]:
        assert uniform(*key) == (counter_hash(*key) >> 11) * 2.0**-53
    # A float seed is refused as counter_hash refuses it, even once an equal int prefix is remembered.
    uniform(1, 2, 5)
    with pytest.raises(TypeError):
        counter_hash(1.0, 2, 3)
    with pytest.raises(TypeError):
        uniform(1.0, 2, 3)


def test_counters_change_output():
    assert counter_hash(1, 2, 3) != counter_hash(1, 3, 2)
    assert counter_hash(1, 2) != counter_hash(2, 2)
    assert uniform(0, 0) != uniform(0, 1)


def test_uniform_bounds_and_moments():
    u = uniform(99, 0, np.arange(200000))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normal_moments():
    z = normal_array(99, 1, np.arange(200000))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.all(np.isfinite(z))


def test_normal_matrix_shape_and_determinism():
    m1 = normal_matrix(5, 1, 2, 7, 3)
    m2 = normal_matrix(5, 1, 2, 7, 3)
    assert m1.shape == (7, 3)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, normal_matrix(5, 1, 3, 7, 3))


def test_counter_hash_array_rejects_float_counters():
    for bad in (np.array([0.5]), 1.0, True, np.float64(2.0)):
        with pytest.raises(TypeError):
            counter_hash_array(0, bad)
        with pytest.raises(TypeError):
            counter_hash_array(0, 3, bad, 4)


# Every int a counter can be: plain ints are masked to 64 bits, and numpy
# takes the same range as int64 or uint64.
_INTS = st.integers(-(2**63), 2**64 - 1)


@st.composite
def counter_tuples(draw):
    """A seed, and counters that are plain ints or equal-length int arrays at any position."""
    n = draw(st.integers(1, 4))
    counters = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("int", "int64", "uint64", "numpy scalar")))
        if kind == "int":
            counters.append(draw(_INTS))
        elif kind == "int64":
            counters.append(np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)), dtype=np.int64))
        elif kind == "uint64":
            counters.append(np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n)), dtype=np.uint64))
        else:
            counters.append(np.int64(draw(st.integers(-(2**63), 2**63 - 1))))
    return draw(_INTS), counters, n


@settings(max_examples=200, deadline=None)
@given(case=counter_tuples())
def test_array_draws_equal_their_counter_hash_formulas(case):
    seed, counters, n = case
    is_array = [isinstance(c, np.ndarray) for c in counters]
    idx = range(n) if any(is_array) else [None]

    def at(i):
        return [int(c[i]) if arr else int(c) for c, arr in zip(counters, is_array)]

    hashes = [counter_hash(seed, *at(i)) for i in idx]
    h = counter_hash_array(seed, *counters)
    assert [int(v) for v in np.ravel(h)] == hashes
    assert [float(v) for v in np.ravel(uniform(seed, *counters))] == [uniform(seed, *at(i)) for i in idx]
    u1 = np.array([((counter_hash(seed, *at(i), 0) >> 11) + 1) * 2.0**-53 for i in idx])
    u2 = np.array([(counter_hash(seed, *at(i), 1) >> 11) * 2.0**-53 for i in idx])
    expected = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    assert np.ravel(normal_array(seed, *counters)).tobytes() == expected.tobytes()


def test_all_scalar_draws_are_numpy_scalars():
    for counters in ((), (5,), (3, -1, 2**64 - 1)):
        h = counter_hash_array(9, *counters)
        assert type(h) is np.uint64 and h.shape == ()
        assert int(h) == counter_hash(9, *counters)
        v = normal_array(9, *counters)
        assert type(v) is np.float64 and v.shape == ()
        # Plain-int counters give uniform's one float; a numpy scalar among them gives a numpy scalar.
        assert type(uniform(9, *counters)) is float
        u = uniform(9, *counters, np.uint64(7))
        assert type(u) is np.float64 and u.shape == () and u == uniform(9, *counters, 7)


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_array_draws_wrap_without_a_warning(dtype):
    # Array arithmetic wraps modulo 2**64 silently; only a 0-d draw needs the
    # overflow warning turned off, and it turns it off for itself alone.
    top = np.iinfo(dtype).max
    edges = [0, 1, top - 1, top] if dtype is np.uint64 else [np.iinfo(dtype).min, -1, 0, top]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counters = np.array(edges, dtype=dtype)
        u = uniform(2**64 - 1, 2**64 - 1, counters)
        z = normal_array(2**64 - 1, counters, 2**64 - 1)
        zero_d = uniform(2**64 - 1, 2**64 - 1, counters[-1])
        with pytest.raises(RuntimeWarning, match="overflow"):
            np.uint64(2**63) * np.uint64(2)  # errstate was restored
    assert u.tolist() == [uniform(2**64 - 1, 2**64 - 1, int(c)) for c in edges]
    assert zero_d == u[-1] and np.isfinite(z).all()
