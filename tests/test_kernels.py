"""Dense kernel checks against closed forms and numpy references."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtcoord.errors import ShapeError
from pdtcoord.kernels import (
    gelu,
    layer_norm,
    logistic,
    row_softmax,
    spectral_norm,
)
from pdtcoord.rng import normal_matrix


def test_row_softmax_rows_sum_to_one():
    m = normal_matrix(1, 9, 3, 5, 7) * 10
    s = row_softmax(m)
    assert np.allclose(s.sum(axis=1), 1.0)
    assert np.all(s > 0)


def test_row_softmax_shift_invariance_and_uniform_row():
    m = normal_matrix(2, 9, 4, 3, 5)
    assert np.allclose(row_softmax(m), row_softmax(m + 100.0))
    const = np.full((1, 4), 3.25)
    assert np.allclose(row_softmax(const), 0.25)


def test_row_softmax_scale():
    m = np.array([[0.0, 1.0]])
    sharp = row_softmax(m, scale=50.0)
    assert sharp[0, 1] > 0.999


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 300),
    scale=st.sampled_from([1e-3, 0.25, 1.0, 1.0 / math.sqrt(3.0), 50.0]),
    spread=st.sampled_from([1e-3, 1.0, 30.0]),
    seed=st.integers(0, 2**16),
)
def test_row_softmax_in_place_has_the_copying_bits(rows, cols, scale, spread, seed):
    m = np.random.default_rng(seed).standard_normal((rows, cols)) * spread
    want = row_softmax(m, scale)
    block = m.copy()
    got = row_softmax(block, scale, out=block)
    assert got is block
    assert want.tobytes() == got.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_row_softmax_refuses_non_finite_scores_in_either_form(bad):
    m = np.ones((3, 4))
    m[1, 2] = bad
    for out in (None, m):
        with pytest.raises(ValueError, match="non-finite"):
            row_softmax(m, 0.5, out=out)
        assert np.array_equal(m[1], [1.0, 1.0, bad, 1.0], equal_nan=True)


def test_layer_norm_moments():
    m = normal_matrix(3, 9, 5, 6, 32) * 4 + 7
    out = layer_norm(m)
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(2, 300),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    offset=st.sampled_from([0.0, 7.0, -1e4]),
    seed=st.integers(0, 2**16),
    transposed=st.booleans(),
)
def test_layer_norm_is_bit_identical_to_numpy_moments(rows, cols, scale, offset, seed, transposed):
    shape = (cols, rows) if transposed else (rows, cols)
    m = np.random.default_rng(seed).standard_normal(shape) * scale + offset
    if transposed:
        m = m.T  # a non-contiguous view
    want = (m - m.mean(axis=1, keepdims=True)) / np.sqrt(m.var(axis=1, keepdims=True) + 1e-5)
    assert np.array_equal(layer_norm(m), want)


def test_layer_norm_needs_two_columns():
    with pytest.raises(ShapeError):
        layer_norm(np.ones((3, 1)))


def test_gelu_values():
    assert gelu(np.array(0.0)) == 0.0
    # gelu(1) = Phi(1); standard normal CDF at 1.
    assert abs(float(gelu(np.array(1.0))) - 0.8413447460685429) < 1e-12
    x = np.array([10.0, -10.0])
    out = gelu(x)
    assert abs(out[0] - 10.0) < 1e-9
    assert abs(out[1]) < 1e-9


def test_logistic_values_and_stability():
    assert logistic(0.0) == 0.5
    assert abs(logistic(-4.0) - 0.01798620996209156) < 1e-17
    assert logistic(1000.0) == 1.0
    assert logistic(-1000.0) == 0.0


def test_spectral_norm_diagonal():
    assert abs(spectral_norm(np.diag([3.0, 1.0])) - 3.0) < 1e-10
    # Orthogonal rows make w @ w.T diagonal, so the singular values are the
    # row norms sqrt(2) and 0.5.  The all-ones vector is orthogonal to the top
    # right singular vector, so power iteration from it finds 0.5.
    w = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 0.5]])
    assert spectral_norm(w) == pytest.approx(math.sqrt(2.0), rel=1e-12, abs=0.0)


def test_spectral_norm_nilpotent():
    # Every eigenvalue is 0, but the largest singular value is 2.
    w = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert abs(spectral_norm(w) - 2.0) < 1e-10


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_empty_raises():
    with pytest.raises(ShapeError):
        spectral_norm(np.zeros((0, 2)))


def test_spectral_norm_matches_svd_random():
    for i in range(20):
        rows, cols = 2 + i % 7, 2 + (i * 3) % 9
        w = normal_matrix(50 + i, 9, 6, rows, cols)
        ref = float(np.linalg.svd(w, compute_uv=False)[0])
        assert abs(spectral_norm(w) - ref) < 1e-8 * max(1.0, ref)
