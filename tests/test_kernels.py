"""Dense kernel checks against closed forms and numpy references."""

from __future__ import annotations

import numpy as np
import pytest

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


def test_layer_norm_moments():
    m = normal_matrix(3, 9, 5, 6, 32) * 4 + 7
    out = layer_norm(m)
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)


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
    arr = logistic(np.array([-2.0, 0.0, 2.0]))
    assert np.all(np.diff(arr) > 0)


def test_spectral_norm_diagonal():
    assert abs(spectral_norm(np.diag([3.0, 1.0])) - 3.0) < 1e-10


def test_spectral_norm_nilpotent():
    # Power iteration on A alone would stall; the Gram iteration must not.
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
