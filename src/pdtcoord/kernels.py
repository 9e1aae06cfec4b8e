"""Dense float64 kernels used by the coordination layer.

All public functions take and return plain numpy arrays.  Matrix means a 2-D
float64 ndarray throughout the package; helpers here validate rank and dtype at
the boundary so downstream modules can assume clean inputs.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.special import erf

from .errors import ShapeError

logger = logging.getLogger(__name__)

Matrix = np.ndarray


def as_matrix(a: object, name: str = "array") -> Matrix:
    """Coerce to a 2-D float64 array, raising ShapeError otherwise."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a: object, name: str = "array") -> np.ndarray:
    """Coerce to a 1-D float64 array, raising ShapeError otherwise."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def row_softmax(m: Matrix, scale: float = 1.0) -> Matrix:
    """Row-wise softmax of scale * m, stabilized by the row maximum.

    Rows always sum to 1; a constant row maps to the uniform distribution.
    Works in place on one scaled copy of m, so a block costs one temporary.
    """
    m = as_matrix(m, "m")
    if m.shape[1] == 0:
        raise ShapeError("softmax over zero columns is undefined")
    z = m * float(scale)
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def layer_norm(m: Matrix, eps: float = 1e-5) -> Matrix:
    """Per-row standardization: (x - mean) / sqrt(var + eps), no affine terms."""
    m = as_matrix(m, "m")
    if m.shape[1] < 2:
        raise ShapeError("layer_norm needs at least 2 columns per row")
    mu = m.mean(axis=1, keepdims=True)
    var = m.var(axis=1, keepdims=True)
    return (m - mu) / np.sqrt(var + eps)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def logistic(x: float | np.ndarray) -> float | np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def spectral_norm(w: Matrix, iters: int = 2000, tol: float = 1e-13) -> float:
    """Largest singular value of w by power iteration.

    The starting vector is the normalized all-ones vector, so repeated calls
    are deterministic.  Logs a warning if the estimate has not stabilized
    within the iteration budget.
    """
    w = as_matrix(w, "w")
    if w.size == 0:
        raise ShapeError("spectral_norm of an empty matrix is undefined")
    if not np.any(w):
        return 0.0
    n = w.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n))
    sigma = 0.0
    last = None
    for it in range(iters):
        wv = w @ v
        sigma = float(np.linalg.norm(wv))
        if sigma == 0.0:
            # v landed in the null space; restart from a basis vector.
            v = np.zeros(n)
            v[it % n] = 1.0
            last = None
            continue
        bv = w.T @ wv
        nbv = float(np.linalg.norm(bv))
        if nbv == 0.0:
            break
        v = bv / nbv
        if last is not None and abs(sigma - last) <= tol * max(1.0, sigma):
            return float(np.linalg.norm(w @ v))
        last = sigma
    logger.warning("spectral_norm: no convergence after %d iterations (last=%g)", iters, sigma)
    return float(np.linalg.norm(w @ v))
