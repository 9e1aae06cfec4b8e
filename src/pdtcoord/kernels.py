"""Dense float64 kernels used by the coordination layer.

All public functions take and return plain numpy arrays.  Matrix means a 2-D
float64 ndarray throughout the package.  as_matrix and as_vector coerce and
check rank and finiteness; each array is scanned once on its way through a
stride: layer_norm scans the adapter's hidden block, and row_softmax scans
the attention scores, which any non-finite hidden or note entry reaches.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import ShapeError

Matrix = np.ndarray


def as_matrix(a: object, name: str = "array") -> Matrix:
    """Coerce to a 2-D float64 array, raising ShapeError otherwise."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a: object, name: str = "array") -> np.ndarray:
    """Coerce to a 1-D float64 array, raising ShapeError otherwise."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def row_softmax(m: Matrix, scale: float = 1.0, out: Matrix | None = None) -> Matrix:
    """Row-wise softmax of scale * m, stabilized by the row maximum.

    Rows always sum to 1; a constant row maps to the uniform distribution.
    The result is built in out, numpy's idiom: out=m scales, exponentiates
    and normalises m in place and allocates no block; by default it goes to
    one new array.  Either way the bits are the same.
    """
    m = as_matrix(m, "m")
    if m.shape[1] == 0:
        raise ShapeError("softmax over zero columns is undefined")
    z = np.multiply(m, float(scale), out=out)
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def layer_norm(m: Matrix, eps: float = 1e-5) -> Matrix:
    """Per-row standardization: (x - mean) / sqrt(var + eps), no affine terms.

    The moments come from one centred pass, summed and divided as np.mean
    and np.var do, so the result is bit-identical to
    (m - m.mean(1)) / sqrt(m.var(1) + eps).
    """
    m = as_matrix(m, "m")
    n = m.shape[1]
    if n < 2:
        raise ShapeError("layer_norm needs at least 2 columns per row")
    centred = m - np.add.reduce(m, axis=1, keepdims=True) / n
    var = np.add.reduce(centred * centred, axis=1, keepdims=True) / n
    centred /= np.sqrt(var + eps)
    return centred


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def logistic(x: float) -> float:
    """Numerically stable logistic sigmoid of a scalar."""
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    ex = np.exp(x)
    return float(ex / (1.0 + ex))


def spectral_norm(w: Matrix) -> float:
    """Largest singular value of w, exact from numpy's SVD.

    Exact, because a power iteration from a fixed start vector misses it
    whenever that vector is orthogonal to the top right singular vector.
    """
    w = as_matrix(w, "w")
    if w.size == 0:
        raise ShapeError("spectral_norm of an empty matrix is undefined")
    return float(np.linalg.norm(w, 2))
