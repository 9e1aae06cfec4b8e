"""Counter-based random number generation.

Every random draw in this package is a pure function of (seed, domain, counters...),
so simulations replay bit-identically regardless of call order, thread count, or
how many other draws happened in between.  The mixer is the splitmix64 finalizer.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The constants and shifts as numpy scalars, built once: on a stride-sized
# array a round's time is mostly numpy's per-call cost.
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_ONE, _R11, _R27, _R30, _R31 = (np.uint64(k) for k in (1, 11, 27, 30, 31))

# Domain tags keep draws from distinct subsystems statistically independent
# even when their counter tuples coincide.
DOMAIN_SYNTH = 0x53594E54
DOMAIN_CADENCE = 0x43414445
DOMAIN_ERRSIM = 0x4552524D
DOMAIN_NOISE = 0x4E4F4953


def splitmix64(z: int) -> int:
    """One splitmix64 finalizer round over a 64-bit integer."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# The two Box-Muller draws' last counters, 0 and 1, hashed once.
_SALT0, _SALT1 = np.uint64(splitmix64(0)), np.uint64(splitmix64(1))


def counter_hash(seed: int, *counters: int) -> int:
    """Hash a seed and a tuple of counters to a uniform 64-bit value."""
    h = splitmix64(seed & _MASK64)
    for c in counters:
        h = splitmix64(h ^ splitmix64(c & _MASK64))
    return h


@functools.lru_cache(maxsize=256, typed=True)
def _prefix_hash(seed: int, *counters: int) -> int:
    return counter_hash(seed, *counters)


def uniform(seed: int, *counters: int | np.ndarray) -> float | np.ndarray:
    """Uniform draw in [0, 1) keyed by (seed, counters).

    Plain-int counters give one float.  Any numpy integer counter, array or
    scalar, gives the float64 draws over the counters broadcast together,
    each equal to the scalar draw at its counters.  The hash of the seed and
    the leading plain-int counters is remembered, so a walk along the last
    counter (cadence draws over a stride's token positions) costs two
    splitmix64 rounds a draw.
    """
    if all(type(c) is int for c in counters):
        h = _prefix_hash(seed, *counters[:-1])
        if counters:
            h = splitmix64(h ^ splitmix64(counters[-1] & _MASK64))
        return (h >> 11) * 2.0**-53
    return (counter_hash_array(seed, *counters) >> _R11) * 2.0**-53


def _splitmix64_rounds(z: np.ndarray) -> np.ndarray:
    z = z + _GOLDEN_U64
    z ^= z >> _R30
    z *= _MIX1_U64
    z ^= z >> _R27
    z *= _MIX2_U64
    z ^= z >> _R31
    return z


def _splitmix64_u64(z: np.ndarray) -> np.ndarray:
    # Wraparound modulo 2**64 is the point.  Array arithmetic wraps silently;
    # numpy scalar arithmetic warns, so only a 0-d input pays for errstate.
    if z.ndim:
        return _splitmix64_rounds(z)
    with np.errstate(over="ignore"):
        return _splitmix64_rounds(z)


def counter_hash_array(seed: int, *counters: int | np.ndarray) -> np.ndarray:
    """Vectorized counter_hash.

    Each counter may be a scalar or a broadcastable integer array; the result
    matches counter_hash element-by-element.  Leading plain-int counters are
    folded with the remembered prefix hash; numpy takes over at the first
    other counter.
    """
    k = 0
    while k < len(counters) and type(counters[k]) is int:
        k += 1
    h = np.uint64(_prefix_hash(seed, *counters[:k]))
    for c in counters[k:]:
        carr = np.asarray(c)
        if carr.dtype.kind not in "iu":
            raise TypeError(f"counters must be integers, got dtype {carr.dtype}")
        h = _splitmix64_u64(h ^ _splitmix64_u64(carr.astype(np.uint64)))
    return h


def normal_array(seed: int, *counters: int | np.ndarray) -> np.ndarray:
    """Vectorized standard normals via Box-Muller; float64 output.

    The two draws are counter_hash_array(seed, *counters, 0) and (..., 1),
    each one splitmix round past the shared prefix.
    """
    h = counter_hash_array(seed, *counters)
    h1 = _splitmix64_u64(h ^ _SALT0)
    h2 = _splitmix64_u64(h ^ _SALT1)
    u1 = ((h1 >> _R11) + _ONE) * 2.0**-53
    u2 = (h2 >> _R11) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def normal_matrix(seed: int, domain: int, tag: int, rows: int, cols: int) -> np.ndarray:
    """Deterministic (rows, cols) float64 matrix of standard normals."""
    r = np.arange(rows, dtype=np.uint64)[:, None]
    c = np.arange(cols, dtype=np.uint64)[None, :]
    return normal_array(seed, domain, tag, r, c)
