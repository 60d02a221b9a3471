"""Vectorised error-free transformations on NumPy arrays.

These are the elementwise counterparts of :mod:`repro.md.eft`: every function
accepts arrays (or scalars, thanks to NumPy broadcasting) and applies the
error-free transformation to each element independently.  They are the
building blocks of the structure-of-arrays kernels in :mod:`repro.md.vecops`,
which mirror the GPU data layout described in the paper (one contiguous array
per limb, so consecutive threads touch consecutive memory locations).

All operations are branch-free, which keeps them trivially vectorisable — the
same property the CUDA kernels rely on to avoid thread divergence.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "vec_two_sum",
    "vec_quick_two_sum",
    "vec_two_prod",
    "vec_split",
    "vec_two_sqr",
]

_SPLITTER = 134217729.0  # 2**27 + 1


def vec_two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise Knuth two-sum: ``s = fl(a+b)``, ``s + e == a + b`` exactly."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def vec_quick_two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise Dekker fast two-sum; requires ``|a| >= |b|`` elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    s = a + b
    err = b - (s - a)
    return s, err


def vec_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise Veltkamp split into 26-bit high and low parts."""
    a = np.asarray(a, dtype=np.float64)
    temp = _SPLITTER * a
    hi = temp - (temp - a)
    lo = a - hi
    return hi, lo


def vec_two_prod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise exact product: ``p = fl(a*b)``, ``p + e == a * b`` exactly."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    p = a * b
    a_hi, a_lo = vec_split(a)
    b_hi, b_lo = vec_split(b)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def vec_two_sqr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise exact square."""
    a = np.asarray(a, dtype=np.float64)
    p = a * a
    hi, lo = vec_split(a)
    err = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
    return p, err
