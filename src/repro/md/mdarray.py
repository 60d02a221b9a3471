"""Structure-of-arrays multiple-double vectors.

The paper stores "all parts of multiple double numbers in separate arrays" so
that consecutive GPU threads access consecutive memory locations.
:class:`MDArray` reproduces that layout on the host: an array of ``n``
multiple-double values with ``k`` limbs is held as a single contiguous NumPy
array of shape ``(k, n)`` (limb-major), and every arithmetic operation is a
sequence of vectorised, branch-free error-free transformations applied to
whole limb rows at once.

This is the type the vectorised power-series kernels
(:mod:`repro.series.vectorseries`) operate on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .multidouble import MultiDouble
from .precision import get_precision
from .veft import vec_two_prod
from .vrenorm import vec_renormalize

__all__ = ["MDArray"]


class MDArray:
    """A one-dimensional array of multiple-double numbers.

    Parameters
    ----------
    data:
        NumPy array of shape ``(limbs, n)`` holding the limbs (leading limb
        in row 0).  The array is used as-is (no copy) when it already has the
        right dtype and layout.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"MDArray expects a (limbs, n) array, got shape {data.shape}")
        self.data = data

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zeros(cls, size: int, precision=2) -> "MDArray":
        """An array of ``size`` zero values."""
        limbs = get_precision(precision).limbs
        return cls(np.zeros((limbs, size), dtype=np.float64))

    @classmethod
    def from_doubles(cls, values: Sequence[float], precision=2) -> "MDArray":
        """Exact promotion of plain doubles (extra limbs are zero)."""
        limbs = get_precision(precision).limbs
        values = np.asarray(values, dtype=np.float64).ravel()
        data = np.zeros((limbs, values.size), dtype=np.float64)
        data[0, :] = values
        return cls(data)

    @classmethod
    def from_multidoubles(cls, values: Iterable[MultiDouble], precision=None) -> "MDArray":
        """Pack scalar :class:`MultiDouble` values into an array."""
        values = list(values)
        if not values:
            limbs = get_precision(precision if precision is not None else 2).limbs
            return cls.zeros(0, limbs)
        limbs = (
            get_precision(precision).limbs
            if precision is not None
            else max(v.precision.limbs for v in values)
        )
        data = np.zeros((limbs, len(values)), dtype=np.float64)
        for j, v in enumerate(values):
            limbs_v = v.to_precision(limbs).limbs
            data[:, j] = limbs_v
        return cls(data)

    @classmethod
    def random(cls, size: int, precision=2, rng=None) -> "MDArray":
        """Random values in ``[-1, 1)`` with noise in every limb position."""
        limbs = get_precision(precision).limbs
        rng = np.random.default_rng() if rng is None else rng
        data = np.zeros((limbs, size), dtype=np.float64)
        data[0, :] = rng.uniform(-1.0, 1.0, size)
        for i in range(1, limbs):
            data[i, :] = rng.uniform(-0.5, 0.5, size) * 2.0 ** (-52 * i)
        return cls(np.stack(vec_renormalize(list(data), limbs)))

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def limbs(self) -> int:
        """Number of doubles per value."""
        return self.data.shape[0]

    @property
    def size(self) -> int:
        """Number of multiple-double values."""
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.size

    def copy(self) -> "MDArray":
        """Deep copy."""
        return MDArray(self.data.copy())

    def limb_rows(self) -> list[np.ndarray]:
        """The limb arrays as a list (row 0 first), without copying."""
        return [self.data[i] for i in range(self.limbs)]

    def to_float(self) -> np.ndarray:
        """Round every value to a single double."""
        out = np.zeros(self.size, dtype=np.float64)
        for i in range(self.limbs - 1, -1, -1):
            out += self.data[i]
        return out

    def to_multidoubles(self) -> list[MultiDouble]:
        """Unpack into scalar :class:`MultiDouble` values."""
        return [MultiDouble(tuple(self.data[:, j]), self.limbs) for j in range(self.size)]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return MultiDouble(tuple(self.data[:, index]), self.limbs)
        return MDArray(self.data[:, index])

    def __setitem__(self, index, value):
        if isinstance(value, MultiDouble):
            self.data[:, index] = value.to_precision(self.limbs).limbs
        elif isinstance(value, MDArray):
            self.data[:, index] = value.to_precision(self.limbs).data
        else:
            promoted = MultiDouble(renorm_scalar(value, self.limbs), self.limbs)
            self.data[:, index] = promoted.limbs

    def to_precision(self, precision) -> "MDArray":
        """Round (or zero-pad) to another precision."""
        limbs = get_precision(precision).limbs
        if limbs == self.limbs:
            return self.copy()
        if limbs > self.limbs:
            data = np.zeros((limbs, self.size), dtype=np.float64)
            data[: self.limbs] = self.data
            return MDArray(data)
        rows = vec_renormalize(self.limb_rows(), limbs)
        return MDArray(np.stack(rows))

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def _coerce(self, other) -> "MDArray":
        if isinstance(other, MDArray):
            if other.limbs != self.limbs:
                return other.to_precision(self.limbs)
            return other
        if isinstance(other, MultiDouble):
            data = np.tile(
                np.asarray(other.to_precision(self.limbs).limbs, dtype=np.float64)[:, None],
                (1, self.size),
            )
            return MDArray(data)
        if isinstance(other, (int, float)):
            data = np.zeros((self.limbs, self.size), dtype=np.float64)
            data[0, :] = float(other)
            return MDArray(data)
        if isinstance(other, np.ndarray):
            return MDArray.from_doubles(other, self.limbs)
        raise TypeError(f"cannot combine MDArray with {type(other).__name__}")

    def __add__(self, other) -> "MDArray":
        other = self._coerce(other)
        terms = self.limb_rows() + other.limb_rows()
        return MDArray(np.stack(vec_renormalize(terms, self.limbs)))

    __radd__ = __add__

    def __neg__(self) -> "MDArray":
        return MDArray(-self.data)

    def __sub__(self, other) -> "MDArray":
        other = self._coerce(other)
        terms = self.limb_rows() + [-row for row in other.limb_rows()]
        return MDArray(np.stack(vec_renormalize(terms, self.limbs)))

    def __rsub__(self, other) -> "MDArray":
        return (-self).__add__(other)

    def __mul__(self, other) -> "MDArray":
        other = self._coerce(other)
        k = self.limbs
        a = self.limb_rows()
        b = other.limb_rows()
        terms: list[np.ndarray] = []
        for i in range(k):
            for j in range(k):
                if i + j < k:
                    p, e = vec_two_prod(a[i], b[j])
                    terms.append(p)
                    terms.append(e)
                elif i + j == k:
                    terms.append(a[i] * b[j])
        return MDArray(np.stack(vec_renormalize(terms, k)))

    __rmul__ = __mul__

    def scale(self, factor: float) -> "MDArray":
        """Multiply every value by a plain double exactly-then-renormalise."""
        terms: list[np.ndarray] = []
        for row in self.limb_rows():
            p, e = vec_two_prod(row, np.full(self.size, float(factor)))
            terms.append(p)
            terms.append(e)
        return MDArray(np.stack(vec_renormalize(terms, self.limbs)))

    def sum(self) -> MultiDouble:
        """Sum of all values, accumulated in the array's precision."""
        total = MultiDouble.zero(self.limbs)
        for value in self.to_multidoubles():
            total = total + value
        return total

    # ------------------------------------------------------------------ #
    # comparisons / diagnostics
    # ------------------------------------------------------------------ #
    def max_abs(self) -> float:
        """Largest leading-limb magnitude (useful for error reporting)."""
        if self.size == 0:
            return 0.0
        return float(np.max(np.abs(self.to_float())))

    def allclose(self, other: "MDArray", tol: float | None = None) -> bool:
        """True when every element agrees with ``other`` within ``tol``.

        The default tolerance is a few ulps of the common precision relative
        to the largest magnitude involved.
        """
        other = self._coerce(other)
        if tol is None:
            tol = 2.0 ** (-52 * self.limbs + 8)
        diff = self - other
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return diff.max_abs() <= tol * scale

    def __repr__(self):
        return f"MDArray(limbs={self.limbs}, size={self.size})"


def renorm_scalar(value, limbs: int) -> tuple[float, ...]:
    """Promote a Python scalar to a canonical limb tuple (helper)."""
    from .renorm import renormalize

    return renormalize((float(value),), limbs)
