"""Tests for the structure-of-arrays multidouble kernels of :mod:`repro.md.vecops`.

The kernels work on limb rows — one NumPy array per limb, leading limb
first — and must equal the scalar :class:`MultiDouble` operators limb for
limb at every limb count, which is what lets the tensor backend stand in for
the scalar oracle bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from conftest import limb_rows
from repro.md import MultiDouble, md_add_rows, md_mul_rows, md_scale_rows, md_sub_rows

LIMBS = (1, 2, 3, 4, 5, 8, 10)


def _kernel(op, x, y, limbs: int) -> np.ndarray:
    return np.array(op(x, y, limbs))


class TestArithmetic:
    @pytest.mark.parametrize("limbs", LIMBS)
    def test_addition_matches_scalar(self, limbs, md_rows):
        x, xr = md_rows(16, limbs)
        y, yr = md_rows(16, limbs)
        expected = limb_rows([a + b for a, b in zip(x, y)], limbs)
        assert np.array_equal(_kernel(md_add_rows, xr, yr, limbs), expected)

    @pytest.mark.parametrize("limbs", LIMBS)
    def test_subtraction_matches_scalar(self, limbs, md_rows):
        x, xr = md_rows(16, limbs)
        y, yr = md_rows(16, limbs)
        expected = limb_rows([a - b for a, b in zip(x, y)], limbs)
        assert np.array_equal(_kernel(md_sub_rows, xr, yr, limbs), expected)

    @pytest.mark.parametrize("limbs", LIMBS)
    def test_multiplication_matches_scalar(self, limbs, md_rows):
        x, xr = md_rows(16, limbs)
        y, yr = md_rows(16, limbs)
        expected = limb_rows([a * b for a, b in zip(x, y)], limbs)
        assert np.array_equal(_kernel(md_mul_rows, xr, yr, limbs), expected)

    @pytest.mark.parametrize("limbs", LIMBS)
    def test_scale_matches_scalar(self, limbs, md_rows, nprng):
        x, xr = md_rows(16, limbs)
        factors = np.concatenate([nprng.uniform(-4.0, 4.0, 12), [3.0, -2.0, 0.5, 7.0]])
        expected = limb_rows([a * float(f) for a, f in zip(x, factors)], limbs)
        assert np.array_equal(_kernel(md_scale_rows, xr, factors, limbs), expected)

    @pytest.mark.parametrize("limbs", (2, 4, 10))
    def test_multiplication_matches_exact(self, limbs, md_rows):
        x, xr = md_rows(12, limbs)
        y, yr = md_rows(12, limbs)
        product = _kernel(md_mul_rows, xr, yr, limbs)
        for i in range(12):
            got = MultiDouble(product[:, i]).to_fraction()
            expected = x[i].to_fraction() * y[i].to_fraction()
            scale = max(abs(expected), Fraction(1, 10))
            assert abs(got - expected) / scale < Fraction(2) ** (-52 * limbs + 8)

    def test_subtraction_and_negation(self, md_rows):
        _, xr = md_rows(8, 3)
        assert not _kernel(md_sub_rows, xr, xr, 3).any()
        negated = _kernel(md_scale_rows, xr, np.full(8, -1.0), 3)
        assert not _kernel(md_add_rows, negated, xr, 3).any()

    def test_scalar_broadcast(self, md_rows):
        """A plain double broadcasts across every row, as a one-limb value."""
        x, xr = md_rows(5, 2)
        one = [np.float64(1.0), np.float64(0.0)]
        expected = limb_rows([value + 1 for value in x], 2)
        assert np.array_equal(_kernel(md_add_rows, xr, one, 2), expected)

    def test_multidouble_broadcast(self, md_rows):
        """A ``(limbs, 1)`` column broadcasts along the row — the pattern
        :func:`repro.core.tensor.convolve_rows` uses for each coefficient."""
        x, xr = md_rows(5, 4)
        c = MultiDouble.from_fraction(Fraction(1, 3), 4)
        column = limb_rows([c], 4)
        expected = limb_rows([value * c for value in x], 4)
        assert np.array_equal(_kernel(md_mul_rows, xr, column, 4), expected)

    def test_sum_reduction(self, md_rows):
        """Folding a row with additions accumulates like the scalar fold."""
        x, xr = md_rows(10, 4)
        total = xr[:, :1]
        for k in range(1, 10):
            total = _kernel(md_add_rows, total, xr[:, k : k + 1], 4)
        scalar = x[0]
        for value in x[1:]:
            scalar = scalar + value
        assert np.array_equal(total[:, 0], np.array(scalar.limbs))
        exact = sum((value.to_fraction() for value in x), Fraction(0))
        assert abs(MultiDouble(total[:, 0]).to_fraction() - exact) < Fraction(2) ** (-52 * 4 + 10)
