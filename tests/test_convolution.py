"""Tests for the convolution formulations of Section 2 and their vectorised form."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from conftest import limb_rows
from repro.core.tensor import convolve_rows
from repro.series import (
    add_coefficients,
    addition_operation_count,
    convolution_operation_count,
    convolve_direct,
    convolve_zero_insertion,
    random_fraction_series,
    random_md_series,
)


class TestDirectVsZeroInsertion:
    def test_equal_results_on_fractions(self, rng):
        x = random_fraction_series(7, rng).coefficients
        y = random_fraction_series(7, rng).coefficients
        assert convolve_direct(x, y) == convolve_zero_insertion(x, y)

    def test_zero_insertion_matches_formula(self, rng):
        x = random_fraction_series(5, rng).coefficients
        y = random_fraction_series(5, rng).coefficients
        z = convolve_zero_insertion(x, y)
        for k in range(6):
            expected = sum((x[i] * y[k - i] for i in range(k + 1)), Fraction(0))
            assert z[k] == expected

    def test_degree_zero(self):
        assert convolve_zero_insertion([Fraction(3)], [Fraction(5)]) == [Fraction(15)]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            convolve_direct([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            convolve_zero_insertion([1.0, 2.0], [1.0])

    def test_float_and_md_rings(self, rng):
        xf = [0.5, -1.0, 2.0]
        yf = [1.0, 0.25, -0.75]
        assert convolve_direct(xf, yf) == convolve_zero_insertion(xf, yf)
        xm = random_md_series(3, 3, rng).coefficients
        ym = random_md_series(3, 3, rng).coefficients
        direct = convolve_direct(xm, ym)
        zero_ins = convolve_zero_insertion(xm, ym)
        assert all((a - b).to_float() == 0.0 for a, b in zip(direct, zero_ins))


class TestAddition:
    def test_add_coefficients(self):
        assert add_coefficients([1, 2, 3], [4, 5, 6]) == [5, 7, 9]
        with pytest.raises(ValueError):
            add_coefficients([1], [1, 2])


class TestVectorizedConvolution:
    """:func:`repro.core.tensor.convolve_rows`, the host's vectorised form."""

    @pytest.mark.parametrize("limbs", (1, 2, 4, 10))
    def test_matches_scalar(self, limbs, md_rows):
        """Every row equals ``convolve_direct`` on MultiDouble, limb for limb."""
        pairs = 3
        for degree in (0, 1, 5, 8):
            n = degree + 1
            x, xr = md_rows(pairs * n, limbs)
            y, yr = md_rows(pairs * n, limbs)
            out = convolve_rows(
                xr.reshape(limbs, pairs, n), yr.reshape(limbs, pairs, n), limbs
            )
            for j in range(pairs):
                row = slice(j * n, (j + 1) * n)
                expected = convolve_direct(x[row], y[row])
                assert np.array_equal(out[:, j, :], limb_rows(expected, limbs))

    def test_precision_mismatch_rejected(self, md_rows):
        _, xr = md_rows(3, 2)
        _, yr = md_rows(3, 4)
        with pytest.raises(ValueError):
            convolve_rows(xr.reshape(2, 1, 3), yr.reshape(4, 1, 3), 2)


class TestOperationCounts:
    def test_convolution_counts(self):
        # (d+1)^2 multiplications, d(d+1) additions.
        assert convolution_operation_count(0) == (1, 0)
        assert convolution_operation_count(152) == (153 * 153, 152 * 153)

    def test_addition_counts(self):
        assert addition_operation_count(0) == (0, 1)
        assert addition_operation_count(152) == (0, 153)

    def test_zero_insertion_performs_uniform_work(self, rng):
        """Every thread of the zero-insertion kernel does the same number of ops.

        We verify this by counting ring operations with a tiny instrumented
        coefficient type.
        """

        class Counting:
            mults = 0
            adds = 0

            def __init__(self, value):
                self.value = value

            def __mul__(self, other):
                if not isinstance(other, Counting):
                    # ring-external scalars (the zero-like helper) are free
                    return Counting(self.value * other)
                Counting.mults += 1
                return Counting(self.value * other.value)

            def __add__(self, other):
                if not isinstance(other, Counting):
                    return Counting(self.value + other)
                Counting.adds += 1
                return Counting(self.value + other.value)

        degree = 6
        x = [Counting(float(i + 1)) for i in range(degree + 1)]
        y = [Counting(float(2 * i + 1)) for i in range(degree + 1)]
        Counting.mults = 0
        Counting.adds = 0
        convolve_zero_insertion(x, y)
        mults, adds = convolution_operation_count(degree)
        assert Counting.mults == mults
        assert Counting.adds == adds
