"""Micro-benchmarks of the multiple-double arithmetic (real measured times).

These measure this library's own host implementation — the scalar
:class:`MultiDouble` and the vectorised limb-row kernels of
:mod:`repro.md.vecops` — so the cost
overhead of increasing precision can be observed directly on the machine
running the benchmarks (the Python analogue of Figure 5's overhead factors).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.md import MultiDouble, md_add_rows, md_mul_rows

PRECISIONS = (1, 2, 4, 8, 10)


def _random_rows(count: int, limbs: int, rng) -> list[np.ndarray]:
    """``count`` random multidoubles as ``limbs`` rows of a ``(1, count)`` tensor."""
    values = [MultiDouble.random(limbs, rng) for _ in range(count)]
    return [np.array([[v.limbs[i] for v in values]]) for i in range(limbs)]


@pytest.mark.parametrize("limbs", PRECISIONS)
def test_scalar_multiplication(benchmark, limbs):
    rng = random.Random(limbs)
    a = MultiDouble.random(limbs, rng)
    b = MultiDouble.random(limbs, rng)
    result = benchmark(lambda: a * b)
    assert result.precision.limbs == limbs


@pytest.mark.parametrize("limbs", PRECISIONS)
def test_scalar_addition(benchmark, limbs):
    rng = random.Random(limbs)
    a = MultiDouble.random(limbs, rng)
    b = MultiDouble.random(limbs, rng)
    result = benchmark(lambda: a + b)
    assert result.precision.limbs == limbs


@pytest.mark.parametrize("limbs", (2, 4, 10))
def test_vectorised_multiplication_1024_elements(benchmark, limbs):
    rng = random.Random(limbs)
    a = _random_rows(1024, limbs, rng)
    b = _random_rows(1024, limbs, rng)
    result = benchmark(md_mul_rows, a, b, limbs)
    assert len(result) == limbs and result[0].shape == (1, 1024)


@pytest.mark.parametrize("limbs", (2, 4, 10))
def test_vectorised_addition_1024_elements(benchmark, limbs):
    rng = random.Random(limbs)
    a = _random_rows(1024, limbs, rng)
    b = _random_rows(1024, limbs, rng)
    result = benchmark(md_add_rows, a, b, limbs)
    assert len(result) == limbs and result[0].shape == (1, 1024)


def test_scalar_division_quad_double(benchmark):
    rng = random.Random(7)
    a = MultiDouble.random(4, rng)
    b = MultiDouble.random(4, rng) + 2
    result = benchmark(lambda: a / b)
    assert result.precision.limbs == 4


def test_scalar_sqrt_deca_double(benchmark):
    x = MultiDouble.from_float(2.0, 10)
    result = benchmark(x.sqrt)
    assert abs((result * result - 2).to_float()) < 1e-100
