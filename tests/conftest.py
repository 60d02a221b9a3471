"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.md import MultiDouble


@pytest.fixture
def rng():
    """A deterministic random generator for reproducible tests."""
    return random.Random(20210312)


@pytest.fixture
def nprng():
    """A deterministic NumPy generator."""
    return np.random.default_rng(20210312)


def limb_rows(values, limbs: int) -> np.ndarray:
    """The ``(limbs, len(values))`` limb array of a list of multidoubles.

    Row ``i`` holds limb ``i`` of every value: the structure-of-arrays
    layout the :mod:`repro.md.vecops` kernels and the slot tensors work on.
    """
    return np.array([[value.limbs[i] for value in values] for i in range(limbs)])


@pytest.fixture
def md_rows(rng):
    """Factory of random multidouble limb rows built on ``MultiDouble.random``.

    ``md_rows(count, limbs)`` returns ``(values, rows)``: ``count`` random
    :class:`repro.md.MultiDouble` values and the same values as a
    ``(limbs, count)`` array (see :func:`limb_rows`).
    """

    def make(count: int, limbs: int):
        values = [MultiDouble.random(limbs, rng) for _ in range(count)]
        return values, limb_rows(values, limbs)

    return make
