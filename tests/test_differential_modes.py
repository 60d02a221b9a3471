"""Generated differential tests across the evaluation modes.

Hypothesis draws random systems — non-multilinear supports with exponents up
to 3, single-variable monomials and constant-only equations — over every
coefficient ring the evaluators support, with 1-3 equations and batches of
1-4 input vectors, and checks the modes against each other:

* ``reference`` ≡ ``staged``: exactly on ``Fraction``, within
  ``2**(-52 * limbs + 24)`` on the floating-point rings;
* ``staged`` ≡ ``vectorized``: bit for bit (``max_difference == 0.0``) on
  doubles, complexes, real multiple doubles and ``ComplexMD`` at 2 limbs;
  ``ComplexMD`` above 2 limbs may differ in the last limb and is held to
  the bound of ``test_complex_tensor.py``; ``Fraction`` batches fall back
  to the staged path;
* ``PolynomialEvaluator(p, mode)`` ≡ ``SystemEvaluator([p], mode)`` bit for
  bit, in every mode.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import Monomial, Polynomial
from repro.core import PolynomialEvaluator, ScheduleCache, SystemEvaluator
from repro.series import random_series_vector

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MODES = ("reference", "staged", "vectorized")

#: ``(series kind, limbs)`` of every coefficient ring under test.
RINGS = (
    ("float", 1),
    ("complex", 1),
    ("md", 2),
    ("md", 4),
    ("complex_md", 2),
    ("complex_md", 3),
    ("fraction", 1),
)


def _tolerance(limbs: int) -> float:
    """The staged/vectorized bound of ``test_complex_tensor.py``."""
    return 2.0 ** (-52 * limbs + 24)


def _bitwise(kind: str, limbs: int) -> bool:
    """Whether ``staged`` and ``vectorized`` must agree bit for bit."""
    return kind != "complex_md" or limbs == 2


@st.composite
def supports(draw, dimension: int):
    """The exponent maps of one equation's monomials (possibly none)."""
    shape = draw(st.sampled_from(("general", "single_variable", "constant_only")))
    if shape == "constant_only":
        return []
    exponent = st.integers(min_value=1, max_value=3)
    n_monomials = draw(st.integers(min_value=1, max_value=4))
    maps: dict[tuple[int, ...], dict[int, int]] = {}
    for _ in range(n_monomials):
        if shape == "single_variable":
            variables = [draw(st.integers(min_value=0, max_value=dimension - 1))]
        else:
            variables = draw(
                st.lists(
                    st.integers(min_value=0, max_value=dimension - 1),
                    min_size=1,
                    max_size=dimension,
                    unique=True,
                )
            )
        support = tuple(sorted(variables))
        maps[support] = {variable: draw(exponent) for variable in support}
    return list(maps.values())


@st.composite
def workloads(draw):
    """A random system, its ring and a batch of input vectors."""
    kind, limbs = draw(st.sampled_from(RINGS))
    dimension = draw(st.integers(min_value=1, max_value=4))
    degree = draw(st.integers(min_value=0, max_value=3))
    structures = draw(st.lists(supports(dimension), min_size=1, max_size=3))
    batch = draw(st.integers(min_value=1, max_value=4))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    polynomials = []
    for exponent_maps in structures:
        coefficients = random_series_vector(len(exponent_maps), degree, kind, limbs, rng)
        constant = random_series_vector(1, degree, kind, limbs, rng)[0]
        monomials = [
            Monomial.make(coefficient, exponents)
            for coefficient, exponents in zip(coefficients, exponent_maps)
        ]
        polynomials.append(Polynomial(dimension, constant, monomials))
    zs = [random_series_vector(dimension, degree, kind, limbs, rng) for _ in range(batch)]
    return kind, limbs, polynomials, zs


def _max_difference(batch_a, batch_b) -> float:
    return max(
        got.max_difference(expected)
        for row_a, row_b in zip(batch_a, batch_b)
        for got, expected in zip(row_a, row_b)
    )


class TestModeDifferential:
    @SETTINGS
    @given(workloads())
    def test_modes_agree(self, workload):
        kind, limbs, polynomials, zs = workload
        cache = ScheduleCache()
        results = {
            mode: SystemEvaluator(polynomials, mode=mode, cache=cache).evaluate_batch(zs)
            for mode in MODES
        }

        reference_gap = _max_difference(results["reference"], results["staged"])
        if kind == "fraction":
            assert reference_gap == 0.0
        else:
            assert reference_gap < _tolerance(limbs)

        vectorized_gap = _max_difference(results["staged"], results["vectorized"])
        if _bitwise(kind, limbs):
            assert vectorized_gap == 0.0
        else:
            assert vectorized_gap < _tolerance(limbs)
        expected_mode = "staged" if kind == "fraction" else "vectorized"
        assert results["vectorized"][0][0].metadata["mode"] == expected_mode

    @SETTINGS
    @given(workloads())
    def test_polynomial_evaluator_is_a_one_equation_system(self, workload):
        _, _, polynomials, zs = workload
        for mode in MODES:
            for polynomial in polynomials:
                single = PolynomialEvaluator(polynomial, mode=mode)
                system = SystemEvaluator([polynomial], mode=mode)
                for z in zs:
                    got = single.evaluate(z)
                    assert got.max_difference(system.evaluate(z)[0]) == 0.0
                    assert single(z).max_difference(got) == 0.0
