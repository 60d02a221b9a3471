"""Tests for the masked Newton kernel every refinement runs through.

:func:`repro.homotopy.newton._refine` is the one Newton iteration of the
package: the batched driver, the many-path scheduler and the solve service
only choose its lanes.  The contracts under test:

* a lane's result does not depend on its batchmates — each lane of one
  multi-lane call equals that lane refined alone at batch 1, limb for limb,
  on the resident and on the delegating branch;
* the correction norms read off the solution tensor equal the scalar
  :func:`repro.homotopy.residual_norm` of the unpacked corrections;
* a singular lane is dropped and reported by its *original* index.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.homotopy.newton as newton_module
from repro.circuits import parse_polynomial
from repro.circuits.monomial import Monomial
from repro.circuits.polynomial import Polynomial
from repro.errors import SingularSystemError
from repro.homotopy import NewtonOptions, PolynomialSystem, newton_power_series_batch, residual_norm
from repro.md import ComplexMD, MultiDouble
from repro.series import PowerSeries

DEGREE = 2


def _value(x: float, limbs: int, complex_ring: bool):
    real = MultiDouble.from_float(x, limbs)
    if complex_ring:
        return ComplexMD(real, MultiDouble.from_float(x / 16.0, limbs))
    return real


def _series(values, limbs: int, complex_ring: bool) -> PowerSeries:
    values = list(values) + [0.0] * (DEGREE + 1 - len(values))
    return PowerSeries([_value(v, limbs, complex_ring) for v in values])


def _lane_problem(rng, limbs: int, complex_ring: bool, mode: str):
    """``a x1^2 + b x2^2 = c(t)``, ``e x1 x2 = f(t)`` near a known root.

    The start point solves the system at ``t = 0`` up to a small
    perturbation, and ``x1 > x2 > 0`` keeps the Jacobian regular.
    """
    x, y = rng.uniform(1.5, 2.0), rng.uniform(0.4, 0.7)
    a, b, e = (rng.uniform(0.8, 1.2) for _ in range(3))
    slope1, slope2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    circle = Polynomial(
        2,
        _series([-(a * x * x + b * y * y), slope1], limbs, complex_ring),
        [
            Monomial.make(_series([a], limbs, complex_ring), {0: 2}),
            Monomial.make(_series([b], limbs, complex_ring), {1: 2}),
        ],
    )
    hyperbola = Polynomial(
        2,
        _series([-e * x * y, slope2], limbs, complex_ring),
        [Monomial.make(_series([e], limbs, complex_ring), {0: 1, 1: 1})],
    )
    system = PolynomialSystem([circle, hyperbola], mode=mode)
    start = [
        _series([x + rng.uniform(-1e-3, 1e-3)], limbs, complex_ring),
        _series([y + rng.uniform(-1e-3, 1e-3)], limbs, complex_ring),
    ]
    return system, start


def _limbs(series: PowerSeries):
    out = []
    for value in series.coefficients:
        if isinstance(value, ComplexMD):
            out.append((value.real.limbs, value.imag.limbs))
        else:
            out.append(value.limbs)
    return tuple(out)


def _signature(result):
    return (
        result.converged,
        [(step.iteration, step.residual, step.correction) for step in result.steps],
        [_limbs(series) for series in result.solution],
    )


@st.composite
def _kernel_cases(draw):
    slab = draw(st.integers(1, 4))
    lanes = draw(
        st.lists(st.integers(0, slab - 1), min_size=1, max_size=slab, unique=True).map(sorted)
    )
    return {
        "limbs": draw(st.sampled_from([2, 4])),
        "complex_ring": draw(st.booleans()),
        "mode": draw(st.sampled_from(["vectorized", "staged"])),
        "options": NewtonOptions(
            max_iterations=draw(st.integers(1, 3)),
            tolerance=draw(st.sampled_from([0.0, 1e-24, 1e-8])),
        ),
        "slab": slab,
        "lanes": lanes,
        "rng": draw(st.randoms(use_true_random=False)),
    }


class TestMaskedKernel:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=_kernel_cases())
    def test_each_lane_matches_its_solo_refinement(self, case):
        """Padding, masking and batchmates never change a lane's bits."""
        limbs, complex_ring, mode = case["limbs"], case["complex_ring"], case["mode"]
        options, lanes = case["options"], case["lanes"]
        problems = [
            _lane_problem(case["rng"], limbs, complex_ring, mode) for _ in range(case["slab"])
        ]
        corrections = []
        original = newton_module._corrections

        def recording(*args):
            solved = original(*args)
            corrections.extend(solved.values())
            return solved

        with mock.patch.object(newton_module, "_corrections", recording):
            context = problems[0][0].make_context(case["slab"])
            context.rebind_fleet([system.evaluator for system, _ in problems])
            solutions = [list(start) for _, start in problems]
            batch, singular = newton_module._refine(context, solutions, lanes, options)
        assert not singular and list(batch) == lanes
        assert context.resident == (mode == "vectorized")
        for delta, norm in corrections:
            assert norm == residual_norm(delta)
        for lane in lanes:
            system, start = problems[lane]
            alone, singular = newton_module._refine(
                system.make_context(1), [list(start)], [0], options
            )
            assert not singular
            assert _signature(batch[lane]) == _signature(alone[0])


class TestSingularInstances:
    @pytest.mark.parametrize("mode", ["staged", "vectorized"])
    def test_batch_driver_names_the_original_instance(self, mode):
        """``x^2 = 2`` started at ``x = 0`` has ``J = 2x = 0``: only that
        instance is singular, and the error names its batch index."""
        square = parse_polynomial("x1^2 - 2", dimension=1, degree=DEGREE, kind="md", precision=2)
        system = PolynomialSystem([square], mode=mode)
        starts = [
            [PowerSeries.constant(MultiDouble.from_float(x, 2), DEGREE)]
            for x in (1.5, 1.3, 0.0, 1.4)
        ]
        with pytest.raises(SingularSystemError) as info:
            newton_power_series_batch(system, starts, options=NewtonOptions(max_iterations=4))
        assert info.value.instances == [2]
