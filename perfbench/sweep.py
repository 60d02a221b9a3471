"""Workload ``sweep``: the paper's p1 at deca double precision, degree 8.

p1 has 16 variables and all 1820 products of four distinct variables
(Table 3 of the paper).  A resident vectorized context of batch 2 is packed
once; each timed evaluation writes fresh seeded inputs with
``update_inputs`` and runs one value-and-gradient sweep with ``run()``.
There is no solve, no scheduler and no adjusted coefficient: the time is in
the multiple-double kernels, on a limb tensor of about 24 MB.
"""

from __future__ import annotations

import random
import time

import numpy as np

from .common import Measurement

DEGREE = 8
LIMBS = 10
BATCH = 2
#: Tolerance of the float64 reference: |md - ref| must stay below
#: REFERENCE_RTOL times the same quantity evaluated on absolute values.  The
#: longest float64 operation chain (a 1820-term sum of four-factor degree-8
#: products) is under 1000 roundings, so 1e-13 is a bound, not a fit.
REFERENCE_RTOL = 1.0e-13

UNIT = "evaluation"


def make_inputs(seed: int) -> dict:
    """p1 with seeded coefficients and a supply of seeded input batches."""
    from repro.circuits.testpolys import make_p1

    rng = random.Random(seed)
    polynomial = make_p1(DEGREE, kind="md", precision=LIMBS, rng=rng)
    return {"polynomial": polynomial, "rng": rng, "batches": []}


def input_batch(inputs: dict, index: int) -> list:
    """The ``index``-th seeded input batch (generated on first use)."""
    from repro.series import random_md_series

    batches = inputs["batches"]
    while len(batches) <= index:
        rng = inputs["rng"]
        batches.append(
            [[random_md_series(DEGREE, LIMBS, rng) for _ in range(16)] for _ in range(BATCH)]
        )
    return batches[index]


def setup(inputs: dict) -> dict:
    """Schedule build, program compile and the first pack of the context."""
    from repro.core import SystemEvaluator

    evaluator = SystemEvaluator([inputs["polynomial"]], mode="vectorized")
    context = evaluator.make_context(BATCH)
    context.update_inputs(input_batch(inputs, 0))
    return {"inputs": inputs, "context": context}


def evaluate(context, batch) -> list:
    """Write one input batch into the resident context and sweep it."""
    context.update_inputs(batch)
    return context.run()


def measure(state: dict, seconds: float) -> Measurement:
    """Evaluate fresh batches, at least one, until the next would overrun ``seconds``.

    Batch 0 was packed during set-up; the timed evaluations take batches 1,
    2, and so on.
    """
    context = state["context"]
    inputs = state["inputs"]
    elapsed = 0.0
    latencies: list[float] = []
    results = []
    count = 0
    while count == 0 or elapsed + elapsed / count <= seconds:
        batch = input_batch(inputs, 1 + count)
        begin = time.perf_counter_ns()
        result = evaluate(context, batch)
        spent = (time.perf_counter_ns() - begin) / 1e6
        elapsed += spent / 1e3
        latencies += [spent] * BATCH
        results.append((1 + count, result))
        count += 1
    return Measurement(
        ops=BATCH * count,
        elapsed_s=elapsed,
        latencies_ms=latencies,
        attempted=BATCH * count,
        failed=0,
        notes={"evaluations": count, "results": results, "evals_per_s": BATCH * count / elapsed},
    )


def paper_gflops(evals_per_s: float) -> float:
    """Paper-counted double operations (Section 6.2) per second, in GFLOPS."""
    from repro.circuits.testpolys import PAPER_POLYNOMIALS
    from repro.gpusim.flops import evaluation_double_ops

    convolutions, additions = PAPER_POLYNOMIALS["p1"][3:]
    flops = evaluation_double_ops(convolutions, additions, DEGREE, LIMBS)
    return flops.total * evals_per_s / 1e9


# --------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------- #
def _as_float(series) -> np.ndarray:
    return np.array([c.to_float() for c in series.coefficients])


def _limbs(series) -> list:
    return [c.limbs for c in series.coefficients]


def _toeplitz(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrices: ``_toeplitz(a) @ b`` is the truncated product."""
    n = a.shape[-1]
    rows = np.arange(n)[:, None] - np.arange(n)[None, :]
    return np.where(rows >= 0, a[..., np.clip(rows, 0, None)], 0.0)


def reference(polynomial, batch) -> list[tuple]:
    """Independent float64 values and gradients of p1, with magnitude scales.

    Returns one ``(value, gradient, value_scale, gradient_scale)`` per
    instance.  A scale is the same quantity evaluated with every coefficient
    and input replaced by its absolute value, which bounds the rounding
    error of any evaluation order.
    """
    monomials = polynomial.monomials
    supports = np.array([[v for v, _ in m.exponents] for m in monomials])
    coeffs = np.array([_as_float(m.coefficient) for m in monomials])
    constant = _as_float(polynomial.constant)
    out = []
    for z in batch:
        x = np.array([_as_float(series) for series in z])
        value, gradient = _p1(constant, coeffs, supports, x)
        value_scale, gradient_scale = _p1(np.abs(constant), np.abs(coeffs), supports, np.abs(x))
        out.append((value, gradient, value_scale.max(), gradient_scale.max()))
    return out


def _p1(constant, coeffs, supports, x):
    mats = _toeplitz(x[supports])  # (M, 4, n+1, n+1): one matrix per factor

    def product(skip: int) -> np.ndarray:
        out = coeffs
        for k in range(4):
            if k != skip:
                out = np.einsum("mij,mj->mi", mats[:, k], out)
        return out

    gradient = np.zeros_like(x)
    for skip in range(4):
        np.add.at(gradient, supports[:, skip], product(skip))
    value = constant + np.einsum("mij,mj->mi", mats[:, 0], product(0)).sum(axis=0)
    return value, gradient


def check(state: dict, measurement: Measurement, repeat) -> list[str]:
    """Results match float64 NumPy and repeat bit for bit on the same inputs.

    ``repeat`` is ``(index, results)``: a second evaluation of input batch
    ``index``, compared limb for limb with the timed one.
    """
    inputs = state["inputs"]
    polynomial = inputs["polynomial"]
    errors = []
    for index, results in measurement.notes["results"]:
        expected = reference(polynomial, input_batch(inputs, index))
        for b, ((result,), (value, gradient, value_scale, gradient_scale)) in enumerate(
            zip(results, expected)
        ):
            value_gap = np.abs(_as_float(result.value) - value).max()
            got_gradient = np.array([_as_float(g) for g in result.gradient])
            gradient_gap = np.abs(got_gradient - gradient).max()
            if not (
                value_gap <= REFERENCE_RTOL * value_scale
                and gradient_gap <= REFERENCE_RTOL * gradient_scale
            ):
                errors.append(
                    f"batch {index} instance {b}: value {value_gap:.3g} and gradient "
                    f"{gradient_gap:.3g} from float64 NumPy (allowed {REFERENCE_RTOL:g} "
                    f"x {value_scale:.3g} and x {gradient_scale:.3g})"
                )
    index, again = repeat
    timed = dict(measurement.notes["results"])[index]
    for b, (first, second) in enumerate(zip(timed, again)):
        same = _limbs(first[0].value) == _limbs(second[0].value) and all(
            _limbs(g) == _limbs(h) for g, h in zip(first[0].gradient, second[0].gradient)
        )
        if not same:
            errors.append(f"batch {index} instance {b}: repeated evaluation differs in its bits")
    return errors
