"""Benchmarks of the tensorized execution backend (``mode="vectorized"``).

Measures the throughput of the whole-layer NumPy multidouble sweeps of
:mod:`repro.core.tensor` against the staged Python loop, over batch size,
truncation degree and precision (2/4/8 limbs), on mini versions of the
paper's three test systems.  The
headline gate — vectorized vs. staged on a batched ``p1`` sweep (batch 8,
double doubles) — is the acceptance number of the backend; results are
persisted both as a text table and as machine-readable JSON under
``benchmarks/results/`` (both are uploaded as CI artifacts).
"""

from __future__ import annotations

import os
import random
import time

from _schema import write_artifact
from conftest import emit
from repro.circuits.testpolys import (
    make_polynomial_from_structure,
    p1_structure,
    p2_structure,
    p3_structure,
)
from repro.core import ScheduleCache, SystemEvaluator
from repro.series import random_series_vector

REPETITIONS = int(os.environ.get("BENCH_TENSOR_REPETITIONS", "2"))
# The acceptance gate for the headline sweep.  Locally the vectorized
# backend lands far above it (tens of x); the env override exists for very
# noisy shared runners (see .github/workflows/ci.yml).
MIN_SPEEDUP = float(os.environ.get("BENCH_TENSOR_MIN_SPEEDUP", "3.0"))

_STRUCTURES = {"p1": p1_structure, "p2": p2_structure, "p3": p3_structure}
#: Support thinning per system, keeping each mini system laptop-sized.
_THIN = {"p1": 130, "p2": 16, "p3": 600}
#: p2's 64-variable monomials are truncated to this width in the mini system.
_P2_WIDTH = 8


def _mini_system(name, degree, precision, equations=4, thin_extra=1):
    rng = random.Random(5)
    n, supports = _STRUCTURES[name]()
    if name == "p2":
        supports = [s[:_P2_WIDTH] for s in supports]
    step = _THIN[name] * thin_extra
    kind = "float" if precision == 1 else "md"
    polynomials = [
        make_polynomial_from_structure(
            n, supports[e::step], degree, kind=kind, precision=precision, rng=rng
        )
        for e in range(equations)
    ]
    return polynomials, n, kind


def _inputs(n, degree, kind, precision, batch):
    rng = random.Random(11)
    return [random_series_vector(n, degree, kind, precision, rng) for _ in range(batch)]


def _timed(evaluator, zs):
    """(min-of-N seconds, last result) — the result doubles as parity data."""
    best = float("inf")
    results = None
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        results = evaluator.evaluate_batch(zs)
        best = min(best, time.perf_counter() - start)
    return best, results


def _compare(name, degree, precision, batch, modes=("staged", "vectorized"), thin_extra=1):
    """Min-of-N sweep times per mode plus the vectorized-vs-staged error."""
    polynomials, n, kind = _mini_system(name, degree, precision, thin_extra=thin_extra)
    zs = _inputs(n, degree, kind, precision, batch)
    cache = ScheduleCache()
    evaluators = {
        mode: SystemEvaluator(polynomials, mode=mode, cache=cache) for mode in modes
    }
    times, results = {}, {}
    for mode, evaluator in evaluators.items():
        times[mode], results[mode] = _timed(evaluator, zs)
    baseline_mode = "staged" if "staged" in results else modes[0]
    deviation = max(
        got.max_difference(expected)
        for vec_row, base_row in zip(results["vectorized"], results[baseline_mode])
        for got, expected in zip(vec_row, base_row)
    )
    return {
        "system": name,
        "degree": degree,
        "precision": precision,
        "batch": batch,
        "equations": len(polynomials),
        "monomials_per_equation": polynomials[0].n_monomials,
        "seconds": times,
        "speedup_vs_staged": (times["staged"] / times["vectorized"])
        if "staged" in times
        else None,
        "max_deviation_vs_staged": deviation,
    }


def test_tensor_backend_sweeps():
    """The headline gate plus the batch/degree/precision/system sweeps."""
    headline = _compare(
        "p1", degree=8, precision=2, batch=8, modes=("staged", "vectorized")
    )
    sweeps = {
        "batch": [_compare("p1", 4, 2, batch) for batch in (1, 4, 8)],
        "degree": [_compare("p1", degree, 2, 4) for degree in (3, 6)],
        "precision": [
            _compare("p1", 4, precision, 3, thin_extra=4) for precision in (2, 4, 8)
        ],
        "system": [_compare(name, 4, 2, 4) for name in ("p1", "p2", "p3")],
    }
    payload = {
        "benchmark": "bench_tensor_backend",
        "repetitions": REPETITIONS,
        "min_speedup_gate": MIN_SPEEDUP,
        "headline": headline,
        "sweeps": sweeps,
    }
    write_artifact("bench_tensor_backend", payload)

    lines = [
        "tensorized backend vs staged sweeps "
        f"(mini paper systems, min of {REPETITIONS})",
        f"  headline (p1, degree 8, 2 limbs, batch 8, "
        f"{headline['equations']} equations x {headline['monomials_per_equation']} monomials):",
        f"    staged     : {headline['seconds']['staged']:.3f} s",
        f"    vectorized : {headline['seconds']['vectorized']:.3f} s "
        f"({headline['speedup_vs_staged']:.1f}x vs staged)",
        f"    max deviation vs staged: {headline['max_deviation_vs_staged']:.3e}",
    ]
    for axis, rows in sweeps.items():
        lines.append(f"  sweep over {axis}:")
        for row in rows:
            lines.append(
                f"    {row['system']} degree={row['degree']} limbs={row['precision']} "
                f"batch={row['batch']}: staged {row['seconds']['staged']:.3f} s, "
                f"vectorized {row['seconds']['vectorized']:.3f} s "
                f"({row['speedup_vs_staged']:.1f}x)"
            )
    emit("bench_tensor_backend", "\n".join(lines))

    assert headline["max_deviation_vs_staged"] < 1e-25  # double-double parity
    assert headline["speedup_vs_staged"] >= MIN_SPEEDUP, (
        f"vectorized sweep only {headline['speedup_vs_staged']:.2f}x faster than "
        f"the staged loop (required {MIN_SPEEDUP:.2f}x)"
    )
    for rows in sweeps.values():
        for row in rows:
            tolerance = 2.0 ** (-52 * row["precision"] + 24)
            assert row["max_deviation_vs_staged"] < tolerance
