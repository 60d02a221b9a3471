"""Workload ``fleet``: the 1000-path retry family with a dd -> qd ladder.

The homotopy is ``(x - u(t)) (x - 1) = x^2 - (1 + u(t)) x + u(t)`` with
``u(t) = 2 + B t^2`` and ``B = 1e6``, written ``x1^2 + x1`` plus a constant
with adjusted series coefficients.  A path started at ``x = 2`` follows
``x = u(t)``, whose residual floor near ``t = 1`` is above the 1e-22
tolerance in double doubles, so it fails and is retried in quad doubles;
a path started at ``x = 1`` stays exact.  The seed picks which 10% of the
paths are stiff.  All paths run as one vectorized in-process fleet.
"""

from __future__ import annotations

import random
import time

from .common import Measurement

PATHS = 1000
STIFF = 100
DEGREE = 8
STIFFNESS = 1.0e6
TOLERANCE = 1.0e-22
BASE_LIMBS = 2
RETRY_LIMBS = 4
#: A converged endpoint must match its root to this relative accuracy.
ENDPOINT_RTOL = 1.0e-20

UNIT = "path"
#: The limb count the per-layer operation counts are measured at.
LIMBS = BASE_LIMBS


class RetryFamily:
    """``(x - u(t)) (x - 1) = 0`` at ``precision`` limbs, as a local system at ``t0``."""

    def __init__(self, precision: int):
        self.precision = precision

    def __call__(self, t0: float, degree: int):
        from repro.circuits import parse_polynomial
        from repro.homotopy import PolynomialSystem
        from repro.md import MultiDouble

        def md(value: float):
            return MultiDouble.from_float(float(value), self.precision)

        poly = parse_polynomial("x1^2 + x1", degree=degree, kind="md", precision=self.precision)
        u = [md(2.0 + STIFFNESS * t0 * t0), md(2.0 * STIFFNESS * t0), md(STIFFNESS)]
        u += [md(0.0)] * (degree + 1 - len(u))
        poly.constant.coefficients[:] = u
        linear = next(m for m in poly.monomials if m.exponents == ((0, 1),))
        negated = [-c for c in u]
        negated[0] = -(md(1.0) + u[0])
        linear.coefficient.coefficients[:] = negated
        return PolynomialSystem([poly])


def options():
    from repro.homotopy import RetryPolicy, TrackOptions

    return TrackOptions().override(
        degree=DEGREE,
        mode="vectorized",
        step={"grow": 1.0},
        newton={"max_iterations": 6, "tolerance": TOLERANCE},
        retry=RetryPolicy(precision_ladder=(RETRY_LIMBS,), max_rejections=2),
    )


def make_inputs(seed: int) -> dict:
    stiff = set(random.Random(seed).sample(range(PATHS), STIFF))
    starts = [[2.0] if i in stiff else [1.0] for i in range(PATHS)]
    return {"starts": starts, "stiff": stiff}


def setup(inputs: dict) -> dict:
    """Schedule build, program compile and the fleet's first pack."""
    from repro.series import PowerSeries

    system = RetryFamily(BASE_LIMBS)(0.0, DEGREE).with_mode("vectorized")
    context = system.make_context(PATHS)
    context.update_inputs([[PowerSeries.constant(v, DEGREE) for v in s] for s in inputs["starts"]])
    return {"inputs": inputs}


def measure(state: dict, seconds: float) -> Measurement:
    """Run whole fleets, at least one, until the next would overrun ``seconds``."""
    from repro.homotopy import track_paths

    inputs = state["inputs"]
    family = RetryFamily(BASE_LIMBS)
    latencies: list[float] = []
    elapsed = 0.0
    fleets = 0
    reports = []
    while fleets == 0 or elapsed + elapsed / fleets <= seconds:
        begin = time.perf_counter_ns()
        report = track_paths(family, inputs["starts"], options=options())
        spent = (time.perf_counter_ns() - begin) / 1e6
        elapsed += spent / 1e3
        fleets += 1
        reports.append(report)
        # Every path's result reaches the caller when track_paths returns.
        latencies += [spent] * PATHS
    failed = sum(PATHS - report.n_converged for report in reports)
    last = reports[-1]
    summary = last.summary()
    accepted = sum(summary["steps"])
    attempted_steps = accepted + sum(summary["rejections"])
    return Measurement(
        ops=PATHS * fleets,
        elapsed_s=elapsed,
        latencies_ms=latencies,
        attempted=PATHS * fleets,
        failed=failed,
        counts={
            "context.packs": last.total_packs,
            "scheduler.retries": last.total_retries,
            "fleets": len(last.fleets),
        },
        notes={
            "fleets_timed": fleets,
            "paths_per_s": PATHS * fleets / elapsed,
            "accept_ratio": accepted / attempted_steps if attempted_steps else 0.0,
            "reports": reports,
        },
    )


def check(state: dict, measurement: Measurement) -> list[str]:
    """Every path converges to its root, one pack per fleet, one retry per stiff path."""
    from repro.md import MultiDouble

    stiff = state["inputs"]["stiff"]
    errors = []
    for report in measurement.notes["reports"]:
        if report.n_converged != PATHS:
            errors.append(f"{PATHS - report.n_converged} paths did not converge")
        if any(fleet["packs"] != 1 for fleet in report.fleets):
            errors.append(f"a fleet packed more than once: {report.fleets}")
        if report.total_retries != len(stiff) or set(report.escalated_indices) != stiff:
            errors.append(
                f"{report.total_retries} retries for {len(stiff)} stiff paths"
            )
        for index, (result, status) in enumerate(zip(report.results, report.statuses)):
            if not status.converged or not result.points:
                continue
            target = 2.0 + STIFFNESS if index in stiff else 1.0
            value = result.points[-1].values[0]
            if isinstance(value, MultiDouble):
                exact = MultiDouble.from_float(target, value.precision.limbs)
                gap = abs((value - exact).to_float())
            else:  # a path no Newton correction touched keeps its float start
                gap = abs(value - target)
            if not gap <= ENDPOINT_RTOL * target or not status.residual <= TOLERANCE:
                errors.append(
                    f"path {index} ended at {float(value)!r}, {gap:.3g} from x={target:g} "
                    f"(residual {status.residual:.3g})"
                )
                break
    return errors
