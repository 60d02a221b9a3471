#!/usr/bin/env python3
"""The motivating application: power-series Newton and Taylor path tracking.

Follows one solution path of the family

    x1^2 + x2^2 = 2 + t
    x1 = x2

from t = 0 (solution x1 = x2 = 1) to t = 1 (solution x1 = x2 = sqrt(1.5)),
expanding the path as a truncated power series at every step and refining it
with Newton's method on power series — the workload whose inner loop the
paper accelerates.

Run with::

    python examples/path_tracking.py
"""

from __future__ import annotations

import math

from repro import parse_polynomial
from repro.homotopy import (
    NewtonOptions,
    PolynomialSystem,
    TrackOptions,
    newton_power_series,
    track_paths,
)
from repro.series import PowerSeries

DEGREE = 8


def build_system(t0: float, degree: int) -> PolynomialSystem:
    """The local system in the offset s = t - t0."""
    circle = parse_polynomial("x1^2 + x2^2", degree=degree, kind="float")
    circle.constant.coefficients[0] = -(2.0 + t0)
    if degree >= 1:
        circle.constant.coefficients[1] = -1.0
    line = parse_polynomial("x1 - x2", degree=degree, kind="float")
    return PolynomialSystem([circle, line], mode="staged")


def main() -> None:
    # 1. One Newton run: the power-series expansion of the path at t = 0.
    system = build_system(0.0, DEGREE)
    start = [PowerSeries.constant(1.0, DEGREE), PowerSeries.constant(1.0, DEGREE)]
    newton = newton_power_series(
        system, start, options=NewtonOptions(max_iterations=8, tolerance=1e-13)
    )
    print("Newton on power series at t = 0")
    print(f"  converged in {newton.iterations} iterations, residual {newton.final_residual:.2e}")
    print("  x1(t) =", " + ".join(f"{c:+.6f} t^{k}" for k, c in enumerate(newton.solution[0].coefficients[:5])))
    exact = [1.0, 0.25, -0.03125, 0.0078125]
    print("  exact  ", " + ".join(f"{c:+.6f} t^{k}" for k, c in enumerate(exact)))

    # 2. Full path tracking from t = 0 to t = 1 on a fixed grid (no step
    #    growth), with every Newton sweep on the tensorized NumPy backend.
    options = TrackOptions().override(
        degree=DEGREE, mode="vectorized", step={"initial": 0.2, "grow": 1.0}
    )
    result = track_paths(build_system, [[1.0, 1.0]], options=options).results[0]
    print("\nTaylor path tracking, step 0.2 (vectorized backend)")
    print(f"  {'t':>5} {'x1':>12} {'exact sqrt(1 + t/2)':>22} {'residual':>12} {'Newton its':>11}")
    for point in result.points:
        exact_value = math.sqrt(1.0 + point.t / 2.0)
        print(
            f"  {point.t:5.2f} {point.values[0]:12.8f} {exact_value:22.8f}"
            f" {point.residual:12.2e} {point.newton_iterations:11d}"
        )
    final_error = abs(result.final_values[0] - math.sqrt(1.5))
    print(f"\n  endpoint error vs sqrt(1.5): {final_error:.2e}  (success={result.success})")


if __name__ == "__main__":
    main()
