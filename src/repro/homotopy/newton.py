"""Newton's method on truncated power series.

This is the computational kernel of the robust path tracker that motivates
the paper: given a square polynomial system ``F`` and an approximation
``z(t)`` of a solution path (a vector of truncated power series), one Newton
step evaluates ``F(z)`` and its Jacobian ``J(z)`` — the job of this library's
evaluator — and solves ``J(z) * dz = -F(z)`` over the series ring.

Starting from the correct constant terms (the solution at ``t = 0``), every
Newton step doubles the number of correct series coefficients, so
``ceil(log2(d + 1))`` steps suffice for a series truncated at degree ``d`` —
a property the test suite checks explicitly.

Every Newton iteration in the package runs through one masked kernel,
:func:`_refine`: both drivers below, the many-path scheduler
(:mod:`repro.homotopy.scheduler`) and the solve service
(:mod:`repro.service.fleet`) only differ in how they set up the lanes of one
:class:`repro.core.EvalContext` and how they report the per-lane outcome.
The context is packed at most once per refinement; every iteration masks
the sweep to the still-pending lanes and rewrites only their input slots.
On a tensor-resident context the residual norms, the Newton systems and one
batched elimination stay in the limb tensor; delegating contexts (and
``solver="scalar"``) solve each lane with the scalar :func:`lu_solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..core.tensor import max_magnitudes
from ..errors import ConvergenceError, SingularSystemError, StagingError
from ..series.series import PowerSeries
from .batch_linsolve import solve_packed
from .linsolve import lu_solve, residual_norm
from .options import NewtonOptions
from .systems import PolynomialSystem

__all__ = ["NewtonStep", "NewtonResult", "newton_power_series", "newton_power_series_batch"]


@dataclass(frozen=True)
class NewtonStep:
    """Diagnostics of one Newton iteration."""

    iteration: int
    residual: float
    correction: float


@dataclass
class NewtonResult:
    """Outcome of :func:`newton_power_series`."""

    solution: list[PowerSeries]
    steps: list[NewtonStep] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def final_residual(self) -> float:
        return self.steps[-1].residual if self.steps else float("inf")


def _ensure_context(system: PolynomialSystem, batch: int, context):
    """Reuse a caller-held context when it fits, else make a fresh one.

    A context built for another batch size cannot be reused (the resident
    tensor is sized for its batch), and one built from a structurally
    different system cannot be rebound (homotopy builders may legitimately
    change the monomial structure along the path) — both get a fresh
    context.  A context from a structurally identical system (a path
    tracker's previous step) is rebound in place, which keeps its resident
    tensor.
    """
    if (
        context is None
        or context.batch != batch
        or context.evaluator._structure_key != system.evaluator._structure_key
    ):
        return system.make_context(batch)
    return context.rebind(system.evaluator)


def newton_power_series(
    system: PolynomialSystem,
    initial: Sequence[PowerSeries],
    *,
    context=None,
    options: NewtonOptions | None = None,
) -> NewtonResult:
    """Refine a power-series solution of ``system`` by Newton iteration.

    Parameters
    ----------
    system:
        A square system (as many equations as variables).
    initial:
        Starting series; the constant terms should solve the system at
        ``t = 0`` for the textbook quadratic convergence, but the iteration
        is run regardless.
    options:
        A :class:`repro.homotopy.options.NewtonOptions` carrying the
        iteration bound, the residual tolerance (largest coefficient of
        ``F(z)`` rounded to a double) and the failure policy
        (:class:`repro.errors.ConvergenceError` on a missed tolerance when
        ``raise_on_failure`` is set).  Defaults to ``NewtonOptions()``;
        its ``mode`` and ``solver`` are ignored — this driver evaluates in
        the system's own mode and always solves with the scalar
        :func:`lu_solve`.
    context:
        An optional resident :class:`repro.core.EvalContext` (batch 1) to
        evaluate through — the path tracker passes one so consecutive steps
        share a single packed tensor.  Without one, a context is created
        for this refinement, so the whole iteration still packs only once.
    """
    options = replace(options or NewtonOptions(), mode=None, solver="scalar")
    return newton_power_series_batch(
        system, [initial], context=context, options=options
    )[0]


def newton_power_series_batch(
    system: PolynomialSystem,
    initials: Sequence[Sequence[PowerSeries]],
    *,
    context=None,
    options: NewtonOptions | None = None,
) -> list[NewtonResult]:
    """Refine several power-series solutions of ``system`` in one batched sweep.

    Every instance is one lane of the masked Newton kernel :func:`_refine`
    on one resident context: the fused slot tensor of the whole batch is
    packed once, each iteration sweeps only the still-pending instances,
    and a tensor-resident context solves all of them in one batched
    elimination (:func:`repro.homotopy.batch_linsolve.solve_packed`,
    bit-identical to per-instance :func:`lu_solve` at double-double
    precision).  This is the throughput shape of the paper's motivating
    application: many independent solution paths, one wide launch sequence,
    with the data resident across steps.

    All knobs travel in one :class:`repro.homotopy.options.NewtonOptions`.
    ``options.mode`` re-targets the system's execution mode for this
    refinement (``None`` keeps the system's own mode).  ``options.solver``
    picks the linear-solve path: ``"auto"`` (default) uses the batched
    tensor solver whenever the context is resident and the scalar oracle
    otherwise, ``"scalar"`` forces per-instance :func:`lu_solve`, and
    ``"batched"`` requires residency, raising
    :class:`repro.errors.StagingError` when the context delegates.
    ``context`` optionally supplies a caller-held context; it must match the
    batch size and structure, otherwise a fresh context is created.

    Returns one :class:`NewtonResult` per initial vector, in order.  A
    singular Newton system drops only its own instance from the iteration;
    once the others finish, :class:`repro.errors.SingularSystemError` is
    raised with ``instances`` naming every singular instance.  With
    ``options.raise_on_failure`` a :class:`repro.errors.ConvergenceError` is
    raised when any instance misses the tolerance.
    """
    options = options or NewtonOptions()
    system = system.with_mode(options.mode)
    if not system.is_square:
        raise ConvergenceError(
            f"Newton needs a square system, got {system.n_equations} equations "
            f"in {system.dimension} variables"
        )
    if not initials:
        return []
    solutions = [[series.copy() for series in initial] for initial in initials]
    context = _ensure_context(system, len(solutions), context)
    results, singular = _refine(context, solutions, range(len(solutions)), options)
    if singular:
        singular = sorted(singular)
        error = SingularSystemError(
            "singular Newton system for batch instance(s) "
            + ", ".join(map(str, singular))
        )
        error.instances = singular
        raise error
    failed = [lane for lane, result in results.items() if not result.converged]
    if options.raise_on_failure and failed:
        raise ConvergenceError(
            f"Newton did not reach tolerance {options.tolerance} in "
            f"{options.max_iterations} iterations for instances {failed}"
        )
    return list(results.values())


def _refine(
    context, solutions: list, lanes: Sequence[int], options: NewtonOptions
) -> tuple[dict[int, NewtonResult], list[int]]:
    """The masked Newton kernel every refinement in the package runs.

    ``context`` is an :class:`repro.core.EvalContext` already bound to the
    lanes' systems; ``solutions`` holds one input vector per batch lane
    (lanes outside ``lanes`` are padding: loaded on the first pack, never
    swept).  Each iteration masks the context to the pending lanes, sweeps,
    converges the lanes whose residual norm meets the tolerance, and solves
    the Newton systems of the rest — one :func:`solve_packed` over the
    resident tensor, or a scalar :func:`lu_solve` per lane on delegating
    contexts and with ``options.solver == "scalar"``.  A lane whose system
    is singular is dropped; every other lane adds its correction in series
    space and stays pending.  Lanes still pending after the last iteration
    get one values-only residual check.

    ``solutions[lane]`` is replaced by each corrected vector.  Returns one
    :class:`NewtonResult` per lane, in ``lanes`` order, and the singular
    lanes in the order they were dropped (their last step records the
    residual with a ``nan`` correction).
    """
    results = {lane: NewtonResult(solution=solutions[lane]) for lane in lanes}
    singular: list[int] = []
    pending = list(results)
    tolerance = options.tolerance
    for iteration in range(1, options.max_iterations + 1):
        if not pending:
            break
        residuals, rows = _sweep(context, solutions, pending, options.solver, False)
        unsolved = []
        for lane, residual in zip(pending, residuals):
            if residual <= tolerance:
                results[lane].steps.append(NewtonStep(iteration, residual, 0.0))
                results[lane].converged = True
            else:
                unsolved.append((lane, residual))
        corrections = _corrections(context, rows, [lane for lane, _ in unsolved])
        pending = []
        for lane, residual in unsolved:
            result = results[lane]
            if lane not in corrections:
                result.steps.append(NewtonStep(iteration, residual, math.nan))
                singular.append(lane)
                continue
            correction, norm = corrections[lane]
            z = [current + delta for current, delta in zip(solutions[lane], correction)]
            solutions[lane] = result.solution = z
            result.steps.append(NewtonStep(iteration, residual, norm))
            pending.append(lane)
    if pending:
        finals, _ = _sweep(context, solutions, pending, options.solver, True)
        for lane, final in zip(pending, finals):
            results[lane].converged = final <= tolerance
    context.set_active(None)
    return results, singular


def _sweep(context, solutions, lanes: list[int], solver: str, values_only: bool):
    """Load and sweep ``lanes``; return their residual norms and the rows.

    The rows are ``None`` on the resident path, whose norms and Newton
    systems are read straight off the tensor; otherwise they are the
    per-lane evaluation results of :meth:`repro.core.EvalContext.run`.
    """
    context.set_active(None if len(lanes) == context.batch else lanes)
    context.update_inputs(solutions)
    if solver == "batched" and not context.resident:
        raise StagingError(
            "solver='batched' needs a tensor-resident context; this one "
            "delegates (staged/fraction/non-vectorized mode) — use "
            "solver='auto' or 'scalar'"
        )
    if solver != "scalar" and context.resident:
        context.run_packed()
        norms = context.residual_norms()
        return [float(norms[lane]) for lane in lanes], None
    rows = context.run(values_only=values_only)
    return [residual_norm([e.value for e in rows[lane]]) for lane in lanes], rows


def _corrections(context, rows, lanes: list[int]) -> dict:
    """Solve ``J dz = -F`` for ``lanes``: ``{lane: (dz, norm of dz)}``.

    Singular lanes are left out.  On the resident path (``rows is None``)
    one :func:`solve_packed` eliminates every lane, re-solving without the
    lanes a singular pivot names, and the correction norms come from the
    solution tensor.
    """
    if not lanes:
        return {}
    if rows is not None:
        corrections = {}
        for lane in lanes:
            evaluations = rows[lane]
            try:
                delta = lu_solve(
                    [list(e.gradient) for e in evaluations],
                    [-e.value for e in evaluations],
                )
            except SingularSystemError:
                continue
            corrections[lane] = (delta, residual_norm(delta))
        return corrections
    matrix, rhs = context.newton_system(lanes)
    solving = list(range(len(lanes)))
    while solving:
        active = None if len(solving) == len(lanes) else solving
        try:
            solution = solve_packed(matrix, rhs, context.ring[1], active=active)
            break
        except SingularSystemError as error:
            dropped = set(error.instances)
            solving = [k for k in solving if k not in dropped]
    else:
        return {}
    deltas = context.unpack_vectors(solution)
    norms = max_magnitudes(solution)
    return {lanes[k]: (deltas[k], float(norms[k])) for k in solving}
