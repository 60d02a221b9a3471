"""Coalesced Newton refinement on a pooled context.

This is the mid-flight merge of the solve service: ``k`` structurally
identical Newton requests (each with its *own* coefficient values) land in
one warm :class:`repro.core.EvalContext` of ``slab >= k`` lanes —

* :meth:`repro.core.EvalContext.rebind_fleet` rewrites each lane's system
  rows in place (the resident tensor and compiled program survive, so a warm
  context never repacks for repeat traffic);
* the ``slab - k`` unused lanes are padding: loaded by the one-time pack,
  then masked out of every sweep;
* the requests are the lanes of the package's one masked Newton kernel
  (:func:`repro.homotopy.newton._refine`), the same iteration
  :func:`repro.homotopy.newton_power_series_batch` and the many-path
  scheduler run.  A context that cannot hold the batch resident (exact
  fractions, non-tensor modes) runs the kernel's delegating branch.

Because every tensor row operation is elementwise per instance and the
batched solver pivots per instance, each lane's result is **limb-for-limb
identical** to solving that request alone — the parity the service test
suite asserts, and the reason coalescing needs no accuracy caveats.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SingularSystemError
from ..homotopy.batch_linsolve import solve_packed  # noqa: F401  (see homotopy.scheduler)
from ..homotopy.newton import _refine
from ..homotopy.options import NewtonOptions

__all__ = ["coalesced_newton"]


def coalesced_newton(
    context,
    systems: Sequence,
    initials: Sequence[Sequence],
    options: NewtonOptions,
):
    """Refine ``k`` structurally identical systems in one masked fleet.

    ``context`` is a (possibly warm) :class:`repro.core.EvalContext` with
    ``batch >= k`` lanes; ``systems`` and ``initials`` carry one
    :class:`repro.homotopy.PolynomialSystem` and start vector per request.

    Returns ``(results, errors)``: one :class:`NewtonResult` per request
    (entries are ``None`` for lanes that failed), and a dict mapping failed
    request positions to their exception (singular Newton systems fail only
    their own lane; the rest of the batch keeps solving).
    """
    k = len(systems)
    if k == 0:
        return [], {}
    slab = context.batch
    if k > slab:
        raise ValueError(f"{k} requests do not fit a {slab}-lane context")
    evaluators = [system.evaluator for system in systems]
    context.rebind_fleet(evaluators + [evaluators[0]] * (slab - k))
    # Masked-out lanes still need well-formed input series for the one-time
    # pack; they reuse request 0's originals and are never swept or read.
    solutions = [[series.copy() for series in initial] for initial in initials]
    solutions += [list(initials[0])] * (slab - k)
    refined, singular = _refine(context, solutions, range(k), options)
    results: list = list(refined.values())
    errors: dict[int, Exception] = {}
    for index in singular:
        failure = SingularSystemError(f"singular Newton system for request {index}")
        failure.instances = [index]
        errors[index] = failure
        results[index] = None
    return results, errors
