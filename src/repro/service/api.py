"""Request/response shapes of the solve service, and their coalesce keys.

A request is *coalescible* with another when solving them side by side in
one packed tensor batch is bit-identical to solving each alone.  For Newton
requests that is exactly:

* same **polynomial structure** (the :func:`repro.core.system_structure_key`
  the schedule cache already uses — same fused schedule, same compiled
  tensor program);
* same **tensor ring** — the ring a resident context packs is the join of
  the system's and the inputs' rings, so mixing a quad-double request into
  a double-double batch would widen every lane and change the solo bits;
* same **Newton options** — tolerance and iteration bound steer the control
  flow of every lane.

Path-track requests coalesce per ``(family, options, t-range)``: many starts
of one parameterized family merge into one scheduler fleet, which is the
existing one-pack-per-fleet machinery of :func:`repro.track_paths`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..core.tensor import infer_ring, join_rings
from ..errors import ServiceError
from ..homotopy.options import NewtonOptions, TrackOptions
from ..homotopy.systems import PolynomialSystem
from ..series.series import PowerSeries

__all__ = ["SolveRequest", "TrackRequest", "SolveResponse"]


@dataclass
class SolveRequest:
    """One Newton-solve request: refine ``initial`` to a root of ``system``.

    ``overrides`` optionally layers per-request service-config fields
    (e.g. ``{"window_ms": 0}`` to flush immediately) onto the engine's
    resolved configuration for this request's bucket.
    """

    system: PolynomialSystem
    initial: Sequence[PowerSeries]
    options: NewtonOptions = field(default_factory=NewtonOptions)
    overrides: Optional[Mapping] = None

    def __post_init__(self) -> None:
        self.initial = list(self.initial)
        if not isinstance(self.system, PolynomialSystem):
            raise ServiceError(
                f"SolveRequest.system must be a PolynomialSystem, "
                f"got {type(self.system).__name__}"
            )
        if len(self.initial) != self.system.dimension:
            raise ServiceError(
                f"the initial guess needs {self.system.dimension} series, "
                f"got {len(self.initial)}"
            )

    def ring(self) -> tuple | None:
        """The tensor ring a resident solve of this request would pack.

        ``None`` for rings the tensor backend cannot carry (exact
        fractions) — such requests still coalesce by structure, and the
        engine solves their bucket through the delegating path.
        """
        system_ring = self.system.evaluator._ring_of_system()
        input_ring = infer_ring(self.initial)
        if system_ring is None or input_ring is None:
            return None
        return join_rings(system_ring, input_ring)

    def coalesce_key(self, mode: str) -> tuple:
        """The bucket key: merge only what solves bit-identically together."""
        return (
            "newton",
            mode,
            self.system.evaluator._structure_key,
            self.ring(),
            self.options,
        )


@dataclass
class TrackRequest:
    """One path-track request: follow ``start`` through ``family``.

    Requests sharing the same ``family`` object (or value, when the family
    defines equality), track options and ``t`` range merge into one
    :func:`repro.track_paths` fleet.
    """

    family: object
    start: Sequence
    options: TrackOptions = field(default_factory=TrackOptions)
    t_start: float = 0.0
    t_end: float = 1.0
    overrides: Optional[Mapping] = None

    def __post_init__(self) -> None:
        self.start = list(self.start)
        if not callable(self.family):
            raise ServiceError(
                "TrackRequest.family must be a callable (t0, degree) -> "
                f"PolynomialSystem, got {type(self.family).__name__}"
            )

    def coalesce_key(self, mode: str) -> tuple:
        try:
            hash(self.family)
            family_token = self.family
        except TypeError:
            family_token = id(self.family)
        return ("track", mode, family_token, self.options, self.t_start, self.t_end)


@dataclass
class SolveResponse:
    """The engine's answer to one request.

    ``batch_fill`` reports how many requests shared the flush that produced
    this response (1 = solved alone); ``coalesced`` is its ``> 1`` shorthand.
    ``error`` carries the per-request failure (singular system, convergence
    error with ``raise_on_failure``) — the other lanes of the same batch
    still answer normally.
    """

    solution: Optional[list] = None
    converged: bool = False
    iterations: int = 0
    residual: float = float("inf")
    batch_fill: int = 1
    coalesced: bool = False
    elapsed_ms: float = 0.0
    status: Optional[object] = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None
