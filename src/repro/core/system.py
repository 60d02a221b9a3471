"""Batched evaluation of polynomial *systems* through one fused job schedule.

The paper's throughput story is about launching *many* independent jobs at
once: per kernel launch, the more blocks the better.  A polynomial system
evaluated equation by equation wastes that width — every equation pays its
own launch sequence even though the layers of different equations are
mutually independent.  This module restores the width on three axes:

* **fusion across equations** — :func:`fuse_schedules` concatenates the slot
  layouts of all equations into one flat array and merges layer ``L`` of
  every equation into a single fused layer, so one "launch" carries the jobs
  of the whole system;
* **fusion across instances** — :meth:`SystemEvaluator.evaluate_batch` sweeps
  ``B`` input vectors through the same fused schedule in one pass; the fused
  data array is replicated per instance (batch stride = ``total_slots``) and
  each fused layer carries the jobs of *all* instances together (the
  vectorized mode runs it as one whole-layer NumPy sweep, and
  :meth:`repro.gpusim.TimingModel.predict` prices it as one launch of
  ``B``-times-as-many blocks);
* **amortised staging** — fused schedules are memoised in an LRU
  :class:`ScheduleCache` keyed on :meth:`repro.circuits.Polynomial.structure_key`,
  so the repeated system constructions of Newton/path-tracking clients pay
  the staging cost once per *structure*, not once per step.

:class:`SystemEvaluator` is the one evaluation engine, with three modes:
``reference`` (the sequential baseline, no staging), ``staged`` (the fused
jobs slot by slot on the host — the oracle for every coefficient ring) and
``vectorized`` (the fast path).  :class:`PolynomialEvaluator` is the same
engine for a single equation.  Every mode returns one
:class:`repro.circuits.EvaluationResult` per equation (per instance); the
test suite checks that the modes agree on every coefficient ring.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter_ns as _perf_counter_ns
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..circuits.polynomial import Polynomial
from ..circuits.powers import PowerTable
from ..circuits.reference import EvaluationResult, evaluate_reference
from ..errors import StagingError
from ..obs import get_telemetry
from ..series.series import PowerSeries
from .jobs import (
    AdditionJob,
    ConvolutionJob,
    ScaleJob,
    apply_addition,
    apply_convolution,
    apply_scale,
)
from .schedule import JobSchedule, schedule_for_polynomial

__all__ = [
    "ScheduleCache",
    "FusedSystemSchedule",
    "SystemEvaluator",
    "PolynomialEvaluator",
    "fuse_schedules",
    "system_structure_key",
    "default_schedule_cache",
]

_MODES = ("reference", "staged", "vectorized")

#: Process-wide telemetry registry; ``enabled`` is a plain attribute so the
#: disabled hot path costs exactly one attribute check per call site.
_TELEMETRY = get_telemetry()

#: Distinguishes "not cached" from a cached value of ``None``.
_CACHE_MISS = object()


# --------------------------------------------------------------------- #
# schedule cache
# --------------------------------------------------------------------- #
class ScheduleCache:
    """An LRU cache for staged (fused) schedules with hit/miss accounting.

    Schedules depend only on polynomial *structure*, so the cache key is the
    tuple of :meth:`repro.circuits.Polynomial.structure_key` values of the
    system's equations.  The cache is safe to share between evaluators *and*
    between threads (the module-level default instance is shared by the
    solve service's flush threads).  Builds are serialised **per
    key**: a short map lock guards the entry table, and each missing key
    gets its own build lock, so one structure is staged at most once no
    matter how many threads race on it — while hits and builds of
    *unrelated* structures never wait on an in-flight build.  The per-key
    build locks are re-entrant so a builder may itself consult the cache
    (the vectorized mode compiles its tensor program from the fused schedule
    it just fetched).  A module-level default instance
    (:func:`default_schedule_cache`) is what makes repeated Newton steps —
    which rebuild structurally identical systems at every parameter value —
    pay the staging cost exactly once.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.build_waits = 0
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        # Guards the entry table and counters only — never held across a
        # builder call.
        self._lock = threading.Lock()
        # One lock per key currently being built; dropped once the entry
        # lands so the table does not grow with the key space.
        self._build_locks: dict[tuple, threading.RLock] = {}

    def get(self, key: tuple, builder: Callable[[], object]):
        """Return the cached value for ``key``, building (and storing) on miss.

        Any builder result is cacheable — a legitimately ``None``-valued
        entry is a hit on the next lookup, not a permanent miss.  A failing
        builder releases its build lock without storing anything, so the
        next lookup retries the build.
        """
        with self._lock:
            entry = self._entries.get(key, _CACHE_MISS)
            if entry is not _CACHE_MISS:
                self.hits += 1
                self._entries.move_to_end(key)
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("schedule_cache.hits")
                return entry
            build_lock = self._build_locks.setdefault(key, threading.RLock())
        with build_lock:
            with self._lock:
                # Double check: another thread may have finished this build
                # while we waited on its lock.
                entry = self._entries.get(key, _CACHE_MISS)
                if entry is not _CACHE_MISS:
                    # We queued behind another thread's in-flight build of
                    # this very key: a hit, but one that paid a build wait.
                    self.hits += 1
                    self.build_waits += 1
                    self._entries.move_to_end(key)
                    if _TELEMETRY.enabled:
                        _TELEMETRY.count("schedule_cache.hits")
                        _TELEMETRY.count("schedule_cache.build_waits")
                    return entry
            # On failure the build lock deliberately stays in the map: other
            # threads already queued on this lock object retry under it, and
            # popping it here would let a newcomer setdefault a second lock
            # and build the same key concurrently.  The lock is dropped once
            # a build succeeds (below) or the cache is cleared, so it can
            # linger only for keys whose builds keep failing.
            entry = builder()
            with self._lock:
                self.misses += 1
                self._entries[key] = entry
                self._entries.move_to_end(key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                self._build_locks.pop(key, None)
            if _TELEMETRY.enabled:
                _TELEMETRY.count("schedule_cache.misses")
            return entry

    def export_entries(self, keys: Sequence[tuple] | None = None) -> dict:
        """A picklable snapshot of (some of) the cached entries.

        ``keys = None`` snapshots everything; otherwise only the listed keys
        that are actually cached are returned (missing keys are skipped, not
        errors).  The values are the cached objects themselves — fused
        schedules and compiled tensor programs are immutable-after-build and
        plain data, so the snapshot ships across a process boundary: this is
        how the sharded fleet runner stages schedules **once in the parent**
        and hands them to every worker instead of letting each worker restage.
        """
        with self._lock:
            if keys is None:
                return dict(self._entries)
            return {key: self._entries[key] for key in keys if key in self._entries}

    def install_entries(self, entries: dict) -> None:
        """Adopt pre-built entries (a worker installing the parent's staging).

        Installed entries count as neither hits nor misses — they were built
        elsewhere — but participate in LRU eviction like any other entry, and
        later :meth:`get` calls on them are ordinary hits.
        """
        with self._lock:
            for key, value in entries.items():
                self._entries[key] = value
                self._entries.move_to_end(key)
                self._build_locks.pop(key, None)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters.

        ``clear`` does not wait for in-flight builds (it would otherwise
        block on every build lock): a builder that is mid-flight when the
        cache is cleared stores its entry — and counts its miss — after the
        reset.  Callers that read ``stats()`` right after ``clear()`` should
        quiesce their own builder threads first.
        """
        with self._lock:
            self._entries.clear()
            self._build_locks.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.build_waits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss/eviction/build-wait accounting.

        ``hit_rate`` is 0.0 before the first lookup.  ``build_waits`` counts
        hits that queued behind another thread's in-flight build of the same
        key; ``evictions`` counts entries dropped by the LRU bound (both in
        :meth:`get` and :meth:`install_entries`).
        """
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "evictions": self.evictions,
                "build_waits": self.build_waits,
            }

    def __repr__(self) -> str:
        return f"ScheduleCache(entries={len(self._entries)}, hits={self.hits}, misses={self.misses})"


_DEFAULT_CACHE = ScheduleCache(maxsize=128)


def default_schedule_cache() -> ScheduleCache:
    """The process-wide schedule cache used when no explicit cache is given."""
    return _DEFAULT_CACHE


def system_structure_key(polynomials: Sequence[Polynomial]) -> tuple:
    """The cache key of a system: the structure keys of all its equations."""
    return tuple(polynomial.structure_key() for polynomial in polynomials)


# --------------------------------------------------------------------- #
# fused schedules
# --------------------------------------------------------------------- #
@dataclass
class FusedSystemSchedule:
    """One job schedule for a whole system, fused layer by layer.

    Every equation keeps its own :class:`repro.core.JobSchedule`; fusion
    shifts each equation's slots by a per-equation offset into one flat
    array of ``total_slots`` slots and merges the per-equation layers, so
    launch ``L`` of the fused schedule carries the layer-``L`` jobs of every
    equation (they write disjoint slot ranges, hence stay independent).
    """

    schedules: list[JobSchedule]
    offsets: tuple[int, ...]
    total_slots: int
    degree: int
    dimension: int
    convolution_layers: list[list[ConvolutionJob]] = field(default_factory=list)
    scale_jobs: list[ScaleJob] = field(default_factory=list)
    addition_layers: list[list[AdditionJob]] = field(default_factory=list)
    #: Global slot of ``p_e(z)`` per equation.
    value_slots: tuple[int, ...] = ()
    #: Per equation: variable index -> global slot of the partial derivative.
    gradient_slots: tuple[dict[int, int], ...] = ()

    # ------------------------------------------------------------------ #
    @property
    def n_equations(self) -> int:
        return len(self.schedules)

    @property
    def convolution_job_count(self) -> int:
        return sum(len(layer) for layer in self.convolution_layers)

    @property
    def addition_job_count(self) -> int:
        return sum(len(layer) for layer in self.addition_layers)

    @property
    def convolution_launches(self) -> list[int]:
        """Blocks per fused convolution launch (one entry per fused layer)."""
        return [len(layer) for layer in self.convolution_layers]

    @property
    def addition_launches(self) -> list[int]:
        """Blocks per fused addition launch (one entry per fused level)."""
        return [len(layer) for layer in self.addition_layers]

    @property
    def total_launches(self) -> int:
        """Fused launches: far fewer than the per-equation schedules summed."""
        scale_launches = 1 if self.scale_jobs else 0
        return len(self.convolution_layers) + scale_launches + len(self.addition_layers)

    @property
    def input_slot_count(self) -> int:
        """Input-region slots per instance (constants + coefficients + variables).

        The series one full host-to-device transfer ships; the single source
        for the resident-transfer accounting of
        :meth:`repro.gpusim.TimingModel.predict_resident` and the resident
        contexts' transfer ledger.
        """
        return sum(schedule.layout.forward_base for schedule in self.schedules)

    @property
    def variable_slot_count(self) -> int:
        """Variable slots per instance (one per variable per equation).

        The only input series Newton changes between resident sweeps, hence
        the per-step payload of the resident transfer model.
        """
        return self.dimension * len(self.schedules)

    def summary(self) -> dict:
        """Headline statistics of the fused schedule."""
        return {
            "equations": self.n_equations,
            "degree": self.degree,
            "slots": self.total_slots,
            "convolution_jobs": self.convolution_job_count,
            "addition_jobs": self.addition_job_count,
            "scale_jobs": len(self.scale_jobs),
            "convolution_launches": self.convolution_launches,
            "addition_launches": self.addition_launches,
            "fused_launches": self.total_launches,
            "unfused_launches": sum(s.total_launches for s in self.schedules),
        }


def fuse_schedules(schedules: Sequence[JobSchedule]) -> FusedSystemSchedule:
    """Fuse per-equation schedules into one system-wide schedule."""
    schedules = list(schedules)
    if not schedules:
        raise StagingError("cannot fuse an empty list of schedules")
    degree = schedules[0].degree
    dimension = schedules[0].layout.dimension
    for k, schedule in enumerate(schedules):
        if schedule.degree != degree:
            raise StagingError(
                f"schedule {k} has degree {schedule.degree}, expected {degree}"
            )
        if schedule.layout.dimension != dimension:
            raise StagingError(
                f"schedule {k} has dimension {schedule.layout.dimension}, expected {dimension}"
            )
    offsets: list[int] = []
    total = 0
    for schedule in schedules:
        offsets.append(total)
        total += schedule.layout.total_slots

    n_conv_layers = max(len(s.convolutions.layers()) for s in schedules)
    n_add_layers = max(len(s.additions.layers()) for s in schedules)
    convolution_layers: list[list[ConvolutionJob]] = [[] for _ in range(n_conv_layers)]
    addition_layers: list[list[AdditionJob]] = [[] for _ in range(n_add_layers)]
    scale_jobs: list[ScaleJob] = []
    value_slots: list[int] = []
    gradient_slots: list[dict[int, int]] = []

    for equation, (offset, schedule) in enumerate(zip(offsets, schedules)):
        for level, layer in enumerate(schedule.convolutions.layers()):
            for job in layer:
                convolution_layers[level].append(
                    ConvolutionJob(
                        input1=offset + job.input1,
                        input2=offset + job.input2,
                        output=offset + job.output,
                        layer=job.layer,
                        monomial=job.monomial,
                        kind=job.kind,
                    )
                )
        for job in schedule.scale_jobs:
            scale_jobs.append(
                ScaleJob(
                    slot=offset + job.slot,
                    factor=job.factor,
                    monomial=job.monomial,
                    variable=job.variable,
                )
            )
        for level, layer in enumerate(schedule.additions.layers()):
            for job in layer:
                addition_layers[level].append(
                    AdditionJob(
                        source=offset + job.source,
                        target=offset + job.target,
                        layer=job.layer,
                        group=f"eq{equation}:{job.group}",
                    )
                )
        value_slots.append(offset + schedule.value_slot)
        gradient_slots.append(
            {
                variable: offset + slot
                for variable, slot in schedule.additions.gradient_slots.items()
            }
        )

    return FusedSystemSchedule(
        schedules=schedules,
        offsets=tuple(offsets),
        total_slots=total,
        degree=degree,
        dimension=dimension,
        convolution_layers=convolution_layers,
        scale_jobs=scale_jobs,
        addition_layers=addition_layers,
        value_slots=tuple(value_slots),
        gradient_slots=tuple(gradient_slots),
    )


# --------------------------------------------------------------------- #
# slot array fill and readback (one equation)
# --------------------------------------------------------------------- #
def _prepare_slots(
    polynomial: Polynomial,
    schedule: JobSchedule,
    z: Sequence[PowerSeries],
    table: PowerTable,
) -> list[PowerSeries]:
    """Fill the input region of one equation's data array (adjusted coefficients + z).

    ``table`` is shared across all equations evaluated at the same input
    vector, so common factors are convolved once per input, not once per
    equation.
    """
    layout = schedule.layout
    zero_like = polynomial.constant.coefficients[0] * 0
    zero_series = PowerSeries.constant(zero_like, layout.degree)
    slots: list[PowerSeries] = [zero_series.copy() for _ in range(layout.total_slots)]
    slots[layout.constant_slot()] = polynomial.constant.copy()
    for k, monomial in enumerate(polynomial.monomials):
        if monomial.is_multilinear:
            adjusted = monomial.coefficient
        else:
            adjusted, _, _ = monomial.split_common_factor(z, table)
        slots[layout.coefficient_slot(k)] = adjusted.copy()
    for variable in range(layout.dimension):
        slots[layout.variable_slot(variable)] = z[variable].copy()
    return slots


def _collect_result(
    polynomial: Polynomial,
    schedule: JobSchedule,
    slots: Sequence[PowerSeries],
    metadata: dict,
) -> EvaluationResult:
    """Read one equation's value and gradient back from its data array."""
    layout = schedule.layout
    zero_like = polynomial.constant.coefficients[0] * 0
    value = slots[schedule.value_slot].copy()
    gradient: list[PowerSeries] = []
    for variable in range(layout.dimension):
        slot = schedule.gradient_slot(variable)
        if slot is None:
            gradient.append(PowerSeries.constant(zero_like, layout.degree))
        else:
            gradient.append(slots[slot].copy())
    return EvaluationResult(value=value, gradient=gradient, metadata=metadata)


# --------------------------------------------------------------------- #
# the system evaluator
# --------------------------------------------------------------------- #
class SystemEvaluator:
    """Evaluate a whole polynomial system (values + Jacobian) in one pass.

    Parameters
    ----------
    polynomials:
        The system's equations; all must share dimension and truncation
        degree (any coefficient ring the selected mode supports).
    mode:
        ``"reference"`` (the sequential evaluator of
        :mod:`repro.circuits.reference`, no staging), ``"staged"`` (the
        *fused* schedule executed job by job on the host, in layer order —
        any coefficient ring, the oracle) or ``"vectorized"``, the tensorized
        backend of :mod:`repro.core.tensor` that executes every fused layer
        as a handful of whole-layer NumPy multidouble sweeps.  The
        vectorized mode covers doubles, :class:`repro.md.MultiDouble` of any
        precision, plain complexes and :class:`repro.md.ComplexMD` (complex
        data runs on paired real/imaginary limb planes); batches in any
        other ring (exact fractions) transparently fall back to the staged
        path.
    cache:
        A :class:`ScheduleCache`; defaults to the process-wide cache so
        structurally identical systems share their staging work.
    """

    def __init__(
        self,
        polynomials: Sequence[Polynomial],
        mode: str = "staged",
        cache: ScheduleCache | None = None,
    ):
        if mode not in _MODES:
            raise StagingError(f"unknown mode {mode!r}; choose from {_MODES}")
        polynomials = list(polynomials)
        if not polynomials:
            raise StagingError("a system evaluator needs at least one polynomial")
        dimension = polynomials[0].dimension
        degree = polynomials[0].series_degree
        for k, polynomial in enumerate(polynomials):
            if polynomial.dimension != dimension:
                raise StagingError(
                    f"equation {k} has dimension {polynomial.dimension}, expected {dimension}"
                )
            if polynomial.series_degree != degree:
                raise StagingError(
                    f"equation {k} has degree {polynomial.series_degree}, expected {degree}"
                )
        self.polynomials = polynomials
        self.dimension = dimension
        self.degree = degree
        self.mode = mode
        self.cache = cache if cache is not None else default_schedule_cache()
        self._structure_key = system_structure_key(polynomials)
        self.fused: FusedSystemSchedule = self.cache.get(
            self._structure_key,
            lambda: fuse_schedules([schedule_for_polynomial(p) for p in polynomials]),
        )
        # The coefficient ring of the system's own series, inferred lazily on
        # the first vectorized batch (None until then; a (kind, limbs) tuple
        # or the string "unsupported" afterwards).
        self._system_ring: object = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def n_equations(self) -> int:
        return len(self.polynomials)

    def evaluate(self, z: Sequence[PowerSeries]) -> list[EvaluationResult]:
        """Value and gradient of every equation at one input vector."""
        return self.evaluate_batch([z])[0]

    __call__ = evaluate

    def evaluate_batch(
        self, zs: Sequence[Sequence[PowerSeries]]
    ) -> list[list[EvaluationResult]]:
        """Sweep ``B`` input vectors through the cached fused schedule.

        Returns one list of per-equation results per input vector.  All jobs
        of one fused layer — across equations *and* instances — form one
        launch, which is what the vectorized sweep executes and the GPU
        timing model prices.
        """
        zs = [list(z) for z in zs]
        for z in zs:
            self._check_inputs(z)
        if not zs:
            return []
        return self._dispatch(zs)

    def _dispatch(
        self, zs: Sequence[Sequence[PowerSeries]], mode: str | None = None
    ) -> list[list[EvaluationResult]]:
        """Route checked inputs to one mode's execution path.

        The single mode switch, shared by :meth:`evaluate_batch` and the
        delegating runs of :class:`repro.core.EvalContext` (which pass the
        ``mode`` override — e.g. ``"staged"`` for a vectorized context whose
        ring fell back), so the two entry points cannot drift.
        """
        mode = self.mode if mode is None else mode
        tel = _TELEMETRY
        t0 = tel.enabled and _perf_counter_ns()
        if mode == "reference":
            results = [
                [evaluate_reference(polynomial, z) for polynomial in self.polynomials]
                for z in zs
            ]
        elif mode == "vectorized":
            results = self._evaluate_vectorized(zs)
        else:
            results = self._evaluate_staged(zs)
        if t0:
            tel.record_span(
                "system.sweep", t0, _perf_counter_ns(), mode=mode, batch=len(zs)
            )
        return results

    def make_context(self, batch: int, buffer=None) -> "EvalContext":
        """A resident :class:`repro.core.EvalContext` for ``batch`` instances.

        The context packs the fused slot tensor once, updates only the input
        slots on later sweeps and unpacks only requested outputs — the
        host-side analogue of keeping the data array resident on the device
        across Newton iterations and path steps.  Every mode supports the
        interface (non-tensor modes delegate each run to their per-call
        path), so callers are mode-agnostic.  ``buffer`` optionally homes the
        packed tensor in an externally-owned buffer (a shared-memory
        segment), the zero-copy residence of the sharded fleet runner.
        """
        from .context import EvalContext

        return EvalContext(self, batch, buffer=buffer)

    def job_summary(self) -> dict:
        """Fused schedule statistics."""
        return self.fused.summary()

    def cache_stats(self) -> dict:
        """Hit/miss accounting of the schedule cache this evaluator uses."""
        return self.cache.stats()

    # ------------------------------------------------------------------ #
    # shared plumbing
    # ------------------------------------------------------------------ #
    def _check_inputs(self, z: Sequence[PowerSeries]) -> None:
        if len(z) != self.dimension:
            raise StagingError(f"expected {self.dimension} input series, got {len(z)}")
        for i, series in enumerate(z):
            if series.degree != self.degree:
                raise StagingError(
                    f"input series {i} has degree {series.degree}, expected {self.degree}"
                )

    def _prepare_batch_slots(self, zs: Sequence[Sequence[PowerSeries]]) -> list[PowerSeries]:
        """One flat slot array for the whole batch (stride = ``total_slots``).

        Each instance shares a single :class:`PowerTable` across all its
        equations, so the common-factor powers of non-multilinear monomials
        are convolved once per input vector.
        """
        all_slots: list[PowerSeries] = []
        for z in zs:
            table = PowerTable(z)
            for polynomial, schedule in zip(self.polynomials, self.fused.schedules):
                all_slots.extend(_prepare_slots(polynomial, schedule, z, table))
        return all_slots

    def _collect_batch(
        self, all_slots: Sequence[PowerSeries], batch: int, metadata: dict
    ) -> list[list[EvaluationResult]]:
        """Read every (instance, equation) result back from the fused array.

        Each equation's slots are a contiguous slice of the fused array, so
        the readback itself is the one per-equation :func:`_collect_result`
        rule.
        """
        fused = self.fused
        stride = fused.total_slots
        results: list[list[EvaluationResult]] = []
        for b in range(batch):
            instance: list[EvaluationResult] = []
            for equation, (offset, schedule) in enumerate(zip(fused.offsets, fused.schedules)):
                base = b * stride + offset
                instance.append(
                    _collect_result(
                        self.polynomials[equation],
                        schedule,
                        all_slots[base : base + schedule.layout.total_slots],
                        dict(metadata, instance=b, equation=equation),
                    )
                )
            results.append(instance)
        return results

    # ------------------------------------------------------------------ #
    # staged execution on the host
    # ------------------------------------------------------------------ #
    def _evaluate_staged(
        self, zs: Sequence[Sequence[PowerSeries]]
    ) -> list[list[EvaluationResult]]:
        batch = len(zs)
        all_slots = self._prepare_batch_slots(zs)
        fused = self.fused
        # One fused layer at a time, every instance's jobs of that layer
        # together: the order of the paper's wide launches.
        bases = [b * fused.total_slots for b in range(batch)]
        for layer in fused.convolution_layers:
            for base in bases:
                for job in layer:
                    apply_convolution(all_slots, base, job)
        for base in bases:
            for job in fused.scale_jobs:
                apply_scale(all_slots, base, job)
        for layer in fused.addition_layers:
            for base in bases:
                for job in layer:
                    apply_addition(all_slots, base, job)
        metadata = {
            "mode": "staged",
            "batch": batch,
            "convolution_jobs": fused.convolution_job_count,
            "addition_jobs": fused.addition_job_count,
            "launches": fused.total_launches,
        }
        return self._collect_batch(all_slots, batch, metadata)

    # ------------------------------------------------------------------ #
    # tensorized execution (whole-layer NumPy multidouble sweeps)
    # ------------------------------------------------------------------ #
    def _ring_of_system(self) -> tuple[str, int] | None:
        """The coefficient ring of the system's own series (memoised)."""
        if self._system_ring is None:
            from .tensor import infer_ring

            series = [polynomial.constant for polynomial in self.polynomials]
            for polynomial in self.polynomials:
                series.extend(monomial.coefficient for monomial in polynomial.monomials)
            ring = infer_ring(series)
            self._system_ring = ring if ring is not None else "unsupported"
        return None if self._system_ring == "unsupported" else self._system_ring

    def _evaluate_vectorized(
        self, zs: Sequence[Sequence[PowerSeries]]
    ) -> list[list[EvaluationResult]]:
        """One whole-layer NumPy sweep over the packed slot tensor.

        Implemented as a one-shot :class:`repro.core.EvalContext`: the fused
        slot array of the entire batch is packed into one limb tensor (real
        :class:`repro.core.tensor.SlotTensor` or paired-plane
        :class:`repro.core.tensor.ComplexSlotTensor`, chosen by the joined
        coefficient ring), the fused schedule is compiled once per structure
        into a :class:`repro.core.tensor.TensorProgram` (memoised in the
        schedule cache next to the fused schedule), and every fused layer
        executes as a few vectorised multidouble calls — one "launch" per
        layer instead of one Python call per job.  Clients that sweep
        repeatedly should hold the context themselves
        (:meth:`make_context`) so the packing happens once, not per call.
        Coefficient rings the tensor cannot carry (exact fractions) fall
        back to the staged object path; the returned metadata then reports
        ``mode="staged"``.
        """
        from .context import EvalContext

        context = EvalContext(self, len(zs))
        context.update_inputs(zs)
        return context.run()

    def _collect_vectorized(
        self, tensor, batch: int, metadata: dict, values_only: bool = False
    ) -> list[list[EvaluationResult]]:
        """Scatter only the value/gradient rows back into series results.

        The fused schedule's public output maps (``value_slots``,
        ``gradient_slots``) point straight at the rows that matter, so the
        readback touches one row per output series instead of unpacking the
        whole tensor — and with ``values_only`` skips the gradient rows
        entirely (the results carry empty gradients).
        """
        fused = self.fused
        stride = fused.total_slots
        zero = tensor.zero_series()
        results: list[list[EvaluationResult]] = []
        for b in range(batch):
            base = b * stride
            instance: list[EvaluationResult] = []
            for equation in range(fused.n_equations):
                if values_only:
                    gradient: list[PowerSeries] = []
                else:
                    gradient_map = fused.gradient_slots[equation]
                    gradient = [
                        tensor.series_at(base + gradient_map[variable])
                        if variable in gradient_map
                        else zero.copy()
                        for variable in range(self.dimension)
                    ]
                instance.append(
                    EvaluationResult(
                        value=tensor.series_at(base + fused.value_slots[equation]),
                        gradient=gradient,
                        metadata=dict(metadata, instance=b, equation=equation),
                    )
                )
            results.append(instance)
        return results



class PolynomialEvaluator(SystemEvaluator):
    """Evaluate one polynomial and its gradient: a one-equation system.

    Every mode of :class:`SystemEvaluator` applies; :meth:`evaluate` (and
    calling the evaluator) returns the equation's
    :class:`repro.circuits.EvaluationResult` instead of a one-element list.
    """

    def __init__(self, polynomial: Polynomial, mode: str = "staged"):
        super().__init__([polynomial], mode=mode)
        self.polynomial = polynomial
        self.schedule: JobSchedule = self.fused.schedules[0]

    def evaluate(self, z: Sequence[PowerSeries]) -> EvaluationResult:
        """Evaluate ``p(z)`` and the full gradient at the series vector ``z``."""
        return super().evaluate(z)[0]

    __call__ = evaluate

    def job_summary(self) -> dict:
        """Schedule statistics (job counts, launches, theoretical steps)."""
        return self.schedule.summary()
