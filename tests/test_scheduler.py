"""Tests for the adaptive masked many-path scheduler and the options API.

The contracts under test are the tracker redesign's headline guarantees:

* healthy paths run by the adaptive scheduler (growth disabled) reproduce
  the lockstep tracker **bit for bit**, while the surviving fleet packs its
  slot tensor exactly **once** — masking replaces repacking;
* paths that fail at the working precision escalate up the configured
  precision ladder as one fresh lifted fleet per rung, without touching the
  bits of the paths that already finished;
* the one :class:`TrackOptions` object carries every knob, the tracker's
  deprecated keyword signature builds a bit-identical shim, and mixing the
  two styles is rejected.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.circuits import parse_polynomial
from repro.errors import StagingError
from repro.homotopy import (
    DEFAULT_TRACK_OPTIONS,
    NewtonOptions,
    PathScheduler,
    PolynomialSystem,
    RetryPolicy,
    StepControl,
    TaylorPathTracker,
    TrackOptions,
    align_path_points,
    batch_lu_solve,
    lift_value,
    track_paths,
)
from repro.md import ComplexMD, MultiDouble
from repro.series import PowerSeries


def _bits(value):
    """A hashable bit-level signature of one coefficient-ring value."""
    if isinstance(value, ComplexMD):
        return (value.real.limbs, value.imag.limbs)
    if isinstance(value, MultiDouble):
        return value.limbs
    return value


def _point_bits(point):
    return (point.t, tuple(_bits(v) for v in point.values), point.residual)


def sqrt_family(t0: float, degree: int) -> PolynomialSystem:
    """x^2 - (1 + t) = 0 around ``t0``: the branches ±sqrt(1 + t)."""
    p = parse_polynomial("x1^2", degree=degree, kind="float")
    p.constant.coefficients[0] = -(1.0 + t0)
    if degree >= 1:
        p.constant.coefficients[1] = -1.0
    return PolynomialSystem([p])


#: Stiffness of the hard branch of the retry family: the residual of the
#: root x = u(t) carries a floor of roughly u^2 * eps(limbs), so with
#: u(1) ~ 1e6 a double-double refinement bottoms out near 1e-20 — above the
#: 1e-22 tolerance — while quad doubles reach ~1e-52 and pass.
_STIFFNESS = 1.0e6
_HARD_TOLERANCE = 1.0e-22


def _md(value: float, precision: int) -> MultiDouble:
    return MultiDouble.from_float(float(value), precision)


def retry_family(precision: int = 2):
    """(x - u(t)) (x - 1) = 0 with u(t) = 2 + B t^2: one hard, one easy root."""

    def build(t0: float, degree: int) -> PolynomialSystem:
        poly = parse_polynomial("x1^2 + x1", degree=degree, kind="md", precision=precision)
        u = [
            _md(2.0 + _STIFFNESS * t0 * t0, precision),
            _md(2.0 * _STIFFNESS * t0, precision),
            _md(_STIFFNESS, precision),
        ]
        u += [_md(0.0, precision)] * (degree + 1 - len(u))
        poly.constant.coefficients[:] = u
        linear = next(m for m in poly.monomials if m.exponents == ((0, 1),))
        negated = [-(c) for c in u]
        negated[0] = -(_md(1.0, precision) + u[0])
        linear.coefficient.coefficients[:] = negated
        return PolynomialSystem([poly])

    return build


_RETRY_OPTIONS = TrackOptions().override(
    degree=8,
    mode="vectorized",
    step={"grow": 1.0},
    newton={"max_iterations": 6, "tolerance": _HARD_TOLERANCE},
    retry=RetryPolicy(precision_ladder=(4,), max_rejections=2),
)


# --------------------------------------------------------------------- #
# the options object
# --------------------------------------------------------------------- #
class TestTrackOptions:
    def test_defaults_match_legacy_tracker(self):
        options = TrackOptions()
        assert options.degree == 8
        assert options.step.initial == 0.1
        assert options.newton.max_iterations == 6
        assert options.newton.tolerance == 1.0e-10
        assert options.mode is None
        assert options.scheduler == "adaptive"

    def test_flat_aliases_route_to_nested_fields(self):
        options = TrackOptions().override(
            step=0.25,
            newton_iterations=9,
            tolerance=1e-13,
            solver="batched",
            precision_ladder=(4, 8),
        )
        assert options.step.initial == 0.25
        assert options.newton.max_iterations == 9
        assert options.newton.tolerance == 1e-13
        assert options.newton.solver == "batched"
        assert options.retry.precision_ladder == (4, 8)

    def test_mapping_merges_object_replaces(self):
        merged = TrackOptions().override(step={"grow": 1.5})
        assert merged.step.grow == 1.5
        assert merged.step.initial == 0.1  # untouched by the merge
        replaced = TrackOptions().override(newton=NewtonOptions(max_iterations=3))
        assert replaced.newton.max_iterations == 3
        assert replaced.newton.tolerance == 0.0  # whole-object replacement

    def test_flat_step_widens_the_window(self):
        # The legacy flat knob knew nothing about [min, max]; moving the
        # initial step must not trip the window invariants.
        wide = TrackOptions().override(step=0.7)
        assert wide.step.initial == 0.7
        assert wide.step.max == 0.7
        tiny = TrackOptions().override(step=1e-9)
        assert tiny.step.min == 1e-9

    def test_override_rejects_unknowns_and_bad_types(self):
        with pytest.raises(TypeError):
            TrackOptions().override(no_such_option=1)
        with pytest.raises(TypeError):
            TrackOptions().override(newton=3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackOptions(degree=0)
        with pytest.raises(ValueError):
            TrackOptions(scheduler="chaotic")
        with pytest.raises(ValueError):
            NewtonOptions(solver="gpu")
        with pytest.raises(ValueError):
            StepControl(grow=0.5)
        with pytest.raises(ValueError):
            StepControl(shrink=1.0)
        with pytest.raises(ValueError):
            StepControl(initial=0.1, min=0.2)
        with pytest.raises(ValueError):
            RetryPolicy(precision_ladder=(8, 4))
        with pytest.raises(ValueError):
            RetryPolicy(precision_ladder=(7,))

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_TRACK_OPTIONS.degree = 4

    def test_make_layers_overrides(self):
        base = TrackOptions().override(degree=6)
        derived = TrackOptions.make(base, step=0.25)
        assert derived.degree == 6
        assert derived.step.initial == 0.25
        assert base.step.initial == 0.1  # immutability of the base


# --------------------------------------------------------------------- #
# the deprecated keyword shims
# --------------------------------------------------------------------- #
class TestDeprecationShims:
    def test_tracker_legacy_keywords_warn_and_match(self):
        with pytest.warns(DeprecationWarning):
            legacy = TaylorPathTracker(sqrt_family, degree=6, step=0.25)
        modern = TaylorPathTracker(
            sqrt_family, options=TrackOptions().override(degree=6, step=0.25)
        )
        old = legacy.track([1.0], 0.0, 1.0)
        new = modern.track([1.0], 0.0, 1.0)
        assert old.success and new.success
        assert [_point_bits(p) for p in old.points] == [
            _point_bits(p) for p in new.points
        ]

    def test_tracker_rejects_mixed_styles(self):
        with pytest.raises(ValueError, match="not both"):
            TaylorPathTracker(sqrt_family, degree=6, options=TrackOptions())

    def test_tracker_options_only_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            TaylorPathTracker(sqrt_family, options=TrackOptions())
            TaylorPathTracker(sqrt_family)

    def test_deprecation_warnings_point_at_the_caller(self):
        """Every shim warns with ``stacklevel=2``: the reported location is
        this file — the caller — never the library frame that raised it."""
        with pytest.warns(DeprecationWarning) as record:
            TaylorPathTracker(sqrt_family, degree=4)
        assert [w.filename for w in record] == [__file__]


# --------------------------------------------------------------------- #
# the adaptive scheduler
# --------------------------------------------------------------------- #
class TestAdaptiveScheduler:
    def test_matches_lockstep_bit_for_bit_with_one_pack(self):
        """Growth disabled, the fleet replays the lockstep grid exactly.

        The run must also stay masked-resident: one fleet, one slot-tensor
        pack for the whole track — converged paths are masked out, never
        repacked away.
        """
        starts = [[1.0], [-1.0], [1.0]]
        options = TrackOptions().override(
            degree=6, mode="vectorized", step={"initial": 0.25, "grow": 1.0}
        )
        report = track_paths(sqrt_family, starts, options=options)
        tracker = TaylorPathTracker(
            sqrt_family, options=options.override(scheduler="lockstep")
        )
        lockstep = tracker.track_many(starts, 0.0, 1.0)

        assert report.n_converged == 3
        assert len(report.fleets) == 1
        assert report.fleets[0]["packs"] == 1
        assert report.fleets[0]["resident"]
        for adaptive, reference in zip(report.results, lockstep):
            assert adaptive.success == reference.success
            assert [_point_bits(p) for p in adaptive.points] == [
                _point_bits(p) for p in reference.points
            ]

    def test_step_growth_shortens_the_track(self):
        # A degree-6 refinement from a constant prediction takes 4 Newton
        # iterations (each doubles the correct series coefficients), so the
        # growth threshold sits at 4 to classify those steps as fast.
        options = TrackOptions().override(
            degree=6,
            step={"initial": 0.1, "grow": 2.0, "max": 0.5, "fast_iterations": 4},
        )
        report = track_paths(sqrt_family, [[1.0]], options=options)
        (status,) = report.statuses
        assert status.converged
        assert status.steps < 11  # the fixed 0.1 grid needs 11 points
        endpoint = report.results[0].points[-1]
        assert endpoint.t == 1.0
        assert endpoint.values[0] == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_results_stay_in_input_order(self):
        starts = [[-1.0], [1.0], [-1.0]]
        report = track_paths(
            sqrt_family, starts, options=TrackOptions().override(degree=6)
        )
        signs = [-1.0, 1.0, -1.0]
        for status, result, sign in zip(report.statuses, report.results, signs):
            assert status.converged
            assert result.final_values[0] == pytest.approx(
                sign * math.sqrt(2.0), abs=1e-9
            )
        assert [s.index for s in report.statuses] == [0, 1, 2]

    def test_hopeless_path_fails_without_dragging_the_fleet(self):
        starts = [[1.0], [250.0]]
        report = track_paths(
            sqrt_family,
            starts,
            options=TrackOptions().override(degree=6, retry={"precision_ladder": ()}),
        )
        good, bad = report.statuses
        assert good.converged and good.retries == 0
        assert not bad.converged
        assert bad.reason in ("newton", "diverged")
        assert report.failed_indices == [1]
        assert report.results[0].final_values[0] == pytest.approx(
            math.sqrt(2.0), abs=1e-9
        )

    def test_divergence_detected_early(self):
        report = track_paths(
            sqrt_family,
            [[1.0e9]],
            options=TrackOptions().override(
                degree=6, retry={"precision_ladder": (), "divergence_threshold": 1e6}
            ),
        )
        (status,) = report.statuses
        assert not status.converged
        assert status.reason == "diverged"

    def test_empty_starts(self):
        report = track_paths(sqrt_family, [])
        assert report.n_paths == 0
        assert report.fleets == []
        assert report.summary()["paths"] == 0

    def test_crossing_detection_flags_the_later_duplicate(self):
        # Both starts land on the same branch: a path crossing by construction.
        report = track_paths(
            sqrt_family,
            [[1.0], [1.0 + 1e-13]],
            options=TrackOptions().override(
                degree=6,
                retry={"precision_ladder": (), "detect_crossings": True},
            ),
        )
        first, second = report.statuses
        assert first.converged
        assert not second.converged
        assert second.reason == "crossing"

    def test_align_path_points_pads_ragged_histories(self):
        starts = [[1.0], [250.0]]
        report = track_paths(
            sqrt_family,
            starts,
            options=TrackOptions().override(degree=6, retry={"precision_ladder": ()}),
        )
        table = align_path_points(report.results, fill=None)
        lengths = [len(result.points) for result in report.results]
        assert len(table) == max(lengths)
        for row in table:
            assert len(row) == len(starts)
        # The failed path's column is padded with the fill value.
        short = min(range(len(lengths)), key=lengths.__getitem__)
        assert table[-1][short] is None
        assert align_path_points([]) == []

    def test_scheduler_accepts_flat_overrides(self):
        report = PathScheduler(sqrt_family, degree=6, step=0.5).track([[1.0]])
        assert report.statuses[0].converged
        assert report.statuses[0].steps == 3  # t = 0, 0.5, 1.0


# --------------------------------------------------------------------- #
# the precision-escalation retry ladder
# --------------------------------------------------------------------- #
class TestRetryLadder:
    def test_dd_fails_qd_succeeds(self):
        """The stiff branch escalates; the healthy fleet never re-runs.

        At double-double precision the residual floor of the hard root sits
        above the tolerance, so the base fleet fails it; one retry at quad
        doubles converges.  Healthy paths finish in the base fleet with zero
        retries, and both fleets pack exactly once.
        """
        starts = [[2.0], [1.0], [1.0]]  # hard root u(0) = 2, two easy roots
        report = track_paths(retry_family(2), starts, options=_RETRY_OPTIONS)

        hard, easy_a, easy_b = report.statuses
        assert hard.converged
        assert hard.retries == 1
        assert hard.limbs == 4
        assert hard.residual < _HARD_TOLERANCE
        for easy in (easy_a, easy_b):
            assert easy.converged
            assert easy.retries == 0
            assert easy.limbs == 2
        assert report.escalated_indices == [0]
        assert report.total_retries == 1

        assert [f["limbs"] for f in report.fleets] == [2, 4]
        assert [f["paths"] for f in report.fleets] == [3, 1]
        assert all(f["packs"] == 1 for f in report.fleets)
        assert all(f["resident"] for f in report.fleets)

        # The escalated endpoint is the hard root u(1) = 2 + B, at quad-double
        # limbs, and the healthy endpoints the easy root x = 1.
        end = report.results[0].points[-1]
        assert end.t == 1.0
        assert len(end.values[0].limbs) == 4
        assert end.values[0].to_float() == pytest.approx(2.0 + _STIFFNESS, rel=1e-12)
        # The easy root is exact at every step, so Newton never corrects it
        # and the start values pass through as the plain floats they were.
        for result in report.results[1:]:
            assert result.points[-1].values[0] == 1.0

    def test_healthy_paths_bits_untouched_by_neighbour_failure(self):
        """A failing neighbour must not change one bit of a healthy path."""
        with_hard = track_paths(
            retry_family(2), [[2.0], [1.0], [1.0]], options=_RETRY_OPTIONS
        )
        alone = track_paths(retry_family(2), [[1.0], [1.0]], options=_RETRY_OPTIONS)
        for noisy, quiet in zip(with_hard.results[1:], alone.results):
            assert [_point_bits(p) for p in noisy.points] == [
                _point_bits(p) for p in quiet.points
            ]

    def test_base_fleet_failure_reason_is_recorded_without_a_ladder(self):
        options = _RETRY_OPTIONS.override(retry={"precision_ladder": ()})
        report = track_paths(retry_family(2), [[2.0], [1.0]], options=options)
        hard, easy = report.statuses
        assert not hard.converged
        assert hard.reason in ("step-underflow", "rejection-budget")
        assert hard.retries == 0
        assert hard.limbs == 2
        assert easy.converged

    def test_ladder_skips_rungs_at_or_below_the_working_precision(self):
        options = _RETRY_OPTIONS.override(retry={"precision_ladder": (2, 4)})
        report = track_paths(retry_family(2), [[2.0]], options=options)
        (status,) = report.statuses
        assert status.converged
        assert status.retries == 1  # the rung at 2 limbs was skipped entirely
        assert [f["limbs"] for f in report.fleets] == [2, 4]

    def test_lift_value_widens_exactly(self):
        dd = MultiDouble.from_float(1.5, 2)
        qd = lift_value(dd, 4)
        assert len(qd.limbs) == 4
        assert qd.limbs[:2] == dd.limbs
        assert qd.limbs[2:] == (0.0, 0.0)
        lifted = lift_value(3.0 + 4.0j, 2)
        assert isinstance(lifted, ComplexMD)
        assert lifted.to_complex() == 3.0 + 4.0j


# --------------------------------------------------------------------- #
# the lockstep engine behind the same facade
# --------------------------------------------------------------------- #
class TestLockstepFacade:
    def test_lockstep_scheduler_wraps_track_many(self):
        starts = [[1.0], [-1.0]]
        options = TrackOptions().override(degree=6, step=0.25, scheduler="lockstep")
        report = track_paths(sqrt_family, starts, options=options)
        reference = TaylorPathTracker(
            sqrt_family, options=options
        ).track_many(starts, 0.0, 1.0)
        assert report.n_paths == 2
        assert report.n_converged == 2
        assert report.fleets == []  # no resident fleet bookkeeping here
        for status in report.statuses:
            assert status.retries == 0 and status.rejections == 0
        for wrapped, direct in zip(report.results, reference):
            assert [_point_bits(p) for p in wrapped.points] == [
                _point_bits(p) for p in direct.points
            ]


# --------------------------------------------------------------------- #
# masked residency of the evaluation context
# --------------------------------------------------------------------- #
class TestMaskedContext:
    @staticmethod
    def _system(degree=4):
        return sqrt_family(0.0, degree).with_mode("vectorized")

    def test_masked_sweep_matches_full_batch_bitwise(self):
        degree, batch = 4, 4
        system = self._system(degree)
        starts = [
            [PowerSeries.constant(1.0 + 0.1 * b, degree)] for b in range(batch)
        ]
        full = system.make_context(batch)
        full.update_inputs(starts)
        full.run_packed()
        reference = full.residual_norms()

        masked = system.make_context(batch)
        masked.update_inputs(starts)
        masked.set_active([1, 3])
        masked.update_inputs(starts)
        masked.run_packed()
        norms = masked.residual_norms()
        for b in (1, 3):
            assert norms[b] == reference[b]
        assert masked.packs == 1

    def test_set_active_validates(self):
        context = self._system().make_context(2)
        with pytest.raises(StagingError):
            context.set_active([2])
        with pytest.raises(StagingError):
            context.set_active([True])  # a bool mask must cover the batch
        context.set_active([0])
        assert list(context.active) == [0]
        context.set_active(None)
        assert context.active is None

    def test_rebind_fleet_gives_each_instance_its_own_system(self):
        # Degree 0 keeps the residual purely the constant term, so a wrong
        # per-instance system shows up as an O(1) residual instead of being
        # swamped by the -s series term of the homotopy.
        degree = 0
        ts = [0.0, 0.5, 1.0]
        systems = [sqrt_family(t, degree).with_mode("vectorized") for t in ts]
        starts = [[PowerSeries.constant(math.sqrt(1.0 + t), degree)] for t in ts]
        context = systems[0].make_context(len(ts))
        context.rebind_fleet([s.evaluator for s in systems])
        context.update_inputs(starts)
        context.run_packed()
        norms = context.residual_norms()
        # Each fleet instance must evaluate *its* local system (the constant
        # rows x^2 - (1 + t) differ per instance), bit-identical to a
        # single-instance context of that system alone.
        for position, (system, start) in enumerate(zip(systems, starts)):
            solo = system.make_context(1)
            solo.update_inputs([start])
            solo.run_packed()
            assert norms[position] == solo.residual_norms()[0]
        # Sanity: the same starts against a single-system batch disagree on
        # the instances whose parameter value the shared system lacks.
        single = systems[0].make_context(len(ts))
        single.update_inputs(starts)
        single.run_packed()
        assert max(abs(single.residual_norms() - norms)) > 0.1
        assert context.packs == 1

    def test_rebind_fleet_validates(self):
        degree = 4
        system = self._system(degree)
        context = system.make_context(2)
        with pytest.raises(StagingError):
            context.rebind_fleet([system.evaluator])  # wrong fleet size
        other = parse_polynomial("x1*x1 + x1", degree=degree, kind="float")
        foreign = PolynomialSystem([other], mode="vectorized")
        with pytest.raises(StagingError):
            context.rebind_fleet([system.evaluator, foreign.evaluator])


# --------------------------------------------------------------------- #
# the active mask of the batched linear solvers
# --------------------------------------------------------------------- #
class TestMaskedBatchSolve:
    @staticmethod
    def _system(shift: float, degree=3):
        one = MultiDouble.from_float(1.0, 2)
        matrix = [[PowerSeries.constant(one * shift, degree)]]
        rhs = [PowerSeries.constant(one * 2.0, degree)]
        return matrix, rhs

    def test_masked_instances_return_none(self):
        systems = [self._system(1.0), self._system(2.0), self._system(4.0)]
        solved = batch_lu_solve(
            [m for m, _ in systems], [r for _, r in systems], active=[0, 2]
        )
        assert solved[1] is None
        assert solved[0] is not None and solved[2] is not None
        full = batch_lu_solve([m for m, _ in systems], [r for _, r in systems])
        for index in (0, 2):
            for mine, theirs in zip(solved[index], full[index]):
                assert mine.max_abs_error(theirs) == 0.0

    def test_masked_singular_instances_cannot_raise(self):
        good = self._system(1.0)
        singular = self._system(0.0)
        solved = batch_lu_solve(
            [good[0], singular[0]], [good[1], singular[1]], active=[0]
        )
        assert solved[1] is None
        assert solved[0] is not None

    def test_active_singular_reported_by_original_position(self):
        from repro.errors import SingularSystemError

        good = self._system(1.0)
        singular = self._system(0.0)
        with pytest.raises(SingularSystemError) as info:
            batch_lu_solve(
                [good[0], singular[0], good[0]],
                [good[1], singular[1], good[1]],
                active=[1, 2],
            )
        assert info.value.instances == [1]

    def test_active_bounds_checked(self):
        matrix, rhs = self._system(1.0)
        with pytest.raises(ValueError):
            batch_lu_solve([matrix], [rhs], active=[1])
