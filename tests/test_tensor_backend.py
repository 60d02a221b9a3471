"""Tests for the tensorized execution backend (repro.core.tensor)."""

from __future__ import annotations

import random
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.testpolys import (
    make_polynomial_from_structure,
    p1_structure,
    p2_structure,
    p3_structure,
    random_polynomial,
)
from repro.core import (
    ScheduleCache,
    SlotTensor,
    SystemEvaluator,
    TensorProgram,
    compile_tensor_program,
    convolve_rows,
    infer_ring,
)
from repro.homotopy import (
    NewtonOptions,
    PolynomialSystem,
    TaylorPathTracker,
    newton_power_series_batch,
)
from repro.md import MDArray, MultiDouble
from repro.series import PowerSeries, convolve_vectorized, random_series_vector

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite_doubles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _tolerance(limbs: int) -> float:
    """A few ulps of the working precision, as in the system-evaluator tests."""
    return 2.0 ** (-52 * limbs + 24)


# --------------------------------------------------------------------- #
# mini versions of the paper systems (scaled to test-suite size)
# --------------------------------------------------------------------- #
def _mini_structure(name: str) -> tuple[int, list[tuple[int, ...]]]:
    """A few-monomial slice of a paper structure (same dimension and shape)."""
    if name == "p1":
        n, supports = p1_structure()
        return n, supports[::300]  # 7 products of four distinct variables
    if name == "p2":
        n, supports = p2_structure()
        # Every 16th cyclic window, truncated to 8 consecutive variables.
        return n, [s[:8] for s in supports[::16]]
    n, supports = p3_structure()
    return n, supports[::1300]  # 7 products of two distinct variables


def _mini_system(name: str, degree: int, kind: str, precision, rng, equations: int = 3):
    n, supports = _mini_structure(name)
    return [
        make_polynomial_from_structure(
            n, supports[e:] + supports[:e], degree, kind=kind, precision=precision, rng=rng
        )
        for e in range(equations)
    ]


def _max_difference(batch_a, batch_b) -> float:
    return max(
        got.max_difference(expected)
        for row_a, row_b in zip(batch_a, batch_b)
        for got, expected in zip(row_a, row_b)
    )


# --------------------------------------------------------------------- #
# parity on the paper systems
# --------------------------------------------------------------------- #
#: Memoised per (system, precision): the scalar-md oracles are the slow part
#: of these tests, so they run once on one instance and every batch size
#: reuses them.
_ORACLE_CACHE: dict = {}


def _parity_workload(name: str, precision: int):
    key = (name, precision)
    if key not in _ORACLE_CACHE:
        rng = random.Random(20210312 + precision)
        degree = 2
        polynomials = _mini_system(name, degree, "md", precision, rng, equations=2)
        n = polynomials[0].dimension
        zs = [random_series_vector(n, degree, "md", precision, rng) for _ in range(8)]
        cache = ScheduleCache()
        reference = SystemEvaluator(polynomials, mode="reference", cache=cache).evaluate(
            zs[0]
        )
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate(zs[0])
        _ORACLE_CACHE[key] = (polynomials, zs, reference, staged, cache)
    return _ORACLE_CACHE[key]


class TestVectorizedParity:
    @pytest.mark.parametrize("name", ("p1", "p2", "p3"))
    @pytest.mark.parametrize("precision", (2, 4, 8))
    @pytest.mark.parametrize("batch", (1, 3, 8))
    def test_md_parity_with_reference_and_staged(self, name, precision, batch):
        polynomials, zs, reference, staged, cache = _parity_workload(name, precision)
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=cache)
        vectorized = evaluator.evaluate_batch(zs[:batch])
        # Instance 0 sits within working precision of both scalar oracles.
        for got, ref, stg in zip(vectorized[0], reference, staged):
            assert got.max_difference(ref) < _tolerance(precision)
            assert got.max_difference(stg) < _tolerance(precision)
        # Every other instance of the wide sweep is bitwise the same work as
        # its own batch of one (the tensor ops are elementwise over rows).
        for b in range(1, batch):
            single = evaluator.evaluate_batch([zs[b]])[0]
            for got, expected in zip(vectorized[b], single):
                assert got.max_difference(expected) == 0.0
        assert vectorized[0][0].metadata["mode"] == "vectorized"
        assert vectorized[0][0].metadata["limbs"] == precision
        assert vectorized[0][0].metadata["batch"] == batch

    @pytest.mark.parametrize("name", ("p1", "p3"))
    def test_float_ring_matches_staged_bitwise(self, name, rng):
        """Doubles take the one-limb fast path, whose accumulation order is
        exactly the staged loop's — the results agree to the last bit."""
        degree = 3
        polynomials = _mini_system(name, degree, "float", 2, rng, equations=2)
        n = polynomials[0].dimension
        zs = [random_series_vector(n, degree, "float", 2, rng) for _ in range(4)]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)
        assert _max_difference(vectorized, staged) == 0.0

    @pytest.mark.parametrize("precision", (2, 4))
    def test_fraction_oracle_parity(self, precision, rng):
        """The exact-rational oracle bounds the backend's rounding error.

        Multiple-double limbs are exact doubles, so promoting every
        coefficient to Fraction and evaluating with the reference oracle
        gives the true value; the vectorized result must sit within the
        working precision of it.
        """
        degree = 2
        polynomials = _mini_system("p1", degree, "md", precision, rng, equations=2)
        n = polynomials[0].dimension
        zs = [random_series_vector(n, degree, "md", precision, rng) for _ in range(2)]

        def exact(series: PowerSeries) -> PowerSeries:
            return PowerSeries([c.to_fraction() for c in series.coefficients])

        exact_polynomials = [p.map_coefficients(exact) for p in polynomials]
        exact_zs = [[exact(series) for series in z] for z in zs]
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=ScheduleCache()
        ).evaluate_batch(zs)
        oracle = SystemEvaluator(
            exact_polynomials, mode="reference", cache=ScheduleCache()
        ).evaluate_batch(exact_zs)
        for vec_row, oracle_row in zip(vectorized, oracle):
            for got, expected in zip(vec_row, oracle_row):
                worst = 0.0
                for a, b in zip(got.value.coefficients, expected.value.coefficients):
                    worst = max(worst, abs(float(a.to_fraction() - b)))
                assert worst < _tolerance(precision)

    def test_general_exponents_use_scale_layers(self, rng):
        polynomials = [
            random_polynomial(
                5, 4, 3, degree=3, kind="md", precision=2, rng=rng, max_exponent=3
            )
            for _ in range(3)
        ]
        zs = [random_series_vector(5, 3, "md", 2, rng) for _ in range(3)]
        cache = ScheduleCache()
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=cache)
        assert any(
            layer.kind == "scale"
            for layer in compile_tensor_program(evaluator.fused).layers
        )
        vectorized = evaluator.evaluate_batch(zs)
        reference = SystemEvaluator(
            polynomials, mode="reference", cache=cache
        ).evaluate_batch(zs)
        assert _max_difference(vectorized, reference) < _tolerance(2)


class TestRingFallback:
    def test_fraction_ring_falls_back_to_staged(self, rng):
        polynomials = [
            random_polynomial(4, 3, 2, degree=2, kind="fraction", rng=rng)
            for _ in range(2)
        ]
        zs = [random_series_vector(4, 2, "fraction", 2, rng) for _ in range(2)]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)
        assert _max_difference(vectorized, staged) == 0.0
        assert vectorized[0][0].metadata["mode"] == "staged"

    @pytest.mark.parametrize("kind,ring", (("complex", "complex"), ("complex_md", "cmd")))
    def test_complex_rings_run_vectorized(self, kind, ring, rng):
        """Complex rings are first-class since the paired-plane tensor:
        they run the fast path and agree with the staged oracle exactly."""
        polynomials = [
            random_polynomial(4, 3, 2, degree=2, kind=kind, rng=rng) for _ in range(2)
        ]
        zs = [random_series_vector(4, 2, kind, 2, rng) for _ in range(2)]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)
        assert _max_difference(vectorized, staged) == 0.0
        assert vectorized[0][0].metadata["mode"] == "vectorized"
        assert vectorized[0][0].metadata["ring"] == ring

    def test_mixed_float_system_md_inputs_runs_vectorized(self, rng):
        polynomials = [
            random_polynomial(4, 3, 2, degree=2, kind="float", rng=rng) for _ in range(2)
        ]
        zs = [random_series_vector(4, 2, "md", 4, rng) for _ in range(3)]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        reference = SystemEvaluator(
            polynomials, mode="reference", cache=cache
        ).evaluate_batch(zs)
        assert vectorized[0][0].metadata["mode"] == "vectorized"
        assert vectorized[0][0].metadata["limbs"] == 4
        assert _max_difference(vectorized, reference) < _tolerance(4)

    def test_infer_ring(self, rng):
        assert infer_ring([PowerSeries([1.0, 2.0])]) == ("float", 1)
        md = random_series_vector(1, 2, "md", 4, rng)
        assert infer_ring(md) == ("md", 4)
        assert infer_ring(md + [PowerSeries([1.0, 0.5, 0.25])]) == ("md", 4)
        assert infer_ring([PowerSeries([Fraction(1, 3), Fraction(0)])]) is None
        assert infer_ring([PowerSeries([1.0 + 2.0j, 0j])]) == ("complex", 1)
        cmd = random_series_vector(1, 2, "complex_md", 4, rng)
        assert infer_ring(cmd) == ("cmd", 4)
        # Mixing real multidoubles with plain complexes joins into cmd.
        assert infer_ring(md + [PowerSeries([1.0 + 2.0j, 0j, 1j])]) == ("cmd", 4)


# --------------------------------------------------------------------- #
# SlotTensor gather/scatter
# --------------------------------------------------------------------- #
@st.composite
def md_slot_arrays(draw):
    limbs = draw(st.sampled_from((1, 2, 4, 8)))
    width = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=1, max_value=5))
    coefficients = draw(
        st.lists(
            st.lists(
                st.lists(finite_doubles, min_size=limbs, max_size=limbs),
                min_size=width,
                max_size=width,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
    slots = [
        PowerSeries([MultiDouble(tuple(limb_list), limbs) for limb_list in series])
        for series in coefficients
    ]
    return slots, limbs


class TestSlotTensorRoundTrip:
    @SETTINGS
    @given(case=md_slot_arrays())
    def test_md_gather_scatter_round_trips_exactly(self, case):
        slots, limbs = case
        tensor = SlotTensor.pack(slots, limbs=limbs, ring="md")
        recovered = tensor.to_slots()
        assert len(recovered) == len(slots)
        for original, back in zip(slots, recovered):
            for a, b in zip(original.coefficients, back.coefficients):
                assert a.limbs == b.limbs  # bit-exact, limb by limb

    @SETTINGS
    @given(
        coefficients=st.lists(
            st.lists(finite_doubles, min_size=3, max_size=3), min_size=1, max_size=6
        )
    )
    def test_float_gather_scatter_round_trips_exactly(self, coefficients):
        slots = [PowerSeries(list(c)) for c in coefficients]
        tensor = SlotTensor.pack(slots, limbs=1, ring="float")
        for original, back in zip(slots, tensor.to_slots()):
            assert original.coefficients == back.coefficients

    def test_mixed_precision_pack_zero_extends(self, rng):
        """A 2-limb value in a 4-limb tensor keeps its exact value."""
        slots = [
            PowerSeries([MultiDouble.random(2, rng), MultiDouble.random(4, rng)]),
        ]
        tensor = SlotTensor.pack(slots, limbs=4, ring="md")
        back = tensor.to_slots()[0]
        for a, b in zip(slots[0].coefficients, back.coefficients):
            assert a.to_fraction() == b.to_fraction()

    def test_pack_rejects_unsupported_coefficients(self):
        with pytest.raises(TypeError):
            SlotTensor.pack([PowerSeries([Fraction(1, 3), Fraction(2)])], limbs=2)
        with pytest.raises(TypeError):
            # The float-ring fast path must not round Fractions through
            # np.asarray either.
            SlotTensor.pack(
                [PowerSeries([Fraction(1, 3), Fraction(2)])], limbs=1, ring="float"
            )
        with pytest.raises(ValueError):
            SlotTensor.pack([], limbs=2)
        with pytest.raises(ValueError):
            SlotTensor.pack(
                [PowerSeries([1.0, 2.0]), PowerSeries([1.0])], limbs=1, ring="float"
            )


# --------------------------------------------------------------------- #
# the batched convolution kernel
# --------------------------------------------------------------------- #
class TestConvolveRows:
    @pytest.mark.parametrize("limbs", (1, 2, 4))
    def test_many_triples_match_convolve_vectorized(self, limbs, nprng):
        """One whole-layer sweep equals per-pair convolve_vectorized calls."""
        m, n = 5, 7
        x = np.stack([MDArray.random(n, limbs, nprng).data for _ in range(m)], axis=1)
        y = np.stack([MDArray.random(n, limbs, nprng).data for _ in range(m)], axis=1)
        out = convolve_rows(x, y, limbs)
        for j in range(m):
            expected = convolve_vectorized(MDArray(x[:, j, :]), MDArray(y[:, j, :]))
            assert np.array_equal(out[:, j, :], expected.data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            convolve_rows(np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), 2)


# --------------------------------------------------------------------- #
# program compilation and caching
# --------------------------------------------------------------------- #
class TestTensorProgram:
    def test_program_covers_every_fused_job(self, rng):
        polynomials = _mini_system("p1", 3, "md", 2, rng)
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=ScheduleCache())
        program = compile_tensor_program(evaluator.fused)
        conv_jobs = sum(
            layer.jobs for layer in program.layers if layer.kind == "convolution"
        )
        add_jobs = sum(layer.jobs for layer in program.layers if layer.kind == "addition")
        assert conv_jobs == evaluator.fused.convolution_job_count
        assert add_jobs == evaluator.fused.addition_job_count
        assert program.total_slots == evaluator.fused.total_slots

    def test_program_is_cached_alongside_fused_schedule(self, rng):
        polynomials = _mini_system("p1", 2, "md", 2, rng)
        zs = [
            random_series_vector(polynomials[0].dimension, 2, "md", 2, rng)
            for _ in range(2)
        ]
        cache = ScheduleCache()
        SystemEvaluator(polynomials, mode="vectorized", cache=cache).evaluate_batch(zs)
        assert len(cache) == 2  # fused schedule + compiled tensor program
        misses_after_first = cache.stats()["misses"]
        SystemEvaluator(polynomials, mode="vectorized", cache=cache).evaluate_batch(zs)
        stats = cache.stats()
        assert stats["misses"] == misses_after_first  # both entries hit
        assert stats["hits"] >= 2

    def test_run_validates_row_count(self, rng):
        polynomials = _mini_system("p1", 2, "md", 2, rng)
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=ScheduleCache())
        program = compile_tensor_program(evaluator.fused)
        bad = SlotTensor(np.zeros((2, 3, 3)), ring="md")
        with pytest.raises(ValueError):
            program.run(bad, batch=1)
        assert isinstance(program, TensorProgram)


# --------------------------------------------------------------------- #
# schedule-cache hardening (satellites)
# --------------------------------------------------------------------- #
class TestScheduleCacheHardening:
    def test_cached_none_is_a_hit(self):
        cache = ScheduleCache()
        calls = []

        def builder():
            calls.append(1)
            return None

        assert cache.get(("none",), builder) is None
        assert cache.get(("none",), builder) is None
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_concurrent_lookups_build_once(self):
        cache = ScheduleCache()
        built = []
        barrier = threading.Barrier(8)

        def builder():
            built.append(threading.get_ident())
            return object()

        results = []

        def worker():
            barrier.wait()
            for _ in range(50):
                results.append(cache.get(("shared",), builder))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1
        assert len(set(map(id, results))) == 1
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 8 * 50 - 1

    def test_concurrent_mixed_keys_and_eviction(self):
        cache = ScheduleCache(maxsize=4)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    key = ("k", rng.randrange(8))
                    value = cache.get(key, lambda key=key: key)
                    assert value == key
                    if rng.random() < 0.05:
                        cache.clear()
                    assert len(cache) >= 0 and cache.stats()["maxsize"] == 4
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 4


# --------------------------------------------------------------------- #
# homotopy wiring
# --------------------------------------------------------------------- #
def _square_md_system(rng, dimension=3, degree=3):
    polynomials = [
        random_polynomial(dimension, 3, 2, degree=degree, kind="md", precision=2, rng=rng)
        for _ in range(dimension)
    ]
    return PolynomialSystem(polynomials, mode="staged", cache=ScheduleCache())


class TestHomotopyWiring:
    def test_with_mode_shares_cache_and_staging(self, rng):
        system = _square_md_system(rng)
        vectorized = system.with_mode("vectorized")
        assert vectorized.mode == "vectorized"
        assert vectorized.evaluator.cache is system.evaluator.cache
        assert vectorized.evaluator.fused is system.evaluator.fused
        assert system.with_mode(None) is system
        assert system.with_mode("staged") is system

    def test_newton_batch_mode_knob_matches_staged(self, rng):
        system = _square_md_system(rng)
        initials = [
            [PowerSeries.constant(MultiDouble.random(2, rng), system.degree)
             for _ in range(system.dimension)]
            for _ in range(3)
        ]
        staged = newton_power_series_batch(
            system, initials, options=NewtonOptions(max_iterations=3)
        )
        vectorized = newton_power_series_batch(
            system, initials, options=NewtonOptions(max_iterations=3, mode="vectorized")
        )
        for a, b in zip(staged, vectorized):
            assert a.iterations == b.iterations
            for sa, sb in zip(a.solution, b.solution):
                assert sa.max_abs_error(sb) < _tolerance(2)

    def test_track_many_vectorized_matches_staged(self, rng):
        from repro.circuits import Polynomial

        cache = ScheduleCache()

        def builder(t0, degree):
            # p(x) = x - t0 - s with series variable s = t - t0: x(t) = t.
            constant = PowerSeries([-t0, -1.0] + [0.0] * (degree - 1))
            polynomial = Polynomial.from_supports(
                1, constant, [(0,)], [PowerSeries.one(degree)]
            )
            return PolynomialSystem([polynomial], mode="staged", cache=cache)

        starts = [[0.0], [0.0]]
        staged = TaylorPathTracker(builder, degree=4, step=0.25).track_many(starts)
        vectorized = TaylorPathTracker(
            builder, degree=4, step=0.25, mode="vectorized"
        ).track_many(starts)
        for a, b in zip(staged, vectorized):
            assert a.success and b.success
            assert len(a.points) == len(b.points)
            for pa, pb in zip(a.points, b.points):
                assert pa.t == pb.t
                assert abs(pa.values[0] - pb.values[0]) < 1e-12
        assert abs(staged[0].final_values[0] - 1.0) < 1e-10
