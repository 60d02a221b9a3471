"""Run one workload: set up, time, check, and assemble the result object.

With ``trace=False`` the run times the workload with ``repro.obs``
telemetry off and reports the end-to-end metrics.  With ``trace=True`` it
times an untraced pass, then installs the layer wrappers, repeats set-up
and the same timed work under the tracer, writes the trace and the
per-layer table, and reports the per-layer metrics plus the tracing
overhead (traced over untraced time of the same work).
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import pathlib
import time

from . import common, fleet, layers, service, sweep
from .tracer import Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3



def _declared_units(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


#: Counts that do not depend on timing; a traced run compares them with
#: the previous traced run of the same workload and program source.
EXACT = (
    "md.calls",
    "md.ops_per_mul",
    "md.ops_per_add",
    "tensor.runs",
    "tensor.launches",
    "context.packs",
    "solve.calls",
    "scheduler.retries",
)

DESCRIPTION = {
    "fleet": "1000-path retry fleet (10% stiff), dd -> qd ladder, degree 8, tol 1e-22",
    "sweep": "p1 (16 variables, 1820 monomials), deca double, degree 8, batch 2",
    "service": "open-loop dd degree-4 2x2 Newton requests, default engine, 2 workers",
}


def _telemetry():
    from repro.obs import get_telemetry

    telemetry = get_telemetry()
    telemetry.configure(enabled=False)
    telemetry.reset()
    return telemetry


def _freeze() -> None:
    """Move the generated inputs out of the collector's way.

    Collections then scan only objects the program creates while it runs,
    not the inputs the benchmark built up front.
    """
    gc.collect()
    gc.freeze()


def _empty_cache() -> None:
    """Start a set-up from an empty schedule cache and a collected heap."""
    from repro.core.system import default_schedule_cache

    default_schedule_cache().clear()
    gc.collect()


def _timed_setup(make_state) -> tuple[float, object]:
    """One set-up from an empty schedule cache; returns (seconds, state)."""
    _empty_cache()
    begin = time.perf_counter()
    state = make_state()
    return time.perf_counter() - begin, state


# --------------------------------------------------------------------- #
# the three workloads, each as setup -> timed pass -> checks
# --------------------------------------------------------------------- #
def _run_fleet(seed, seconds, tracer):
    inputs = fleet.make_inputs(seed)
    _freeze()
    times = []
    for _ in range(SETUP_REPS):
        spent, state = _timed_setup(lambda: fleet.setup(inputs))
        times.append(spent)
    passes = [fleet.measure(state, seconds if tracer is None else 0.0)]
    if tracer is not None:
        with _traced(tracer, {}):
            _, state = _timed_setup(lambda: fleet.setup(inputs))
            passes.append(fleet.measure(state, 0.0))
    errors = []
    for measurement in passes:
        errors += fleet.check(state, measurement)
    first = passes[0].counts
    if any(measurement.counts != first for measurement in passes[1:]):
        errors.append(f"exact counts differ between passes: {[m.counts for m in passes]}")
    return times, passes, errors


def _run_sweep(seed, seconds, tracer):
    inputs = sweep.make_inputs(seed)
    _freeze()
    times = []
    for _ in range(SETUP_REPS):
        spent, state = _timed_setup(lambda: sweep.setup(inputs))
        times.append(spent)
    timed = sweep.measure(state, seconds if tracer is None else 0.0)
    passes = [timed]
    if tracer is None:
        # Repeat the first timed batch, untimed, for the bitwise check.
        repeat = (1, sweep.evaluate(state["context"], sweep.input_batch(inputs, 1)))
    else:
        with _traced(tracer, {}):
            _, state = _timed_setup(lambda: sweep.setup(inputs))
            again = sweep.measure(state, 0.0)
        passes.append(again)
        repeat = again.notes["results"][0]
    errors = sweep.check(state, timed, repeat)
    return times, passes, errors


def _run_service(seed, seconds, tracer):
    # A traced run splits its seconds between the untraced and the traced
    # pass, which send the same requests.
    inputs = service.make_inputs(seed, seconds if tracer is None else seconds / 2)
    _freeze()

    async def main():
        times = []
        for rep in range(SETUP_REPS):
            _empty_cache()
            begin = time.perf_counter()
            engine, warmed = await service.setup(inputs)
            times.append(time.perf_counter() - begin)
            if rep < SETUP_REPS - 1:
                await engine.stop()
        passes = [await _service_pass(engine, inputs)]
        await engine.stop()
        if tracer is not None:
            with _traced(tracer, inputs["labels"]):
                _empty_cache()
                engine, _ = await service.setup(inputs)
                passes.append(await _service_pass(engine, inputs))
                await engine.stop()
        return times, passes, warmed

    times, passes, warmed = asyncio.run(main())
    errors = []
    for measurement in passes:
        errors += service.check(measurement.notes["runs"], warmed, _solo)
    return times, passes, errors


async def _service_pass(engine, inputs) -> common.Measurement:
    before = engine.stats()
    runs = await service.drive(engine, inputs["levels"])
    measurement = service.measurement(runs)
    after = engine.stats()
    flushes = after["flushes"] - before["flushes"]
    measurement.notes["engine"] = {
        "flushes": flushes,
        "mean_fill": (after["responses"] - before["responses"]) / flushes if flushes else 0.0,
        "pool_hits": after["pool"]["hits"] - before["pool"]["hits"],
        "pool_misses": after["pool"]["misses"] - before["pool"]["misses"],
        "pool_packs": after["pool"]["idle_packs"],
    }
    return measurement


def _solo(request):
    """``request`` solved alone, for the coalescing parity check."""
    from repro.homotopy import newton_power_series_batch

    system = request.system.with_mode("vectorized")
    return newton_power_series_batch(system, [request.initial], options=request.options)[0]


RUNNERS = {"fleet": _run_fleet, "sweep": _run_sweep, "service": _run_service}
WORKLOADS = {"fleet": fleet, "sweep": sweep, "service": service}


class _traced:
    """Install the layer wrappers for a block; always restore them."""

    def __init__(self, tracer: Tracer, labels: dict):
        self.tracer = tracer
        self.labels = labels

    def __enter__(self):
        self.installation = layers.install(self.tracer, self.labels)
        self.begin = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer.wall_ns = time.perf_counter_ns() - self.begin
        self.installation.restore()


# --------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run ``workload``; returns the result object and the report lines."""
    telemetry = _telemetry()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.run_id = f"{workload}-seed{seed}"
    times, passes, errors = RUNNERS[workload](seed, seconds, tracer)
    try:
        common.check_telemetry_off(telemetry)
    except RuntimeError as error:
        errors.append(str(error))
    timed = passes[0]
    latency_tail, tail_label = common.tail(timed.latencies_ms)
    lines = [
        f"workload {workload}: {DESCRIPTION[workload]}; seed {seed}, {seconds:g} s",
        "machine: " + json.dumps(common.machine()),
    ]
    if not trace:
        metrics = {
            "setup_s": common.median(times),
            "peak_rss_mb": common.peak_rss_mb(),
            "ops_per_s": timed.ops_per_s,
            "p50_ms": common.percentile(timed.latencies_ms, 50),
            "tail_ms": latency_tail,
        }
        lines += _end_to_end_notes(workload, timed, tail_label, times)
    else:
        metrics, notes = _per_layer(workload, tracer, passes, WORKLOADS[workload].LIMBS, errors)
        lines += _write_trace(workload, seed, tracer, metrics, notes)
    for line in errors:
        lines.append(f"CHECK FAILED: {line}")
    units = _declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": not errors,
        "attempted": sum(m.attempted for m in passes),
        "failed": sum(m.failed for m in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def _end_to_end_notes(workload, timed, tail_label, times) -> list[str]:
    unit = WORKLOADS[workload].UNIT
    lines = [
        f"setup_s median of {len(times)} set-ups: {', '.join(f'{t:.4f}' for t in times)}",
        f"ops_per_s counts {unit}s; p50_ms and tail_ms are per {unit} "
        f"(tail is {tail_label}, {len(timed.latencies_ms)} samples)",
        f"failed_frac = {timed.failed}/{timed.attempted}",
    ]
    if workload == "fleet":
        lines.append(
            f"paths_per_s {timed.ops_per_s:.4f} over {timed.notes['fleets_timed']} fleet(s); "
            f"accept ratio {timed.notes['accept_ratio']:.4f}; counts {timed.counts}"
        )
    elif workload == "sweep":
        lines.append(
            f"evals_per_s {timed.ops_per_s:.5f} over {timed.notes['evaluations']} batch-2 "
            f"evaluation(s); paper-counted GFLOPS {sweep.paper_gflops(timed.ops_per_s):.4f}"
        )
    else:
        lines.append(
            f"sustained_rps {timed.ops_per_s:.4f} (ladder rate {timed.notes['sustained_rate']:g}/s; "
            f"limit {service.LATENCY_LIMIT_MS:g} ms on the tail)"
        )
        for level in timed.notes["levels"]:
            lines.append(
                "  rate {rate:g}/s: {requests} requests, p50 {p50_ms:.2f} ms, {tail} {tail_ms:.2f} ms, "
                "backlog {backlog}, throughput {throughput:.3f}/s, generator late p50 "
                "{late_p50_ms:.2f} ms max {late_max_ms:.2f} ms, sustained {sustained}".format(**level)
            )
    return lines


def _per_layer(workload, tracer: Tracer, passes, limbs, errors) -> dict:
    from repro.core.system import default_schedule_cache
    from repro.md import PAPER_OPCOUNTS, measure_opcounts

    untraced, traced = passes[0], passes[-1]
    calls, self_ns, total_ns = tracer.calls, tracer.self_ns, tracer.total_ns

    def seconds(*names, inclusive=False):
        source = total_ns if inclusive else self_ns
        return sum(source[name] for name in names) / 1e9

    md_self = tracer.layer_self_ns["md"] / 1e9
    elements = tracer.layer_counts["md"]["elements"]
    opcounts = measure_opcounts(limbs)
    if measure_opcounts(limbs) != opcounts:
        errors.append("measure_opcounts does not repeat")
    notes = [
        f"measured double ops at {limbs} limbs: {opcounts.mul_ops} per mul, "
        f"{opcounts.add_ops} per add"
    ]
    paper = PAPER_OPCOUNTS.get(limbs)
    if paper is not None:
        notes.append(f"paper double ops at {limbs} limbs: {paper.mul_ops} per mul, {paper.add_ops} per add")
    # solve_packed re-enters itself for masked batches: count entries.
    solve_calls = tracer.layer_entries["solve"]
    cache = default_schedule_cache().stats()
    metrics = {
        "md.calls": tracer.layer_entries["md"],
        "md.self_s": md_self,
        "md.elements": elements,
        "md.ns_per_element": md_self * 1e9 / elements if elements else 0.0,
        "md.computed_bytes": tracer.layer_counts["md"]["computed_bytes"],
        "md.ops_per_mul": opcounts.mul_ops,
        "md.ops_per_add": opcounts.add_ops,
        "tensor.runs": calls["tensor.run"],
        "tensor.launches": tracer.layer_counts["tensor"]["launches"],
        "tensor.self_s": tracer.layer_self_ns["tensor"] / 1e9,
        "context.update_calls": calls["context.update_inputs"],
        "context.update_self_s": seconds("context.update_inputs"),
        "context.run_self_s": seconds(
            "context.run_packed", "context.residual_norms", "context.newton_system"
        ),
        "context.unpack_self_s": seconds("context.unpack_vectors", "context.run"),
        "context.packs": calls["context._pack"],
        "context.pack_s": seconds("context._pack", inclusive=True),
        "solve.calls": solve_calls,
        "solve.self_s": tracer.layer_self_ns["solve"] / 1e9,
        "solve.inverse_s": seconds(
            "solve.series_inverse_rows", "solve.series_inverse_rows_complex", inclusive=True
        ),
        "solve.ms_per_call": tracer.layer_total_ns["solve"] / 1e6 / solve_calls
        if solve_calls
        else 0.0,
        "scheduler.self_s": tracer.layer_self_ns["scheduler"] / 1e9,
        "scheduler.retries": traced.counts.get("scheduler.retries", 0),
        "scheduler.accept_ratio": traced.notes.get("accept_ratio", 0.0),
        "service.queue_wait_ms": 0.0,
        "service.flushes": 0,
        "service.mean_fill": 0.0,
        "service.pool_hits": 0,
        "service.pool_misses": 0,
        "service.pool_packs": 0,
        "system.build_s": seconds(
            "system.fuse_schedules", "system.schedule_for_polynomial",
            "system.compile_tensor_program", inclusive=True,
        ),
        "system.cache_hits": cache["hits"],
        "system.cache_misses": cache["misses"],
    }
    if workload == "service":
        engine = traced.notes["engine"]
        # Queue wait at the reference rate, where p50_ms and tail_ms are taken.
        reference = next(r for r in traced.notes["runs"] if r["rate"] == service.REFERENCE_RATE)
        waits = []
        for number, (response, latency) in enumerate(reference["results"]):
            solve_ns = tracer.request_solve_ns.get(service.label(reference["rate"], number))
            if solve_ns is not None:
                waits.append(latency - solve_ns / 1e6)
        metrics.update(
            {
                "service.queue_wait_ms": common.percentile(waits, 50) if waits else 0.0,
                "service.flushes": engine["flushes"],
                "service.mean_fill": engine["mean_fill"],
                "service.pool_hits": engine["pool_hits"],
                "service.pool_misses": engine["pool_misses"],
                "service.pool_packs": engine["pool_packs"],
            }
        )
        untraced_ms = common.percentile(untraced.latencies_ms, 50)
        traced_ms = common.percentile(traced.latencies_ms, 50)
        metrics["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
    else:
        per_op = [m.elapsed_s / m.ops for m in (untraced, traced)]
        metrics["trace.overhead_pct"] = 100.0 * (per_op[1] / per_op[0] - 1.0)
    notes.append(f"tracing overhead: {metrics['trace.overhead_pct']:.2f}% (traced vs untraced pass)")
    if workload == "service":
        notes.append("service counts depend on arrival timing and are not compared as exact")
    else:
        errors += _compare_exact(workload, {name: metrics[name] for name in EXACT})
    return metrics, notes


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _compare_exact(workload: str, counts: dict) -> list[str]:
    """Compare exact counts with the last traced run of this program source."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}.exact-counts.json"
    key = _source_digest()
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        previous = {}
    errors = []
    if previous.get("source") == key and previous.get("counts") != counts:
        errors.append(f"exact counts changed between runs: {previous.get('counts')} -> {counts}")
    path.write_text(json.dumps({"source": key, "counts": counts}), encoding="utf-8")
    return errors


def _write_trace(workload: str, seed: int, tracer: Tracer, metrics: dict, notes: list) -> list[str]:
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{workload}.trace.json"
    table_path = OUT / f"{workload}.layers.txt"
    tracer.write_trace(str(trace_path))
    wall_ns = tracer.wall_ns
    lines = [f"traced set-up and pass: {wall_ns / 1e9:.3f} s wall, seed {seed}"]
    lines.append(f"{'layer':<10} {'entries':>10} {'self_s':>10} {'inclusive_s':>12} {'share':>7}")
    for row in tracer.layer_table(wall_ns):
        lines.append(
            f"{row['layer']:<10} {row['entries']:>10} {row['self_s']:>10.4f} "
            f"{row['inclusive_s']:>12.4f} {row['share']:>7.1%}"
        )
    lines.append(f"{'span':<36} {'calls':>9} {'self_s':>10} {'inclusive_s':>12}")
    for row in tracer.name_table():
        lines.append(
            f"{row['span']:<36} {row['calls']:>9} {row['self_s']:>10.4f} {row['inclusive_s']:>12.4f}"
        )
    lines += notes
    lines.append("per-layer metrics (bytes are computed from array sizes, not measured):")
    units = _declared_units(trace=True)
    for name, value in metrics.items():
        lines.append(f"  {name} = {value} {units[name]}")
    table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines.append(f"trace: {trace_path.relative_to(ROOT)}; table: {table_path.relative_to(ROOT)}")
    return lines
