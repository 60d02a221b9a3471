"""Load-generator benchmark of the coalescing solve service.

The service's claim is a throughput one: under heavy traffic of
structurally identical Newton requests, merging the requests that arrive
within one micro-batching window into a single packed tensor batch (on a
warm pooled :class:`repro.core.EvalContext`) beats solving each request
alone.  This benchmark measures exactly that:

* a synthetic **parameterized family** — ``x1^2 + x2^2 - a = 0``,
  ``x1*x2 - b = 0`` in double doubles with per-request ``(a, b)`` — so
  every request shares one fused schedule/structure key but carries its own
  coefficients;
* **Poisson arrivals** (seeded ``random.expovariate`` think times) from a
  configurable number of concurrent asyncio clients
  (``BENCH_SERVICE_CONCURRENCY``, the acceptance run uses >= 16);
* two runs of the same workload at equal concurrency and worker count:
  **coalesced** (window ``BENCH_SERVICE_WINDOW_MS``, batch
  ``BENCH_SERVICE_MAX_BATCH``) vs **sequential** (window 0, batch 1 — every
  request solves alone, the pre-service behaviour).

Reported: throughput (requests/s), latency p50/p99, mean batch fill, pool
residency (packs per structure), and the analytic
:meth:`repro.gpusim.TimingModel.predict_coalesce` speedup next to the
measured one.  The gate: coalesced throughput must beat sequential by
``BENCH_SERVICE_MIN_SPEEDUP`` (2x in CI).  With
``BENCH_SERVICE_TRACE_DIR`` set, a telemetry-enabled run also writes a
Perfetto/Chrome trace of the request lifecycle spans there.
"""

from __future__ import annotations

import asyncio
import os
import random
import time

from _schema import write_artifact
from conftest import emit
from repro.circuits import parse_polynomial
from repro.gpusim import TimingModel
from repro.homotopy import NewtonOptions, PolynomialSystem
from repro.md import MultiDouble
from repro.obs import get_telemetry
from repro.series import PowerSeries
from repro.service import SolveEngine, SolveRequest

#: Total requests per run (the acceptance run uses >= 96).
REQUESTS = int(os.environ.get("BENCH_SERVICE_REQUESTS", "96"))
#: Concurrent clients; the acceptance gate requires >= 16.
CONCURRENCY = int(os.environ.get("BENCH_SERVICE_CONCURRENCY", "16"))
#: Acceptance gate: coalesced throughput over sequential throughput.
MIN_SPEEDUP = float(os.environ.get("BENCH_SERVICE_MIN_SPEEDUP", "2.0"))
#: Micro-batching window of the coalesced run.
WINDOW_MS = float(os.environ.get("BENCH_SERVICE_WINDOW_MS", "4.0"))
#: Lane count of the coalesced run's pooled contexts.
MAX_BATCH = int(os.environ.get("BENCH_SERVICE_MAX_BATCH", "16"))
#: Mean Poisson think time between a client's requests, in milliseconds.
THINK_MS = float(os.environ.get("BENCH_SERVICE_THINK_MS", "1.0"))
#: Flush executor threads (equal in both runs).
WORKERS = int(os.environ.get("BENCH_SERVICE_WORKERS", "2"))
#: Optional directory for a telemetry-enabled run's Perfetto trace.
TRACE_DIR = os.environ.get("BENCH_SERVICE_TRACE_DIR", "")

DEGREE = 4
LIMBS = 2
OPTIONS = NewtonOptions(max_iterations=6, tolerance=1.0e-28)


def _md(value: float) -> MultiDouble:
    return MultiDouble.from_float(float(value), LIMBS)


class CircleHyperbolaFamily:
    """``x1^2 + x2^2 = a``, ``x1*x2 = b`` — one structure, many coefficients.

    Every request parses its own polynomials (request construction is not
    timed) and then overwrites the constant coefficients with its ``(a, b)``
    — same structure key for all instances, distinct values per request.
    """

    def make_request(self, a: float, b: float) -> SolveRequest:
        circle = parse_polynomial(
            "x1^2 + x2^2 - 4", dimension=2, degree=DEGREE,
            kind="md", precision=LIMBS,
        )
        hyperbola = parse_polynomial(
            "x1*x2 - 1", dimension=2, degree=DEGREE,
            kind="md", precision=LIMBS,
        )
        circle.constant.coefficients[0] = _md(-a)
        hyperbola.constant.coefficients[0] = _md(-b)
        system = PolynomialSystem([circle, hyperbola], mode="vectorized")
        initial = [
            PowerSeries.constant(_md(1.9), DEGREE),
            PowerSeries.constant(_md(0.55), DEGREE),
        ]
        return SolveRequest(system=system, initial=initial, options=OPTIONS)


def _build_requests(n: int, seed: int) -> list[SolveRequest]:
    rng = random.Random(seed)
    family = CircleHyperbolaFamily()
    return [
        family.make_request(4.0 + rng.uniform(-0.2, 0.2), 1.0 + rng.uniform(-0.1, 0.1))
        for _ in range(n)
    ]


async def _drive(engine: SolveEngine, requests: list[SolveRequest], seed: int):
    """Fire ``requests`` from ``CONCURRENCY`` clients with Poisson think times."""
    rng = random.Random(seed)
    think_s = THINK_MS / 1000.0
    queue: asyncio.Queue = asyncio.Queue()
    for request in requests:
        queue.put_nowait(request)
    responses = []

    async def client():
        while True:
            try:
                request = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if think_s > 0.0:
                await asyncio.sleep(rng.expovariate(1.0 / think_s))
            responses.append(await engine.submit(request))

    begin = time.perf_counter()
    async with engine:
        await asyncio.gather(*[client() for _ in range(CONCURRENCY)])
        stats = engine.stats()
    elapsed = time.perf_counter() - begin
    return elapsed, responses, stats


def _latency_tail(responses) -> dict:
    ranked = sorted(response.elapsed_ms for response in responses)
    return {
        "p50_ms": ranked[len(ranked) // 2],
        "p99_ms": ranked[min(len(ranked) - 1, int(0.99 * len(ranked)))],
        "max_ms": ranked[-1],
    }


def _run(window_ms: float, max_batch: int, seed: int):
    requests = _build_requests(REQUESTS, seed=seed)
    engine = SolveEngine(
        window_ms=window_ms, max_batch=max_batch, workers=WORKERS,
        mode="vectorized",
    )
    return asyncio.run(_drive(engine, requests, seed=seed + 1))


def _predicted_speedup(fill: int) -> float | None:
    """The analytic coalescing speedup at the measured mean batch fill."""
    if fill < 1:
        return None
    request = _build_requests(1, seed=0)[0]
    model = TimingModel(precision=LIMBS)
    prediction = model.predict_coalesce(
        request.system.evaluator.fused, requests=fill,
        steps=OPTIONS.max_iterations,
    )
    return prediction["speedup"]


def test_service_coalescing_throughput():
    """The gate: coalescing on vs off at equal concurrency and workers."""
    # Warm the process-wide schedule cache so neither timed run pays staging.
    _run(window_ms=0.0, max_batch=1, seed=11)

    sequential_s, sequential_responses, sequential_stats = _run(
        window_ms=0.0, max_batch=1, seed=23
    )
    coalesced_s, coalesced_responses, coalesced_stats = _run(
        window_ms=WINDOW_MS, max_batch=MAX_BATCH, seed=23
    )

    assert len(sequential_responses) == REQUESTS
    assert len(coalesced_responses) == REQUESTS
    assert all(r.ok and r.converged for r in sequential_responses)
    assert all(r.ok and r.converged for r in coalesced_responses)

    sequential_rps = REQUESTS / sequential_s
    coalesced_rps = REQUESTS / coalesced_s
    speedup = coalesced_rps / sequential_rps
    mean_fill = coalesced_stats["mean_fill"]
    predicted = _predicted_speedup(round(mean_fill))

    payload = {
        "benchmark": "bench_service",
        "requests": REQUESTS,
        "concurrency": CONCURRENCY,
        "workers": WORKERS,
        "window_ms": WINDOW_MS,
        "max_batch": MAX_BATCH,
        "think_ms": THINK_MS,
        "min_speedup_gate": MIN_SPEEDUP,
        "sequential": {
            "seconds": sequential_s,
            "requests_per_second": sequential_rps,
            "latency": _latency_tail(sequential_responses),
            "flushes": sequential_stats["flushes"],
            "mean_fill": sequential_stats["mean_fill"],
        },
        "coalesced": {
            "seconds": coalesced_s,
            "requests_per_second": coalesced_rps,
            "latency": _latency_tail(coalesced_responses),
            "flushes": coalesced_stats["flushes"],
            "mean_fill": mean_fill,
            "max_fill": coalesced_stats["max_fill"],
            "pool": coalesced_stats["pool"],
        },
        "speedup": speedup,
        "predicted_speedup_at_mean_fill": predicted,
    }
    write_artifact("bench_service", payload)

    sequential_tail = payload["sequential"]["latency"]
    coalesced_tail = payload["coalesced"]["latency"]
    lines = [
        f"coalescing solve service: {REQUESTS} requests, "
        f"{CONCURRENCY} clients, {WORKERS} workers, dd degree {DEGREE}",
        f"  sequential (batch 1) : {sequential_s:.2f} s "
        f"({sequential_rps:.0f} req/s), p50 {sequential_tail['p50_ms']:.1f} ms, "
        f"p99 {sequential_tail['p99_ms']:.1f} ms",
        f"  coalesced ({WINDOW_MS:.0f} ms window): {coalesced_s:.2f} s "
        f"({coalesced_rps:.0f} req/s), p50 {coalesced_tail['p50_ms']:.1f} ms, "
        f"p99 {coalesced_tail['p99_ms']:.1f} ms, mean fill {mean_fill:.1f}",
        f"  speedup              : {speedup:.2f}x (gate {MIN_SPEEDUP:.1f}x; "
        f"analytic model at fill {round(mean_fill)}: "
        f"{predicted:.1f}x)" if predicted else
        f"  speedup              : {speedup:.2f}x (gate {MIN_SPEEDUP:.1f}x)",
    ]
    emit("bench_service", "\n".join(lines))

    # Residency: repeat traffic on one structure packs exactly once.
    pool = coalesced_stats["pool"]
    assert pool["structures"] == 1
    assert pool["idle_packs"] == pool["idle_contexts"]
    assert coalesced_stats["max_fill"] > 1, "no coalescing happened"
    assert speedup >= MIN_SPEEDUP, (
        f"coalesced service only {speedup:.2f}x faster than sequential "
        f"(required {MIN_SPEEDUP:.2f}x at concurrency {CONCURRENCY})"
    )


def test_service_trace_artifact():
    """Optional: a telemetry-enabled run writing the Perfetto trace."""
    if not TRACE_DIR:
        import pytest

        pytest.skip("set BENCH_SERVICE_TRACE_DIR to write a service trace")
    tel = get_telemetry()
    with tel.overridden({"enabled": True, "sink": TRACE_DIR}):
        _run(window_ms=WINDOW_MS, max_batch=MAX_BATCH, seed=37)
        written = tel.write_sink(TRACE_DIR)
    emit("bench_service_trace", f"service trace written under {written}")
    assert written is not None


def main(argv: list[str] | None = None) -> None:
    """Command-line entry: ``python bench_service.py --concurrency 32``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=REQUESTS)
    parser.add_argument("--concurrency", type=int, default=CONCURRENCY)
    parser.add_argument("--window-ms", type=float, default=WINDOW_MS)
    parser.add_argument("--max-batch", type=int, default=MAX_BATCH)
    parser.add_argument("--trace-dir", default=TRACE_DIR)
    arguments = parser.parse_args(argv)
    globals()["REQUESTS"] = arguments.requests
    globals()["CONCURRENCY"] = arguments.concurrency
    globals()["WINDOW_MS"] = arguments.window_ms
    globals()["MAX_BATCH"] = arguments.max_batch
    globals()["TRACE_DIR"] = arguments.trace_dir
    test_service_coalescing_throughput()
    if arguments.trace_dir:
        test_service_trace_artifact()


if __name__ == "__main__":
    main()
