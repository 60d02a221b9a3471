"""Workload ``service``: open-loop Newton traffic into an in-process SolveEngine.

The engine runs with the default service configuration and two flush
workers.  Requests are double-double, degree-4, 2x2 Newton solves: most use
the circle-hyperbola structure ``x1^2 + x2^2 = a, x1 x2 = b``, a minority the
structure ``x1^2 + x2 = c, x1 + x2^2 = d``.  Each right-hand side is a
power series in t: the structure's constant plus seeded coefficients of t
to t^4, so every request is its own series solve.  One asyncio generator
sends Poisson arrivals at each rate of a fixed ladder, each request timed
from when it was due, and records how late it ran.  The HTTP edge is not
on the timed path.
"""

from __future__ import annotations

import asyncio
import math
import random

from .common import Measurement, percentile, tail

DEGREE = 4
LIMBS = 2
TOLERANCE = 1.0e-28
MAX_ITERATIONS = 6
WORKERS = 2
#: Share of requests on the second structure.
MINORITY = 0.2
#: Offered rates of the ladder, requests per second, lowest first, with the
#: share of the run's seconds each is offered for.  A request is solved in
#: 0.1-0.2 s, and two requests solved at once share the interpreter, so each
#: takes about twice as long.  At 2.5/s over half the requests overlapped
#: another, which put the median on the border between the solo and the
#: overlapped latencies, where a small change in the host's speed moves it a
#: long way.  At the 1/s reference about a fifth overlap, so the median and the
#: tail are both solo latencies; the price is fewer samples (27 in 30 s, so
#: the tail is about p63).  20/s is past capacity whatever the host's load:
#: a rung in between would pass or fail with the load, not with the program.
LADDER = {1.0: 0.9, 20.0: 0.08}
#: The rate at which p50 and tail latency are reported.
REFERENCE_RATE = 1.0
#: A ladder rate is sustained when no request fails, its tail latency stays
#: within this limit, and its backlog does not grow: the least-squares trend
#: of latency over the level's send window rises by at most the limit.  One
#: second leaves the reference rate passing when other tenants slow the host
#: several fold, while 20/s still fails.
LATENCY_LIMIT_MS = 1000.0
#: Seed of the traffic trace: the arrival times and which structure each
#: arrival uses.  The trace is one fixed Poisson draw for every run, so
#: latency differences between runs come from the program and the machine
#: rather than from the draw of arrivals; ``--seed`` picks every request's
#: coefficients.
TRAFFIC_SEED = 2021
#: Warm-up burst per structure during set-up: fills the context pool.
WARMUP_BURST = 32
#: Constant terms of the right-hand sides ``(a, b)`` or ``(c, d)``.
CONSTANTS = {"circle": (4.0, 1.0), "parabolas": (3.0, 5.0)}
#: The seeded coefficients of t to t^4 are drawn from [-SPREAD, SPREAD].
#: Only these vary, not the constants: the start is fixed, so a seeded
#: constant would move the root and with it the number of Newton steps (five
#: or six at random, which put the median latency on the border between the
#: two).  With fixed constants every request takes six: over 30 draws per
#: structure, five steps left residuals of 1e-23 to 1e-16 and six under 1e-32.
SPREAD = 0.5

UNIT = "request"


def _md(value: float):
    from repro.md import MultiDouble

    return MultiDouble.from_float(float(value), LIMBS)


def _request(structure: str, first_rhs: list, second_rhs: list):
    """A request of ``structure`` whose right-hand sides have these coefficients."""
    from repro.circuits import parse_polynomial
    from repro.homotopy import NewtonOptions, PolynomialSystem
    from repro.series import PowerSeries
    from repro.service import SolveRequest

    if structure == "circle":
        texts, start = ("x1^2 + x2^2 - 4", "x1*x2 - 1"), (1.9, 0.55)
    else:
        texts, start = ("x1^2 + x2 - 3", "x1 + x2^2 - 5"), (1.1, 1.9)
    first, second = (
        parse_polynomial(text, dimension=2, degree=DEGREE, kind="md", precision=LIMBS)
        for text in texts
    )
    for polynomial, rhs in ((first, first_rhs), (second, second_rhs)):
        for power, value in enumerate(rhs):
            polynomial.constant.coefficients[power] = _md(-value)
    system = PolynomialSystem([first, second], mode="vectorized")
    initial = [PowerSeries.constant(_md(v), DEGREE) for v in start]
    options = NewtonOptions(max_iterations=MAX_ITERATIONS, tolerance=TOLERANCE)
    return SolveRequest(system=system, initial=initial, options=options)


def _draw(rng: random.Random, structure: str):
    first, second = (
        [constant] + [rng.uniform(-SPREAD, SPREAD) for _ in range(DEGREE)]
        for constant in CONSTANTS[structure]
    )
    return _request(structure, first, second)


def _arrivals(rng: random.Random, rate: float, count: int) -> list[float]:
    """Poisson arrival offsets, rescaled so ``count`` requests span ``count / rate`` s."""
    gaps = [rng.expovariate(rate) for _ in range(count)]
    scale = (count / rate) / sum(gaps)
    offsets, now = [], 0.0
    for gap in gaps:
        offsets.append(now)
        now += gap * scale
    return offsets


def make_inputs(seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    traffic = random.Random(TRAFFIC_SEED)
    levels = []
    for rate, share in LADDER.items():
        count = max(10, round(rate * share * seconds))
        offsets = _arrivals(traffic, rate, count)
        structures = [
            "parabolas" if traffic.random() < MINORITY else "circle" for _ in range(count)
        ]
        levels.append(
            {
                "rate": rate,
                "offsets": offsets,
                "requests": [_draw(rng, structure) for structure in structures],
            }
        )
    warmup = [
        [_request(structure, [first], [second]) for _ in range(WARMUP_BURST)]
        for structure, (first, second) in CONSTANTS.items()
    ]
    labels = {}
    for level in levels:
        for number, request in enumerate(level["requests"]):
            name = label(level["rate"], number)
            labels[id(request)] = name
            labels[id(request.initial)] = name
    return {"levels": levels, "warmup": warmup, "labels": labels}


def label(rate: float, number: int) -> str:
    """The request id of the ``number``-th request sent at ``rate``."""
    return f"r{rate:g}-{number}"


def engine():
    from repro.service import DEFAULT_SERVICE_CONFIG, SolveEngine

    return SolveEngine(config=DEFAULT_SERVICE_CONFIG, workers=WORKERS)


async def setup(inputs: dict):
    """Start an engine and push one warm-up burst per structure through it.

    Returns the engine and the warm-up ``(request, response)`` pairs.
    """
    service = engine()
    await service.start()
    warmed = []
    for burst in inputs["warmup"]:
        responses = await asyncio.gather(*(service.submit(request) for request in burst))
        warmed += zip(burst, responses)
    return service, warmed


async def _level(service, level: dict) -> dict:
    """Send one ladder level open loop; wait for every response."""
    from repro.errors import ServiceOverloadedError

    loop = asyncio.get_running_loop()
    results: list = [None] * len(level["requests"])
    late_ms: list[float] = []
    outstanding = 0

    async def one(index: int, request, due: float) -> None:
        nonlocal outstanding
        try:
            response = await service.submit(request)
        except ServiceOverloadedError as error:
            response = error
        results[index] = (response, (loop.time() - due) * 1e3)
        outstanding -= 1

    origin = loop.time() + 0.01
    tasks = []
    for index, (offset, request) in enumerate(zip(level["offsets"], level["requests"])):
        due = origin + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late_ms.append(max(0.0, (loop.time() - due) * 1e3))
        outstanding += 1
        tasks.append(loop.create_task(one(index, request, due)))
    backlog = outstanding
    await asyncio.gather(*tasks)
    end = loop.time()
    return {
        "rate": level["rate"],
        "offsets": level["offsets"],
        "requests": level["requests"],
        "results": results,
        "late_ms": late_ms,
        "backlog": backlog,
        "span_s": end - origin,
    }


def _summarise(level: dict) -> dict:
    latencies = [latency for _, latency in level["results"]]
    failed = sum(1 for response, _ in level["results"] if not _served(response))
    # A failed or refused request misses any latency limit.
    ranked = [math.inf if not _served(r) else latency for r, latency in level["results"]]
    tail_ms, tail_label = tail(ranked)
    growth = _latency_growth_ms(level["offsets"], latencies)
    return {
        "rate": level["rate"],
        "requests": len(latencies),
        "failed": failed,
        "p50_ms": percentile(ranked, 50),
        "tail_ms": tail_ms,
        "tail": tail_label,
        "backlog": level["backlog"],
        "growth_ms": growth,
        "throughput": len(latencies) / level["span_s"],
        "sustained": failed == 0 and tail_ms <= LATENCY_LIMIT_MS and growth <= LATENCY_LIMIT_MS,
        "late_p50_ms": percentile(level["late_ms"], 50),
        "late_max_ms": max(level["late_ms"]),
    }


def _latency_growth_ms(offsets: list[float], latencies: list[float]) -> float:
    """How much latency rises across the send window, by least squares."""
    n = len(offsets)
    mean_t = sum(offsets) / n
    mean_l = sum(latencies) / n
    spread = sum((t - mean_t) ** 2 for t in offsets)
    if spread == 0.0:
        return 0.0
    slope = sum((t - mean_t) * (l - mean_l) for t, l in zip(offsets, latencies)) / spread
    return slope * (offsets[-1] - offsets[0])


def _served(response) -> bool:
    return not isinstance(response, Exception) and response.ok and response.converged


async def drive(service, levels: list) -> list[dict]:
    return [await _level(service, level) for level in levels]


def measurement(runs: list[dict]) -> Measurement:
    """Reference-rate latency, the sustained rate and failure counts.

    The operations counted are the requests of the highest sustained ladder
    rate, over the time from its first due request to its last response; no
    sustained rate gives zero operations over the whole ladder.
    """
    summaries = [_summarise(run) for run in runs]
    reference = next(s for s in summaries if s["rate"] == REFERENCE_RATE)
    reference_run = next(run for run in runs if run["rate"] == REFERENCE_RATE)
    sustained = [run for run, s in zip(runs, summaries) if s["sustained"]]
    return Measurement(
        ops=len(sustained[-1]["results"]) if sustained else 0,
        elapsed_s=sustained[-1]["span_s"] if sustained else sum(run["span_s"] for run in runs),
        latencies_ms=[latency for _, latency in reference_run["results"]],
        attempted=sum(s["requests"] for s in summaries),
        failed=sum(s["failed"] for s in summaries),
        notes={
            "levels": summaries,
            "sustained_rate": sustained[-1]["rate"] if sustained else 0.0,
            "reference": reference,
            "runs": runs,
        },
    )


def check(runs: list[dict], warmed: list, solo) -> list[str]:
    """Every response ok and converged with a finite residual below tolerance,
    and one coalesced response bit-identical to its request solved alone.

    The coalesced sample is the first one of the timed traffic, or of the
    warm-up bursts when the timed traffic coalesced nothing.
    """
    answered = [
        (f"{run['rate']:g}/s", request, response)
        for run in runs
        for request, (response, _) in zip(run["requests"], run["results"])
    ]
    answered += [("warm-up", request, response) for request, response in warmed]
    errors = []
    for where, _, response in answered:
        if isinstance(response, Exception):
            errors.append(f"refused ({where}): {response}")
        elif not (response.ok and response.converged):
            errors.append(f"failed ({where}): {response.error!r}")
        elif not (math.isfinite(response.residual) and response.residual <= TOLERANCE):
            errors.append(f"residual {response.residual!r} ({where})")
    sample = next(
        ((where, request, response) for where, request, response in answered
         if not isinstance(response, Exception) and response.coalesced),
        None,
    )
    if sample is None:
        return errors[:20] + ["no request was coalesced"]
    where, request, response = sample
    alone = solo(request)
    same = (
        response.converged == alone.converged
        and response.residual == alone.final_residual
        and all(
            [c.limbs for c in got.coefficients] == [c.limbs for c in want.coefficients]
            for got, want in zip(response.solution, alone.solution)
        )
    )
    if not same:
        errors.append(f"a coalesced response ({where}) differs from its solo solve")
    return errors[:20]
