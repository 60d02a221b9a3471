"""Statistics, machine description and run bookkeeping shared by the workloads."""

from __future__ import annotations

import math
import os
import platform
import resource
from dataclasses import dataclass, field

#: A tail percentile needs at least this many samples ranked after it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    ranked = sorted(values)
    if not ranked:
        raise ValueError("median of no values")
    middle = len(ranked) // 2
    if len(ranked) % 2:
        return float(ranked[middle])
    return (ranked[middle - 1] + ranked[middle]) / 2.0


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return min(n, max(1, math.ceil(round(q / 100.0 * n, 6))))


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-th percentile: the smallest value with at least
    ``q`` percent of the samples at or below it."""
    ranked = sorted(values)
    if not ranked:
        raise ValueError("percentile of no values")
    return float(ranked[_rank(q, len(ranked)) - 1])


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, label)``: the sample ranked ten from the top, and the
    percentile it is (``"p95"`` for 200 samples, ``"p54.55"`` for 22).
    The samples beyond are those ranked after it, so ties do not hide a
    tail.  Below twenty samples that percentile would fall under the median,
    so the maximum is reported instead and labelled ``"max"``.
    """
    ranked = sorted(values)
    if len(ranked) < 2 * TAIL_MIN_BEYOND:
        return float(ranked[-1]), "max"
    rank = len(ranked) - TAIL_MIN_BEYOND
    return float(ranked[rank - 1]), f"p{100.0 * rank / len(ranked):.4g}"


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    """What the numbers ran on: core count, CPU model, cache sizes, NumPy."""
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "l2": None,
        "l3": None,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, entry)
            with open(os.path.join(base, "level"), encoding="utf-8") as handle:
                level = handle.read().strip()
            with open(os.path.join(base, "size"), encoding="utf-8") as handle:
                size = handle.read().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = size
    except OSError:
        pass
    return info


@dataclass
class Measurement:
    """What one timed pass of a workload produced.

    ``ops`` operations completed in ``elapsed_s`` seconds of timed work;
    ``latencies_ms`` holds one sample per operation; ``attempted`` and
    ``failed`` count operations, a refused or failed one counting as failed.
    ``counts`` carries exact counts the pass can read without tracing, and
    ``notes`` anything printed alongside the metrics.
    """

    ops: int
    elapsed_s: float
    latencies_ms: list[float]
    attempted: int
    failed: int
    counts: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed_s


def check_telemetry_off(telemetry) -> None:
    """Raise unless ``repro.obs`` is off and has recorded nothing."""
    if telemetry.enabled:
        raise RuntimeError("repro.obs telemetry is on during a timed run")
    if telemetry.spans() or telemetry.counters():
        raise RuntimeError("repro.obs telemetry recorded events during a timed run")
