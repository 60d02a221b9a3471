"""In-memory span recorder for the traced per-layer run.

Spans are recorded from outside the program, by the wrappers of
:mod:`perfbench.layers`.  Each span has a name ``"<layer>.<entry point>"``,
a start and end from :func:`time.perf_counter_ns`, the id of the span that
caused it (the enclosing span on the same thread), the run or request id it
belongs to, and free-form attributes.

Self time is computed as spans close: a span's self time is its duration
minus the durations of its direct children.  Children on one thread nest
strictly inside their parent, so that difference is exactly the part of the
parent's interval no child covers, and summing self times over all spans
never counts an instant twice on one thread.

Spans opened in asyncio coroutines interleave on the event-loop thread and
cannot nest, so they are recorded *detached* (:meth:`Tracer.detached`): they
carry their request id and appear in the trace, but have no parent, no
children and no self time.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict

__all__ = ["Tracer", "layer_of"]


def layer_of(name: str) -> str:
    """The layer a span name belongs to: the part before the first dot."""
    return name.split(".", 1)[0]


class _Frame:
    __slots__ = ("id", "parent", "name", "layer", "start", "child_ns", "attrs", "entry", "run")

    def __init__(self, id, parent, name, layer, entry, run):
        self.id = id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = 0
        self.child_ns = 0
        self.attrs = None
        self.entry = entry
        self.run = run


class Tracer:
    """Thread-safe span and count recorder with per-layer self-time sums.

    ``keep`` bounds how many span records are retained for the trace file;
    the sums and counts always cover every span.
    """

    def __init__(self, clock=time.perf_counter_ns, keep: int = 100_000):
        self._clock = clock
        self._keep = keep
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._threads: dict[int, int] = {}
        self.run_id = None
        #: Wall time of the traced block, set by whoever ran it.
        self.wall_ns = 0
        self.records: list[tuple] = []
        self.dropped = 0
        self._md_kept = 0
        #: Span name -> [calls, self ns, inclusive ns].
        self._names: dict[str, list] = {}
        #: Layer -> [entries from another layer, self ns, inclusive ns of the
        #: entries]; nested calls within one layer are not counted twice.
        self._layers: dict[str, list] = {}
        self.layer_counts: defaultdict = defaultdict(Counter)
        #: Request id -> nanoseconds its coalesced solve took.
        self.request_solve_ns: dict = {}

    # ------------------------------------------------------------------ #
    def begin(self, name: str, layer: str | None = None) -> _Frame:
        local = self._local
        try:
            stack, depth = local.stack, local.depth
        except AttributeError:
            stack, depth = local.stack, local.depth = [], {}
        layer = layer_of(name) if layer is None else layer
        nested = depth.get(layer, 0)
        depth[layer] = nested + 1
        if stack:
            parent = stack[-1]
            frame = _Frame(next(self._ids), parent.id, name, layer, not nested, parent.run)
        else:
            frame = _Frame(next(self._ids), None, name, layer, not nested, self.run_id)
        stack.append(frame)
        frame.start = self._clock()
        return frame

    def end(self, frame: _Frame, annotate=None) -> int:
        """Close ``frame`` (the innermost open span); returns its duration.

        ``annotate()`` returns span attributes; it runs after the clock is
        read, so its cost is not part of this span's time.
        """
        end = self._clock()
        if annotate is not None:
            frame.attrs = annotate()
        local = self._local
        stack = local.stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        local.depth[frame.layer] -= 1
        duration = end - frame.start
        own = duration - frame.child_ns
        if stack:
            stack[-1].child_ns += duration
        with self._lock:
            names = self._names.get(frame.name)
            if names is None:
                names = self._names[frame.name] = [0, 0, 0]
            names[0] += 1
            names[1] += own
            names[2] += duration
            layer = self._layers.get(frame.layer)
            if layer is None:
                layer = self._layers[frame.layer] = [0, 0, 0]
            layer[1] += own
            if frame.entry:
                layer[0] += 1
                layer[2] += duration
                if frame.attrs:
                    counts = self.layer_counts[frame.layer]
                    for key, value in frame.attrs.items():
                        if isinstance(value, (int, float)) and not isinstance(value, bool):
                            counts[key] += value
            self._keep_record(frame.id, frame.parent, frame.name, frame.start, end, frame.run, frame.attrs)
        return duration

    def detached(self, name: str, start: int, end: int, run, attrs: dict | None = None) -> None:
        """Record a span that takes part in no nesting (an asyncio span)."""
        with self._lock:
            self._keep_record(next(self._ids), None, name, start, end, run, attrs)

    def _keep_record(self, id, parent, name, start, end, run, attrs) -> None:
        # Kernel spans may fill at most half the budget, so the spans of the
        # upper layers survive a long run.
        kernel = name.startswith("md.")
        if len(self.records) >= self._keep or (kernel and self._md_kept >= self._keep // 2):
            self.dropped += 1
            return
        self._md_kept += kernel
        tid = self._threads.setdefault(threading.get_ident(), len(self._threads) + 1)
        self.records.append((id, parent, name, start, end, tid, run, attrs))

    # ------------------------------------------------------------------ #
    def _column(self, table: dict, index: int) -> Counter:
        with self._lock:
            return Counter({key: row[index] for key, row in table.items()})

    @property
    def calls(self) -> Counter:
        return self._column(self._names, 0)

    @property
    def self_ns(self) -> Counter:
        return self._column(self._names, 1)

    @property
    def total_ns(self) -> Counter:
        return self._column(self._names, 2)

    @property
    def layer_entries(self) -> Counter:
        return self._column(self._layers, 0)

    @property
    def layer_self_ns(self) -> Counter:
        return self._column(self._layers, 1)

    @property
    def layer_total_ns(self) -> Counter:
        return self._column(self._layers, 2)

    # ------------------------------------------------------------------ #
    def layer_table(self, wall_ns: int) -> list[dict]:
        """One row per layer: entries, self seconds and share of ``wall_ns``."""
        with self._lock:
            rows = sorted(self._layers.items(), key=lambda item: -item[1][1])
        return [
            {
                "layer": layer,
                "entries": entries,
                "self_s": self_ns / 1e9,
                "inclusive_s": total_ns / 1e9,
                "share": self_ns / wall_ns if wall_ns else 0.0,
            }
            for layer, (entries, self_ns, total_ns) in rows
        ]

    def name_table(self) -> list[dict]:
        """One row per span name: calls, self and inclusive seconds."""
        with self._lock:
            rows = sorted(self._names.items(), key=lambda item: -item[1][1])
        return [
            {"span": name, "calls": calls, "self_s": self_ns / 1e9, "inclusive_s": total_ns / 1e9}
            for name, (calls, self_ns, total_ns) in rows
        ]

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON (loads in Perfetto)."""
        pid = os.getpid()
        origin = min((record[3] for record in self.records), default=0)
        events = []
        for id, parent, name, start, end, tid, run, attrs in self.records:
            args = {"id": id, "parent": parent, "run": run}
            if attrs:
                args.update({key: _jsonable(value) for key, value in attrs.items()})
            events.append(
                {
                    "name": name,
                    "cat": layer_of(name),
                    "ph": "X",
                    "ts": (start - origin) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }

    def write_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return repr(value)
