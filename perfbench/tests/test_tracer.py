"""Self-time arithmetic of the span recorder, on a scripted clock."""

import json
import threading

from perfbench.tracer import Tracer


class Clock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children():
    # scheduler [0, 100] > context [10, 60] > md [20, 50]; solve [70, 90]
    tracer = Tracer(clock=Clock(0, 10, 20, 50, 60, 70, 90, 100))
    outer = tracer.begin("scheduler.track")
    middle = tracer.begin("context.update_inputs")
    inner = tracer.begin("md.md_mul_rows")
    assert tracer.end(inner) == 30
    assert tracer.end(middle) == 50
    solve = tracer.begin("solve.solve_packed")
    assert tracer.end(solve) == 20
    assert tracer.end(outer) == 100
    assert tracer.self_ns["scheduler.track"] == 100 - 50 - 20
    assert tracer.self_ns["context.update_inputs"] == 50 - 30
    assert tracer.self_ns["md.md_mul_rows"] == 30
    assert tracer.layer_self_ns == {"scheduler": 30, "context": 20, "md": 30, "solve": 20}
    # Self times partition the outermost span exactly.
    assert sum(tracer.layer_self_ns.values()) == 100


def test_nested_calls_of_one_layer_count_once_as_entries():
    # md_mul_rows [0, 40] calls vec_renormalize [10, 30]
    tracer = Tracer(clock=Clock(0, 10, 30, 40))
    outer = tracer.begin("md.md_mul_rows")
    inner = tracer.begin("md.vec_renormalize")
    tracer.end(inner)
    outer.attrs = {"elements": 8, "computed_bytes": 64}
    tracer.end(outer)
    assert tracer.layer_entries["md"] == 1
    assert tracer.layer_total_ns["md"] == 40
    assert tracer.layer_self_ns["md"] == 40
    assert tracer.calls["md.vec_renormalize"] == 1
    assert tracer.layer_counts["md"] == {"elements": 8, "computed_bytes": 64}


def test_parent_links_and_run_ids_in_the_trace():
    tracer = Tracer(clock=Clock(1000, 2000, 3000, 9000))
    tracer.run_id = "run-7"
    outer = tracer.begin("context.run")
    inner = tracer.begin("tensor.run")
    tracer.end(inner)
    tracer.end(outer)
    tracer.detached("service.submit", 500, 9500, "r8-3")
    events = {event["name"]: event for event in tracer.chrome_trace()["traceEvents"]}
    assert events["tensor.run"]["args"]["parent"] == events["context.run"]["args"]["id"]
    assert events["context.run"]["args"]["parent"] is None
    assert events["tensor.run"]["args"]["run"] == "run-7"
    assert events["service.submit"]["args"]["run"] == "r8-3"
    assert events["context.run"]["ts"] == 0.5 and events["context.run"]["dur"] == 8.0
    # Detached spans take no part in self-time sums.
    assert "service" not in tracer.layer_self_ns
    json.dumps(tracer.chrome_trace())


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    outer = tracer.begin("service.flush")
    seen = {}

    def worker():
        frame = tracer.begin("solve.solve_packed")
        seen["parent"] = frame.parent
        tracer.end(frame)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.end(outer)
    assert seen["parent"] is None
    assert tracer.layer_entries["solve"] == 1


def test_span_budget_keeps_upper_layers():
    tracer = Tracer(keep=4)
    for _ in range(5):
        tracer.end(tracer.begin("md.md_add_rows"))
    tracer.end(tracer.begin("context.run"))
    names = [record[2] for record in tracer.records]
    assert names.count("md.md_add_rows") == 2
    assert "context.run" in names
    assert tracer.dropped == 3
    assert tracer.calls["md.md_add_rows"] == 5
