"""The repository benchmark: one command, three workloads, a traced per-layer run.

``python3 perfbench/run.py --workload {fleet,sweep,service} --seed N
--seconds S --trace {0,1}`` builds its inputs from the seed, sets up, times
the workload with ``repro.obs`` telemetry off, checks every output and prints
one JSON result object as its last line.  ``--trace 1`` instead times each
layer from outside: :mod:`perfbench.layers` wraps the public entry points of
the ``repro`` layers, :mod:`perfbench.tracer` records the spans, and the run
writes a Perfetto-loadable trace plus a per-layer self-time table under
``.perfbench/`` at the repository root.
"""
