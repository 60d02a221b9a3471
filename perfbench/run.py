"""The repository benchmark's command line.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the benchmark imports ``repro``
from ``src/`` next to this directory and refuses to run (exit code 2,
no result printed) when that source tree is missing.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKLOADS = ("fleet", "sweep", "service")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no repro source tree at {SOURCE}", file=sys.stderr)
        return 2
    # The timed numbers are measured with repro.obs off, whatever the
    # environment asks for; the runner also switches it off and checks.
    for name in ("REPRO_TELEMETRY", "REPRO_OBS_CONFIG", "REPRO_OBS_SAMPLE", "REPRO_OBS_SINK"):
        os.environ.pop(name, None)
    sys.path[:0] = [str(ROOT), str(SOURCE)]
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(f"imported repro from {repro.__file__}, not from {SOURCE}", file=sys.stderr)
        return 2
    from perfbench.runner import run

    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
