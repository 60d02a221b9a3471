"""Smoke test: the quick example scripts run to completion.

``precision_scaling.py`` and ``trace_fleet.py`` take several seconds each and
run in CI's benchmark smoke job instead.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


@pytest.mark.parametrize(
    "script",
    ("quickstart.py", "path_tracking.py", "gpu_performance_model.py", "serve_demo.py"),
)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()
