"""The demos run as a user runs them: a fresh process from the repository root."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart_demo_runs():
    out = run_demo("quickstart.py")
    assert "target accuracy over 10 episodes" in out


def test_diagnostics_tour_prints_report():
    out = run_demo("diagnostics_tour.py")
    # the report's JSON comes first, then a blank line and a summary
    report = json.loads(out.split("\n\n", 1)[0])
    assert set(report["probe_accuracies"]) == {"center", "random", "boundary"}
    assert report["stability_violations"] == 0
    assert report["lipschitz_bound"] > 0
