"""Smoke test of tools/faults.py: one fresh `fbm-infoflow run` of a benchmark
workload's config, measured by the run's own getrusage, writing only to a
temporary directory."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_fresh_run_reports_its_faults():
    perfbench = sorted(p.name for p in (ROOT / "perfbench").iterdir())
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "faults.py"), "--workload", "grid-additive-mc",
         "--runs", "1", "--seed", "1"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"run 1: exit=0 run_s=\d+\.\d{4} minflt=\d+ maxrss_mb=\d+\.\d\d", lines[0])
    assert lines[1].startswith("grid-additive-mc seed 1, median of 1 runs: run_s=")
    assert sorted(p.name for p in (ROOT / "perfbench").iterdir()) == perfbench
