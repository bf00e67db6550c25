"""The report-body gate: at seeds 1, 2 and 3 every workload config of the
benchmark writes the report bodies whose digests tools/report_digests.txt holds,
byte for byte.  tools/report_bodies.py runs each config in-process and writes
its reports only to temporary directories."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_report_bodies_match_their_digests():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_bodies.py"), "--seeds", "1", "2", "3",
         "--expect", str(ROOT / "tools" / "report_digests.txt")],
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    lines = run.stdout.splitlines()
    assert len(lines) == 3 * len(workloads) and "MISMATCH" not in run.stdout
