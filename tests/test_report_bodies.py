"""The report-body gate: at seeds 1, 2 and 3 every workload config of the
benchmark writes the report bodies whose digests tools/report_digests.txt holds,
byte for byte.  tools/report_bodies.py runs each config in-process and writes
its reports only to temporary directories, and with --diff names the rows that
moved from another checkout's dump."""

import importlib.util
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


def test_diff_names_the_rows_that_moved(tmp_path, monkeypatch, capsys):
    # One workload and seed diffed against its own dump: no row moved.  A value
    # changed in the dump is named, with its row and both values.
    spec = importlib.util.spec_from_file_location("report_bodies",
                                                  ROOT / "tools" / "report_bodies.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    args = ["report_bodies.py", "--seeds", "1", "--workload", "grid-additive-mc"]
    monkeypatch.setattr(sys, "argv", args + ["--dump", str(tmp_path)])
    tool.main()
    line = capsys.readouterr().out.strip()
    monkeypatch.setattr(sys, "argv", args + ["--diff", str(tmp_path)])
    tool.main()
    assert capsys.readouterr().out.splitlines() == [line, "  no row moved"]

    dump = tmp_path / "grid-additive-mc" / "seed1"
    bodies = {p.name: p.read_bytes() for p in sorted(dump.iterdir())}
    head, first, rest = bodies["report.csv"].split(b"\n", 2)
    cells = first.split(b",")
    cells[3] = b"0.25"                                  # the first row's lhs
    (dump / "report.csv").write_bytes(b"\n".join([head, b",".join(cells), rest]))
    moved = tool.diff_bodies(bodies, dump)
    assert moved[0].startswith("  report.csv lhs: 1 rows moved, largest change ")
    assert moved[1] == (f"    identity={cells[0].decode()} t={cells[1].decode()} "
                        f"hurst={cells[2].decode()}: 0.25 -> {first.split(b',')[3].decode()}")
    assert len(moved) == 2
