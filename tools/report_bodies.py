"""SHA-256 digests of the report bodies of the benchmark's workload configs.

    python3 tools/report_bodies.py --seeds 1 2 3 > digests.txt
    python3 tools/report_bodies.py --seeds 1 2 3 --workload sqrt1p-mult-quad
    python3 tools/report_bodies.py --seeds 1 2 3 --expect digests.txt
    python3 tools/report_bodies.py --seeds 1 --dump bodies/
    python3 tools/report_bodies.py --seeds 1 --diff bodies/

Run from anywhere; the package is imported from this checkout's `src/`.  For
each workload of `perfbench/workloads.json` (read, never written) and each
seed, the workload's config template gets the seed in its "$seed" fields and
runs in-process, as `fbm-infoflow run` would, writing its reports to a
temporary directory.  The digest covers every report file the run writes, in
name order, the CSV report without its first line, which holds the timestamp.
Two checkouts whose digests agree wrote byte-identical reports.  With
`--expect FILE`, a file of lines this script printed (from another checkout,
say), each line printed must be the file's line for its workload and seed, and
the exit code is 1 when any is not, or when any run's exit code is not 0.
With `--dump DIR`, each run also writes the bodies it digests to
DIR/<workload>/seed<k>/, one file per report.  With `--diff DIR`, DIR a dump
from another checkout, each body is compared with its file there, and under each
run's line the tool prints, for each file and column, the rows that moved, their
values there and here, and the column's largest absolute and relative change;
the exit code does not depend on what moved.
"""

import argparse
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fbm_infoflow import cli  # noqa: E402


def with_seed(template, seed):
    """The template with every "$seed" value replaced by seed."""
    if template == "$seed":
        return seed
    if isinstance(template, dict):
        return {k: with_seed(v, seed) for k, v in template.items()}
    if isinstance(template, list):
        return [with_seed(v, seed) for v in template]
    return template


def report_bodies(cfg):
    """(exit code, {file name: body}) of one in-process run of cfg, in name order."""
    with tempfile.TemporaryDirectory() as out:
        cfg = dict(cfg, output=str(Path(out) / "report"))
        exit_code, rows, runner = cli.run_suite(cfg)
        cli.write_reports(rows, runner, runner.output)
        bodies = {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}
    bodies["report.csv"] = bodies["report.csv"].split(b"\n", 1)[1]
    return exit_code, bodies


def body_digest(bodies):
    """SHA-256 of the report bodies, each with its file name."""
    digest = hashlib.sha256()
    for name, text in bodies.items():
        digest.update(name.encode() + b"\0" + text)
    return digest.hexdigest()


_KEYS = ("identity", "t", "hurst")      # the columns that name a report row


def _rows(name, text):
    """A report body as a list of rows, each a dict column -> value; a JSON report's
    fields besides its rows are one more row, the first."""
    if name.endswith(".json"):
        data = json.loads(text)
        return [data] + data.pop("rows", [])
    lines = list(csv.reader(io.StringIO(text.decode())))
    return [dict(zip(lines[0], line)) for line in lines[1:]]


def _change(old, new):
    """(|new - old|, |new - old| / |old|) of two values read as numbers, or None where
    either is not one."""
    try:
        old, new = float(old), float(new)
    except (TypeError, ValueError):
        return None
    return abs(new - old), abs(new - old) / abs(old) if old else float("inf")


def diff_bodies(bodies, base):
    """Lines naming, for each body and column, the rows that moved from the same file
    under base, a --dump directory, and the largest absolute and relative change."""
    lines = [f"  {name}: in {base} only" for name in sorted(
        {p.name for p in base.glob("*")} - bodies.keys())]
    for name, text in bodies.items():
        if not (base / name).is_file():
            lines.append(f"  {name}: not in {base}")
            continue
        old, new = _rows(name, (base / name).read_bytes()), _rows(name, text)
        if len(old) != len(new):
            lines.append(f"  {name}: {len(new)} rows, {len(old)} in {base}; "
                         "the first rows of both compared")
        moved = {}
        for a, b in zip(old, new):
            label = " ".join(f"{k}={b[k]}" for k in _KEYS if k in b) or "(report)"
            for column in dict.fromkeys([*a, *b]):
                if a.get(column) != b.get(column):
                    moved.setdefault(column, []).append((label, a.get(column), b.get(column)))
        for column, rows in moved.items():
            changes = [c for c in (_change(x, y) for _, x, y in rows) if c is not None]
            largest = (f", largest change {max(c[0] for c in changes):.3g} absolute, "
                       f"{max(c[1] for c in changes):.3g} relative" if changes else "")
            lines.append(f"  {name} {column}: {len(rows)} rows moved{largest}")
            lines += [f"    {label}: {x} -> {y}" for label, x, y in rows]
    return lines or ["  no row moved"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="run this workload only; repeat for more (default: all)")
    ap.add_argument("--expect", type=Path, metavar="FILE",
                    help="exit 1 unless every line printed is this file's line")
    ap.add_argument("--dump", type=Path, metavar="DIR",
                    help="also write each run's report bodies to DIR/<workload>/seed<k>/")
    ap.add_argument("--diff", type=Path, metavar="DIR",
                    help="print the rows that moved from the bodies a --dump wrote to DIR")
    args = ap.parse_args()
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    unknown = set(args.workload or ()) - set(workloads)
    if unknown:
        ap.error(f"unknown workload {', '.join(sorted(unknown))}; "
                 f"choose from {', '.join(workloads)}")
    expected = {}
    if args.expect:
        for line in args.expect.read_text().splitlines():
            expected[tuple(line.split()[:2])] = line.strip()
    ok = True
    for name in args.workload or workloads:
        for seed in args.seeds:
            exit_code, bodies = report_bodies(with_seed(workloads[name]["config"], seed))
            line = f"{name} seed={seed} exit={exit_code} sha256={body_digest(bodies)}"
            if args.expect and (exit_code != 0 or expected.get((name, f"seed={seed}")) != line):
                ok = False
                line += "  MISMATCH"
            print(line, flush=True)
            if args.diff:
                print("\n".join(diff_bodies(bodies, args.diff / name / f"seed{seed}")), flush=True)
            if args.dump:
                dump = args.dump / name / f"seed{seed}"
                dump.mkdir(parents=True, exist_ok=True)
                for file_name, text in bodies.items():
                    (dump / file_name).write_bytes(text)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
