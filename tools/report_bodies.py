"""SHA-256 digests of the report bodies of the benchmark's workload configs.

    python3 tools/report_bodies.py --seeds 1 2 3 > digests.txt
    python3 tools/report_bodies.py --seeds 1 2 3 --workload sqrt1p-mult-quad
    python3 tools/report_bodies.py --seeds 1 2 3 --expect digests.txt
    python3 tools/report_bodies.py --seeds 1 --dump bodies/

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
DIR/<workload>/seed<k>/, one file per report, so that `diff -r` between the
dumps of two checkouts names the rows that moved.
"""

import argparse
import hashlib
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


def body_digest(cfg, dump=None):
    """(exit code, SHA-256 of the report bodies) of one in-process run of cfg; with
    dump, a directory, the bodies are written there too."""
    with tempfile.TemporaryDirectory() as out:
        cfg = dict(cfg, output=str(Path(out) / "report"))
        exit_code, rows, runner = cli.run_suite(cfg)
        cli.write_reports(rows, runner, runner.output)
        digest = hashlib.sha256()
        for path in sorted(Path(out).iterdir()):
            text = path.read_bytes()
            if path.name == "report.csv":
                text = text.split(b"\n", 1)[1]
            digest.update(path.name.encode() + b"\0" + text)
            if dump:
                dump.mkdir(parents=True, exist_ok=True)
                (dump / path.name).write_bytes(text)
    return exit_code, digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="run this workload only; repeat for more (default: all)")
    ap.add_argument("--expect", type=Path, metavar="FILE",
                    help="exit 1 unless every line printed is this file's line")
    ap.add_argument("--dump", type=Path, metavar="DIR",
                    help="also write each run's report bodies to DIR/<workload>/seed<k>/")
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
            dump = args.dump and args.dump / name / f"seed{seed}"
            exit_code, digest = body_digest(with_seed(workloads[name]["config"], seed), dump)
            line = f"{name} seed={seed} exit={exit_code} sha256={digest}"
            if args.expect and (exit_code != 0 or expected.get((name, f"seed={seed}")) != line):
                ok = False
                line += "  MISMATCH"
            print(line, flush=True)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
