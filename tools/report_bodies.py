"""SHA-256 digests of the report bodies of the benchmark's workload configs.

    python3 tools/report_bodies.py --seeds 1 2 3

Run from anywhere; the package is imported from this checkout's `src/`.  For
each workload of `perfbench/workloads.json` (read, never written) and each
seed, the workload's config template gets the seed in its "$seed" fields and
runs in-process, as `fbm-infoflow run` would, writing its reports to a
temporary directory.  The digest covers every report file the run writes, in
name order, the CSV report without its first line, which holds the timestamp.
Two checkouts whose digests agree wrote byte-identical reports.
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


def body_digest(cfg):
    """(exit code, SHA-256 of the report bodies) of one in-process run of cfg."""
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
    return exit_code, digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    for name, spec in workloads.items():
        for seed in args.seeds:
            exit_code, digest = body_digest(with_seed(spec["config"], seed))
            print(f"{name} seed={seed} exit={exit_code} sha256={digest}")


if __name__ == "__main__":
    main()
