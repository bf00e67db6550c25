"""Minor page faults, run time and max RSS of fresh `fbm-infoflow run` processes.

    python3 tools/faults.py --workload sqrt1p-mult-quad --runs 5 --seed 501

Run from anywhere inside the checkout.  The workload's config is the one the
benchmark runs: its template in `perfbench/workloads.json` with the seed filled
in by `make_config` of `perfbench/run.py`, which is imported and never run or
written.  The config and the reports go to a temporary directory, and no
bytecode is written, so nothing of the checkout changes.  Each run is a fresh
Python process that imports the package from this checkout's `src/` and calls
the `fbm-infoflow run` entry point in-process, reading its own `getrusage`
around the call: the call's wall time (set-up included), the minor page faults
it took (imports excluded), and the process's max RSS.  Each run is printed as
it ends, then the medians.  The exit code is 1 when any run's `fbm-infoflow run`
did not exit 0.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One run: the entry point in-process, between two readings of the process's rusage.
CHILD = """
import json, resource, sys, time
from fbm_infoflow import cli
before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.monotonic()
try:
    cli.main(["run", "--config", sys.argv[1]], prog_name="fbm-infoflow", standalone_mode=False)
    code = 0
except SystemExit as exc:
    code = exc.code
run_s, after = time.monotonic() - t0, resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"exit": code, "run_s": run_s, "minflt": after.ru_minflt - before.ru_minflt,
                  "maxrss_mb": after.ru_maxrss / 1024.0}))
"""


def make_config(template, seed, output):
    """perfbench/run.py's make_config, loaded from its file without writing bytecode."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_config(template, seed, output)


def run_once(config_path):
    """The child's record: exit, run_s, minflt and maxrss_mb."""
    env = {k: v for k, v in os.environ.items() if k != "FBM_INFOFLOW_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")       # single-threaded, as the benchmark runs it
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD, str(config_path)],
                          env=env, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"run exited {proc.returncode} with no record:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of perfbench/workloads.json")
    ap.add_argument("--runs", type=int, required=True, help="fresh processes to run")
    ap.add_argument("--seed", type=int, default=501, help="the config's seed (default 501)")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload}; choose from {', '.join(workloads)}")

    records = []
    with tempfile.TemporaryDirectory(prefix="faults-") as tmp:
        cfg = make_config(workloads[args.workload]["config"], args.seed,
                          str(Path(tmp) / "report"))
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(cfg))
        for i in range(args.runs):
            rec = run_once(config_path)
            records.append(rec)
            if rec is not None:
                print(f"run {i + 1}: exit={rec['exit']} run_s={rec['run_s']:.4f} "
                      f"minflt={rec['minflt']} maxrss_mb={rec['maxrss_mb']:.2f}", flush=True)
    done = [r for r in records if r is not None]
    if done:
        print(f"{args.workload} seed {args.seed}, median of {len(done)} runs: "
              + " ".join(f"{k}={statistics.median(r[k] for r in done):.6g}"
                         for k in ("run_s", "minflt", "maxrss_mb")))
    sys.exit(0 if len(done) == args.runs and all(r["exit"] == 0 for r in done) else 1)


if __name__ == "__main__":
    main()
