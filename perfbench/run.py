"""Benchmark of `fbm-infoflow run` on generated workload configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root; the package is imported from `src/`.  Each
measurement is a fresh child process (`child.py`) running every cell of the
workload's config back to back, single-threaded.  The config is generated from
the workload's template in `workloads.json` and the seed; the program sees only
that config.

`--trace 0` measures the end-to-end metrics: the medians of set-up time, run
time and peak RSS over the children run in `--seconds` (at least three).
`--trace 1`
alternates untraced and traced children and reports the per-layer metrics of
the traced ones (see `tracer.py`) and the tracing overhead.

Every report is checked: each cell must pass its identity, each oracle row
must have `mc_ok`, and each `rhs` must lie within the row's tolerance of
`reference.json`.  A cell that misses, or a child that raises or dies, counts
as failed, and the command exits 1.  Results with provenance go to
`perfbench/.runs/`; the last line of standard output is a JSON summary.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
MIN_CHILDREN = 3          # run children per untraced measurement
MIN_PAIRS = 2             # untraced/traced pairs per traced measurement
DEADLINE_S = 170.0        # every child is stopped by then
ORACLE_SUITES = ("debruijn-mult", "debruijn-additive", "kl-flow")


def load_json(name):
    return json.loads((HERE / name).read_text())


def make_config(template, seed, output):
    """The template with every "$seed" replaced by `seed`, writing to `output`."""
    def fill(v):
        if v == "$seed":
            return seed
        if isinstance(v, dict):
            return {k: fill(x) for k, x in v.items()}
        if isinstance(v, list):
            return [fill(x) for x in v]
        return v
    return {**fill(template), "output": output}


def _fmt(x):
    return format(float(x), ".12g")


def expected_cells(cfg):
    return [f"{s}|{_fmt(t)}|{_fmt(h)}" for s in cfg["suites"]
            for h in cfg["hurst_grid"] for t in cfg["t_grid"]]


def read_rows(csv_text):
    """Report rows keyed "identity|t|hurst" (the first line is a comment)."""
    body = csv_text.split("\n", 1)[1]
    return {f"{r['identity']}|{r['t']}|{r['hurst']}": r
            for r in csv.DictReader(io.StringIO(body))}


def check_rows(rows, cells, reference):
    """Failed cells as {cell: reason}; `reference` maps cell -> committed rhs."""
    failed = {}
    for cell in cells:
        row = rows.get(cell)
        if row is None:
            failed[cell] = "no report row"
        elif row["passed"] != "true":
            failed[cell] = f"identity failed: |lhs - rhs| = {row['abs_discrepancy']}"
        elif cell.split("|")[0] in ORACLE_SUITES and row.get("mc_ok") != "true":
            failed[cell] = f"oracle missed: mc_value {row.get('mc_value')}"
        elif reference is not None and (
                cell not in reference
                or abs(float(row["rhs"]) - reference[cell]) > float(row["tolerance"])):
            failed[cell] = (f"rhs {row['rhs']} vs reference {reference.get(cell)} "
                            f"(tolerance {row['tolerance']})")
    return failed


def evaluate(result, report_csv, cells, reference):
    """Failed cells of one run child, given its result record and report path."""
    if result is None:
        return {c: "child died without a result" for c in cells}
    if result["error"] is not None or result["exit_code"] not in (0, 1):
        reason = (result["error"] or f"exit code {result['exit_code']}")
        reason = reason.strip().splitlines()[-1]
        return {c: f"run raised: {reason}" for c in cells}
    return check_rows(read_rows(Path(report_csv).read_text()), cells, reference)


class Bench:
    def __init__(self, workload, seed, trace):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.dir = RUNS / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        spec = load_json("workloads.json")["workloads"][workload]
        rel = self.dir.relative_to(ROOT)
        self.cfg = make_config(spec["config"], seed, str(rel / "report"))
        self.cfg_bytes = (json.dumps(self.cfg, indent=1, sort_keys=True) + "\n").encode()
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_bytes(self.cfg_bytes)
        self.report_csv = self.dir / "report.csv"
        self.cells = expected_cells(self.cfg)
        self.env = {k: v for k, v in os.environ.items() if k != "FBM_INFOFLOW_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.t0 = time.monotonic()

    def child(self, mode):
        """Run one child; returns (result or None, spawn time)."""
        res_path = self.dir / f"child-{mode}.json"
        res_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--config", str(self.cfg_path.relative_to(ROOT)),
               "--result", str(res_path)]
        if mode == "trace":
            cmd += ["--spans", str(self.dir / "spans.npz")]
        budget = max(1.0, DEADLINE_S - (time.monotonic() - self.t0))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"{mode} child stopped after {budget:.0f} s", file=sys.stderr)
            return None, spawned
        if proc.returncode != 0 or not res_path.exists():
            print(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None, spawned
        return json.loads(res_path.read_text()), spawned

    def measured_child(self, mode, reference, failures):
        for p in self.dir.glob("report*.*"):
            p.unlink()
        result, spawned = self.child(mode)
        failed = evaluate(result, self.report_csv, self.cells, reference)
        failures.append(failed)
        if result is None or failed:
            return None
        result["setup_s"] = result["built"] - spawned
        result["run_s"] = result["written"] - result["built"]
        if mode == "trace":
            result["layers"]["cli.report_bytes"] = sum(
                p.stat().st_size for p in self.dir.glob("report*.*"))
        return result

    def measure(self, seconds, reference):
        """Run children until the next would end after `seconds` from the
        start (but at least MIN_CHILDREN, or MIN_PAIRS untraced/traced pairs).
        Returns (samples, failed cells per child)."""
        self.child("setup")                    # warm-up: byte-compiles the package
        failures, runs, traced = [], [], []
        n_min = MIN_PAIRS if self.trace else MIN_CHILDREN
        n, last = 0, 0.0
        while n < n_min or time.monotonic() - self.t0 + last <= seconds:
            t = time.monotonic()
            r = self.measured_child("run", reference, failures)
            if r is not None:
                runs.append(r)
            if self.trace:
                r = self.measured_child("trace", reference, failures)
                if r is not None:
                    traced.append(r)
            n, last = n + 1, time.monotonic() - t
        return {"runs": runs, "traced": traced,
                "setups": [r["setup_s"] for r in runs]}, failures


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(samples, attempted, failed):
    runs = samples["runs"]
    return {
        "setup_s": median(samples["setups"]),
        "run_s": median([r["run_s"] for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        "cells_ok_frac": 1.0 - failed / attempted,
    }


def per_layer(samples):
    traced = samples["traced"]
    m = {}
    for k in traced[0]["layers"] if traced else ():
        values = [t["layers"][k] for t in traced]
        m[k] = values[0] if len(set(values)) == 1 else median(values)
    m["trace.overhead_frac"] = (
        median([t["run_s"] for t in traced])
        / median([r["run_s"] for r in samples["runs"]]) - 1.0)
    return m


def repeat_problems(samples):
    """Count metrics that differ between the traced children of one run."""
    keys = ("infofunc.quad.neval", "doss.invert_phi.points", "doss.solve_phi.calls",
            "sigma.points", "montecarlo.samples", "fbm.paths")
    traced = samples["traced"]
    return [k for k in keys if len({t["layers"][k] for t in traced}) > 1]


def provenance(bench):
    src = ROOT / "src" / "fbm_infoflow"
    h = hashlib.sha256()
    for p in sorted(src.glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or None
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "config_sha256": hashlib.sha256(bench.cfg_bytes).hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "fbm_infoflow_threads": "unset in child"
                                + (" (removed from the environment)"
                                   if "FBM_INFOFLOW_THREADS" in os.environ else ""),
    }


def run_workload(workload, seed, seconds, trace, write_reference=False):
    """Measure one workload; prints a report and returns the summary dict."""
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = None if write_reference else load_json("reference.json").get(workload, {})
    bench = Bench(workload, seed, trace)
    samples, failures = bench.measure(seconds, reference)
    attempted = len(bench.cells) * len(failures)
    failed_cells = [(i, c, why) for i, f in enumerate(failures) for c, why in f.items()]
    n_failed = len(failed_cells)
    # With no failed cell every child succeeded, so each sample list is full.
    problems = repeat_problems(samples) if trace and n_failed == 0 else []
    correct = n_failed == 0 and not problems

    print(f"workload {workload}, seed {seed}: {len(samples['runs'])} run children, "
          f"{len(samples['traced'])} traced, {len(samples['setups'])} set-up samples")
    for i, cell, why in failed_cells[:20]:
        print(f"  FAILED child {i} cell {cell}: {why}")
    for k in problems:
        print(f"  FAILED count {k} differs between traced children")
    print(f"  cells_failed_frac {n_failed / attempted if attempted else 1.0:.6g} ratio "
          f"({n_failed} of {attempted} cells)")

    if trace:
        values = per_layer(samples) if correct else {}
        spec_metrics = bench_spec["per_layer"]
    else:
        values = end_to_end(samples, attempted, n_failed) if attempted else {}
        spec_metrics = bench_spec["end_to_end"]
    metrics = {}
    for m in spec_metrics:
        if math.isfinite(values.get(m["name"], math.nan)):
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<36} {values[m['name']]:.6g} {m['unit']}")

    prov = provenance(bench)
    print("provenance " + json.dumps(prov, sort_keys=True))
    record = {"provenance": prov, "correct": correct, "attempted": attempted,
              "failed": n_failed, "metrics": metrics,
              "failures": [{"child": i, "cell": c, "reason": w} for i, c, w in failed_cells],
              "samples": samples}
    kind = "trace" if trace else "e2e"
    (bench.dir / f"result-seed{seed}-{kind}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    if write_reference and correct and samples["runs"]:
        ref = load_json("reference.json") if (HERE / "reference.json").exists() else {}
        rows = read_rows(bench.report_csv.read_text())
        ref[workload] = {c: float(rows[c]["rhs"]) for c in bench.cells}
        (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote the rhs reference for {workload}")
    return {"correct": correct, "attempted": attempted, "failed": n_failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of workloads.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record each cell's rhs in reference.json instead of checking it")
    args = ap.parse_args()

    if not (ROOT / "src" / "fbm_infoflow" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'fbm_infoflow'}", file=sys.stderr)
        sys.exit(2)
    names = list(load_json("workloads.json")["workloads"])
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        ap.error(f"unknown workload {args.workload!r} (choose from {', '.join(names)}, all)")

    ok = True
    for w in workloads:
        summary = run_workload(w, args.seed, args.seconds, args.trace,
                               args.write_reference)
        print(json.dumps(summary), flush=True)
        ok = ok and summary["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
