"""Alternating A/B pairs of the benchmark: a git revision against the working tree.

    python3 tools/ab_pairs.py --base HEAD --workload grid-additive-mc --pairs 10 \\
        --seconds 8 --seed 101

Run from anywhere inside the checkout.  The revision `--base` is exported with
`git archive` into a temporary directory, `<tmp>/base`; the working tree's
`src/`, `perfbench/` (without its `.runs/`) and `tools/`, with `BENCHMARK.json`,
which the harness reads, are copied beside it into `<tmp>/head`, a path of the
same length.  Pair i (from 0) runs

    python3 perfbench/run.py --workload W --seed S0+i --seconds S --trace 0

in both copies, the base first when i is even and the working tree first when
it is odd.  Each pair's end-to-end medians are printed as they come, then for
each metric the medians over the pairs, the quartiles of the base's, the number
of pairs in which the working tree's value was lower than the base's, and the
median over the pairs of the ratio head / base.  The runs write only inside the temporary copies, so
nothing of the checkout changes.  The exit code is 1 when any run failed a
cell or exited non-zero.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "perfbench", "tools")


def export_base(rev, dest):
    """The tree of rev, by git archive, into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def copy_working_tree(dest):
    """The working tree's src/, perfbench/ and tools/, and BENCHMARK.json, into dest."""
    dest.mkdir()
    for name in COPIED:
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def run_once(tree, workload, seed, seconds):
    """(end-to-end metric values, ok) of one harness run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{tree.name}: run exited {proc.returncode} with no summary:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return {}, False
    values = {k: m["value"] for k, m in summary["metrics"].items()}
    return values, proc.returncode == 0 and summary["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, help="a workload of perfbench/workloads.json")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="--seconds of each run")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    ok = True
    pairs = []          # (base values, head values) per pair
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        export_base(args.base, trees["base"])
        copy_working_tree(trees["head"])
        print(f"base {args.base} in {trees['base']}, working tree in {trees['head']}")
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            got = {}
            for side in order:
                got[side], side_ok = run_once(trees[side], args.workload, seed, args.seconds)
                ok = ok and side_ok
            pairs.append((got["base"], got["head"]))
            for side in ("base", "head"):
                shown = " ".join(f"{k}={v:.6g}" for k, v in got[side].items())
                print(f"pair {i + 1} seed {seed} {side}{' (first)' if side == order[0] else ''}: "
                      f"{shown}", flush=True)

    names = [k for k in pairs[0][0] if all(k in b and k in h for b, h in pairs)]
    print(f"{args.workload}, {args.pairs} pairs, base {args.base} vs working tree:")
    for k in names:
        base = [b[k] for b, _ in pairs]
        head = [h[k] for _, h in pairs]
        lower = sum(h < b for b, h in zip(base, head))
        ratios = [h / b for b, h in zip(base, head) if b != 0]
        ratio = f"{statistics.median(ratios):.4g}" if ratios else "n/a"
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
        print(f"  {k:<14} median base {statistics.median(base):.6g} (quartiles "
              f"{q1:.6g}..{q3:.6g}) head {statistics.median(head):.6g}; head lower in "
              f"{lower} of {len(pairs)} pairs; median ratio head/base {ratio}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
