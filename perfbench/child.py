"""One benchmark child: `fbm-infoflow run --config CONFIG` in a fresh process.

Run by `run.py`, one process per measurement:

    python3 perfbench/child.py --mode {setup,run,trace} --config CONFIG \
        --result RESULT.json [--spans SPANS.npz]

The child calls the package's click entry point in-process, so it runs the
same code path as the `fbm-infoflow` console script.  Two attributes of
`fbm_infoflow.cli` are replaced to read the clock at the end-to-end
boundaries: the runner class (set-up ends when it is built) and
`write_reports` (the run ends when it returns).  `--mode setup` stops as soon
as the runner is built; `--mode trace` also installs the span tracer.
Times are `time.monotonic()` readings, comparable with the parent's on Linux.
"""

import argparse
import json
import os
import resource
import time
import traceback
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


class _SetupDone(Exception):
    pass


def run(config, mode, spans_path=None):
    """Run the CLI on `config` and return the result record."""
    if "FBM_INFOFLOW_THREADS" in os.environ:
        raise RuntimeError("FBM_INFOFLOW_THREADS must be unset: the benchmark "
                           "measures the single-threaded runner")
    from fbm_infoflow import cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"fbm_infoflow imported from {cli.__file__}, not {src}")

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()

    stamps = {}
    runner_cls, write_reports = cli._SuiteRunner, cli.write_reports

    class TimedRunner(runner_cls):
        def __init__(self, cfg):
            super().__init__(cfg)
            stamps["built"] = time.monotonic()
            if mode == "setup":
                raise _SetupDone

    def timed_write_reports(*args, **kwargs):
        write_reports(*args, **kwargs)
        stamps["written"] = time.monotonic()

    cli._SuiteRunner, cli.write_reports = TimedRunner, timed_write_reports
    exit_code, error = 0, None
    try:
        cli.main(["run", "--config", str(config)], prog_name="fbm-infoflow",
                 standalone_mode=False)
    except _SetupDone:
        pass
    except SystemExit as exc:
        exit_code = exc.code
    except Exception:  # reported to the parent, which counts the cells failed
        exit_code, error = None, traceback.format_exc()
    finally:
        cli._SuiteRunner, cli.write_reports = runner_cls, write_reports
        if tracer is not None:
            tracer.uninstall()

    result = {
        "exit_code": exit_code,
        "error": error,
        "built": stamps.get("built"),
        "written": stamps.get("written"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        if spans_path:
            tracer.save(spans_path)
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.start)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    result = run(args.config, args.mode, args.spans)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
