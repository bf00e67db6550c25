import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import fbm_infoflow
from fbm_infoflow import cli

PACKAGE = Path(fbm_infoflow.__file__).parent


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _package_imports(path):
    """The package modules `path` imports by relative import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from ([node.module] if node.module else
                        (alias.name for alias in node.names))


def test_no_module_imports_scipy():
    # The package is numpy only: scipy's QUADPACK is the tests' reference for
    # the Gauss-Kronrod rule of infofunc, never a dependency of the run.
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if any(name.split(".")[0] == "scipy" for name in _imported_modules(path))}
    assert importers == set()


def test_only_channels_imports_doss():
    # The flow table has one owner: every other module reads flow fields, never
    # the table itself.
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if "doss" in _package_imports(path)}
    assert importers <= {"channels", "__init__"} and "channels" in importers


def test_montecarlo_imports_neither_infofunc_nor_scipy():
    # The oracle stays independent of the quadrature route it checks: nothing
    # montecarlo imports, directly or through other package modules, is
    # infofunc or scipy.
    seen, todo = set(), ["montecarlo"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_package_imports(PACKAGE / f"{name}.py"))
    assert "infofunc" not in seen
    assert not any(name.split(".")[0] == "scipy" for module in seen
                   for name in _imported_modules(PACKAGE / f"{module}.py"))


_AFTER_SET_UP = """
import json, sys
from fbm_infoflow import cli

built = []


class Runner(cli._SuiteRunner):
    def __init__(self, cfg):
        super().__init__(cfg)
        built.append(set(sys.modules))


cli._SuiteRunner = Runner
try:
    cli.main(["run", "--config", sys.argv[1]], standalone_mode=False)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "late": sorted(set(sys.modules) - built[0]),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_run_imports_nothing_after_set_up(tmp_path):
    # Every suite, with the oracle and a sqrt1p flow cell that takes the x-space
    # cross-check: a module loaded lazily inside the run would charge its import
    # to the first cell that needs it, and scipy is never loaded at all.
    cfg = {"suites": list(cli.SUITES), "channel": {"sigma": {"kind": "sqrt1p"}, "x0": 0.0},
           "t_grid": [1.0], "hurst_grid": [0.5], "oracle": {"samples": 1000, "seed": 1},
           "fbm_stats": {"n": 8, "n_paths": 20}, "output": str(tmp_path / "report")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    out = subprocess.run([sys.executable, "-c", _AFTER_SET_UP, str(config)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result == {"code": 0, "late": [], "scipy": []}, out.stderr
    assert "x-space" in (tmp_path / "report.csv").read_text()
