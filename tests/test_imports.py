import ast
from pathlib import Path

import fbm_infoflow

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


def test_only_infofunc_imports_scipy():
    # QUADPACK, the reference quadrature, is the one use of scipy: every other
    # module, the flow included, is numpy only.
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if any(name.split(".")[0] == "scipy" for name in _imported_modules(path))}
    assert importers == {"infofunc"}


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
