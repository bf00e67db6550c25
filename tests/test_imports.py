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


def test_only_infofunc_imports_scipy():
    # QUADPACK, the reference quadrature, is the one use of scipy: every other
    # module, the flow included, is numpy only.
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if any(name.split(".")[0] == "scipy" for name in _imported_modules(path))}
    assert importers == {"infofunc"}
