"""The runtime stays stdlib-only: every module of ``nettax`` imports only
the standard library and ``nettax`` itself."""

import ast
import sys
from pathlib import Path

import nettax


def test_runtime_imports_are_stdlib_only():
    sources = sorted(Path(nettax.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                allowed = top in sys.stdlib_module_names or top == "nettax"
                assert allowed, (path.name, name)
