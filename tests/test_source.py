import ast
from pathlib import Path

import kecss


def test_no_assert_statements_in_package():
    # invariants must hold under `python -O`, which strips assert statements
    found = []
    for path in sorted(Path(kecss.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_function_local_imports_in_package():
    # every dependency is visible at the top of its module; a local import
    # would hide an import cycle or a late, per-call module lookup
    found = []
    for path in sorted(Path(kecss.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        found.append(f"{path.name}:{inner.lineno}")
    assert found == []
