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


def test_no_subset_enumeration_in_package():
    # exhaustive scans (range(1 << n), range(2 ** m)) belong in
    # tests/reference.py, never on a solver's path
    found = []
    for path in sorted(Path(kecss.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "range"
                    and any(isinstance(inner, ast.BinOp)
                            and isinstance(inner.op, (ast.LShift, ast.Pow))
                            for arg in node.args for inner in ast.walk(arg))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
