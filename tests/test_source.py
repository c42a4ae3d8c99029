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
