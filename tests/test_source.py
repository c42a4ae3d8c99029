import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import kecss
from kecss import certify, lp
from test_golden import GOLDEN

TESTS = Path(__file__).resolve().parent

# recomputes every golden digest in a fresh interpreter and prints the
# keys whose digest differs, with the interpreter's optimisation level
_GOLDEN_UNDER_O = """
import json, sys
import test_golden
bad = [list(key) for key, digest in test_golden.GOLDEN.items()
       if test_golden._digest(key[1], test_golden.INSTANCES[key[0]](), key[2]) != digest]
print(json.dumps({"optimize": sys.flags.optimize, "checked": len(test_golden.GOLDEN),
                  "mismatched": bad}))
"""


def test_no_assert_statements_in_package():
    # invariants must hold under `python -O`, which strips assert statements
    found = []
    for path in sorted(Path(kecss.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_golden_outputs_unchanged_under_python_O():
    # the lint above proves there are no assert statements; this checks
    # that the solvers' outputs are the same end to end without them
    src = Path(kecss.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]))
    proc = subprocess.run([sys.executable, "-O", "-c", _GOLDEN_UNDER_O],
                          capture_output=True, text=True, env=env, cwd=TESTS)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"optimize": 1, "checked": len(GOLDEN), "mismatched": []}


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


def test_simplex_names_no_fraction():
    # the simplex prices, pivots and ratio-tests in integers; Fractions
    # belong to the LP API around it, and lp.py keeps no Fraction zero
    tree = ast.parse(Path(lp.__file__).read_text())
    simplex = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "_Simplex")
    named = {node.id for node in ast.walk(simplex) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(simplex) if isinstance(node, ast.Attribute)}
    assert named & {"Fraction", "ZERO"} == set()
    defined = {target.id for node in ast.walk(tree)
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign)
                              else [node.target])
               if isinstance(target, ast.Name)}
    assert "ZERO" not in defined


def _writes_out_crossing(node: ast.AST) -> bool:
    # `0 != mask & ends != ends`: exactly one endpoint in the mask
    return (isinstance(node, ast.Compare) and len(node.ops) == 2
            and all(isinstance(op, ast.NotEq) for op in node.ops)
            and isinstance(node.left, ast.Constant) and node.left.value == 0)


def test_crossing_test_lives_in_graphs():
    # which edges cross a vertex set is decided in graphs.py (`crossing`,
    # `ScaledPoint`'s boundary bitsets), and only graphs.py reads the
    # endpoint masks
    chained, ends = [], []
    for path in sorted(Path(kecss.__file__).parent.rglob("*.py")):
        if path.name == "graphs.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if _writes_out_crossing(node):
                chained.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "ends":
                ends.append(f"{path.name}:{node.lineno}")
    assert chained == [] and ends == []


def test_vertex_sets_are_masks_only():
    # a vertex set has one form in the package, an int mask: no module
    # names frozenset, and graphs keeps no set <-> mask converters
    named = [path.name for path in sorted(Path(kecss.__file__).parent.rglob("*.py"))
             if "frozenset" in path.read_text()]
    assert named == []
    tree = ast.parse(Path(kecss.graphs.__file__).read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert defined & {"vertex_mask", "mask_vertices", "canonical_side", "boundary"} == set()


def test_lp_rows_have_one_form():
    # an LpRow is int >= or <= row: no module keeps a scaled copy of the
    # rows (`_scaled`) or an equation sense (`EQ`)
    found = []
    for path in sorted(Path(kecss.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("_scaled", "EQ")]
    assert found == []


def _own_nodes(func: ast.AST):
    """The nodes of a function's body, not descending into nested
    functions, lambdas or classes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_uncross_witness_builds_its_witness_in_one_place():
    # every case picks a row of one table and runs one check sequence, so
    # the witness is returned from a single statement
    tree = ast.parse(Path(certify.__file__).read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "uncross_witness")
    returns = [node.lineno for node in _own_nodes(func) if isinstance(node, ast.Return)]
    assert len(returns) == 1


def test_no_keep_tableau_parameter():
    # every lazy result keeps its final tableau until a warm start takes it
    # over; there is no option to drop it.  Nor does anything but the
    # instance generator take a seed: certification checks every pair
    # instead of a sample, so only instances.py draws random numbers
    found = []
    importers = []
    for path in sorted(Path(kecss.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "keep_tableau" in names:
                    found.append(f"{path.name}:{node.lineno}")
                if "seed" in names and (path.name, getattr(node, "name", None)) != (
                        "instances.py", "gen"):
                    found.append(f"{path.name}:{node.lineno} seed")
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "random" in modules:
                importers.append(path.name)
    assert found == []
    assert importers == ["instances.py"]


def _orders_endpoints(node: ast.AST) -> bool:
    # `(e.u, e.v) if e.u < e.v else (e.v, e.u)`, or min/max/sorted over
    # an edge's two endpoints: a parallel-edge key built by hand
    def ends(elts):
        return (len(elts) == 2 and all(isinstance(x, ast.Attribute) for x in elts)
                and {x.attr for x in elts} == {"u", "v"})

    def pair(arg):
        return isinstance(arg, ast.Tuple) and ends(arg.elts)
    if isinstance(node, ast.IfExp):
        return pair(node.body) and pair(node.orelse)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max", "sorted")
            and (ends(node.args) or any(map(pair, node.args))))


def _by_scope():
    """("<file> <function>", node) for every node of the package, the
    function being a top-level one, a `Class.method` or `<module>`."""
    for path in sorted(Path(kecss.__file__).parent.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            inner = isinstance(top, ast.ClassDef)
            for scope in top.body if inner else [top]:
                name = (f"{top.name}." if inner else "") + getattr(scope, "name", "<module>")
                for node in ast.walk(scope):
                    yield f"{path.name} {name}", node


def test_parallel_edges_are_keyed_in_one_place():
    # one parallel-edge merge: only `Multigraph.pairs` orders an edge's
    # endpoints into a vertex-pair key, and `_merged` sums by its index
    found = [where for where, node in _by_scope() if _orders_endpoints(node)]
    assert found == ["graphs.py Multigraph.pairs"]


def _calls(name: str) -> list[str]:
    """Where the package calls `name`, as `x.name(...)` or `name(...)`."""
    return [where for where, node in _by_scope() if isinstance(node, ast.Call)
            and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


def test_one_checker_per_mode():
    # a mode's guarantee, degree window and subgraph rule meet
    # certify.verify in Mode.check alone, for the solvers and for
    # `kecss run --mode certify`; only the bench's bound column reads a
    # guarantee besides
    assert _calls("verify") == ["rounding.py Mode.check"]
    assert _calls("guarantee") == ["bench.py bench_row", "rounding.py Mode.check"]
