"""Command-line entry points.

    kecss run   --mode {ecss,ecss15,ecsm,md-ecss,md-ecsm,certify} ...
    kecss gen   --kind {random,complete,cycle,prism-k3,prism-hub-k6} ...
    kecss bench --dir DIR --out CSV

Exit codes: 0 success, 1 infeasible instance, 2 parse error (also input
that is not valid UTF-8, a k below the mode's minimum, fewer than 2
vertices, `--k` outside 1..MAX_K, a negative `--max-iters`, `gen`
parameters past the parser's limits, a `gen --p` outside [0, 1], a
negative `--ensure-connectivity` or a connectivity repair past its
min-cut budget, an output path that cannot be written, a `bench --dir`
that is not a directory, or a solution file that `run --mode certify`
cannot read, names no run mode or has a k other than `--k`; `--trace`
in certify mode writes the trace of its re-run of the file's mode),
3 certification/verification failure, 5 internal fault or abort
(simplex pivot limit, lazy-loop row cap, rounding iteration cap such as
`--max-iters`, an "infeasible" verdict on an LP the theory makes
feasible; each message is followed by a reproducer dump).  Code 4
is no longer used.  A warning prints as one `warning: ...` line on
stderr.  `bench` exits 0 once its CSV is written: a run that is
infeasible, fails certification or aborts is a row whose status says so.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from . import bench as benchmod
from . import certify as certmod
from . import rounding
from .graphs import vertices
from .instances import (GENERATOR_KINDS, MAX_K, Instance, ParseError, emit_instance, gen,
                        parse_instance)
from .lp import LpInfeasible
from .rounding import MODES, frac_str

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_CERTIFY = 3
EXIT_INTERNAL = 5

RUN_MODES = (*MODES, "certify")


def solution_json(sol: rounding.Solution) -> str:
    payload = {
        "mode": sol.mode,
        "k": sol.k,
        "cost": frac_str(sol.cost),
        "lp": frac_str(sol.lp_value),
        "connectivity": sol.connectivity,
        "edges": [{"id": e, "mult": m} for e, m in sorted(sol.multiplicity.items())],
    }
    return json.dumps(payload) + "\n"


def trace_jsonl(trace: rounding.RoundingTrace) -> str:
    lines = []
    for rec in trace.iterations:
        lines.append(json.dumps({
            "iter": rec.index,
            "lp": frac_str(rec.lp_value),
            "picked": rec.picked,
            "frac_support": rec.frac_support,
            "dropped_witnesses": [vertices(s) for s in rec.dropped_witnesses],
            "lazy_rounds": rec.lazy_rounds,
            "lp_rows": rec.lp_rows,
            "basis_size": rec.basis_size,
            "small_member": (None if rec.small_member is None
                             else vertices(rec.small_member)),
            "witness_pairs_checked": rec.witness_pairs_checked,
        }))
    return "\n".join(lines) + ("\n" if lines else "")


def _write(path: str, text: str) -> bool:
    """Write text to path; on failure say so in one line on stderr."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        inst = parse_instance(Path(args.input).read_text(encoding="utf-8"))
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.k is not None:
        if not 1 <= args.k <= MAX_K:
            print(f"invalid k: --k {args.k} outside 1..{MAX_K}", file=sys.stderr)
            return EXIT_PARSE
        inst = Instance(inst.graph, args.k, inst.bounds)
    if args.max_iters is not None and args.max_iters < 0:
        print(f"invalid iteration cap: --max-iters {args.max_iters} is negative",
              file=sys.stderr)
        return EXIT_PARSE

    if args.mode == "certify":
        return _cmd_certify(inst, args)
    solved = _solve(args.mode, inst, args, EXIT_INFEASIBLE, "infeasible")
    if isinstance(solved, int):
        return solved
    sol, trace = solved
    if args.solution:
        if not _write(args.solution, solution_json(sol)):
            return EXIT_PARSE
    else:
        sys.stdout.write(solution_json(sol))
    if args.trace and not _write(args.trace, trace_jsonl(trace)):
        return EXIT_PARSE
    return EXIT_OK


def _solve(name: str, inst: Instance, args: argparse.Namespace, infeasible_exit: int,
           infeasible_says: str) -> tuple[rounding.Solution, rounding.RoundingTrace] | int:
    """Run mode `name` on `inst`; a refusal, an infeasible instance, a
    certification failure or an abort is reported and its exit code returned."""
    mode = MODES[name]
    refusal = mode.refusal(inst)
    if refusal is not None:
        print(f"{refusal} (mode {name}, n={inst.graph.n}, k={inst.k})", file=sys.stderr)
        return EXIT_PARSE
    try:
        return mode.run(inst, certify=True if args.certify else None,
                        max_iterations=args.max_iters)
    except (rounding.InfeasibleInstance, LpInfeasible) as exc:
        print(f"{infeasible_says}: {exc}", file=sys.stderr)
        return infeasible_exit
    except certmod.CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFY
    except RuntimeError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _json_int(value: object) -> int:
    """A JSON integer; a float, a bool or a string raises ValueError."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _cmd_certify(inst: Instance, args: argparse.Namespace) -> int:
    """Hold a solution file to its run mode's `Mode.check` at its k over
    the LP value of a run of that mode there; the claimed `lp`, `cost` and
    `connectivity` must equal the recomputed ones.  A failure exits 3.
    `--trace` gets that run's trace, as `run` writes it."""
    if not args.solution:
        print("certify mode needs --solution", file=sys.stderr)
        return EXIT_PARSE
    try:
        payload = json.loads(Path(args.solution).read_text())
        name = payload["mode"]
        if name not in MODES:  # an unhashable name raises TypeError
            raise ValueError(f"unknown mode {name!r}")
        k = _json_int(payload["k"])
        if args.k is not None and args.k != k:
            raise ValueError(f"k={k} differs from --k {args.k}")
        claimed = {"lp": Fraction(payload["lp"]), "cost": Fraction(payload["cost"]),
                   "connectivity": _json_int(payload["connectivity"])}
        edges = [(_json_int(rec["id"]), _json_int(rec["mult"])) for rec in payload["edges"]]
        mult = dict(edges)
        if len(mult) < len(edges):
            raise ValueError("an edge id is listed twice")
        if any(not 0 <= e < inst.graph.m or m < 0 for e, m in mult.items()):
            raise ValueError("edge id or multiplicity out of range")
    except (OSError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
        # ArithmeticError: a zero denominator, or an infinite number
        print(f"parse error in solution file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    inst = Instance(inst.graph, k, inst.bounds)
    solved = _solve(name, inst, args, EXIT_CERTIFY, f"certify: no {name} solution at k={k}")
    if isinstance(solved, int):
        return solved
    sol, trace = solved
    if args.trace and not _write(args.trace, trace_jsonl(trace)):
        return EXIT_PARSE
    report = MODES[name].check(inst.graph, k, mult, sol.lp_value, inst.degree_arrays())
    recomputed = {"lp": sol.lp_value, "cost": report.cost,
                  "connectivity": report.connectivity}
    failures = [f"recomputed {key} {recomputed[key]} != claimed {value}"
                for key, value in claimed.items() if recomputed[key] != value]
    failures += report.failures
    if failures:
        for f in failures:
            print(f"certify: {f}", file=sys.stderr)
        return EXIT_CERTIFY
    print("certified ok")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        inst = gen(args.kind, seed=args.seed, n=args.n, p=args.p,
                   cost_min=args.cost_min, cost_max=args.cost_max, k=args.k,
                   cost=args.cost, ensure_connectivity=args.ensure_connectivity,
                   gadgets=args.gadgets)
    except ValueError as exc:
        print(f"invalid generator parameters: {exc}", file=sys.stderr)
        return EXIT_PARSE
    text = emit_instance(inst)
    if args.out:
        return EXIT_OK if _write(args.out, text) else EXIT_PARSE
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    modes = args.modes.split(",") if args.modes else ["ecss"]
    for m in modes:
        if m not in MODES:
            print(f"unknown bench mode {m}", file=sys.stderr)
            return EXIT_PARSE
    if not Path(args.dir).is_dir():
        print(f"not a directory: {args.dir}", file=sys.stderr)
        return EXIT_PARSE
    csv_text = benchmod.bench_directory(Path(args.dir), modes)
    return EXIT_OK if _write(args.out, csv_text) else EXIT_PARSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kecss")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve an instance")
    p_run.add_argument("--mode", choices=RUN_MODES, required=True)
    p_run.add_argument("--input", required=True)
    p_run.add_argument("--k", type=int, default=None,
                       help="override the instance header k")
    p_run.add_argument("--solution", default=None, help="solution JSON path")
    p_run.add_argument("--trace", default=None, help="trace JSON-lines path")
    p_run.add_argument("--certify", action="store_true",
                       help="force inline structural certification")
    p_run.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--p", type=float, default=0.6)
    p_gen.add_argument("--k", type=int, default=4)
    p_gen.add_argument("--cost", type=int, default=1)
    p_gen.add_argument("--cost-min", dest="cost_min", type=int, default=1)
    p_gen.add_argument("--cost-max", dest="cost_max", type=int, default=10)
    p_gen.add_argument("--ensure-connectivity", dest="ensure_connectivity",
                       type=int, default=None)
    p_gen.add_argument("--gadgets", type=int, default=3,
                       help="prism-hub-k6 gadget count, odd and at least 3")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run a directory of instances")
    p_bench.add_argument("--dir", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--modes", default="ecss")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        code = args.func(args)
    for warning in caught:  # one line each, without Python's source location
        print(f"warning: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
