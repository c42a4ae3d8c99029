"""Benchmark of the kecss solvers, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The load is a closed loop with one client: operations (one call
to a package-level solver each) run one at a time, in the fixed order of
the workload's operation list, until S seconds have passed.  The first
`prefix` operations always complete.  A workload that measures the first
LP alone screens each operation, untimed, before it first runs, and
drops the ones whose rounding loop needs a residual LP.  Every output is
checked against the guarantee table of PAPER.md, outside the timed
window.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps the package's
layers (see tracer.py), runs the prefix traced, then repeats it untraced,
and prints the per-layer metrics of the traced prefix.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  Times are seconds at a reference machine speed
(see speed.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9  # builds of the workload, and fresh-interpreter imports
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
SUBGRAPH_MODES = ("ecss", "ecss15", "md-ecss")
ITERATION_CAP = "rounding exceeded 0 iterations"  # RuntimeError of max_iterations=0


def import_kecss():
    if not (SRC / "kecss" / "__init__.py").is_file():
        sys.exit(f"error: no kecss sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import kecss
    if Path(kecss.__file__).resolve().parent != SRC / "kecss":
        sys.exit(f"error: imported kecss from {kecss.__file__}, not from {SRC}")
    return kecss


kecss = import_kecss()

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


# -- independent output check --------------------------------------------------

def guarantee(mode: str, k: int) -> tuple[int, Fraction]:
    """(connectivity target, cost factor vs the LP value), from PAPER.md."""
    odd = k % 2
    if mode in ("ecss", "md-ecss"):
        return k - 2 - odd, Fraction(1)
    if mode == "ecss15":
        return k - 1, Fraction(3, 2)
    return k, 1 + Fraction(3 if odd else 2, k)  # ecsm, md-ecsm


def check(op, sol) -> list[str]:
    """Violations of the mode's guarantee, compared exactly."""
    graph, k = op.inst.graph, op.inst.k
    target, factor = guarantee(op.mode, k)
    mult = sol.multiplicity
    problems = []
    if any(not 0 <= e < graph.m or m < 0 for e, m in mult.items()):
        problems.append("edge id or multiplicity out of range")
        return problems
    if op.mode in SUBGRAPH_MODES and any(m > 1 for m in mult.values()):
        problems.append("multiplicity above 1 in a subgraph mode")
    conn = kecss.edge_connectivity(graph, mult)
    if conn < target or conn != sol.connectivity:
        problems.append(f"connectivity {conn} (reported {sol.connectivity}, "
                        f"target {target})")
    cost = graph.cost_of(mult)
    if cost != sol.cost or cost > factor * sol.lp_value:
        problems.append(f"cost {cost} (reported {sol.cost}) vs {factor} * LP "
                        f"{sol.lp_value}")
    if op.lp is not None and sol.lp_value != op.lp:
        problems.append(f"LP value {sol.lp_value}, expected {op.lp}")
    if op.mode.startswith("md-"):
        lower, upper = op.inst.degree_arrays()
        for v in range(1, graph.n + 1):
            hi = upper[v - 1] if op.mode == "md-ecss" else math.ceil(factor * upper[v - 1])
            deg = sum(m for e, m in mult.items() if v in (graph.edges[e].u, graph.edges[e].v))
            if not lower[v - 1] - 2 <= deg <= hi + 2:
                problems.append(f"degree {deg} of vertex {v} outside "
                                f"[{lower[v - 1] - 2}, {hi + 2}]")
    return problems


def canonical(op, sol, trace) -> str:
    """The solution and per-iteration trace, as hashed into the digest."""
    return json.dumps([
        op.label, str(sol.cost), str(sol.lp_value), sorted(sol.multiplicity.items()),
        [[str(r.lp_value), r.picked, r.frac_support] for r in trace.iterations]])


def solver_call(op):
    graph, k = op.inst.graph, op.inst.k
    if op.mode.startswith("md-"):
        lower, upper = op.inst.degree_arrays()
        fn = kecss.md_kecss if op.mode == "md-ecss" else kecss.md_kecsm
        return fn, (graph, k, lower, upper)
    fn = {"ecss": kecss.kecss, "ecss15": kecss.bicriteria, "ecsm": kecss.kecsm}[op.mode]
    return fn, (graph, k)


# -- the closed loop -------------------------------------------------------------

class Result:
    __slots__ = ("index", "seconds", "scale", "error", "problems", "canonical",
                 "ratio", "iterations", "first_frac")

    def __init__(self, index: int):
        self.index = index
        self.seconds = 0.0  # wall time, without the clock's own samples
        self.scale = 1.0  # reference speed over the speed while it ran
        self.error: str | None = None
        self.problems: list[str] = []
        self.canonical = ""
        self.ratio: Fraction | None = None
        self.iterations = 0
        self.first_frac = 0


def execute(op, index: int, call, clock: SpeedClock, tracer: Tracer | None) -> Result:
    fn, args = call
    res = Result(index)
    traced = tracer is not None and tracer.enabled
    gc.collect()
    first_sample = len(clock.samples) - 1
    clock.start()
    start = clock.now()
    try:
        sol, trace = tracer.run_op(index, fn, *args) if traced else fn(*args)
    except Exception as exc:  # recorded by class name; the run goes on
        res.error = type(exc).__name__
        res.canonical = json.dumps([op.label, "error", res.error])
        return res
    finally:
        res.seconds = clock.now() - start
        clock.stop()
        clock.sample()
        res.scale = clock.scale_since(first_sample)
    if traced:
        tracer.enabled = False
    try:
        res.problems = check(op, sol)
    except Exception as exc:
        res.problems = [f"check raised {type(exc).__name__}: {exc}"]
    if traced:
        tracer.enabled = True
    res.canonical = canonical(op, sol, trace)
    if sol.lp_value > 0:
        res.ratio = sol.cost / sol.lp_value
    res.iterations = len(trace.iterations)
    res.first_frac = trace.iterations[0].frac_support if trace.iterations else 0
    return res


def import_seconds() -> float:
    """Time to import kecss in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import kecss; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                                capture_output=True, text=True, timeout=60).stdout)


def setup(name: str, seed: int, clock: SpeedClock):
    """Returns the workload, its solver calls, `setup_s` (the median of
    SETUP_REPEATS fresh-interpreter imports plus the median of as many
    builds of the workload) and the speed scale it was measured at."""
    first_sample = len(clock.samples)
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        imports.append(import_seconds())
        start = clock.now()
        workload = WORKLOADS[name](seed)
        calls = [solver_call(op) for op in workload.ops]
        builds.append(clock.now() - start)
    clock.sample()
    scale = clock.scale_since(first_sample)
    setup_s = (statistics.median(imports) + statistics.median(builds)) * scale
    return workload, calls, setup_s, scale


def needs_residual_lp(call) -> bool:
    """Whether the solver needs a residual LP after the first LP: the same
    call capped at zero rounding iterations raises the cap error.  Any
    other outcome counts as no, so the timed loop reports it."""
    fn, args = call
    try:
        fn(*args, max_iterations=0)
    except RuntimeError as exc:
        return ITERATION_CAP in str(exc)
    except Exception:
        pass
    return False


def schedule(workload: Workload, calls, dropped: list[int]):
    """Operation indices in run order: the list, then the list again.
    With `single_lp`, each operation is screened, untimed, before it
    first runs, and the ones that need a residual LP are appended to
    `dropped` instead."""
    kept = []
    for idx, call in enumerate(calls):
        if workload.single_lp and needs_residual_lp(call):
            dropped.append(idx)
            continue
        kept.append(idx)
        yield idx
    while kept:
        yield from kept


def loop(workload, calls, seconds: float, clock: SpeedClock,
         tracer: Tracer | None, dropped: list[int]) -> list[Result]:
    """Run until the deadline, and at least the prefix.  A traced run
    traces the prefix, then repeats it untraced, at least one operation,
    for the overhead estimate."""
    ops, prefix = workload.ops, workload.prefix
    order = schedule(workload, calls, dropped)
    results = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < prefix + (tracer is not None) or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.enabled = False
        if tracer is None or i < prefix:
            idx = next(order)
        else:
            idx = results[i % prefix].index
        if tracer is not None:
            tracer.enabled = i < prefix
        results.append(execute(ops[idx], idx, calls[idx], clock, tracer))
        i += 1
    if tracer is not None:
        tracer.enabled = False
    return results


# -- metrics ---------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def geometric_mean(ratios: list[Fraction]) -> float:
    return math.exp(math.fsum(math.log(r) for r in ratios) / len(ratios))


def end_to_end(results, first, setup_s) -> dict[str, tuple[float, str]]:
    """Times are in seconds at the reference speed (see speed.py)."""
    ok = [r for r in results if r.error is None and not r.problems]
    times = [r.seconds * r.scale for r in ok] or [0.0]
    value, pct = tail(times)
    raw = [r.seconds for r in ok] or [0.0]
    print(f"solve_s_tail is p{pct:.1f} of {len(ok)} operations")
    print(f"wall time as measured: p50 {statistics.median(raw):.4f} s, "
          f"tail {tail(raw)[0]:.4f} s, speed factor p50 "
          f"{statistics.median(r.scale for r in results):.3f}")
    ratios = [r.ratio for r in first if r.ratio]
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (len(ok) / math.fsum(r.seconds * r.scale for r in results), "1/s"),
        "solve_s_p50": (statistics.median(times), "s"),
        "solve_s_tail": (value, "s"),
        "ok_frac": (len(ok) / len(results), "fraction"),
        "cost_over_lp": (geometric_mean(ratios) if ratios else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, results, first, setup_scale: float,
              probe_failed: int, dropped: int) -> dict[str, tuple[float, str]]:
    """Counts per prefix; self times per operation, at the reference speed."""
    n_ops = len(first)
    calls, self_s, counts = Counter(), Counter(), Counter()
    for r in first:
        stats = tracer.stats[r.index]
        calls.update(stats.calls)
        counts.update(stats.counts)
        for name, value in stats.self_s.items():
            self_s[name] += value * r.scale

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0) / n_ops

    def n(name):
        return counts.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    parse_s = tracer.stats[None].self_s["instances.parse_instance"] * setup_scale \
        / SETUP_REPEATS
    untraced = {}
    for r in results[n_ops:]:
        untraced.setdefault(r.index, r.seconds * r.scale)
    paired = [r for r in first if r.index in untraced]
    overhead = ratio(math.fsum(r.seconds * r.scale for r in paired),
                     math.fsum(untraced[r.index] for r in paired)) - 1
    certify_self = math.fsum(v for k, v in self_s.items() if k.startswith("certify.")) / n_ops
    m = {
        "lp.solve.calls": (c("lp.solve"), "count"),
        "lp.solve.self_s": (s("lp.solve"), "s/op"),
        "lp.solve.rows_mean": (ratio(n("lp.solve.rows"), c("lp.solve")), "count"),
        "lp.solve_lazy.calls": (c("lp.solve_lazy"), "count"),
        "lp.solve_lazy.self_s": (s("lp.solve_lazy"), "s/op"),
        "lp.solve_lazy.rounds_mean": (ratio(n("lp.solve_lazy.rounds"), c("lp.solve_lazy")),
                                      "count"),
        "lp.solve_lazy.rows_added": (n("lp.solve_lazy.rows_added"), "count"),
        "graphs.cuts_below.calls": (c("graphs.cuts_below"), "count"),
        "graphs.cuts_below.self_s": (s("graphs.cuts_below"), "s/op"),
        "graphs.cuts_below.cuts_returned": (n("graphs.cuts_below.cuts_returned"), "count"),
        "graphs.min_cut.calls": (c("graphs.min_cut"), "count"),
        "graphs.min_cut.self_s": (s("graphs.min_cut"), "s/op"),
        "separation.separate_fast.calls": (c("separation.separate_fast"), "count"),
        "separation.separate_fast.self_s": (s("separation.separate_fast"), "s/op"),
        "separation.separate_fast.violated_frac": (
            ratio(n("separation.separate_fast.violated"), c("separation.separate_fast")),
            "fraction"),
        "separation.enum_yield": (ratio(n("separation.enum_violated"),
                                        n("graphs.cuts_below.cuts_returned")), "fraction"),
        "requirements.in_active_family.calls": (c("requirements.in_active_family"), "count"),
        "certify.self_s": (certify_self, "s/op"),
        "certify.extract_laminar.calls": (c("certify.extract_laminar"), "count"),
        "certify.extract_laminar.self_s": (s("certify.extract_laminar"), "s/op"),
        "certify.tight_sets.calls": (c("certify.tight_sets"), "count"),
        "certify.tight_sets.self_s": (s("certify.tight_sets"), "s/op"),
        "certify.recheck_vertex.self_s": (s("certify.recheck_vertex"), "s/op"),
        "certify.verify.self_s": (s("certify.verify"), "s/op"),
        "certify.uncross_witness.calls": (c("certify.uncross_witness"), "count"),
        "certify.uncross_witness.self_s": (s("certify.uncross_witness"), "s/op"),
        "rounding.self_s": (s("rounding"), "s/op"),
        "rounding.iterations": (sum(r.iterations for r in first if r.error is None), "count"),
        "rounding.multi_iter_ops": (sum(1 for r in first
                                        if r.error is None and r.iterations > 1), "count"),
        "rounding.first_frac_support": (
            ratio(sum(r.first_frac for r in first if r.error is None),
                  sum(1 for r in first if r.error is None)), "count"),
        "instances.parse_instance.self_s": (parse_s, "s"),
        "trace.overhead_frac": (overhead, "fraction"),
        "probe.failed": (probe_failed, "count"),
        "single_lp.dropped": (dropped, "count"),
    }
    return m


# -- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    clock = SpeedClock()
    tracer = None
    if args.trace:
        tracer = Tracer(clock.now)
        tracer.install()
        tracer.enabled = True
    workload, calls, setup_s, setup_scale = setup(args.workload, args.seed, clock)
    if tracer is not None:
        tracer.enabled = False
    ops = workload.ops

    dropped: list[int] = []
    results = loop(workload, calls, args.seconds, clock, tracer, dropped)
    for idx in dropped:
        print(f"dropped {ops[idx].label}: needs a residual LP")
    first = results[:workload.prefix]
    digest = hashlib.sha256("\n".join(r.canonical for r in first).encode()).hexdigest()

    correct = True
    first_output = {}
    for r in results:
        first_output.setdefault(r.index, r.canonical)
        if r.error is not None or r.problems:
            correct = False
            print(f"FAILED {ops[r.index].label}: {r.error or '; '.join(r.problems)}")
        elif r.canonical != first_output[r.index]:
            correct = False
            print(f"NONDETERMINISTIC {ops[r.index].label}: output differs between runs")

    probe_failed = 0
    for probe in workload.probes if tracer is not None else ():
        res = execute(probe, -1, solver_call(probe), clock, None)
        probe_failed += int(res.error is not None or bool(res.problems))
        print(f"probe {probe.label} (n={probe.inst.graph.n}): "
              f"{res.error or '; '.join(res.problems) or 'solved'} "
              f"in {res.seconds * res.scale:.3f} s")

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations listed, "
          f"prefix {workload.prefix}, {len(results)} run")
    if tracer is None:
        metrics = end_to_end(results, first, setup_s)
    else:
        metrics = per_layer(tracer, results, first, setup_scale, probe_failed,
                            len(dropped))
    print(f"digest {args.workload} seed {args.seed} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.jsonl")
    failed = sum(1 for r in results if r.error is not None or r.problems)
    summary = {
        "correct": correct, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(summary, digest=digest, operations=[
        {"label": ops[r.index].label, "seconds": r.seconds, "scale": r.scale,
         "error": r.error, "problems": r.problems} for r in results])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
