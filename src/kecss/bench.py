"""Benchmark harness: cost-vs-connectivity tradeoff data over a corpus.

One CSV row per (instance, mode).  The cost/LP ratio is compared against
the mode's guarantee exactly (rationals) before decimal rendering;
per-instance failures (unreadable or undecodable files, parse errors, a
k below the mode's minimum, fewer than 2 vertices, infeasible instances,
certification failures, and the internal faults that `kecss run` exits 5
on: simplex pivot limit, lazy-loop row cap, rounding iteration cap) are
recorded as the row's status and the harness keeps going.
"""

from __future__ import annotations

import csv
import io
import time
from fractions import Fraction
from pathlib import Path

from .certify import CertificationError
from .instances import ParseError, parse_instance
from .lp import LpInfeasible
from .rounding import MODES, InfeasibleInstance, frac_str

CSV_HEADER = ("instance", "mode", "n", "m", "k", "lp", "cost", "ratio", "bound",
              "within_bound", "connectivity", "iterations", "seconds", "status")


def _ratio_decimal(num: Fraction, digits: int = 6) -> str:
    scaled = num * 10 ** digits
    return f"{scaled.numerator / scaled.denominator / 10 ** digits:.{digits}f}"


def _first_line(exc: Exception) -> str:
    return str(exc).partition("\n")[0]


def bench_row(path: Path, mode: str) -> list[str]:
    """The CSV fields of one (instance, mode) run; a failed run fills the
    instance columns it knows and the status."""
    name = path.name
    try:
        inst = parse_instance(path.read_text(encoding="utf-8"))
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        return [name, mode] + [""] * 11 + [f"parse-error: {exc}"]
    n, m, k = inst.graph.n, inst.graph.m, inst.k
    head = [name, mode, str(n), str(m), str(k)]
    entry = MODES[mode]
    refusal = entry.refusal(inst)
    if refusal is not None:
        return head + [""] * 8 + [refusal]
    start = time.perf_counter()
    try:
        sol, trace = entry.run(inst)
    except (InfeasibleInstance, LpInfeasible):
        return head + [""] * 8 + ["infeasible"]
    except CertificationError as exc:
        return head + [""] * 8 + [f"certification-failure: {_first_line(exc)}"]
    except RuntimeError as exc:
        return head + [""] * 8 + [f"aborted: {_first_line(exc)}"]
    seconds = time.perf_counter() - start
    _, factor = entry.guarantee(inst.graph, k)
    ratio = sol.cost / sol.lp_value if sol.lp_value else Fraction(0)
    within = ratio <= factor  # exact rational comparison
    return head + [
        frac_str(sol.lp_value), frac_str(sol.cost),
        _ratio_decimal(ratio), frac_str(factor), str(within).lower(),
        str(sol.connectivity), str(len(trace.iterations)),
        f"{seconds:.3f}", "ok",
    ]


def bench_directory(directory: Path, modes: list[str]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for path in sorted(directory.glob("*")):
        if not path.is_file():
            continue
        for mode in modes:
            writer.writerow(bench_row(path, mode))
    return out.getvalue()
