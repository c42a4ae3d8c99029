"""Pinned `IterationRecord` points: the golden digests cover the solution
JSON and trace JSONL, which leave out each iteration's LP point.

`POINTS_DIGEST` is one sha256 over every golden instance, mode and
certification setting's per-iteration (index, point items, frac_support,
picked), or the exception text when the solver raises.  A change to the
rounding engine that alters a recorded point fails here.  The solvers
take the LP point as integers: with `BasicOptimum.point` raising, every
golden output and point must still come out the same.
"""

import hashlib
import warnings

from kecss import lp
from test_golden import GOLDEN, INSTANCES, MODE_NAMES, MODES_OF, _digest, _solve

POINTS_DIGEST = "20252a459b96ebb06958204c2231aedd87addd259d50b0dffeab58f6ff430fdc"


def _points_text() -> str:
    lines = []
    for name in sorted(INSTANCES):
        inst = INSTANCES[name]()
        for mode in MODES_OF.get(name, MODE_NAMES):
            for cert in (True, False):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # k=2 returns the empty subgraph
                    try:
                        _, trace = _solve(mode, inst, cert)
                        body = repr([(rec.index, list(rec.point.items()),
                                      rec.frac_support, rec.picked)
                                     for rec in trace.iterations])
                    except Exception as exc:
                        body = f"{type(exc).__name__}: {exc}"
                lines.append(f"{name} {mode} {cert} {body}")
    return "\n".join(lines)


def test_iteration_points_unchanged():
    assert hashlib.sha256(_points_text().encode()).hexdigest() == POINTS_DIGEST


def test_no_solver_reads_the_fraction_point(monkeypatch):
    def refuse(self):
        raise AssertionError("BasicOptimum.point was read")

    monkeypatch.setattr(lp.BasicOptimum, "point", property(refuse))
    insts = {name: make() for name, make in INSTANCES.items()}
    assert {key: _digest(key[1], insts[key[0]], key[2]) for key in GOLDEN} == GOLDEN
    assert hashlib.sha256(_points_text().encode()).hexdigest() == POINTS_DIGEST
