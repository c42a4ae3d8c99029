"""Layer spans recorded from outside the package.

`Tracer.install` replaces each traced public function of `kecss` with a
timing wrapper in every `kecss` module that holds a reference to it, so
a call is traced whichever module looks the name up.  Each span keeps
its name, start, end, parent span and operation id in memory; `dump`
writes them out once the run is over.  A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _count_rows(counts, args, result, frame):
    counts["lp.solve.rows"] += len(args[0].rows)


def _count_lazy(counts, args, result, frame):
    counts["lp.solve_lazy.rounds"] += result.separation_calls
    counts["lp.solve_lazy.rows_added"] += len(result.rows) - len(args[0].rows)


def _count_cuts(counts, args, result, frame):
    counts["graphs.cuts_below.cuts_returned"] += len(result)


def _count_verdict(counts, args, result, frame):
    from kecss.separation import Violated
    if isinstance(result, Violated):
        counts["separation.separate_fast.violated"] += 1
        if "graphs.cuts_below" in frame.children:
            counts["separation.enum_violated"] += 1


# span name -> (defining module, attribute, modules that must look it up,
#               extra counts taken from the call's arguments and result)
TRACED = {
    "lp.solve": ("kecss.lp", "solve", ("kecss.lp",), _count_rows),
    "lp.solve_lazy": ("kecss.lp", "solve_lazy", ("kecss.lp",), _count_lazy),
    "graphs.min_cut": ("kecss.graphs", "min_cut",
                       ("kecss.graphs", "kecss.separation", "kecss.rounding",
                        "kecss.certify"), None),
    "graphs.cuts_below": ("kecss.graphs", "cuts_below", ("kecss.separation",),
                          _count_cuts),
    "separation.separate_fast": ("kecss.separation", "separate_fast",
                                 ("kecss.rounding",), _count_verdict),
    "certify.extract_laminar": ("kecss.certify", "extract_laminar",
                                ("kecss.certify",), None),
    "certify.small_boundary_set": ("kecss.certify", "small_boundary_set",
                                   ("kecss.certify",), None),
    "certify.tight_sets": ("kecss.certify", "tight_sets", ("kecss.certify",), None),
    "certify.uncross_witness": ("kecss.certify", "uncross_witness",
                                ("kecss.certify",), None),
    "certify.recheck_vertex": ("kecss.certify", "recheck_vertex",
                               ("kecss.certify",), None),
    "certify.verify": ("kecss.certify", "verify", ("kecss.certify",), None),
    "instances.parse_instance": ("kecss.instances", "parse_instance",
                                 ("kecss.instances",), None),
}
# a method, looked up on its class by every caller
TRACED_METHODS = {
    "requirements.in_active_family": ("kecss.requirements", "Requirement",
                                      "in_active_family"),
}


class _Frame:
    __slots__ = ("index", "name", "start", "child_time", "children")

    def __init__(self, index: int, name: str, start: float):
        self.index = index
        self.name = name
        self.start = start
        self.child_time = 0.0
        self.children: set[str] = set()


class OpStats:
    """Calls, self seconds and extra counts of one operation, by span name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self, now=time.perf_counter):
        self._now = now
        self.enabled = False
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.stats: dict[object, OpStats] = {}
        self._stack: list[_Frame] = []
        self._op: object = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name; raise if one is missing where required."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "kecss" or name.startswith("kecss.")}
        for span, (home, attr, sites, count) in TRACED.items():
            original = getattr(package[home], attr, None)
            if original is None:
                raise RuntimeError(f"traced name {home}.{attr} is missing")
            for site in sites:
                if getattr(package.get(site), attr, None) is not original:
                    raise RuntimeError(
                        f"{site} no longer looks up {home}.{attr}; "
                        "update the traced sites")
            wrapper = self._wrap(span, original, count)
            for mod in package.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
        for span, (home, cls_name, attr) in TRACED_METHODS.items():
            cls = getattr(package[home], cls_name, None)
            original = getattr(cls, attr, None)
            if original is None:
                raise RuntimeError(f"traced method {home}.{cls_name}.{attr} is missing")
            setattr(cls, attr, self._wrap(span, original, None))

    def _wrap(self, span: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if count is not None:
                count(tracer._current().counts, args, result, frame)
            return result
        return wrapper

    # -- spans ---------------------------------------------------------------

    def _current(self) -> OpStats:
        stats = self.stats.get(self._op)
        if stats is None:
            stats = self.stats[self._op] = OpStats()
        return stats

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(len(self.spans), name, 0.0)
        self.spans.append(None)  # filled in on exit, keeps start order
        self._stack.append(frame)
        frame.start = self._now()
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = self._now()
        self._stack.pop()
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_time += duration
            parent.children.add(frame.name)
        self.spans[frame.index] = (frame.name, frame.start, end,
                                   parent.index if parent else -1, self._op)
        stats = self._current()
        stats.calls[frame.name] += 1
        stats.self_s[frame.name] += duration - frame.child_time

    def run_op(self, op_id, fn, *args, **kwargs):
        """Call one operation as a root span named `rounding`."""
        self._op = op_id
        frame = self._enter("rounding")
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)
            self._op = None

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
