"""Iterative LP relaxation for edge-connectivity network design.

One engine runs every procedure: solve the residual cut LP, pick the
edges at or above a cutoff, drop the sets whose residual falls below a
threshold, and repeat.  A `_LoopSpec` fixes what differs:

  exact        threshold 3, pick x=1 edges: (k-2)-edge-connected output
               at cost at most the first LP value (kecss_even).
  bicriteria   threshold 2, pick x >= 2/3 edges: (k-1)-edge-connected
               output at cost at most 1.5 times the LP.
  multigraph   the caller solves the first LP, the unbounded cut LP,
               and hands it in; it is floor-extracted, and its
               fractional remainder is rounded like `exact` (kecsm).

Given degree bounds (md_kecss, md_kecsm, both on the multigraph spec),
degree rows ride along; vertices leave the constrained set once their
fractional degree (or its complement) is at most 2.

The first LP is the feasibility test.  Without degree rows it is
feasible exactly when the edge connectivity reaches the k of its cut
rows, so one min cut, after an "infeasible" verdict only, tells an
infeasible instance from an internal fault (`_below`).  A later LP is
feasible, as the last point less its picks satisfies it: there,
"infeasible" is an internal fault.

The guarantees need only an optimal vertex of each residual LP.  When
every row is a >= cut row (the exact, bicriteria and multigraph
residual LPs), raising a zero-cost edge to 1 breaks no row and costs
nothing, so those LPs fix their zero-cost edges at 1 and the simplex
leaves them out of its tableau; a degree-bounded LP keeps them free.

`MODES` is the one table of run modes: each mode's solver, its solution
family, its least k, and its guarantee (graph, k) -> (connectivity
target, cost factor over the recorded LP value) from the PAPER.md table.
`Mode.check` alone takes a mode's guarantee, degree window and subgraph
rule to `certify.verify`, for every solver and `kecss run --mode
certify`.  Every run emits a per-iteration trace, asserts the progress
and cost-ledger invariants at runtime, and (by default at desk scale)
certifies the structural guarantees of every extreme point it produces.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

from . import certify as certmod
from . import lp as lpmod
from .graphs import Multigraph, ScaledPoint, crossing, edge_connectivity, min_cut, vertices
from .requirements import DegreeState, Requirement
from .separation import Feasible, Violated, separate_fast

if TYPE_CHECKING:  # annotation only: importing kecss does not load the file format
    from .instances import Instance

CERTIFY_VERTEX_LIMIT = 12
WITNESS_CAP = 64

Bounds = tuple[Sequence[int], Sequence[int]]  # degree (lower, upper) per vertex 1..n


class InfeasibleInstance(Exception):
    """The instance admits no fractional solution for the requested mode."""


@dataclass
class Solution:
    mode: str  # the run mode that produced it, a key of MODES ("ecss15", "md-ecsm", ...)
    k: int
    multiplicity: dict[int, int]
    cost: Fraction
    connectivity: int
    lp_value: Fraction

    def __post_init__(self):
        if MODES[self.mode].family == "ecss" and any(m not in (0, 1)
                                       for m in self.multiplicity.values()):
            raise ValueError("subgraph mode admits multiplicities 0/1 only")


@dataclass
class IterationRecord:
    index: int
    lp_value: Fraction
    lp_point: ScaledPoint = field(repr=False)  # the iteration's LP point by edge id
    picked: list[int]
    frac_support: int
    dropped_witnesses: list[int]  # vertex masks
    basis_size: int | None = None
    small_member: int | None = None  # vertex mask
    witness_pairs_checked: int = 0
    lazy_rounds: int | None = None  # oracle rounds of the lazy loop, not cuts
    lp_rows: int | None = None      # rows of the final relaxation

    @cached_property
    def point(self) -> dict[int, Fraction]:
        """The LP point's support as Fractions by edge id, built on first use."""
        denom = self.lp_point.denom
        return {e: Fraction(w, denom) for e, _, w in self.lp_point.edges}


@dataclass
class RoundingTrace:
    lp0: Fraction
    iterations: list[IterationRecord] = field(default_factory=list)
    certified: bool = False


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _check(graph: Multigraph, k: int, min_k: int, *, even: bool = False,
           bounds: Bounds | None = None) -> None:
    """The solvers' preconditions: degree bounds, least k and parity, n >= 2."""
    if bounds is not None:
        lower, upper = bounds
        if len(lower) != graph.n or len(upper) != graph.n:
            raise ValueError("degree bounds must cover all vertices")
        for v in range(graph.n):
            if type(lower[v]) is not int or type(upper[v]) is not int:
                raise ValueError(f"vertex {v + 1} has a degree bound that is not an int")
            if lower[v] > upper[v]:
                raise ValueError(f"vertex {v + 1} has lower bound above upper bound")
            if lower[v] < 0 or upper[v] < 0:
                raise ValueError(f"vertex {v + 1} has a negative degree bound")
    if k < min_k or (even and k % 2):
        raise ValueError(f"k must be {'even and ' if even else ''}at least {min_k}")
    if graph.n < 2:
        raise ValueError("need at least 2 vertices")


def _below(graph: Multigraph, need: int) -> InfeasibleInstance | None:
    """Read an infeasible first cut LP whose cut rows ask for `need`: it is
    feasible exactly when the edge connectivity reaches `need`, so one min
    cut tells an infeasible instance (returned) from a fault (None)."""
    conn = edge_connectivity(graph)
    if conn < need:
        return InfeasibleInstance(f"edge connectivity {conn} is below {need}; "
                                  "the LP is infeasible")
    return None


# -- LP rows and the two lazy LPs ---------------------------------------------

# An LP's variables are its working edges in ascending id order, so the
# support positions of `ones`, the 0/1 point on the working edges, are the
# variable indices, and a boundary bitset of it is a row's coefficients.

def _cut_row(ones: ScaledPoint, side: int, rhs: int) -> lpmod.LpRow:
    return lpmod.LpRow(lpmod.indicator(ones.boundary_bits(side)), lpmod.GE, rhs)


def _degree_rows(ones: ScaledPoint, lower: Sequence[int], upper: Sequence[int],
                 active: int) -> list[lpmod.LpRow]:
    """The degree rows of the vertices in the mask `active`, by vertex."""
    rows = []
    for v in vertices(active):
        coeffs = lpmod.indicator(ones.boundary_bits(1 << (v - 1)))
        if lower[v - 1] >= 1:
            rows.append(lpmod.LpRow(coeffs, lpmod.GE, lower[v - 1]))
        rows.append(lpmod.LpRow(coeffs, lpmod.LE, upper[v - 1]))
    return rows


def _degree_active(point: ScaledPoint, active: int) -> int:
    """The mask of the vertices of `active` whose degree rows stay
    enforced: fractional degree over the point's fractional support
    edges, or its complement, above 2."""
    denom, weights = point.denom, point.weights
    frac = [e for e, _, w in point.edges if w < denom]
    still = 0
    for v in vertices(active):
        meeting = crossing(point.graph, 1 << (v - 1), frac)
        fdeg = sum(weights[e] for e in meeting)
        if fdeg > 2 * denom or (len(meeting) - 2) * denom > fdeg:
            still |= 1 << (v - 1)
    return still


def _lazy_solve(graph: Multigraph, objective: list, lower: list, upper: list,
                rows: list[lpmod.LpRow], oracle, recheck: bool,
                start: lpmod.LazyResult | None = None) -> lpmod.LazyResult:
    """solve_lazy under the row cap, from `start` when given (see
    lp.solve_lazy); with `recheck`, re-verify the vertex."""
    inst = lpmod.instance(objective, lower, upper, rows)
    cap = 10 * (len(objective) + 2 ** min(20, graph.n))
    result = lpmod.solve_lazy(inst, oracle, max_added=cap, start=start)
    if recheck:
        certmod.recheck_vertex(
            lpmod.LpInstance(inst.objective, inst.lower, inst.upper,
                             tuple(result.rows)), result.optimum)
    return result


def _edge_point(graph: Multigraph, working: Sequence[int], nums: Sequence[int],
                denom: int) -> ScaledPoint:
    """An LP point over the working edges (nums / denom, one per working
    edge), as a point over edge ids."""
    weights = [0] * graph.m
    for e, w in zip(working, nums):
        weights[e] = w
    return ScaledPoint(graph, weights, denom)


def _solve_residual(graph: Multigraph, req: Requirement, working: list[int],
                    carry: set[int], recheck: bool) -> lpmod.LazyResult:
    """Solve the residual LP over the working edges (ascending ids, one
    variable each) by lazy separation.

    Without degree rows every row is a >= cut row with nonnegative
    coefficients, so raising a zero-cost edge to 1 keeps every row
    satisfied at no cost: the face x_e = 1 of each zero-cost edge holds
    an optimal vertex, a vertex of the whole LP too.  Such an LP (ecss,
    ecss15 and the kecsm residual LPs) fixes its zero-cost edges at 1,
    and the simplex keeps them out of its tableau.  A degree-bounded LP
    keeps them free: its <= rows may hold one below 1."""
    if any(a >= b for a, b in zip(working, working[1:])):
        raise RuntimeError("working edge ids do not ascend")
    ones = _edge_point(graph, working, [1] * len(working), 1)
    state = req.degree
    rows = [] if state is None else _degree_rows(ones, state.lower, state.upper,
                                                 state.active)
    # the active singletons, then the active cuts carried from earlier LPs
    singletons = [1 << v for v in range(graph.n)]
    carried = sorted(carry.difference(singletons), key=vertices)
    for side in singletons + carried:
        fres = req.residual(side)
        if fres >= req.threshold:
            rows.append(_cut_row(ones, side, fres))

    def oracle(nums: list[int], denom: int) -> list[lpmod.LpRow]:
        verdict = separate_fast(_edge_point(graph, working, nums, denom), req)
        if isinstance(verdict, Feasible):
            return []
        if not isinstance(verdict, Violated):
            raise RuntimeError(f"separation returned {verdict!r}")
        carry.update(cut.side for cut in verdict.cuts)
        return [_cut_row(ones, cut.side, cut.requirement) for cut in verdict.cuts]

    costs = [graph.edges[e].cost for e in working]
    lower = [1 if state is None and c == 0 else 0 for c in costs]
    return _lazy_solve(graph, costs, lower, [1] * len(working), rows, oracle, recheck)


def _solve_unbounded_cut_lp(graph: Multigraph, k: int, bounds: Bounds | None = None,
                            recheck: bool = False,
                            start: lpmod.LazyResult | None = None) -> lpmod.LazyResult:
    """First multigraph LP: x >= 0, all cut constraints via plain min-cut,
    and degree rows on every vertex when `bounds` are given.

    With `start`, a result of this LP at another k and other upper degree
    bounds (the same lower ones), the LP is that result's rows with the
    degree rows at these bounds and every cut row, the lazily added ones
    too, at k, solved from its tableau."""
    ones = ScaledPoint(graph, [1] * graph.m, 1)
    rows = [] if bounds is None else _degree_rows(ones, *bounds, (1 << graph.n) - 1)
    if start is None:
        rows += [_cut_row(ones, 1 << v, k) for v in range(graph.n)]
    else:
        rows += [lpmod.LpRow(r.coeffs, r.sense, k) for r in start.rows[len(rows):]]

    def oracle(weights: list[int], denom: int) -> list[lpmod.LpRow]:
        value, side = min_cut(graph, weights)
        if value >= k * denom:
            return []
        return [_cut_row(ones, side, k)]

    try:
        return _lazy_solve(graph, [e.cost for e in graph.edges], [0] * graph.m,
                           [None] * graph.m, rows, oracle, recheck, start)
    except RuntimeError as exc:  # a pivot limit or the lazy-row cap, before any point
        raise _aborted(str(exc), Requirement(graph, k)) from exc


def _certify_iteration(graph: Multigraph, req: Requirement, point: ScaledPoint,
                       picked_now: set[int], record: IterationRecord) -> list[int]:
    """Per-extreme-point structural checks: laminar basis, token bound,
    and an uncrossing witness for every weakly crossing pair of tight
    sets and their complements.  Returns the basis members for the
    caller's witness pool."""
    tight = certmod.tight_sets(point, req)
    basis = certmod.extract_laminar(point, req, tight)
    record.basis_size = basis.size()
    if basis.frac_edges:
        member = certmod.small_boundary_set(basis, point, req)
        record.small_member = member
        if req.threshold == 3 and member in basis.sets:
            # its fractional mass is at most 2, so integral picks must
            # nearly satisfy this still-active member
            picked_across = len(crossing(graph, member, picked_now))
            if req.residual(member) - picked_across > 2:
                raise certmod.CertificationError(
                    f"active member {vertices(member)} not nearly satisfied "
                    "after picking integral edges",
                    certmod.reproducer_dump(graph, req, point))
    full = (1 << graph.n) - 1
    members = [side for s in tight for side in (s, full ^ s)]
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a & b and a & ~b and b & ~a:  # weakly crossing
                certmod.uncross_witness(a, b, point, req)
                record.witness_pairs_checked += 1
    return basis.members()


# -- the engine ----------------------------------------------------------------

@dataclass(frozen=True)
class _LoopSpec:
    threshold: int
    pick_cutoff: Fraction          # pick x >= cutoff: weight >= ceil(cutoff*denom)
    keep_zero_edges: bool          # retain x=0 edges in the working set


_EXACT = _LoopSpec(3, Fraction(1), True)
_BICRITERIA = _LoopSpec(2, Fraction(2, 3), False)
_MULTIGRAPH = _LoopSpec(3, Fraction(1), False)  # also the degree-bounded loops


def _aborted(message: str, req: Requirement,
             trace: RoundingTrace | None = None) -> RuntimeError:
    """An internal fault (exit 5): `message`, then the reproducer dump of
    the trace's last recorded LP point, or of a zero point before any."""
    graph = req.graph
    last = (trace.iterations[-1].lp_point if trace is not None and trace.iterations
            else ScaledPoint(graph, [0] * graph.m, 1))
    return RuntimeError(f"{message}\n{certmod.reproducer_dump(graph, req, last)}")


def _certifying(graph: Multigraph, certify: bool | None) -> bool:
    """Whether a run certifies: by default only at desk scale."""
    return graph.n <= CERTIFY_VERTEX_LIMIT if certify is None else certify


def _round(graph: Multigraph, k: int, spec: _LoopSpec, bounds: Bounds | None,
           certify: bool | None, max_iterations: int | None,
           first_lp: lpmod.LazyResult | None = None
           ) -> tuple[ScaledPoint, RoundingTrace]:
    """Shared engine: solve residual LP, pick, drop, iterate.  A
    floor-first run (the multigraph procedures) hands in its first LP,
    solved with `recheck` as the run certifies; its integer part is
    picked before the loop.  The loop stops once no side is active: a
    side the witness-pool upkeep found active says it is not yet, and
    only otherwise is the picked multiset cut (`Requirement.active_empty`).
    Returns the picked multiset's point, with the last stop test's cut
    cached on it, and the trace.  An LP fault, an "infeasible" verdict
    the theory rules out among them, or the iteration cap raises
    RuntimeError, a reproducer dump after its first line."""
    certify_flag = _certifying(graph, certify)
    mult: dict[int, int] = {}
    working = list(range(graph.m))
    degree_active = None if bounds is None else (1 << graph.n) - 1
    trace = RoundingTrace(Fraction(0), certified=certify_flag)
    lp0: Fraction | None = None
    if first_lp is not None:
        first = first_lp.optimum
        split = [divmod(num, first.denom) for num in first.nums]
        mult = {e: whole for e, (whole, _) in enumerate(split) if whole}
        rests = [rest for _, rest in split]
        working = [e for e, rest in enumerate(rests) if rest]
        if degree_active is not None:
            degree_active = _degree_active(ScaledPoint(graph, rests, first.denom),
                                           degree_active)
        lp0 = trace.lp0 = first.value
        trace.iterations.append(IterationRecord(
            index=0, lp_value=first.value,
            lp_point=ScaledPoint(graph, first.nums, first.denom),
            picked=sorted(mult), frac_support=len(working), dropped_witnesses=[],
            lazy_rounds=first_lp.separation_calls, lp_rows=len(first_lp.rows)))

    carry: set[int] = set()
    # the sets whose activity we track across iterations, as vertex
    # masks: every singleton, every cut returned by the oracle, and
    # every laminar-basis member
    pool: set[int] = {1 << v for v in range(graph.n)}
    monitor: dict[int, int] = {}
    dropped: set[int] = set()
    cap = len(graph.edges) + (0 if bounds is None else graph.n) + 1
    if max_iterations is not None:
        cap = min(cap, max_iterations)
    iteration = 0

    def requirement() -> Requirement:
        state = None
        if degree_active is not None:
            picked = ScaledPoint(graph, [mult.get(e, 0) for e in range(graph.m)], 1)
            deg = [picked.cross(1 << (v - 1)) for v in range(1, graph.n + 1)]
            state = DegreeState(tuple(lo - d for lo, d in zip(bounds[0], deg)),
                                tuple(hi - d for hi, d in zip(bounds[1], deg)),
                                degree_active)
        return Requirement(graph, k, dict(mult), spec.threshold, state)

    req = requirement()
    known = None  # a side the last witness-pool upkeep found active
    while degree_active or not req.active_empty(known):
        iteration += 1
        if iteration > cap:
            raise _aborted(f"rounding exceeded {cap} iterations; state: |H|="
                           f"{sum(mult.values())}, working={len(working)}", req, trace)
        try:
            lazy = _solve_residual(graph, req, working, carry, certify_flag)
        except lpmod.LpInfeasible as exc:
            message = f"residual LP infeasible at iteration {iteration}: {exc}"
            if trace.iterations:  # the last point, less its picks, is feasible
                raise _aborted(message, req, trace) from exc
            if bounds is None:
                raise _below(graph, k) or _aborted(message, req, trace) from exc
            raise InfeasibleInstance(message) from exc
        except RuntimeError as exc:  # a pivot limit or the lazy-row cap
            raise _aborted(str(exc), req, trace) from exc
        opt = lazy.optimum
        point = _edge_point(graph, working, opt.nums, opt.denom)
        weights, denom = point.weights, point.denom
        cut = math.ceil(spec.pick_cutoff * denom)  # x_e >= cutoff iff weight >= cut
        if lp0 is None:
            lp0 = trace.lp0 = opt.value
        # cost ledger at the start of the iteration: each picked edge
        # costs c_e <= c_e * x_e / cutoff, so c(H) + lp / cutoff stays
        # at most lp0 / cutoff
        cost_now = graph.cost_of(mult)
        factor = 1 / spec.pick_cutoff
        if cost_now + factor * opt.value > factor * lp0:
            raise certmod.CertificationError(
                f"cost ledger violated: c(H)={cost_now} + "
                f"{factor}*{opt.value} > {factor}*{lp0}")
        picked_now = {e for e in working if weights[e] >= cut}
        record = IterationRecord(
            index=iteration, lp_value=opt.value, lp_point=point,
            picked=sorted(picked_now),
            frac_support=sum(1 for _, _, w in point.edges if w < denom),
            dropped_witnesses=[], lazy_rounds=lazy.separation_calls,
            lp_rows=len(lazy.rows))
        if certify_flag:
            pool.update(_certify_iteration(
                graph, req, point, {e for e in picked_now if weights[e] == denom},
                record))
        # progress: an edge is picked, or (degree mode) a vertex drops out
        for e in picked_now:
            mult[e] = mult.get(e, 0) + 1
        if spec.keep_zero_edges:
            working = [e for e in working if e not in picked_now]
        else:
            working = [e for e in working if 0 < weights[e] < cut]
        new_active = (None if degree_active is None
                      else _degree_active(point, degree_active))
        if not picked_now and (degree_active is None or new_active == degree_active):
            raise certmod.CertificationError(
                f"no progress in iteration {iteration}: nothing picked and "
                "no vertex left the degree-constrained set",
                certmod.reproducer_dump(graph, req, point))
        degree_active = new_active

        # witness-pool upkeep: residuals never increase, drops never revert
        new_req = requirement()
        pool.update(carry)
        known = None
        for side in sorted(pool, key=certmod.size_order):
            fres_new = new_req.residual(side)
            if side in monitor and fres_new > monitor[side]:
                raise certmod.CertificationError(
                    f"residual of {vertices(side)} increased "
                    f"{monitor[side]} -> {fres_new}")
            monitor[side] = fres_new
            was_active = req.residual(side) >= spec.threshold
            is_active = fres_new >= spec.threshold
            if is_active:
                known = side
            if side in dropped and is_active:
                raise certmod.CertificationError(
                    f"dropped set {vertices(side)} re-entered the active family")
            if was_active and not is_active:
                dropped.add(side)
                if len(record.dropped_witnesses) < WITNESS_CAP:
                    record.dropped_witnesses.append(side)
        trace.iterations.append(record)
        req = new_req
    return req.picked_point, trace


def _finish(graph: Multigraph, name: str, k: int, picked: ScaledPoint,
            lp_value: Fraction, bounds: Bounds | None = None) -> Solution:
    """Hold the picked multiset (a point over denominator 1) to the check
    of run mode `name` at k, the instance's degree `bounds` when given."""
    mult = {e: w for e, _, w in picked.edges}
    report = MODES[name].check(graph, k, mult, lp_value, bounds, picked)
    if not report.ok:
        raise certmod.CertificationError(
            "output fails verification: " + "; ".join(report.failures))
    return Solution(name, k, mult, report.cost, report.connectivity, lp_value)


# -- subgraph procedures -----------------------------------------------------

def _warn(message: str) -> None:
    """Warn at the first caller outside this package, whichever public
    entry point the call came through."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith("kecss."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def kecss_even(graph: Multigraph, k: int, *, certify: bool | None = None,
               max_iterations: int | None = None) -> tuple[Solution, RoundingTrace]:
    """(k-2)-edge-connected subgraph of cost at most the cut-LP optimum.

    k must be even.  k=2 returns the empty subgraph (vacuous guarantee):
    no cut reaches the activity threshold, so the loop solves no LP.
    """
    _check(graph, k, MODES["ecss"].min_k, even=True)
    if k == 2:
        _warn("k=2: returning the empty subgraph")
    picked, trace = _round(graph, k, _EXACT, None, certify, max_iterations)
    return _finish(graph, "ecss", k, picked, trace.lp0), trace


def kecss(graph: Multigraph, k: int, **kwargs) -> tuple[Solution, RoundingTrace]:
    """Even k runs directly; odd k runs with k-1 ((k-3)-connected output)."""
    _check(graph, k, MODES["ecss"].min_k)
    sol, trace = kecss_even(graph, k - k % 2, **kwargs)
    sol.k = k
    return sol, trace


def bicriteria(graph: Multigraph, k: int, *, certify: bool | None = None,
               max_iterations: int | None = None) -> tuple[Solution, RoundingTrace]:
    """(k-1)-edge-connected subgraph of cost at most 1.5 times the LP."""
    _check(graph, k, MODES["ecss15"].min_k)
    picked, trace = _round(graph, k, _BICRITERIA, None, certify, max_iterations)
    return _finish(graph, "ecss15", k, picked, trace.lp0), trace


# -- multigraph procedures ---------------------------------------------------

def approximation_factor(k: int) -> Fraction:
    """1 + 2/k for even k, 1 + 3/k for odd k."""
    return 1 + Fraction(2 if k % 2 == 0 else 3, k)


def _multigraph_run_k(k: int) -> int:
    """The multigraph procedures round at k+2 (even k) or k+3 (odd k)."""
    return k + 2 if k % 2 == 0 else k + 3


def kecsm(graph: Multigraph, k: int, *, certify: bool | None = None,
          max_iterations: int | None = None) -> tuple[Solution, RoundingTrace]:
    """k-edge-connected multigraph of cost at most (1+2/k) or (1+3/k)
    times the multigraph LP optimum at k: the unbounded cut LP at k' = k+2
    (even k) or k+3 (odd k), floor-extracted and rounded like `exact`,
    gives a (k'-2)-connected output of cost at most LP(k') = rho_k * LP(k)
    (that LP is homogeneous in k).  Its first LP is feasible exactly when
    the graph is connected."""
    _check(graph, k, MODES["ecsm"].min_k)
    run_k = _multigraph_run_k(k)
    try:
        first = _solve_unbounded_cut_lp(graph, run_k, recheck=_certifying(graph, certify))
    except lpmod.LpInfeasible as exc:
        raise _below(graph, 1) or _aborted(f"unbounded cut LP infeasible: {exc}",
                                           Requirement(graph, run_k)) from exc
    picked, trace = _round(graph, run_k, _MULTIGRAPH, None, certify, max_iterations, first)
    return _finish(graph, "ecsm", k, picked, Fraction(k, run_k) * trace.lp0), trace


# -- degree-bounded procedures -----------------------------------------------

def md_kecss(graph: Multigraph, k: int, lower: Sequence[int],
             upper: Sequence[int], *, certify: bool | None = None,
             max_iterations: int | None = None) -> tuple[Solution, RoundingTrace]:
    """Degree-bounded subgraph: (k-2)-connected for even k ((k-3) for odd),
    cost at most the LP, and every degree within +-2 of its window."""
    bounds = (list(lower), list(upper))
    _check(graph, k, MODES["md-ecss"].min_k, bounds=bounds)
    picked, trace = _round(graph, k - k % 2, _MULTIGRAPH, bounds, certify, max_iterations)
    return _finish(graph, "md-ecss", k, picked, trace.lp0, bounds), trace


def md_kecsm(graph: Multigraph, k: int, lower: Sequence[int],
             upper: Sequence[int], *, certify: bool | None = None,
             max_iterations: int | None = None) -> tuple[Solution, RoundingTrace]:
    """Degree-bounded multigraph: k-connected, cost at most rho_k times the
    LP, degrees in [l-2, ceil(rho_k*b) + 2].

    The scaled run uses integer degree caps ceil(rho_k * b): any feasible
    point of the original LP scales into them, so the cost chain
    c(H) <= LP(k') <= rho_k * LP(k) is exact.  The run's first LP, at
    k' = k+2 (even k) or k+3 (odd k) and these caps, is solved cold; the
    reference LP(k) is then read off its tableau: the same rows with the
    caps b and every cut row at k, re-optimised by the dual simplex and
    the min-cut oracle at k.  The first LP floor-extracts, then the
    degree-bounded loop finishes at k'.  An infeasible first or reference
    LP blames the degree windows only on a connected graph.
    """
    _check(graph, k, MODES["md-ecsm"].min_k, bounds=(lower, upper))
    run_k = _multigraph_run_k(k)
    scaled = (list(lower), [math.ceil(approximation_factor(k) * b) for b in upper])
    try:
        # for every x feasible at k and b, rho_k * x is feasible at k' and
        # the scaled caps (rho_k * k = k', and rho_k >= 1 keeps the lower
        # bounds), so an infeasible first LP means an infeasible reference
        first = _solve_unbounded_cut_lp(graph, run_k, scaled,
                                        recheck=_certifying(graph, certify))
        reference = _solve_unbounded_cut_lp(graph, k, (lower, upper),
                                            start=first).optimum.value
    except lpmod.LpInfeasible as exc:
        raise _below(graph, 1) or InfeasibleInstance(
            f"degree-bounded LP infeasible: {exc}") from exc
    picked, trace = _round(graph, run_k, _MULTIGRAPH, scaled, certify, max_iterations, first)
    return _finish(graph, "md-ecsm", k, picked, reference, (lower, upper)), trace


# -- the mode table ------------------------------------------------------------

@dataclass(frozen=True)
class Mode:
    """A run mode: its solver, its solution family ("ecss", multiplicities
    0/1, or "ecsm"), its least k, and its guarantee (graph, k) ->
    (connectivity target, cost factor over the recorded LP value)."""
    solver: Callable[..., tuple[Solution, RoundingTrace]]
    family: str
    min_k: int
    guarantee: Callable[[Multigraph, int], tuple[int, Fraction]]
    degree_bounded: bool = False

    def refusal(self, inst: Instance) -> str | None:
        """Why this mode does not take `inst` (a k below its least k, or
        fewer than 2 vertices), as a bench status; None when it does."""
        if inst.k < self.min_k:
            return f"invalid-k: needs k >= {self.min_k}"
        if inst.graph.n < 2:
            return "invalid-n: needs at least 2 vertices"
        return None

    def run(self, inst: Instance, **options) -> tuple[Solution, RoundingTrace]:
        """Solve `inst`; degree-bounded modes read its degree windows."""
        if self.degree_bounded:
            return self.solver(inst.graph, inst.k, *inst.degree_arrays(), **options)
        return self.solver(inst.graph, inst.k, **options)

    def check(self, graph: Multigraph, k: int, multiplicity: dict[int, int],
              lp_value: Fraction, bounds: Bounds | None = None,
              picked: ScaledPoint | None = None) -> certmod.VerifyReport:
        """Verify `multiplicity` against this mode's guarantee at k over
        `lp_value`, its family's subgraph rule and, for a degree-bounded
        mode given the instance's `bounds` (l, u), degrees in [l-2, u+2]
        (md-ecss) or [l-2, ceil(rho_k*u)+2] (md-ecsm): ceil(factor*u).
        `picked`, a run's picked multiset, lends `verify` its cached cut."""
        target, factor = self.guarantee(graph, k)
        window = None if bounds is None or not self.degree_bounded else {
            v: (lo - 2, math.ceil(factor * hi) + 2)
            for v, lo, hi in zip(range(1, graph.n + 1), *bounds)}
        return certmod.verify(graph, multiplicity, target, factor * lp_value, window,
                              ecss_mode=self.family == "ecss", picked=picked)


def _exact_cost(graph: Multigraph, k: int) -> tuple[int, Fraction]:
    """(k-2)-connected for even k, (k-3) for odd k, at cost at most the LP."""
    return k - 2 - k % 2, Fraction(1)


def _bicriteria_cost(graph: Multigraph, k: int) -> tuple[int, Fraction]:
    """(k-1)-connected at cost at most 3/2 times the LP, or 1 + 4/(3k)
    times it when every edge costs the same and that is smaller."""
    factor = Fraction(3, 2)
    if len({e.cost for e in graph.edges}) <= 1:
        factor = min(factor, 1 + Fraction(4, 3 * k))
    return k - 1, factor


def _multigraph(graph: Multigraph, k: int) -> tuple[int, Fraction]:
    return k, approximation_factor(k)


MODES: dict[str, Mode] = {
    "ecss": Mode(kecss, "ecss", 2, _exact_cost),
    "ecss15": Mode(bicriteria, "ecss", 2, _bicriteria_cost),
    "ecsm": Mode(kecsm, "ecsm", 1, _multigraph),
    "md-ecss": Mode(md_kecss, "ecss", 2, _exact_cost, degree_bounded=True),
    "md-ecsm": Mode(md_kecsm, "ecsm", 1, _multigraph, degree_bounded=True),
}
