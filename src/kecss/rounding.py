"""Iterative LP relaxation for edge-connectivity network design.

Four residual-rounding procedures share one loop engine:

  kecss_even   pick x=1 edges, drop sets once their residual falls below 3;
               the output is (k-2)-edge-connected at cost at most the
               first LP value.
  bicriteria   pick x >= 2/3 edges, drop below residual 2; output is
               (k-1)-edge-connected at cost at most 1.5 times the LP.
  kecsm_core   multigraph variant: floor-extract an unbounded first LP,
               then round the fractional remainder like kecss_even.
  md_kecss     degree-bounded variant: degree rows ride along, vertices
               leave the constrained set once their fractional degree (or
               its complement) is at most 2.

Wrappers handle odd k and the multigraph approximation factors.  Every
run emits a per-iteration trace, asserts the progress and cost-ledger
invariants at runtime, and (by default at desk scale) certifies the
structural guarantees of every extreme point it produces.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import certify as certmod
from . import lp as lpmod
from .graphs import Multigraph, edge_connectivity, min_cut
from .requirements import DegreeState, Requirement
from .separation import Feasible, Violated, separate_exact, separate_fast

CERTIFY_VERTEX_LIMIT = 12
WITNESS_CAP = 64
PAIR_FAMILY_CAP = 200
PAIR_SAMPLE = 200


class InfeasibleInstance(Exception):
    """The instance admits no fractional solution for the requested mode."""


@dataclass
class Solution:
    mode: str  # "ecss" or "ecsm"
    k: int
    multiplicity: dict[int, int]
    cost: Fraction
    connectivity: int
    lp_value: Fraction

    def __post_init__(self):
        if self.mode == "ecss" and any(m not in (0, 1)
                                       for m in self.multiplicity.values()):
            raise ValueError("subgraph mode admits multiplicities 0/1 only")


@dataclass
class IterationRecord:
    index: int
    lp_value: Fraction
    point: dict[int, Fraction]
    picked: list[int]
    frac_support: int
    dropped_witnesses: list[frozenset[int]]
    basis_size: int | None = None
    small_member: frozenset[int] | None = None
    witness_pairs_checked: int = 0
    lazy_rounds: int | None = None  # separation calls of the lazy loop
    lp_rows: int | None = None      # rows of the final relaxation


@dataclass
class RoundingTrace:
    lp0: Fraction
    iterations: list[IterationRecord] = field(default_factory=list)
    certified: bool = False


def _should_certify(flag: bool | None, graph: Multigraph) -> bool:
    return graph.n <= CERTIFY_VERTEX_LIMIT if flag is None else flag


def _cut_row(graph: Multigraph, side: frozenset[int], working: Sequence[int],
             var_of: Mapping[int, int], rhs: int) -> lpmod.LpRow:
    coeffs = {}
    for e in working:
        edge = graph.edges[e]
        if (edge.u in side) != (edge.v in side):
            coeffs[var_of[e]] = 1
    return lpmod.row(coeffs, lpmod.GE, rhs)


def _degree_rows(graph: Multigraph, working: Sequence[int],
                 var_of: Mapping[int, int], state: DegreeState) -> list[lpmod.LpRow]:
    rows = []
    for v in sorted(state.active):
        coeffs = {var_of[e]: 1 for e in working
                  if v in (graph.edges[e].u, graph.edges[e].v)}
        lo = state.lower[v - 1]
        if lo >= 1:
            rows.append(lpmod.row(coeffs, lpmod.GE, lo))
        rows.append(lpmod.row(coeffs, lpmod.LE, state.upper[v - 1]))
    return rows


def _solve_residual(graph: Multigraph, req: Requirement, working: list[int],
                    carry: set[frozenset[int]], exact_separation: bool,
                    recheck: bool) -> tuple[lpmod.LazyResult, dict[int, Fraction]]:
    """Solve the residual LP over the working edges by lazy separation."""
    var_of = {e: i for i, e in enumerate(working)}
    objective = [graph.edges[e].cost for e in working]
    lower = [Fraction(0)] * len(working)
    upper: list = [Fraction(1)] * len(working)

    rows: list[lpmod.LpRow] = []
    if req.degree is not None:
        rows.extend(_degree_rows(graph, working, var_of, req.degree))
    seeded: set[frozenset[int]] = set()
    for v in range(1, graph.n + 1):
        side = frozenset({v})
        fres = req.residual(side)
        if fres >= req.threshold:
            rows.append(_cut_row(graph, side, working, var_of, fres))
            seeded.add(side)
    for side in sorted(carry, key=lambda s: tuple(sorted(s))):
        if side in seeded:
            continue
        fres = req.residual(side)
        if fres >= req.threshold:
            rows.append(_cut_row(graph, side, working, var_of, fres))

    separate = separate_exact if exact_separation else separate_fast

    def oracle(point: list[Fraction]) -> list[lpmod.LpRow]:
        x = {e: point[var_of[e]] for e in working}
        verdict = separate(x, req)
        if isinstance(verdict, Feasible):
            return []
        if not isinstance(verdict, Violated):
            raise RuntimeError(f"separation returned {verdict!r}")
        carry.add(verdict.side)
        return [_cut_row(graph, verdict.side, working, var_of,
                         verdict.requirement)]

    inst = lpmod.instance(objective, lower, upper, rows)
    cap = 10 * (len(working) + 2 ** min(20, graph.n))
    result = lpmod.solve_lazy(inst, oracle, max_added=cap)
    if recheck:
        certmod.recheck_vertex(
            lpmod.LpInstance(inst.objective, inst.lower, inst.upper,
                             tuple(result.rows)), result.optimum)
    x = {e: result.optimum.point[var_of[e]] for e in working}
    return result, x


def _certify_iteration(graph: Multigraph, req: Requirement,
                       x: dict[int, Fraction], picked_now: set[int],
                       rng: random.Random,
                       record: IterationRecord) -> list[frozenset[int]]:
    """Per-extreme-point structural checks: laminar basis, token bound,
    uncrossing witnesses on sampled weakly-crossing tight pairs.
    Returns the basis members for the caller's witness pool."""
    point = certmod.ScaledPoint(graph, x)
    tight = certmod.tight_sets(x, req, point)
    basis = certmod.extract_laminar(x, req, tight=tight, point=point)
    record.basis_size = basis.size()
    frac = {e: v for e, v in x.items() if 0 < v < 1}
    if frac:
        member = certmod.small_boundary_set(basis, frac)
        record.small_member = member
        if req.threshold == 3 and member in basis.sets:
            # its fractional mass is at most 2, so integral picks must
            # nearly satisfy this still-active member
            picked_across = sum(1 for e in picked_now
                                if (graph.edges[e].u in member)
                                != (graph.edges[e].v in member))
            if req.residual(member) - picked_across > 2:
                raise certmod.CertificationError(
                    f"active member {sorted(member)} not nearly satisfied "
                    "after picking integral edges",
                    certmod.reproducer_dump(graph, req, x))
    full = frozenset(range(1, graph.n + 1))
    members: list[frozenset[int]] = []
    for s in tight:
        members.append(s)
        members.append(full - s)
    pairs: list[tuple[frozenset[int], frozenset[int]]] = []
    if len(members) <= PAIR_FAMILY_CAP:
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.append((members[i], members[j]))
    else:
        for _ in range(PAIR_SAMPLE):
            i = rng.randrange(len(members))
            j = rng.randrange(len(members))
            if i != j:
                pairs.append((members[i], members[j]))
    checked = 0
    for a, b in pairs:
        if not (a & b) or not (a - b) or not (b - a):
            continue
        certmod.uncross_witness(a, b, x, req, point)
        checked += 1
    record.witness_pairs_checked = checked
    return basis.members()


@dataclass
class _LoopSpec:
    threshold: int
    pick_cutoff: Fraction          # pick edges with x at least this value
    keep_zero_edges: bool          # retain x=0 edges in the working set
    ledger_factor: Fraction        # cost ledger: c(H) + factor*lp <= factor*lp0


def _residual_degree_state(lower: Sequence[int], upper: Sequence[Fraction | int],
                           graph: Multigraph, mult: Mapping[int, int],
                           active: frozenset[int]) -> DegreeState:
    deg = [0] * (graph.n + 1)
    for e, m in mult.items():
        deg[graph.edges[e].u] += m
        deg[graph.edges[e].v] += m
    return DegreeState(tuple(lower[v - 1] - deg[v] for v in range(1, graph.n + 1)),
                       tuple(upper[v - 1] - deg[v] for v in range(1, graph.n + 1)),
                       active)


def _rounding_loop(graph: Multigraph, k: int, spec: _LoopSpec,
                   mult: dict[int, int], working: list[int],
                   degree_bounds: tuple[Sequence[int], Sequence[int]] | None,
                   degree_active: frozenset[int] | None,
                   trace: RoundingTrace, certify_flag: bool,
                   exact_separation: bool, rng: random.Random,
                   max_iterations: int | None) -> None:
    """Shared engine: solve residual LP, pick, drop, iterate."""
    carry: set[frozenset[int]] = set()
    # sampled sets whose activity we track across iterations: singleton
    # cuts, every cut returned by the oracle, and laminar-basis members
    pool: set[frozenset[int]] = {frozenset({v}) for v in range(1, graph.n + 1)}
    monitor: dict[frozenset[int], int] = {}
    dropped: set[frozenset[int]] = set()
    cap = len(graph.edges) + (graph.n if degree_bounds is not None else 0) + 1
    if max_iterations is not None:
        cap = min(cap, max_iterations)
    iteration = 0
    trace.certified = certify_flag
    lp0: Fraction | None = trace.lp0 if trace.iterations else None

    def degree_state() -> DegreeState | None:
        if degree_bounds is None or degree_active is None:
            return None
        return _residual_degree_state(degree_bounds[0], degree_bounds[1],
                                      graph, mult, degree_active)

    def requirement() -> Requirement:
        return Requirement(graph, k, dict(mult), spec.threshold, degree_state())

    while True:
        req = requirement()
        active_left = not req.active_empty()
        degrees_left = bool(degree_active)
        if not active_left and not degrees_left:
            break
        iteration += 1
        if iteration > cap:
            raise RuntimeError(
                f"rounding exceeded {cap} iterations; state: |H|="
                f"{sum(mult.values())}, working={len(working)}")
        try:
            lazy, x = _solve_residual(graph, req, working, carry,
                                      exact_separation, certify_flag)
        except lpmod.LpInfeasible as exc:
            raise InfeasibleInstance(
                f"residual LP infeasible at iteration {iteration}: {exc}") from exc
        opt = lazy.optimum
        if lp0 is None:
            lp0 = opt.value
            trace.lp0 = lp0
        # cost ledger at the start of the iteration
        cost_now = graph.cost_of(mult)
        if cost_now + spec.ledger_factor * opt.value > spec.ledger_factor * lp0:
            raise certmod.CertificationError(
                f"cost ledger violated: c(H)={cost_now} + "
                f"{spec.ledger_factor}*{opt.value} > {spec.ledger_factor}*{lp0}")
        picked_now = {e for e in working if x[e] >= spec.pick_cutoff}
        record = IterationRecord(
            index=iteration, lp_value=opt.value,
            point={e: v for e, v in sorted(x.items()) if v != 0},
            picked=sorted(picked_now),
            frac_support=sum(1 for v in x.values() if 0 < v < 1),
            dropped_witnesses=[], lazy_rounds=lazy.separation_calls,
            lp_rows=len(lazy.rows))
        if certify_flag:
            basis_members = _certify_iteration(
                graph, req, x, {e for e in picked_now if x[e] == 1}, rng, record)
            pool.update(basis_members)
        # progress: an edge is picked, or (degree mode) a vertex drops out
        for e in picked_now:
            mult[e] = mult.get(e, 0) + 1
        if spec.keep_zero_edges:
            working[:] = [e for e in working if e not in picked_now]
        else:
            working[:] = [e for e in working
                          if e not in picked_now and 0 < x[e] < spec.pick_cutoff]
        new_active = degree_active
        if degree_active is not None:
            still = set()
            for v in degree_active:
                fdeg = sum((x[e] for e in working
                            if v in (graph.edges[e].u, graph.edges[e].v)),
                           Fraction(0))
                fcount = sum(1 for e in working
                             if v in (graph.edges[e].u, graph.edges[e].v))
                if fdeg > 2 or fcount - fdeg > 2:
                    still.add(v)
            new_active = frozenset(still)
        if not picked_now:
            shrank = degree_active is not None and new_active is not None \
                and len(new_active) < len(degree_active)
            if not shrank:
                raise certmod.CertificationError(
                    f"no progress in iteration {iteration}: nothing picked and "
                    "no vertex left the degree-constrained set",
                    certmod.reproducer_dump(graph, req, x))
        degree_active = new_active

        # witness-pool upkeep: residuals never increase, drops never revert
        new_req = requirement()
        pool.update(carry)
        for side in sorted(pool, key=lambda s: (len(s), tuple(sorted(s)))):
            fres_new = new_req.residual(side)
            if side in monitor and fres_new > monitor[side]:
                raise certmod.CertificationError(
                    f"residual of {sorted(side)} increased "
                    f"{monitor[side]} -> {fres_new}")
            monitor[side] = fres_new
            was_active = req.residual(side) >= spec.threshold
            is_active = fres_new >= spec.threshold
            if side in dropped and is_active:
                raise certmod.CertificationError(
                    f"dropped set {sorted(side)} re-entered the active family")
            if was_active and not is_active:
                dropped.add(side)
                if len(record.dropped_witnesses) < WITNESS_CAP:
                    record.dropped_witnesses.append(side)
        trace.iterations.append(record)

    if degree_active is not None and degree_active:
        raise RuntimeError("loop ended with degree-constrained vertices left")


def _finish(graph: Multigraph, mode: str, k: int, mult: dict[int, int],
            lp_value: Fraction, target: int, cost_bound: Fraction,
            degree_window: Mapping[int, tuple[Fraction, Fraction]] | None = None
            ) -> Solution:
    mult = {e: m for e, m in sorted(mult.items()) if m}
    report = certmod.verify(graph, mult, target, cost_bound, degree_window,
                            ecss_mode=(mode == "ecss"))
    if not report.ok:
        raise certmod.CertificationError(
            "output fails verification: " + "; ".join(report.failures))
    return Solution(mode, k, mult, report.cost, report.connectivity, lp_value)


# -- subgraph procedures -----------------------------------------------------

def kecss_even(graph: Multigraph, k: int, *, certify: bool | None = None,
               seed: int = 0, exact_separation: bool = False,
               max_iterations: int | None = None) -> tuple[Solution, RoundingTrace]:
    """(k-2)-edge-connected subgraph of cost at most the cut-LP optimum.

    k must be even.  k=2 returns the empty subgraph (vacuous guarantee).
    """
    if k < 2 or k % 2:
        raise ValueError("k must be even and at least 2")
    if graph.n < 2:
        raise ValueError("need at least 2 vertices")
    if k == 2:
        # no cut can reach the activity threshold, so the loop never runs
        # and never solves an LP; the empty subgraph meets the vacuous
        # 0-connectivity guarantee
        warnings.warn("k=2: returning the empty subgraph", stacklevel=2)
        trace = RoundingTrace(Fraction(0))
        sol = Solution("ecss", k, {}, Fraction(0), 0, Fraction(0))
        return sol, trace
    if edge_connectivity(graph) < k:
        raise InfeasibleInstance(
            f"a cut has fewer than {k} edges; the LP is infeasible")
    certify_flag = _should_certify(certify, graph)
    trace = RoundingTrace(Fraction(0))
    mult: dict[int, int] = {}
    working = list(range(graph.m))
    spec = _LoopSpec(threshold=3, pick_cutoff=Fraction(1),
                     keep_zero_edges=True, ledger_factor=Fraction(1))
    _rounding_loop(graph, k, spec, mult, working, None, None, trace,
                   certify_flag, exact_separation, random.Random(seed),
                   max_iterations)
    return _finish(graph, "ecss", k, mult, trace.lp0, k - 2, trace.lp0), trace


def kecss(graph: Multigraph, k: int, **kwargs) -> tuple[Solution, RoundingTrace]:
    """Even k runs directly; odd k runs with k-1 ((k-3)-connected output)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    run_k = k if k % 2 == 0 else k - 1
    sol, trace = kecss_even(graph, run_k, **kwargs)
    sol.k = k
    return sol, trace


def bicriteria(graph: Multigraph, k: int, *, certify: bool | None = None,
               seed: int = 0, exact_separation: bool = False,
               max_iterations: int | None = None) -> tuple[Solution, RoundingTrace]:
    """(k-1)-edge-connected subgraph of cost at most 1.5 times the LP."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if graph.n < 2:
        raise ValueError("need at least 2 vertices")
    if edge_connectivity(graph) < k:
        raise InfeasibleInstance(
            f"a cut has fewer than {k} edges; the LP is infeasible")
    certify_flag = _should_certify(certify, graph)
    trace = RoundingTrace(Fraction(0))
    mult: dict[int, int] = {}
    working = list(range(graph.m))
    spec = _LoopSpec(threshold=2, pick_cutoff=Fraction(2, 3),
                     keep_zero_edges=False, ledger_factor=Fraction(3, 2))
    _rounding_loop(graph, k, spec, mult, working, None, None, trace,
                   certify_flag, exact_separation, random.Random(seed),
                   max_iterations)
    bound = Fraction(3, 2) * trace.lp0
    return _finish(graph, "ecss", k, mult, trace.lp0, k - 1, bound), trace


# -- multigraph procedures ---------------------------------------------------

def _solve_unbounded_cut_lp(graph: Multigraph, k: int,
                            degree_rows: list[lpmod.LpRow] | None = None,
                            recheck: bool = False) -> lpmod.LazyResult:
    """First multigraph LP: x >= 0, all cut constraints via plain min-cut."""
    rows: list[lpmod.LpRow] = list(degree_rows or [])
    var_of = {e: e for e in range(graph.m)}
    working = list(range(graph.m))
    for v in range(1, graph.n + 1):
        rows.append(_cut_row(graph, frozenset({v}), working, var_of, k))

    def oracle(point: list[Fraction]) -> list[lpmod.LpRow]:
        caps = {e: point[e] for e in range(graph.m)}
        value, side = min_cut(graph, caps)
        if value >= k:
            return []
        return [_cut_row(graph, side, working, var_of, k)]

    inst = lpmod.instance([e.cost for e in graph.edges], [0] * graph.m,
                          [None] * graph.m, rows)
    cap = 10 * (graph.m + 2 ** min(20, graph.n))
    result = lpmod.solve_lazy(inst, oracle, max_added=cap)
    if recheck:
        certmod.recheck_vertex(
            lpmod.LpInstance(inst.objective, inst.lower, inst.upper,
                             tuple(result.rows)), result.optimum)
    return result


def kecsm_core(graph: Multigraph, k: int, *, certify: bool | None = None,
               seed: int = 0, exact_separation: bool = False,
               max_iterations: int | None = None) -> tuple[Solution, RoundingTrace]:
    """(k-2)-edge-connected multigraph of cost at most the multigraph LP."""
    if k < 4 or k % 2:
        raise ValueError("k must be even and at least 4")
    if graph.n < 2:
        raise ValueError("need at least 2 vertices")
    if edge_connectivity(graph) < 1:
        raise InfeasibleInstance("graph is disconnected")
    certify_flag = _should_certify(certify, graph)
    try:
        lazy = _solve_unbounded_cut_lp(graph, k, recheck=certify_flag)
    except lpmod.LpInfeasible as exc:  # pragma: no cover - precheck covers this
        raise InfeasibleInstance(str(exc)) from exc
    first = lazy.optimum
    mult = {e: int(v) for e, v in enumerate(first.point) if int(v)}
    working = [e for e in range(graph.m) if first.point[e] != int(first.point[e])]
    trace = RoundingTrace(first.value)
    trace.iterations.append(IterationRecord(
        index=0, lp_value=first.value,
        point={e: v for e, v in enumerate(first.point) if v != 0},
        picked=sorted(mult), frac_support=len(working), dropped_witnesses=[],
        lazy_rounds=lazy.separation_calls, lp_rows=len(lazy.rows)))
    spec = _LoopSpec(threshold=3, pick_cutoff=Fraction(1),
                     keep_zero_edges=False, ledger_factor=Fraction(1))
    _rounding_loop(graph, k, spec, mult, working, None, None, trace,
                   certify_flag, exact_separation, random.Random(seed),
                   max_iterations)
    return _finish(graph, "ecsm", k, mult, trace.lp0, k - 2, trace.lp0), trace


def approximation_factor(k: int) -> Fraction:
    """1 + 2/k for even k, 1 + 3/k for odd k."""
    return 1 + Fraction(2 if k % 2 == 0 else 3, k)


def kecsm(graph: Multigraph, k: int, **kwargs) -> tuple[Solution, RoundingTrace]:
    """k-edge-connected multigraph of cost at most (1+2/k) or (1+3/k)
    times the multigraph LP optimum at k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if graph.n < 2:
        raise ValueError("need at least 2 vertices")
    if edge_connectivity(graph) < 1:
        raise InfeasibleInstance("graph is disconnected")
    run_k = k + 2 if k % 2 == 0 else k + 3
    sol, trace = kecsm_core(graph, run_k, **kwargs)
    # the cut LP x >= 0, x(delta(S)) >= k is homogeneous in k
    reference = Fraction(k, run_k) * trace.lp0
    bound = approximation_factor(k) * reference
    out = _finish(graph, "ecsm", k, sol.multiplicity, reference, k, bound)
    return out, trace


# -- degree-bounded procedures -----------------------------------------------

def _validate_bounds(graph: Multigraph, lower: Sequence[int],
                     upper: Sequence[int]) -> None:
    if len(lower) != graph.n or len(upper) != graph.n:
        raise ValueError("degree bounds must cover all vertices")
    for v in range(graph.n):
        if lower[v] > upper[v]:
            raise ValueError(f"vertex {v + 1} has lower bound above upper bound")
        if lower[v] < 0 or upper[v] < 0:
            raise ValueError(f"vertex {v + 1} has a negative degree bound")


def md_kecss(graph: Multigraph, k: int, lower: Sequence[int],
             upper: Sequence[int], *, certify: bool | None = None,
             seed: int = 0, exact_separation: bool = False,
             max_iterations: int | None = None) -> tuple[Solution, RoundingTrace]:
    """Degree-bounded subgraph: (k-2)-connected for even k ((k-3) for odd),
    cost at most the LP, and every degree within +-2 of its window."""
    _validate_bounds(graph, lower, upper)
    if k < 2:
        raise ValueError("k must be at least 2")
    run_k = k if k % 2 == 0 else k - 1
    if graph.n < 2:
        raise ValueError("need at least 2 vertices")
    certify_flag = _should_certify(certify, graph)
    trace = RoundingTrace(Fraction(0))
    mult: dict[int, int] = {}
    working = list(range(graph.m))
    spec = _LoopSpec(threshold=3, pick_cutoff=Fraction(1),
                     keep_zero_edges=False, ledger_factor=Fraction(1))
    _rounding_loop(graph, run_k, spec, mult, working, (list(lower), list(upper)),
                   frozenset(range(1, graph.n + 1)), trace, certify_flag,
                   exact_separation, random.Random(seed), max_iterations)
    target = run_k - 2
    window = {v: (Fraction(lower[v - 1] - 2), Fraction(upper[v - 1] + 2))
              for v in range(1, graph.n + 1)}
    sol = _finish(graph, "ecss", k, mult, trace.lp0, target, trace.lp0, window)
    return sol, trace


def md_kecsm(graph: Multigraph, k: int, lower: Sequence[int],
             upper: Sequence[int], *, certify: bool | None = None,
             seed: int = 0, exact_separation: bool = False,
             max_iterations: int | None = None) -> tuple[Solution, RoundingTrace]:
    """Degree-bounded multigraph: k-connected, cost at most rho_k times the
    LP, degrees in [l-2, ceil(rho_k*b) + 2].

    The scaled run uses integer degree caps ceil(rho_k * b): any feasible
    point of the original LP scales into them, so the cost chain
    c(H) <= LP(k') <= rho_k * LP(k) is exact.  The first LP
    floor-extracts, then the degree-bounded loop finishes at k+2 (even k)
    or k+3 (odd k).
    """
    _validate_bounds(graph, lower, upper)
    if k < 1:
        raise ValueError("k must be at least 1")
    if graph.n < 2:
        raise ValueError("need at least 2 vertices")
    if edge_connectivity(graph) < 1:
        raise InfeasibleInstance("graph is disconnected")
    certify_flag = _should_certify(certify, graph)
    rho = approximation_factor(k)
    working_all = list(range(graph.m))
    var_of = {e: e for e in range(graph.m)}

    def degree_rows(lo: Sequence[int], hi: Sequence[int]) -> list[lpmod.LpRow]:
        state = DegreeState(tuple(lo), tuple(hi),
                            frozenset(range(1, graph.n + 1)))
        return _degree_rows(graph, working_all, var_of, state)

    try:
        reference = _solve_unbounded_cut_lp(graph, k,
                                            degree_rows(lower, upper)).optimum
    except lpmod.LpInfeasible as exc:
        raise InfeasibleInstance(f"degree-bounded LP infeasible: {exc}") from exc

    run_k = k + 2 if k % 2 == 0 else k + 3
    scaled_upper = [math.ceil(rho * b) for b in upper]
    try:
        lazy = _solve_unbounded_cut_lp(graph, run_k,
                                       degree_rows(lower, scaled_upper),
                                       recheck=certify_flag)
    except lpmod.LpInfeasible as exc:
        raise InfeasibleInstance(
            f"scaled degree-bounded LP at k'={run_k} infeasible: {exc}") from exc

    first = lazy.optimum
    mult = {e: int(v) for e, v in enumerate(first.point) if int(v)}
    working = [e for e in range(graph.m) if first.point[e] != int(first.point[e])]
    active = set()
    for v in range(1, graph.n + 1):
        fdeg = sum((first.point[e] - int(first.point[e]) for e in working
                    if v in (graph.edges[e].u, graph.edges[e].v)), Fraction(0))
        fcount = sum(1 for e in working
                     if v in (graph.edges[e].u, graph.edges[e].v))
        if fdeg > 2 or fcount - fdeg > 2:
            active.add(v)
    trace = RoundingTrace(first.value)
    trace.iterations.append(IterationRecord(
        index=0, lp_value=first.value,
        point={e: v for e, v in enumerate(first.point) if v != 0},
        picked=sorted(mult), frac_support=len(working), dropped_witnesses=[],
        lazy_rounds=lazy.separation_calls, lp_rows=len(lazy.rows)))
    spec = _LoopSpec(threshold=3, pick_cutoff=Fraction(1),
                     keep_zero_edges=False, ledger_factor=Fraction(1))
    _rounding_loop(graph, run_k, spec, mult, working,
                   (list(lower), list(scaled_upper)), frozenset(active), trace,
                   certify_flag, exact_separation, random.Random(seed),
                   max_iterations)
    window = {v: (Fraction(lower[v - 1] - 2), Fraction(scaled_upper[v - 1] + 2))
              for v in range(1, graph.n + 1)}
    bound = rho * reference.value
    sol = _finish(graph, "ecsm", k, mult, reference.value, k, bound, window)
    return sol, trace
