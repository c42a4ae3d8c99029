"""Exhaustive reference routines that the tests compare the package against.

Each one enumerates every vertex partition, edge subset or set pair, so
each refuses inputs past its stated limit with CapacityError.  None of
them is on a solver's path: the solvers separate with
`kecss.separation.separate_fast` and certify with `kecss.certify`.

- `violated_cuts_exact`: every violated active cut by a scan of all
  2^(n-1) cut sides, as (mixed capacity, side) pairs, cheapest first,
  and `separate_exact`, the residual separation oracle that reports the
  side of the first of them (n <= 20).
- `brute_force_opt`: the integer optimum of k-ECSS or k-ECSM by
  enumeration (|E| <= 18 or 10).
- `full_cut_lp`: the cut LP with one row per partition, solved directly
  by `kecss.lp.solve` (n <= 12).
- `SetFunction` and the predicates on it: two-way uncrossability, even
  parity and symmetrization over an explicit 2^n table indexed by
  vertex mask (n <= 12); `as_set_function(req)` tabulates a
  requirement's residual function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from kecss import lp as lpmod
from kecss.graphs import Multigraph, vertices
from kecss.lp import LpInfeasible
from kecss.requirements import Requirement
from kecss.separation import (Feasible, ScaledPoint, SeparationVerdict, Violated,
                              mixed_capacities)

EXACT_VERTEX_LIMIT = 20
FULL_LP_VERTEX_LIMIT = 12
BRUTE_ECSS_EDGE_LIMIT = 18
BRUTE_ECSM_EDGE_LIMIT = 10
PREDICATE_VERTEX_LIMIT = 12


class CapacityError(ValueError):
    """Input too large for an exhaustive routine."""


# -- separation ----------------------------------------------------------------

def violated_cuts_exact(x: Mapping[int, Fraction],
                        req: Requirement) -> list[tuple[Fraction, int]]:
    """Every violated active cut as (mixed capacity, side), by a scan of
    all 2^(n-1) canonical sides, ordered by (mixed capacity, sorted side)."""
    n = req.graph.n
    if n > EXACT_VERTEX_LIMIT:
        raise CapacityError(f"n={n} too large for the exhaustive oracle")
    weights, denom = mixed_capacities(ScaledPoint.of(req.graph, x), req)
    k_scaled = req.k * denom
    found: list[tuple[int, list[int], int]] = []
    for mask_rest in range(1, 1 << (n - 1)):
        mask = mask_rest << 1
        if req.residual(mask) < req.threshold:
            continue
        w = 0
        for e in req.graph.edges:
            if (mask >> (e.u - 1) & 1) != (mask >> (e.v - 1) & 1):
                w += weights[e.id]
        if w < k_scaled:
            found.append((w, vertices(mask), mask))
    found.sort()
    return [(Fraction(w, denom), side) for w, _, side in found]


def separate_exact(x: Mapping[int, Fraction], req: Requirement) -> SeparationVerdict:
    """Exhaustive reference oracle: the side of the most violated cut
    alone (least capacity, ties broken by sorted side), or Feasible."""
    cuts = violated_cuts_exact(x, req)
    return Violated((cuts[0][1],)) if cuts else Feasible()


# -- integer optimum and materialized cut LP ----------------------------------

def brute_force_opt(graph: Multigraph, k: int,
                    mode: str) -> tuple[Fraction, dict[int, int]]:
    """Exact integer optimum by enumeration; the independent cost oracle."""
    if mode not in ("ecss", "ecsm"):
        raise ValueError("mode must be 'ecss' or 'ecsm'")
    if k < 1:
        raise ValueError("k must be at least 1")
    if mode == "ecss":
        return _brute_ecss(graph, k)
    return _brute_ecsm(graph, k)


def _feasible_mult(graph: Multigraph, mult: Mapping[int, int], k: int) -> bool:
    n = graph.n
    for mask_rest in range(1, 1 << (n - 1)):
        mask = mask_rest << 1
        total = 0
        for e, m in mult.items():
            edge = graph.edges[e]
            if (mask >> (edge.u - 1) & 1) != (mask >> (edge.v - 1) & 1):
                total += m
        if total < k:
            return False
    return True


def _brute_ecss(graph: Multigraph, k: int) -> tuple[Fraction, dict[int, int]]:
    m = graph.m
    if m > BRUTE_ECSS_EDGE_LIMIT:
        raise CapacityError(f"|E|={m} exceeds subgraph enumeration limit")
    n = graph.n
    min_edges = math.ceil(k * n / 2)
    best: tuple[Fraction, int] | None = None
    for mask in range(1 << m):
        if mask.bit_count() < min_edges:
            continue
        deg = [0] * (n + 1)
        cost = Fraction(0)
        rest = mask
        while rest:
            e = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            deg[graph.edges[e].u] += 1
            deg[graph.edges[e].v] += 1
            cost += graph.edges[e].cost
        if best is not None and cost >= best[0]:
            continue
        if min(deg[1:]) < k:
            continue
        mult = {e: 1 for e in range(m) if mask >> e & 1}
        if _feasible_mult(graph, mult, k):
            best = (cost, mask)
    if best is None:
        raise LpInfeasible(f"no {k}-edge-connected subgraph exists")
    return best[0], {e: 1 for e in range(m) if best[1] >> e & 1}


def _brute_ecsm(graph: Multigraph, k: int) -> tuple[Fraction, dict[int, int]]:
    m = graph.m
    if m > BRUTE_ECSM_EDGE_LIMIT:
        raise CapacityError(f"|E|={m} exceeds multigraph enumeration limit")
    n = graph.n
    masks = [(mask_rest << 1) for mask_rest in range(1, 1 << (n - 1))]
    crossing = [[e.id for e in graph.edges
                 if (mask >> (e.u - 1) & 1) != (mask >> (e.v - 1) & 1)]
                for mask in masks]
    order = sorted(range(m), key=lambda e: -graph.edges[e].cost)
    best_cost: list[Fraction | None] = [None]
    best_mult: list[dict[int, int] | None] = [None]
    mult = [0] * m
    undecided_set = [set(order[i:]) for i in range(m + 1)]

    def dfs(idx: int, cost: Fraction) -> None:
        if best_cost[0] is not None and cost >= best_cost[0]:
            return
        for ci, cut_edges in enumerate(crossing):
            have = sum(mult[e] for e in cut_edges)
            possible = have + k * sum(1 for e in cut_edges
                                      if e in undecided_set[idx])
            if possible < k:
                return
        if idx == m:
            best_cost[0] = cost
            best_mult[0] = {e: mult[e] for e in range(m) if mult[e]}
            return
        e = order[idx]
        for copies in range(0, k + 1):
            mult[e] = copies
            dfs(idx + 1, cost + copies * graph.edges[e].cost)
        mult[e] = 0

    dfs(0, Fraction(0))
    if best_cost[0] is None:
        raise LpInfeasible(f"no {k}-edge-connected multigraph exists")
    if best_mult[0] is None:
        raise RuntimeError("brute force recorded a cost without a multigraph")
    return best_cost[0], best_mult[0]


def full_cut_lp(graph: Multigraph, k: int, mode: str,
                degree_bounds: tuple[Sequence[int], Sequence[int]] | None = None
                ) -> lpmod.BasicOptimum:
    """Materialized cut LP: one row per partition, solved directly.

    Independent of the lazy loop; used as the LP-value oracle.  Subgraph
    mode bounds variables by 1, multigraph mode leaves them unbounded.
    Degree rows are added for every vertex when bounds are given.
    """
    n = graph.n
    if n > FULL_LP_VERTEX_LIMIT:
        raise CapacityError(f"n={n} too large for the materialized cut LP")
    if mode not in ("ecss", "ecsm"):
        raise ValueError("mode must be 'ecss' or 'ecsm'")
    rows = []
    for mask_rest in range(1, 1 << (n - 1)):
        mask = mask_rest << 1
        coeffs = {e.id: 1 for e in graph.edges
                  if (mask >> (e.u - 1) & 1) != (mask >> (e.v - 1) & 1)}
        rows.append(lpmod.row(coeffs, lpmod.GE, k))
    if degree_bounds is not None:
        lower, upper = degree_bounds
        for v in range(1, n + 1):
            coeffs = {e.id: 1 for e in graph.edges if v in (e.u, e.v)}
            if lower[v - 1] > 0:
                rows.append(lpmod.row(coeffs, lpmod.GE, lower[v - 1]))
            rows.append(lpmod.row(coeffs, lpmod.LE, upper[v - 1]))
    upper_bound: list = [1] * graph.m if mode == "ecss" else [None] * graph.m
    inst = lpmod.instance([e.cost for e in graph.edges], [0] * graph.m,
                          upper_bound, rows)
    return lpmod.solve(inst)


# -- set-function predicates --------------------------------------------------

@dataclass(frozen=True)
class SetFunction:
    """Explicit integer-valued function on all subsets of 1..n (small n only)."""
    n: int
    values: list[int]

    def __post_init__(self):
        if self.n > PREDICATE_VERTEX_LIMIT:
            raise CapacityError(
                f"n={self.n} exceeds predicate limit {PREDICATE_VERTEX_LIMIT}")
        if len(self.values) != 1 << self.n:
            raise ValueError("table must cover all subsets")

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[int], int]) -> "SetFunction":
        return cls(n, [fn(m) for m in range(1 << n)])

    def __call__(self, side: int) -> int:
        return self.values[side]

    def is_symmetric(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.values[m] == self.values[full ^ m] for m in range(1 << self.n))


def check_two_way_uncrossable(f: SetFunction):
    """All crossing pairs A,B must satisfy
    f(A)+f(B) <= min(f(A&B)+f(A|B), f(A-B)+f(B-A)).

    Returns (True, None) or (False, (A, B)) with a violating pair.
    """
    full = (1 << f.n) - 1
    vals = f.values
    for a in range(1, full):
        for b in range(a + 1, full):
            inter = a & b
            if not inter:
                continue
            if not (a & ~b) or not (b & ~a):
                continue
            if (a | b) == full:
                continue
            lhs = vals[a] + vals[b]
            if lhs > vals[inter] + vals[a | b] or \
               lhs > vals[a & ~b & full] + vals[b & ~a & full]:
                return False, (a, b)
    return True, None


def check_even_parity(f: SetFunction):
    """f(A)+f(B)+f(A|B) must be even for disjoint nonempty A, B."""
    full = (1 << f.n) - 1
    vals = f.values
    for a in range(1, full + 1):
        rest = full & ~a
        b = rest
        while b:
            if b > a:  # unordered pairs once
                if (vals[a] + vals[b] + vals[a | b]) & 1:
                    return False, (a, b)
            b = (b - 1) & rest
    return True, None


def symmetrize(f: SetFunction) -> SetFunction:
    """g(S) = max(f(S), f(V-S)) on proper nonempty S; g(empty)=g(V)=0."""
    full = (1 << f.n) - 1
    vals = [0] * (full + 1)
    for m in range(1, full):
        vals[m] = max(f.values[m], f.values[full ^ m])
    return SetFunction(f.n, vals)


def as_set_function(req: Requirement) -> SetFunction:
    n = req.graph.n
    if n > PREDICATE_VERTEX_LIMIT:
        raise CapacityError(f"n={n} too large for an explicit table")
    return SetFunction(n, [req.residual(m) for m in range(1 << n)])
