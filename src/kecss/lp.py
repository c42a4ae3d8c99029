"""Exact rational linear programming with basic (extreme point) optima.

Bounded-variable simplex with exact rational results.  Every returned
optimum is a vertex of the feasible region, certified by an explicit
full-rank set of tight rows and bounds.  A lazy-constraint loop drives
the solver from a separation callback.

A cold solve has one start and no artificial columns.  Every row gets a
slack column (>= 0, or fixed at 0 for an equation), and the slacks form
the starting basis; every structural column starts at its upper bound
when that is finite (covering LPs then start feasible), else at its
lower bound.  When every slack lies within its bounds the primal simplex
runs at once.  Otherwise the cost is first clipped to the sign that each
column's bound admits (c_j kept when c_j > 0 at the lower bound or
c_j < 0 at the upper bound, else 0), which makes the start dual
feasible, and the dual simplex below reaches a feasible basis or proves
that there is none (dual phase 1 by cost modification; Koberstein and
Suhl, Comput. Optim. Appl. 37, 2007).  The primal simplex then finishes
from there with the true cost.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): row i is a
list of Python ints with its own positive denominator den[i], so entry c
stands for matrix[i][c] / den[i], and the basic column of row i holds
den[i].  Each LpRow is scaled by the lcm of its coefficient and rhs
denominators when the tableau is built.  A pivot on (i, j) with
p = |matrix[i][j]| sets den[i] = p (flipping the row's sign if needed);
every other row r with f = matrix[r][j] != 0 becomes
matrix[r] * p - f * matrix[i] over den[r] * p, and is then divided by
gcd(den[r], *matrix[r]) so that every row stays in lowest terms.  The
reduced costs are one more integer row over a positive denominator,
updated by the same row operation, so comparing them compares ints.

The bounds, the basic values, the objective and the ratio test stay
exact Fractions.  The basic values, the objective and the reduced costs
are computed from the tableau whenever the cost changes and then
updated at each pivot or bound flip.

Pivoting uses a largest-reduced-cost rule that switches to Bland's rule
whenever the objective stalls, which guarantees termination.

The lazy loop keeps one tableau for all its rounds, as in the
cutting-plane loop of Applegate, Bixby, Chvatal and Cook (Concorde).
The first relaxation is solved exactly as `solve` does.  Each violated
row the oracle returns is appended with a new basic slack column and
expressed in the current basis, which leaves the basis dual feasible
(the reduced costs are unchanged) but primal infeasible (the slack is
negative).  A bounded dual simplex then re-optimises: the leaving row
holds the out-of-bounds basic variable with the smallest column index,
and the entering column minimises |red_j| / |a_rj| among the nonbasic
columns whose move pushes that variable towards its violated bound,
ties going to the smallest column (Bland's rule for the dual, so the
loop terminates).  When no column can move it, the relaxation is
infeasible.  Every round's point is checked against every row and
bound and certified by a full-rank set of tight constraints, in
integer arithmetic over the point's common denominator; the rank comes
from `RankTracker`, the one integer elimination that `certify` shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

ZERO = Fraction(0)

GE = ">="
LE = "<="
EQ = "=="

_STALL_LIMIT = 12  # degenerate pivots before falling back to Bland's rule
_MAX_PIVOTS = 200_000


class LpInfeasible(Exception):
    """The constraint system has no feasible point."""


class LpUnbounded(Exception):
    """The objective is unbounded below on the feasible region."""


@dataclass(frozen=True)
class LpRow:
    coeffs: dict[int, Fraction]
    sense: str
    rhs: Fraction

    def __post_init__(self):
        if self.sense not in (GE, LE, EQ):
            raise ValueError(f"unknown row sense {self.sense!r}")

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        return sum((point[j] * c for j, c in self.coeffs.items()), ZERO)

    def satisfied(self, point: Sequence[Fraction]) -> bool:
        lhs = self.evaluate(point)
        if self.sense == GE:
            return lhs >= self.rhs
        if self.sense == LE:
            return lhs <= self.rhs
        return lhs == self.rhs


def row(coeffs: dict[int, int | Fraction], sense: str, rhs: int | Fraction) -> LpRow:
    return LpRow({j: Fraction(c) for j, c in sorted(coeffs.items()) if c != 0},
                 sense, Fraction(rhs))


@dataclass(frozen=True)
class LpInstance:
    objective: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction | None, ...]  # None means +infinity
    rows: tuple[LpRow, ...]

    def __post_init__(self):
        nv = len(self.objective)
        if len(self.lower) != nv or len(self.upper) != nv:
            raise ValueError("bound vectors must match objective length")
        for j in range(nv):
            if self.upper[j] is not None and self.lower[j] > self.upper[j]:
                raise ValueError(f"variable {j} has lower > upper")
        for r in self.rows:
            for j in r.coeffs:
                if not 0 <= j < nv:
                    raise ValueError(f"row references undeclared variable {j}")

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def instance(objective: Sequence[int | Fraction],
             lower: Sequence[int | Fraction],
             upper: Sequence[int | Fraction | None],
             rows: Sequence[LpRow]) -> LpInstance:
    return LpInstance(tuple(Fraction(c) for c in objective),
                      tuple(Fraction(b) for b in lower),
                      tuple(None if b is None else Fraction(b) for b in upper),
                      tuple(rows))


@dataclass
class BasicOptimum:
    value: Fraction
    point: list[Fraction]
    tight_rows: list[int]
    tight_bounds: list[tuple[int, str]]  # (variable, "lower" | "upper")
    certificate: list[tuple]  # ("row", i) / ("bound", j, side), full column rank
    pivots: int = 0  # basis exchanges: dual and primal steps
    bound_flips: int = 0


class _Simplex:
    """Bounded-variable tableau simplex over integer rows, started from
    the all-slack basis; the dual simplex reaches feasibility from there
    and re-optimises after rows are added."""

    def __init__(self, lp: LpInstance):
        self.lp = lp
        ns = lp.num_vars
        self.ns = ns
        m = len(lp.rows)
        self.m = m
        # the rows so far, and each as (scale, integer coefficients,
        # integer rhs)
        self.rows: list[LpRow] = list(lp.rows)
        self.scaled = [_scaled(r) for r in self.rows]
        # columns: structurals 0..ns-1, slack of row i at ns+i; row i holds
        # integers whose values are entry / den[i]
        self.lower: list[Fraction] = list(lp.lower) + [ZERO] * m
        self.upper: list[Fraction | None] = list(lp.upper) + [
            ZERO if r.sense == EQ else None for r in self.rows]
        self.total = cols = ns + m
        self.matrix = [_tableau_row(r, sc, ns + i, cols)
                       for i, (r, sc) in enumerate(zip(self.rows, self.scaled))]
        self.den = [scale for scale, _, _ in self.scaled]
        # the slacks are basic; a structural starts at its finite upper
        # bound if it has one (covering LPs start feasible)
        self.status = ["L" if up is None else "U" for up in lp.upper] + ["B"] * m
        self.basis = list(range(ns, cols))
        self.movable = [j for j in range(cols)
                        if self.upper[j] is None or self.lower[j] != self.upper[j]]
        self.pivots = self.bound_flips = 0

    def _bound_value(self, j: int) -> Fraction:
        if self.status[j] == "U":
            up = self.upper[j]
            if up is None:
                raise RuntimeError(f"column {j} sits at an infinite upper bound")
            return up
        return self.lower[j]

    def solve(self) -> None:
        """Cold solve from the starting basis (see the module docstring)."""
        cost = list(self.lp.objective)
        self._start(cost)
        if self._leaving() >= 0:
            # keep c_j where its sign suits column j's bound (c_j > 0 at
            # L, c_j < 0 at U), else 0: the start is then dual feasible
            self._start([c if (c > 0) == (st == "L") else ZERO
                         for c, st in zip(cost, self.status)])
            self._dual()
            self._start(cost)
        self._optimize()

    def point(self) -> list[Fraction]:
        """Values of the structural columns at the current basis."""
        vals = [ZERO if st == "B" else self._bound_value(j)
                for j, st in enumerate(self.status[:self.ns])]
        for col, v in zip(self.basis, self.beta):
            if col < self.ns:
                vals[col] = v
        return vals

    # -- setup -----------------------------------------------------------

    def _start(self, cost: list[Fraction]) -> None:
        """Price the current basis with cost (padded with zeros): beta[i]
        is the value of basis[i], red / red_den the reduced costs (0 on
        basic columns) and obj the cost, each updated at every step."""
        self.cost = cost = cost + [ZERO] * (self.total - len(cost))
        vals = self._values()
        self.beta = [vals[col] for col in self.basis]
        self.red, self.red_den = self._reduced_costs(cost)
        self.obj = sum((cost[j] * vals[j] for j in range(self.total)
                        if cost[j] != 0), ZERO)

    def add_rows(self, rows: Sequence[LpRow]) -> None:
        """Append rows to a solved tableau, each with a new basic slack
        column, expressed in the current basis.  The reduced costs do not
        change, so an optimal basis stays dual feasible; a row violated
        at the current point leaves its slack below 0."""
        scaled_point, point_den = common(self.point())
        for r in rows:
            scale, coeffs, rhs = sc = _scaled(r)
            slack = self.total
            for vec in self.matrix:
                vec.insert(slack, 0)
            self.total += 1
            vec = _tableau_row(r, sc, slack, self.total)
            den = scale
            # no basic row touches the slack, so it ends up holding +den
            for i, col in enumerate(self.basis):
                f = vec[col]
                if f:
                    nz = [(c, a) for c, a in enumerate(self.matrix[i]) if a]
                    vec, den = _eliminate(vec, den, f, nz, self.den[i])
            excess = sum(a * scaled_point[j] for j, a in coeffs) - rhs * point_den
            self.beta.append(Fraction(excess if r.sense == GE else -excess,
                                      scale * point_den))
            self.matrix.append(vec)
            self.den.append(den)
            self.basis.append(slack)
            self.m += 1
            self.lower.append(ZERO)
            self.upper.append(ZERO if r.sense == EQ else None)
            self.status.append("B")
            self.cost.append(ZERO)
            self.red.append(0)
            if r.sense != EQ:
                self.movable.append(slack)
            self.rows.append(r)
            self.scaled.append(sc)

    # -- core ------------------------------------------------------------

    def _values(self) -> list[Fraction]:
        vals = [ZERO if st == "B" else self._bound_value(j)
                for j, st in enumerate(self.status)]
        at_bound = [(j, bv) for j, bv in enumerate(vals) if bv]
        scale = lcm(*(bv.denominator for _, bv in at_bound))
        at_bound = [(j, bv.numerator * (scale // bv.denominator))
                    for j, bv in at_bound]
        for i, col in enumerate(self.basis):
            vec = self.matrix[i]
            v = vec[-1] * scale
            for j, bv in at_bound:
                if vec[j]:
                    v -= vec[j] * bv
            vals[col] = Fraction(v, self.den[i] * scale)
        return vals

    def _reduced_costs(self, cost: list[Fraction]) -> tuple[list[int], int]:
        """cost minus c_B times the tableau, as an integer row over a
        positive denominator; basic columns are unit vectors, so their
        reduced cost comes out 0."""
        basic = [(i, cost[col]) for i, col in enumerate(self.basis) if cost[col]]
        den = lcm(*(c.denominator for c in cost if c),
                  *(c.denominator * self.den[i] for i, c in basic))
        red = [c.numerator * (den // c.denominator) for c in cost]
        for i, c in basic:
            f = c.numerator * (den // (c.denominator * self.den[i]))
            for j, a in enumerate(self.matrix[i][:-1]):
                if a:
                    red[j] -= f * a
        g = gcd(den, *red)
        return [a // g for a in red], den // g

    def _pivot(self, i: int, j: int, leaving_status: str) -> list[tuple[int, int]]:
        """Make column j basic in row i; returns the pivot row's nonzeros."""
        old = self.basis[i]
        prow = self.matrix[i]
        p = prow[j]
        if p < 0:
            p = -p
            self.matrix[i] = prow = [-a for a in prow]
        # the old basic entry den[i] is one of the row's integers, so they
        # are coprime and the row stays in lowest terms over p
        self.den[i] = p
        nz = [(c, a) for c, a in enumerate(prow) if a]
        for r2, row2 in enumerate(self.matrix):
            f = row2[j]
            if f and r2 != i:
                self.matrix[r2], self.den[r2] = _eliminate(
                    row2, self.den[r2], f, nz, p)
        self.basis[i] = j
        self.status[j] = "B"
        self.status[old] = leaving_status
        self.pivots += 1
        return nz

    def _move(self, j: int, step: Fraction, column: list[tuple[int, int]],
              leave_row: int, leave_status: str) -> None:
        """Move nonbasic column j by step (its nonzeros are column), then
        flip it to its other bound (leave_row < 0) or pivot it into
        leave_row, whose basic column leaves at leave_status."""
        beta, den = self.beta, self.den
        if step != 0:
            for i, a in column:
                beta[i] -= step * a / den[i]
        self.obj += step * self.red[j] / self.red_den
        if leave_row < 0:
            self.status[j] = "U" if self.status[j] == "L" else "L"
            self.bound_flips += 1
            return
        beta[leave_row] = self._bound_value(j) + step
        nz = self._pivot(leave_row, j, leave_status)
        # the last column holds the rhs, which red lacks
        self.red, self.red_den = _eliminate(
            self.red, self.red_den, self.red[j],
            [(c, a) for c, a in nz if c < self.total], den[leave_row])

    def _entering(self, red: list[int], bland: bool) -> int:
        # red shares one positive denominator, so its integers order the
        # columns exactly as the reduced costs do; basic columns have red
        # 0 and fixed columns are never movable
        status = self.status
        entering = -1
        best_score = 0
        for j in self.movable:
            rj = red[j]
            if rj < 0:
                if status[j] != "L":
                    continue
                score = -rj
            elif rj > 0:
                if status[j] != "U":
                    continue
                score = rj
            else:
                continue
            if bland:
                return j
            if score > best_score:
                best_score = score
                entering = j
        return entering

    def _optimize(self) -> None:
        """Primal simplex from a feasible basis priced by _start."""
        beta, den = self.beta, self.den
        stall = 0
        bland = False
        for _ in range(_MAX_PIVOTS):
            j = self._entering(self.red, bland)
            if j < 0:
                return
            direction = 1 if self.status[j] == "L" else -1
            column = [(i, row[j]) for i, row in enumerate(self.matrix) if row[j]]
            # ratio test; a basic value moves at rate -a/den[i] * direction
            t_best: Fraction | None = None
            leave_row = -1
            leave_status = "L"
            if self.upper[j] is not None:
                t_best = self.upper[j] - self.lower[j]
            for i, a in column:
                rate = -a * direction  # den[i] times the rate
                col = self.basis[i]
                cur = beta[i]
                if rate > 0:
                    if self.upper[col] is None:
                        continue
                    t = (self.upper[col] - cur) * den[i] / rate
                    hit = "U"
                else:
                    t = (self.lower[col] - cur) * den[i] / rate
                    hit = "L"
                if t_best is None or t < t_best or (
                        t == t_best and leave_row >= 0
                        and col < self.basis[leave_row]):
                    t_best = t
                    leave_row = i
                    leave_status = hit
            if t_best is None:
                raise LpUnbounded("improving direction with no blocking bound")
            old_obj = self.obj
            self._move(j, t_best if direction > 0 else -t_best, column,
                       leave_row, leave_status)
            if self.obj < old_obj:
                stall = 0
                bland = False
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
        raise RuntimeError("simplex pivot limit exceeded")

    def _leaving(self) -> int:
        """Row of the out-of-bounds basic variable with the smallest column
        index, or -1 when every basic value lies within its bounds."""
        leave_row = -1
        best = self.total
        lower, upper = self.lower, self.upper
        for i, (col, v) in enumerate(zip(self.basis, self.beta)):
            if col < best and (v < lower[col] or (
                    upper[col] is not None and v > upper[col])):
                leave_row = i
                best = col
        return leave_row

    def _dual(self) -> None:
        """Bounded dual simplex with Bland's rule from a dual feasible
        basis, to a basis whose values lie within their bounds: the cold
        start's dual phase and every lazy round.  LpInfeasible when a
        basic value cannot be repaired."""
        status = self.status
        for _ in range(_MAX_PIVOTS):
            r = self._leaving()
            if r < 0:
                return
            col = self.basis[r]
            below = self.beta[r] < self.lower[col]
            prow = self.matrix[r]
            red = self.red
            # column k moves x_col by -prow[k] / den[r] per unit; from L it
            # may only rise, from U only fall.  Dual feasibility gives
            # red_k >= 0 at L and <= 0 at U, so the ratio is |red_k| / |a|;
            # compare ratios as integer cross-products, ties to the
            # smallest column.
            j = -1
            best_red = best_a = 0
            for k in self.movable:
                a = prow[k]
                st = status[k]
                if not a or st == "B" or (a < 0) != ((st == "L") == below):
                    continue
                rk = abs(red[k])
                ak = abs(a)
                if j < 0 or rk * best_a < best_red * ak:
                    j = k
                    best_red = rk
                    best_a = ak
            if j < 0:
                raise LpInfeasible(f"no column can move the basic value of row {r} "
                                   "into its bounds")
            target = self.lower[col] if below else self.upper[col]
            step = (self.beta[r] - target) * self.den[r] / prow[j]
            column = [(i, row[j]) for i, row in enumerate(self.matrix) if row[j]]
            self._move(j, step, column, r, "L" if below else "U")
        raise RuntimeError("dual simplex pivot limit exceeded")


def _tableau_row(r: LpRow, sc: tuple[int, list[tuple[int, int]], int],
                 slack: int, width: int) -> list[int]:
    """The tableau row of r with its slack at column slack, from its
    scaling sc (see _scaled), negated for a >= row so that the slack holds
    +scale; width columns, then the rhs."""
    scale, coeffs, rhs = sc
    sign = -1 if r.sense == GE else 1
    vec = [0] * (width + 1)
    for j, a in coeffs:
        vec[j] = sign * a
    vec[slack] = scale
    vec[-1] = sign * rhs
    return vec


def _scaled(r: LpRow) -> tuple[int, list[tuple[int, int]], int]:
    """r times the lcm of its coefficient and rhs denominators, as
    (that lcm, integer coefficients, integer rhs)."""
    scale = lcm(r.rhs.denominator, *(c.denominator for c in r.coeffs.values()))
    return (scale,
            [(j, c.numerator * (scale // c.denominator))
             for j, c in r.coeffs.items()],
            r.rhs.numerator * (scale // r.rhs.denominator))


def common(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """values as integers over their least common denominator, as
    (numerators, denominator)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _eliminate(vec: list[int], den: int, f: int, nz: list[tuple[int, int]],
               p: int) -> tuple[list[int], int]:
    """vec/den minus f/den times the pivot row (nonzeros nz over p, with p
    at the pivot column), as an integer row over den*p in lowest terms.
    Updates vec in place when p is 1."""
    if p != 1:
        vec = [a * p for a in vec]
        den *= p
    for c, a in nz:
        vec[c] -= f * a
    g = gcd(den, *vec)
    if g != 1:
        vec = [a // g for a in vec]
        den //= g
    return vec, den


class RankTracker:
    """Incremental rank of integer row vectors (column -> value) over the
    rationals.  Each added vector is reduced against the kept ones, at
    its smallest column each time and then divided by its gcd, and is
    kept, keyed by its smallest column, if anything is left."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def add(self, vec: dict[int, int]) -> bool:
        """Keep vec if it is independent of the kept vectors; say so."""
        v = {c: a for c, a in vec.items() if a}
        while v:
            col = min(v)
            piv = self.pivots.get(col)
            if piv is None:
                self.pivots[col] = v
                return True
            # v * p - f * piv has the zeros of v - (f / p) * piv, and one
            # gcd keeps it small
            p, f = piv[col], v[col]
            w = {c: a * p for c, a in v.items()}
            for c2, a in piv.items():
                a = w.get(c2, 0) - f * a
                if a:
                    w[c2] = a
                else:
                    w.pop(c2, None)
            g = gcd(*w.values())
            v = {c: a // g for c, a in w.items()} if g > 1 else w
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _rank_certificate(num_vars: int, scaled: list[tuple[int, list, int]],
                      tight_rows: list[int],
                      tight_bounds: list[tuple[int, str]]) -> list[tuple]:
    """Greedy full-rank subset of tight constraints, as x-space row
    vectors; scaled holds each row's integer coefficients (see _scaled).

    A bound's unit vector is independent of the chosen ones unless its
    column is already bounded.  The chosen bounds span their columns, so
    a row is independent of the chosen constraints exactly when its part
    outside those columns is independent of the chosen rows' parts."""
    chosen: list[tuple] = []
    bounded: set[int] = set()
    for j, side in tight_bounds:
        if len(chosen) == num_vars:
            break
        if j not in bounded:
            bounded.add(j)
            chosen.append(("bound", j, side))
    tracker = RankTracker()
    for i in tight_rows:
        if len(chosen) == num_vars:
            break
        if tracker.add({c: a for c, a in scaled[i][1] if c not in bounded}):
            chosen.append(("row", i))
    if len(chosen) != num_vars:
        raise RuntimeError("solver returned a non-vertex point")
    return chosen


def _optimum(simplex: _Simplex) -> BasicOptimum:
    """The simplex's current point, checked against every row, with its
    value, tight rows and bounds and a full-rank certificate.  One integer
    evaluation per row, over the point's common denominator, decides both
    whether the row holds and whether it is tight."""
    lp = simplex.lp
    point = simplex.point()
    scaled_point, point_den = common(point)
    tight_rows = []
    for i, (r, (_, coeffs, rhs)) in enumerate(zip(simplex.rows, simplex.scaled)):
        excess = sum(a * scaled_point[j] for j, a in coeffs) - rhs * point_den
        if excess == 0:
            tight_rows.append(i)
        elif r.sense == EQ or (excess < 0) == (r.sense == GE):
            raise RuntimeError(f"simplex produced point violating row {i}")
    cost, cost_den = common(lp.objective)
    value = Fraction(sum(map(mul, cost, scaled_point)), cost_den * point_den)
    tight_bounds: list[tuple[int, str]] = []
    for j in range(lp.num_vars):
        if point[j] == lp.lower[j]:
            tight_bounds.append((j, "lower"))
        if lp.upper[j] is not None and point[j] == lp.upper[j]:
            tight_bounds.append((j, "upper"))
    cert = _rank_certificate(lp.num_vars, simplex.scaled, tight_rows, tight_bounds)
    return BasicOptimum(value, point, tight_rows, tight_bounds, cert,
                        simplex.pivots, simplex.bound_flips)


def solve(lp: LpInstance) -> BasicOptimum:
    """Optimal vertex of the feasible region, or LpInfeasible/LpUnbounded."""
    simplex = _Simplex(lp)
    simplex.solve()
    return _optimum(simplex)


SeparationCallback = Callable[[list[Fraction]], list[LpRow]]


@dataclass
class LazyResult:
    optimum: BasicOptimum
    rows: list[LpRow]  # full row set of the final relaxation
    separation_calls: int


def solve_lazy(lp: LpInstance, oracle: SeparationCallback,
               max_added: int | None = None) -> LazyResult:
    """Cutting-plane loop: solve, separate, add violated rows, repeat.

    The oracle must be sound (returned rows are valid for the implicit
    system and violated at the queried point) and complete (it returns no
    rows only when the point is feasible for the full system).  A vertex
    of a relaxation that the oracle accepts is a vertex of the full
    system.  The oracle may return several violated rows per call.

    One tableau serves every round: the added rows are appended to it and
    the dual simplex re-optimises from the previous optimal basis.  The
    optimum's pivots and bound flips are totals over all rounds.
    """
    if max_added is None:
        max_added = 10 * (lp.num_vars + 2 ** min(20, lp.num_vars))
    simplex = _Simplex(lp)
    simplex.solve()
    calls = 0
    while True:
        opt = _optimum(simplex)
        cuts = oracle(opt.point)
        calls += 1
        if not cuts:
            return LazyResult(opt, simplex.rows, calls)
        for c in cuts:
            if any(not 0 <= j < lp.num_vars for j in c.coeffs):
                raise ValueError("oracle row references an undeclared variable")
            if c.satisfied(opt.point):
                raise RuntimeError("oracle returned a non-violated row")
        total = len(simplex.rows) + len(cuts)
        if total - len(lp.rows) > max_added:
            raise RuntimeError(
                f"lazy loop exceeded {max_added} added rows "
                f"({total} rows in relaxation)")
        simplex.add_rows(cuts)
        simplex._dual()
