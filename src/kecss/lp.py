"""Exact rational linear programming with basic (extreme point) optima.

Two-phase bounded-variable primal simplex with exact rational results.
Every returned optimum is a vertex of the feasible region, certified by
an explicit full-rank set of tight rows and bounds.  A lazy-constraint
loop drives the solver from a separation callback.

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
are computed from the tableau once per phase and then updated at each
pivot or bound flip.

Pivoting uses a largest-reduced-cost rule that switches to Bland's rule
whenever the objective stalls, which guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

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

    def tight(self, point: Sequence[Fraction]) -> bool:
        return self.evaluate(point) == self.rhs


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
    pivots: int = 0  # basis exchanges, phase one and artificial eviction included
    bound_flips: int = 0
    artificials: int = 0  # phase-one artificial columns

    def point_dict(self) -> dict[int, Fraction]:
        return {j: v for j, v in enumerate(self.point) if v != 0}


class _Simplex:
    """Bounded-variable two-phase tableau simplex over integer rows."""

    def __init__(self, lp: LpInstance):
        self.lp = lp
        ns = lp.num_vars
        self.ns = ns
        m = len(lp.rows)
        self.m = m
        # columns: structurals 0..ns-1, slack of row i at ns+i; row i holds
        # integers whose values are entry / den[i]
        self.lower: list[Fraction] = list(lp.lower)
        self.upper: list[Fraction | None] = list(lp.upper)
        self.total = ns + m
        cols = self.total
        self.matrix: list[list[int]] = []
        self.den: list[int] = []
        for i, r in enumerate(lp.rows):
            scale = lcm(r.rhs.denominator,
                        *(c.denominator for c in r.coeffs.values()))
            vec = [0] * (cols + 1)
            for j, c in r.coeffs.items():
                vec[j] = c.numerator * (scale // c.denominator)
            vec[ns + i] = -scale if r.sense == GE else scale
            self.lower.append(ZERO)
            self.upper.append(ZERO if r.sense == EQ else None)
            vec[cols] = r.rhs.numerator * (scale // r.rhs.denominator)
            self.matrix.append(vec)
            self.den.append(scale)
        # nonbasic start: finite upper preferred (covering LPs start feasible)
        self.status: list[str] = []
        for j in range(self.total):
            self.status.append("U" if self.upper[j] is not None else "L")
        self.basis: list[int] = []
        self.banned: set[int] = set()
        self.pivots = self.bound_flips = self.artificials = 0

    def _bound_value(self, j: int) -> Fraction:
        if self.status[j] == "U":
            up = self.upper[j]
            if up is None:
                raise RuntimeError(f"column {j} sits at an infinite upper bound")
            return up
        return self.lower[j]

    def solve(self) -> list[Fraction]:
        self._phase_one()
        cost = [ZERO] * len(self.lower)
        for j in range(self.ns):
            cost[j] = self.lp.objective[j]
        self._optimize(cost)
        vals = [ZERO if st == "B" else self._bound_value(j)
                for j, st in enumerate(self.status)]
        for col, v in zip(self.basis, self.beta):
            vals[col] = v
        return vals

    # -- setup -----------------------------------------------------------

    def _phase_one(self) -> None:
        # choose slack basic when its implied value fits its bounds,
        # otherwise add an artificial column.  Every structural starts
        # nonbasic; every slack lies in [0, inf) or [0, 0], so only the
        # sign of its implied value matters.
        bounds = [self._bound_value(j) for j in range(self.ns)]
        scale = lcm(*(b.denominator for b in bounds))
        scaled = [b.numerator * (scale // b.denominator) for b in bounds]
        for i in range(self.m):
            slack = self.ns + i
            vec = self.matrix[i]
            # rhs minus the structurals at their bounds, times scale * den[i]
            resid = vec[-1] * scale - sum(map(mul, vec, scaled))
            sign = resid * vec[slack]  # has the sign of the slack's value
            if sign >= 0 and (self.upper[slack] is None or sign <= 0):
                self.basis.append(slack)
                self.status[slack] = "B"
                continue
            # park the slack at the bound nearest feasibility (its value
            # there is 0, so the residual is unchanged)
            self.status[slack] = "L" if sign < 0 else "U"
            art = len(self.lower)
            self.lower.append(ZERO)
            self.upper.append(None)
            entry = self.den[i] if resid >= 0 else -self.den[i]
            for r2, vec2 in enumerate(self.matrix):
                vec2.insert(art, entry if r2 == i else 0)
            self.status.append("B")
            self.basis.append(art)
            self.total += 1
            self.banned.add(art)
            self.artificials += 1
        # each initial basis column (slack or artificial) lives in a single
        # row and holds +-den there, so a sign flip yields an identity basis
        for i, col in enumerate(self.basis):
            if self.matrix[i][col] < 0:
                self.matrix[i] = [-a for a in self.matrix[i]]
        if not self.banned:
            return
        cost = [ZERO] * self.total
        for art in self.banned:
            cost[art] = ONE
        value = self._optimize(cost)
        if value > 0:
            raise LpInfeasible("phase one optimum is positive")
        self._evict_artificials()

    def _evict_artificials(self) -> None:
        drop_rows = []
        for i in range(self.m):
            if self.basis[i] not in self.banned:
                continue
            vec = self.matrix[i]
            target = None
            for j in range(self.total):
                if j in self.banned or self.status[j] == "B":
                    continue
                if vec[j] != 0:
                    target = j
                    break
            if target is None:
                drop_rows.append(i)
            else:
                self._pivot(i, target, "L")
        for i in sorted(drop_rows, reverse=True):
            art = self.basis[i]
            self.status[art] = "L"
            del self.matrix[i]
            del self.den[i]
            del self.basis[i]
            self.m -= 1

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

    def _entering(self, red: list[int], bland: bool) -> int:
        # red shares one positive denominator, so its integers order the
        # columns exactly as the reduced costs do
        entering = -1
        best_score = 0
        for j in range(self.total):
            st = self.status[j]
            if st == "B" or j in self.banned:
                continue  # an artificial never re-enters once nonbasic
            lo, up = self.lower[j], self.upper[j]
            if up is not None and lo == up:
                continue  # fixed variable never enters
            rj = red[j]
            if st == "L" and rj < 0:
                score = -rj
            elif st == "U" and rj > 0:
                score = rj
            else:
                continue
            if bland:
                return j
            if score > best_score:
                best_score = score
                entering = j
        return entering

    def _optimize(self, cost: list[Fraction]) -> Fraction:
        # phase state, updated at each step: beta[i] is the value of
        # basis[i], red / red_den the reduced costs (0 on basic columns),
        # obj the cost
        self.cost = cost = cost + [ZERO] * (self.total - len(cost))
        vals = self._values()
        self.beta = beta = [vals[col] for col in self.basis]
        red, self.red_den = self._reduced_costs(cost)
        self.red = red
        self.obj = sum((cost[j] * vals[j] for j in range(self.total)
                        if cost[j] != 0), ZERO)
        den = self.den
        stall = 0
        bland = False
        for _ in range(_MAX_PIVOTS):
            j = self._entering(red, bland)
            if j < 0:
                return self.obj
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
            step = t_best if direction > 0 else -t_best
            if step != 0:
                for i, a in column:
                    beta[i] -= step * a / den[i]
            old_obj = self.obj
            self.obj += step * red[j] / self.red_den
            if leave_row < 0:
                # bound flip of the entering variable
                self.status[j] = "U" if self.status[j] == "L" else "L"
                self.bound_flips += 1
            else:
                beta[leave_row] = self._bound_value(j) + step
                nz = self._pivot(leave_row, j, leave_status)
                # the last column holds the rhs, which red lacks
                red, self.red_den = _eliminate(
                    red, self.red_den, red[j],
                    [(c, a) for c, a in nz if c < self.total], den[leave_row])
                self.red = red
            if self.obj < old_obj:
                stall = 0
                bland = False
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
        raise RuntimeError("simplex pivot limit exceeded")


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


def _rank_certificate(lp: LpInstance, point: list[Fraction],
                      tight_rows: list[int],
                      tight_bounds: list[tuple[int, str]]) -> list[tuple]:
    """Greedy full-rank subset of tight constraints, as x-space row vectors."""
    nv = lp.num_vars
    pivots: dict[int, dict[int, Fraction]] = {}  # pivot column -> reduced vector
    chosen: list[tuple] = []

    def try_add(vec: dict[int, Fraction], label: tuple) -> None:
        v = {c: val for c, val in vec.items() if val != 0}
        while v:
            col = min(v)
            if col not in pivots:
                break
            piv = pivots[col]
            f = v[col] / piv[col]
            for c2, val in piv.items():
                nv = v.get(c2, ZERO) - f * val
                if nv == 0:
                    v.pop(c2, None)
                else:
                    v[c2] = nv
        if v:
            pivots[min(v)] = v
            chosen.append(label)

    for j, side in tight_bounds:
        if len(chosen) == nv:
            break
        try_add({j: ONE}, ("bound", j, side))
    for i in tight_rows:
        if len(chosen) == nv:
            break
        try_add(dict(lp.rows[i].coeffs), ("row", i))
    if len(chosen) != nv:
        raise RuntimeError("solver returned a non-vertex point")
    return chosen


def solve(lp: LpInstance) -> BasicOptimum:
    """Optimal vertex of the feasible region, or LpInfeasible/LpUnbounded."""
    simplex = _Simplex(lp)
    vals = simplex.solve()
    point = vals[:lp.num_vars]
    for i, r in enumerate(lp.rows):
        if not r.satisfied(point):
            raise RuntimeError(f"simplex produced point violating row {i}")
    value = sum((lp.objective[j] * point[j] for j in range(lp.num_vars)), ZERO)
    tight_rows = [i for i, r in enumerate(lp.rows) if r.tight(point)]
    tight_bounds: list[tuple[int, str]] = []
    for j in range(lp.num_vars):
        if point[j] == lp.lower[j]:
            tight_bounds.append((j, "lower"))
        if lp.upper[j] is not None and point[j] == lp.upper[j]:
            tight_bounds.append((j, "upper"))
    cert = _rank_certificate(lp, point, tight_rows, tight_bounds)
    return BasicOptimum(value, point, tight_rows, tight_bounds, cert,
                        simplex.pivots, simplex.bound_flips, simplex.artificials)


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
    """
    rows = list(lp.rows)
    added = 0
    calls = 0
    if max_added is None:
        max_added = 10 * (lp.num_vars + 2 ** min(20, lp.num_vars))
    while True:
        opt = solve(LpInstance(lp.objective, lp.lower, lp.upper, tuple(rows)))
        cuts = oracle(opt.point)
        calls += 1
        if not cuts:
            return LazyResult(opt, rows, calls)
        for c in cuts:
            if c.satisfied(opt.point):
                raise RuntimeError("oracle returned a non-violated row")
        rows.extend(cuts)
        added += len(cuts)
        if added > max_added:
            raise RuntimeError(
                f"lazy loop exceeded {max_added} added rows "
                f"({len(rows)} rows in relaxation)")
