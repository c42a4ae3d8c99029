"""Exact rational linear programming with basic (extreme point) optima.

Bounded-variable simplex with exact rational results.  Every returned
optimum is a vertex of the feasible region, certified by an explicit
full-rank set of tight rows and bounds.  A lazy-constraint loop drives
the solver from a separation callback.

A cold solve has one start and no artificial columns.  The tableau
starts with the structural columns alone, each at its upper bound when
that is finite (covering LPs then start feasible), else at its lower
bound, and is priced with no rows.  The LP's rows then come in through
`add_rows`, the one way in for rows, which the lazy loop's cuts also
take: every row gets a slack column >= 0, and the slacks form the
starting basis.  When every slack lies within its bounds the primal
simplex runs at once.  Otherwise the cost is first clipped to the sign
that each column's bound admits (c_j kept when c_j > 0 at the lower
bound or c_j < 0 at the upper bound, else 0), which makes the start
dual feasible, and the dual simplex below reaches a feasible basis or
proves that there is none (dual phase 1 by cost modification;
Koberstein and Suhl, Comput. Optim. Appl. 37, 2007).  The primal
simplex then finishes from there with the true cost.  When clipping
changes nothing (c_j >= 0 at lower bounds and c_j <= 0 at upper bounds,
as in every multigraph cut LP), the start is priced once: the
reduced-cost row that the dual simplex keeps is the one repricing would
give.

A fixed variable (lower == upper) takes no tableau column (Andersen and
Andersen, Math. Programming 71, 1995, on removing fixed columns).  No
pivot can move it: it never enters, since either direction breaks one
of its bounds, so its column would only widen every row.  Its value is
folded into each row's constant as the row enters and into the
objective constant.  The movable variables keep their order, the
slacks follow them, and the pivots, bound flips and optimum are those
of the full tableau.  The point, the tight bounds, the certificate,
`LpInfeasible` and the rows handed back all speak of LP variables, a
fixed one at its bound.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): row i is a
list of Python ints with its own positive denominator den[i], so entry c
stands for matrix[i][c] / den[i], and the basic column of row i holds
den[i].  An LpRow has int coefficients and an int rhs, so it enters the
tableau as it is, over denominator 1.  A pivot on (i, j) with
p = |matrix[i][j]| sets den[i] = p (flipping the row's sign if needed);
every other row r with f = matrix[r][j] != 0 becomes
matrix[r] * p - f * matrix[i] over den[r] * p, and is then divided by
gcd(den[r], *matrix[r]) so that every row stays in lowest terms.  The
objective is priced as integer numerators over one denominator cost_den
(`common`), so the reduced costs, in units of 1/cost_den, are one more
integer row over a positive denominator, updated by the same row
operation; a positive scale changes no entering choice, ratio test or
tie, and comparing reduced costs compares ints.

Bounds are ints, and each nonbasic column's bound value is folded into
the last column: row i's last entry is den[i] times the value of
basis[i], and the reduced-cost row's is red_den times minus the
objective.  Moving nonbasic column j by delta subtracts delta times
column j from the last column (`_shift`); a common divisor of a row's
other entries divides that change, so rows stay in lowest terms.  A
bound flip is one shift; a pivot unfolds the entering column, eliminates
and folds the leaving column at its bound.  The ratio tests and bound
checks compare integer cross-products, so the simplex holds no Fraction.

Pivoting uses a largest-reduced-cost rule that switches to Bland's rule
whenever the objective stalls, which guarantees termination.

The lazy loop keeps one tableau for all its rounds, as in the
cutting-plane loop of Applegate, Bixby, Chvatal and Cook (Concorde);
`solve` is that loop with an oracle that returns no rows.  Each
violated row the oracle returns is appended with a new basic slack
column and expressed in the current basis, which leaves the basis dual
feasible (the reduced costs are unchanged) but primal infeasible (the
slack is negative).  A bounded dual simplex then re-optimises: the
leaving row holds the out-of-bounds basic variable with the smallest
column index, and the entering column minimises |red_j| / |a_rj| among
the nonbasic columns whose move pushes that variable towards its
violated bound, ties going to the smallest column (Bland's rule for the
dual, so the loop terminates).  When no column can move it, the
relaxation is infeasible.

A lazy loop can also start from an earlier one's final tableau, which
its result keeps, when the new LP has the same objective, bounds and
rows in the same order and differs only in right-hand sides
(`solve_lazy(..., start=result)`, `_Simplex.restart`).  A rhs is a
constant beside the row's slack column, so a change d of row i's rhs
adds sign * d times slack column i to the last column (sign -1 for a >=
row), which is a shift of that slack, basic or not.  The reduced costs
do not change, the basis stays dual feasible, and the dual simplex
repairs the values before the loop goes on as usual.

The point leaves the tableau as integers: each basic value is its row's
last entry over den[i] and each nonbasic column sits at its int bound,
so `BasicOptimum` holds integer numerators over one denominator in
lowest terms, and the oracle is called with those.  Every round's point
is checked against every row and bound, each returned row is checked to
be violated there, and the point is certified by a full-rank set of
tight constraints, all in integer arithmetic over the point's
denominator.  The certificate takes the
tight bounds, then the rows whose slack is nonbasic (at a basis these
complete the rank, unless a basic value sits on its bound), then the
other tight rows; `RankTracker` checks each row's independence, and
`certify.recheck_vertex` runs this routine in row order.  No solver
reads the Fraction `BasicOptimum.point`; it is built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

GE = ">="
LE = "<="

_STALL_LIMIT = 12  # degenerate pivots before falling back to Bland's rule
_MAX_PIVOTS = 200_000


class LpInfeasible(Exception):
    """The constraint system has no feasible point."""


class LpUnbounded(Exception):
    """The objective is unbounded below on the feasible region."""


@dataclass(frozen=True)
class LpRow:
    """coeffs . x >= rhs or <= rhs, with int coefficients and an int rhs."""
    coeffs: dict[int, int]
    sense: str
    rhs: int

    def __post_init__(self):
        if self.sense not in (GE, LE):
            raise ValueError(f"unknown row sense {self.sense!r}")
        if any(type(v) is not int for v in (self.rhs, *self.coeffs.values())):
            raise ValueError("row has a coefficient or rhs that is not an int")


def row(coeffs: dict[int, int], sense: str, rhs: int) -> LpRow:
    """An LpRow without zero coefficients, in variable order."""
    return LpRow({j: c for j, c in sorted(coeffs.items()) if c != 0}, sense, rhs)


def indicator(bits: int) -> dict[int, int]:
    """A column bitset as coefficients: 1 at each set bit's position, in
    column order."""
    coeffs = {}
    while bits:
        low = bits & -bits
        coeffs[low.bit_length() - 1] = 1
        bits ^= low
    return coeffs


@dataclass(frozen=True)
class LpInstance:
    objective: tuple[int | Fraction, ...]
    lower: tuple[int, ...]
    upper: tuple[int | None, ...]  # None means +infinity
    rows: tuple[LpRow, ...]

    def __post_init__(self):
        nv = len(self.objective)
        if len(self.lower) != nv or len(self.upper) != nv:
            raise ValueError("bound vectors must match objective length")
        for j, (lo, up) in enumerate(zip(self.lower, self.upper)):
            if type(lo) is not int or not (up is None or type(up) is int):
                raise ValueError(f"variable {j} has a bound that is not an int")
            if up is not None and lo > up:
                raise ValueError(f"variable {j} has lower > upper")
        for r in self.rows:
            for j in r.coeffs:
                if not 0 <= j < nv:
                    raise ValueError(f"row references undeclared variable {j}")

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def instance(objective: Sequence[int | Fraction], lower: Sequence[int],
             upper: Sequence[int | None], rows: Sequence[LpRow]) -> LpInstance:
    """An LpInstance; objective values not int or Fraction become Fractions."""
    return LpInstance(tuple(c if type(c) in (int, Fraction) else Fraction(c)
                            for c in objective),
                      tuple(lower), tuple(upper), tuple(rows))


@dataclass
class BasicOptimum:
    value: Fraction
    nums: list[int]  # the point: variable j is nums[j] / denom, in lowest terms
    denom: int
    tight_rows: list[int]
    tight_bounds: list[tuple[int, str]]  # (variable, "lower" | "upper")
    certificate: list[tuple]  # ("row", i) / ("bound", j, side), full column rank
    pivots: int = 0  # basis exchanges: dual and primal steps
    bound_flips: int = 0

    @cached_property
    def point(self) -> list[Fraction]:
        """The point as Fractions, built on first use."""
        return [Fraction(a, self.denom) for a in self.nums]


class _Simplex:
    """Bounded-variable tableau simplex over integer rows, started from
    the all-slack basis; the dual simplex reaches feasibility from there
    and re-optimises after rows are added.

    Only a variable that can move (lower != upper, or no upper bound)
    has a tableau column: no pivot can move a fixed one, as either
    direction breaks a bound, so it never enters.  It is a constant in
    each row's last entry and in the objective.  The movable variables
    keep their order and the slacks follow them, so every
    smallest-column tie-break compares the same columns in the same
    order.  Everything that leaves the simplex is in LP-variable terms."""

    def __init__(self, lp: LpInstance):
        self.lp = lp
        # columns: the movable variables vars[0..ns-1], the slack of row
        # i at ns+i.  add_rows fills in the rows and tableau row i: ints
        # over den[i], basic in basis[i]
        self.vars = [j for j, (lo, up) in enumerate(zip(lp.lower, lp.upper))
                     if up is None or lo != up]
        self.ns = self.total = len(self.vars)
        # each variable's value when fixed, else 0; and each variable's
        # column, -1 when fixed, or None when every variable can move
        self.fixed = [lo if lo == up else 0 for lo, up in zip(lp.lower, lp.upper)]
        self.column: list[int] | None = None
        if self.ns < lp.num_vars:
            self.column = [-1] * lp.num_vars
            for c, j in enumerate(self.vars):
                self.column[j] = c
        self.m = 0
        self.rows: list[LpRow] = []
        self.matrix: list[list[int]] = []
        self.den, self.basis = [], []
        self.lower: list[int] = [lp.lower[j] for j in self.vars]
        self.upper: list[int | None] = [lp.upper[j] for j in self.vars]
        self.status = ["L" if up is None else "U" for up in self.upper]
        # every column can move; the hot loops run over this list, which
        # iterates faster than a range
        self.movable = list(range(self.ns))
        self.pivots = self.bound_flips = 0
        # the objective as integers over one denominator, by LP variable:
        # prices and values; the fixed variables' part is a constant
        self.cost_nums, self.cost_den = common(lp.objective)
        self.fixed_cost = sum(map(mul, self.cost_nums, self.fixed))
        self._start([self.cost_nums[j] for j in self.vars])
        self.add_rows(lp.rows)

    def _folded(self) -> list[int]:
        """Each structural column's value folded into the last column: its
        bound value when nonbasic, else 0."""
        return [0 if st == "B" else self._bound_value(j)
                for j, st in enumerate(self.status[:self.ns])]

    def _narrow(self, r: LpRow) -> tuple[dict[int, int], int]:
        """r's coefficients by tableau column, and its rhs less the fixed
        variables' part."""
        coeffs, rhs = {}, r.rhs
        column, fixed = self.column, self.fixed
        for j, a in r.coeffs.items():
            c = column[j]
            if c < 0:
                rhs -= a * fixed[j]
            else:
                coeffs[c] = a
        return coeffs, rhs

    def _bound_value(self, j: int) -> int:
        if self.status[j] == "U":
            up = self.upper[j]
            if up is None:
                raise RuntimeError(f"column {j} sits at an infinite upper bound")
            return up
        return self.lower[j]

    def solve(self) -> None:
        """Cold solve from the starting basis (see the module docstring)."""
        if self._leaving() >= 0:
            # keep c_j where its sign suits column j's bound (c_j > 0 at
            # L, c_j < 0 at U), else 0: the start is then dual feasible
            cost = self.cost[:self.ns]
            clipped = [c if (c > 0) == (st == "L") else 0
                       for c, st in zip(cost, self.status)]
            if clipped == cost:
                # the start is priced with this cost already, and the
                # dual's reduced-cost row is the one pricing its basis
                # again would give: the same vector, in lowest terms over
                # a positive denominator, so the same integers
                self._dual()
            else:
                self._start(clipped)
                self._dual()
                self._start(cost)
        self._optimize()

    def restart(self, lp: LpInstance) -> None:
        """Take lp in place of self.lp at the current basis.  lp has the
        same objective, bounds and rows as self.lp but for the rows'
        right-hand sides (ValueError otherwise, with the tableau
        untouched).

        Row i reads sign * (a . x) + s_i = sign * rhs_i, where sign is -1
        for a >= row and s_i is its slack, so a change d of rhs_i adds
        sign * d times column s_i to the last column: a shift of s_i by
        -sign * d, basic or not (see _shift; rows stay in lowest terms).
        The reduced costs do not change, so an optimal basis stays dual
        feasible, and the dual simplex repairs the values."""
        old = self.lp
        if (lp.objective, lp.lower, lp.upper) != (old.objective, old.lower, old.upper):
            raise ValueError("a warm start keeps the objective and the bounds")
        if len(lp.rows) != self.m:
            raise ValueError("a warm start keeps the number of rows")
        shifts = []
        for i, (r, s) in enumerate(zip(lp.rows, self.rows)):
            if r.coeffs != s.coeffs or r.sense != s.sense:
                raise ValueError(f"a warm start changes row {i} in more than its rhs")
            d = r.rhs - s.rhs
            if d:
                shifts.append((self.ns + i, d if r.sense == GE else -d))
        for slack, delta in shifts:
            self._shift(slack, delta)
        self.lp, self.rows = lp, list(lp.rows)
        self.pivots = self.bound_flips = 0

    def scaled_point(self) -> tuple[list[int], int]:
        """Values of the LP variables at the current basis, as (integer
        numerators, denominator) in lowest terms: a basic value is its
        row's last entry over den[i], a nonbasic or fixed one its bound."""
        basic = []
        for i, col in enumerate(self.basis):
            if col < self.ns:
                v, d = self.matrix[i][-1], self.den[i]
                g = gcd(v, d)
                basic.append((self.vars[col], v // g, d // g))
        denom = lcm(*(d for _, _, d in basic))
        if self.column is None:
            nums = [a * denom for a in self._folded()]
        else:
            nums = [a * denom for a in self.fixed]
            for j, a in zip(self.vars, self._folded()):
                nums[j] = a * denom
        for j, v, d in basic:
            nums[j] = v * (denom // d)
        return nums, denom

    # -- setup -----------------------------------------------------------

    def _start(self, cost: list[int]) -> None:
        """Price the current basis with the integer cost (the structural
        columns' prices in units of 1/cost_den, padded with zeros): red /
        red_den are the reduced costs in the same units (0 on basic
        columns), then minus the objective, the fixed variables' part
        included."""
        self.cost = cost = cost + [0] * (self.total - len(cost))
        # only structural columns have a cost; eliminating each priced
        # basic row, a unit vector in its basic column, zeroes that column
        red = cost + [-sum(map(mul, cost, self._folded())) - self.fixed_cost]
        den = 1
        for col, vec, p in zip(self.basis, self.matrix, self.den):
            if cost[col]:
                nz = [(c, a) for c, a in enumerate(vec) if a]
                red, den = _eliminate(red, den, cost[col] * den, nz, p)
        self.red, self.red_den = red, den

    def add_rows(self, rows: Sequence[LpRow]) -> None:
        """Append rows to the priced tableau, each with a new basic slack
        column, expressed in the current basis: the cold tableau's rows
        and every lazy round's cuts come in here.  The existing rows and
        the reduced-cost row widen once, by one zero per new slack.  The
        reduced costs do not change, so an optimal basis stays dual
        feasible; a row violated at the current point leaves its slack
        below 0."""
        at = self._folded()
        first, added = self.total, len(rows)
        pad = [0] * added
        for vec in self.matrix:
            vec[first:first] = pad
        self.red[first:first] = pad
        self.total += added
        old = list(zip(self.basis, self.matrix, self.den))
        # the basic rows stay as they are here, so each one's nonzeros
        # are listed once, by the first new row that touches it
        nzs: list[list[tuple[int, int]] | None] = [None] * len(old)
        for slack, r in enumerate(rows, first):
            coeffs, rhs = (r.coeffs, r.rhs) if self.column is None else self._narrow(r)
            vec, den = _tableau_row(coeffs, r.sense, rhs, slack, self.total, at), 1
            # no basic row touches a new slack, so it ends up holding +den
            for i, (col, prow, p) in enumerate(old):
                if vec[col]:
                    nz = nzs[i]
                    if nz is None:
                        nz = nzs[i] = [(c, a) for c, a in enumerate(prow) if a]
                    vec, den = _eliminate(vec, den, vec[col], nz, p)
            self.matrix.append(vec)
            self.den.append(den)
        self.basis += range(first, self.total)
        self.status += ["B"] * added
        self.lower += pad
        self.upper += [None] * added
        self.movable += range(first, self.total)
        self.cost += pad
        self.rows += rows
        self.m += added

    # -- core ------------------------------------------------------------

    def _shift(self, j: int, delta: int) -> None:
        """Move nonbasic column j by delta: the basic values and the
        objective in every row's last entry follow.  On a basic column
        the same update lowers that column's value by delta: a change of
        the constant terms by -delta times column j (see restart)."""
        if delta:
            for vec in self.matrix:
                if vec[j]:
                    vec[-1] -= delta * vec[j]
            self.red[-1] -= delta * self.red[j]

    def _pivot(self, i: int, j: int, leaving_status: str) -> None:
        """Make nonbasic column j basic in row i; the old basic column
        leaves at leaving_status."""
        old = self.basis[i]
        self._shift(j, -self._bound_value(j))
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
        self.red, self.red_den = _eliminate(self.red, self.red_den, self.red[j], nz, p)
        self.basis[i] = j
        self.status[j] = "B"
        self.status[old] = leaving_status
        self._shift(old, self._bound_value(old))
        self.pivots += 1

    def _entering(self, red: list[int], bland: bool) -> int:
        # red shares one positive denominator, so its integers order the
        # columns exactly as the reduced costs do; basic columns have red 0
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
        lower, upper, den = self.lower, self.upper, self.den
        stall = 0
        bland = False
        for _ in range(_MAX_PIVOTS):
            j = self._entering(self.red, bland)
            if j < 0:
                return
            rising = self.status[j] == "L"
            # ratio test: the step is t / t_den; moving j by one unit moves
            # row i's basic value at rate -a/den[i] (rising) or a/den[i],
            # and a bound flip is the first candidate
            t = None if upper[j] is None else upper[j] - lower[j]
            t_den = 1
            leave_row = -1
            leave_status = "L"
            for i, row in enumerate(self.matrix):
                a = row[j]
                if not a:
                    continue
                col = self.basis[i]
                rate = -a if rising else a  # den[i] times the rate
                if rate > 0:
                    if upper[col] is None:
                        continue
                    num, d = upper[col] * den[i] - row[-1], rate
                    hit = "U"
                else:
                    num, d = row[-1] - lower[col] * den[i], -rate
                    hit = "L"
                if t is None or num * t_den < t * d or (
                        num * t_den == t * d and leave_row >= 0
                        and col < self.basis[leave_row]):
                    t, t_den = num, d
                    leave_row = i
                    leave_status = hit
            if t is None:
                raise LpUnbounded("improving direction with no blocking bound")
            if leave_row < 0:
                self._shift(j, t if rising else -t)
                self.status[j] = "U" if rising else "L"
                self.bound_flips += 1
            else:
                self._pivot(leave_row, j, leave_status)
            # a nonzero step lowers the objective
            if t:
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
        for i, (col, vec, d) in enumerate(zip(self.basis, self.matrix, self.den)):
            if col < best and (vec[-1] < lower[col] * d or (
                    upper[col] is not None and vec[-1] > upper[col] * d)):
                leave_row = i
                best = col
        return leave_row

    def _dual(self) -> None:
        """Bounded dual simplex with Bland's rule from a dual feasible
        basis, to a basis whose values lie within their bounds: the cold
        start's dual phase and every lazy round.  LpInfeasible when a
        basic value cannot be repaired, naming it: an LP variable, or the
        slack of an LP row."""
        status = self.status
        for _ in range(_MAX_PIVOTS):
            r = self._leaving()
            if r < 0:
                return
            col = self.basis[r]
            prow = self.matrix[r]
            below = prow[-1] < self.lower[col] * self.den[r]
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
                name = (f"variable {self.vars[col]}" if col < self.ns
                        else f"the slack of row {col - self.ns}")
                raise LpInfeasible(f"no column can move {name} into its bounds")
            self._pivot(r, j, "L" if below else "U")
        raise RuntimeError("dual simplex pivot limit exceeded")


def _tableau_row(coeffs: dict[int, int], sense: str, rhs: int, slack: int,
                 width: int, at: Sequence[int]) -> list[int]:
    """The tableau row of coeffs . x (sense) rhs, coefficients by tableau
    column, over denominator 1 with its slack at column slack, negated for
    a >= row so that the slack holds +1; width columns, then the rhs minus
    the row at the structural values `at`."""
    sign = -1 if sense == GE else 1
    vec = [0] * (width + 1)
    for j, a in coeffs.items():
        vec[j] = sign * a
        rhs -= a * at[j]
    vec[slack] = 1
    vec[-1] = sign * rhs
    return vec


def common(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
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
    its smallest column each time (in place where that pivot is 1, else
    scaled by the pivot and then divided by its gcd), and is kept, keyed
    by its smallest column, if anything is left."""

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
            # v * p - f * piv has the zeros of v - (f / p) * piv; at p = 1
            # v is reduced in place, otherwise one gcd keeps it small
            p, f = piv[col], v[col]
            if p != 1:
                v = {c: a * p for c, a in v.items()}
            for c2, a in piv.items():
                a = v.get(c2, 0) - f * a
                if a:
                    v[c2] = a
                else:
                    v.pop(c2, None)
            if p != 1:
                g = gcd(*v.values())
                if g > 1:
                    v = {c: a // g for c, a in v.items()}
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _rank_certificate(num_vars: int, rows: Sequence[LpRow],
                      tight_rows: Sequence[int],
                      tight_bounds: Sequence[tuple[int, str]]) -> list[tuple]:
    """Greedy independent subset of the tight constraints in the given
    order, as x-space row vectors: num_vars of them exactly at a vertex;
    tight_rows index rows.

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
        if tracker.add({c: a for c, a in rows[i].coeffs.items() if c not in bounded}):
            chosen.append(("row", i))
    return chosen


def _excess(r: LpRow, nums: Sequence[int], denom: int) -> int:
    """denom times (row value minus rhs) of r at the point nums / denom;
    its sign is that of the row's value minus its rhs."""
    return sum(a * nums[j] for j, a in r.coeffs.items()) - r.rhs * denom


def _holds(sense: str, excess: int) -> bool:
    """Whether a row of this sense holds at this excess (see _excess)."""
    return excess >= 0 if sense == GE else excess <= 0


def _optimum(simplex: _Simplex) -> BasicOptimum:
    """The simplex's current point, checked against every row, with its
    value, tight rows and bounds and a full-rank certificate.  One integer
    evaluation per row, over the point's denominator, decides both
    whether the row holds and whether it is tight."""
    lp = simplex.lp
    nums, denom = simplex.scaled_point()
    tight_rows = []
    for i, r in enumerate(simplex.rows):
        excess = _excess(r, nums, denom)
        if excess == 0:
            tight_rows.append(i)
        elif not _holds(r.sense, excess):
            raise RuntimeError(f"simplex produced point violating row {i}")
    value = Fraction(sum(map(mul, simplex.cost_nums, nums)), simplex.cost_den * denom)
    tight_bounds: list[tuple[int, str]] = []
    for j, (x, lo, up) in enumerate(zip(nums, lp.lower, lp.upper)):
        if x == lo * denom:
            tight_bounds.append((j, "lower"))
        if up is not None and x == up * denom:
            tight_bounds.append((j, "upper"))
    # rows whose slack is nonbasic first (False sorts before True)
    status, ns = simplex.status, simplex.ns
    order = sorted(tight_rows, key=lambda i: status[ns + i] == "B")
    cert = _rank_certificate(lp.num_vars, simplex.rows, order, tight_bounds)
    if len(cert) != lp.num_vars:
        raise RuntimeError("solver returned a non-vertex point")
    return BasicOptimum(value, nums, denom, tight_rows, tight_bounds, cert,
                        simplex.pivots, simplex.bound_flips)


def solve(lp: LpInstance) -> BasicOptimum:
    """Optimal vertex of the feasible region, or LpInfeasible/LpUnbounded."""
    return solve_lazy(lp, lambda nums, denom: []).optimum


# called with the point as (integer numerators, denominator)
SeparationCallback = Callable[[list[int], int], list[LpRow]]


@dataclass
class LazyResult:
    optimum: BasicOptimum
    rows: list[LpRow]  # full row set of the final relaxation, a copy
    separation_calls: int
    # the final tableau, until a warm start takes it over
    tableau: _Simplex | None = field(repr=False)


def solve_lazy(lp: LpInstance, oracle: SeparationCallback,
               max_added: int | None = None,
               start: LazyResult | None = None) -> LazyResult:
    """Cutting-plane loop: solve, separate, add violated rows, repeat.

    The oracle must be sound (returned rows are valid for the implicit
    system and violated at the queried point) and complete (it returns no
    rows only when the point is feasible for the full system).  A vertex
    of a relaxation that the oracle accepts is a vertex of the full
    system.  The oracle may return several violated rows per call.  It is
    called with the point as integer numerators over one denominator in
    lowest terms (`BasicOptimum.nums`, `.denom`).

    One tableau serves every round: the added rows are appended to it and
    the dual simplex re-optimises from the previous optimal basis.  The
    optimum's pivots and bound flips are totals over all rounds.

    With `start`, an earlier result, the loop begins at its optimal basis
    instead of a cold solve: lp must be `start.rows` with the same
    objective and bounds, changed in right-hand sides only
    (`_Simplex.restart`; ValueError otherwise).  Every result keeps its
    final tableau until a warm start takes it over, so a result starts
    one solve; the pivots and bound flips count from there.
    """
    if max_added is None:
        max_added = 10 * (lp.num_vars + 2 ** min(20, lp.num_vars))
    if start is None:
        simplex = _Simplex(lp)
        simplex.solve()
    else:
        simplex = start.tableau
        if simplex is None:
            raise ValueError("the start result holds no tableau")
        simplex.restart(lp)
        start.tableau = None
        simplex._dual()
    calls = 0
    while True:
        opt = _optimum(simplex)
        cuts = oracle(opt.nums, opt.denom)
        calls += 1
        if not cuts:
            return LazyResult(opt, list(simplex.rows), calls, simplex)
        for c in cuts:
            if any(not 0 <= j < lp.num_vars for j in c.coeffs):
                raise ValueError("oracle row references an undeclared variable")
            if _holds(c.sense, _excess(c, opt.nums, opt.denom)):
                raise RuntimeError("oracle returned a non-violated row")
        total = len(simplex.rows) + len(cuts)
        if total - len(lp.rows) > max_added:
            raise RuntimeError(
                f"lazy loop exceeded {max_added} added rows "
                f"({total} rows in relaxation)")
        simplex.add_rows(cuts)
        simplex._dual()
