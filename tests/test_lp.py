import math
import random
from fractions import Fraction

import pytest

from kecss import lp
from kecss.certify import CertificationError, recheck_vertex
from kecss.graphs import complete_graph, crossing, cycle_graph, make_graph
from kecss.instances import gen
from kecss.requirements import Requirement
from kecss.separation import Feasible, ScaledPoint, separate_fast

from conftest import prism_hub_edges, row_holds
from reference import full_cut_lp


def _equation(coeffs, rhs):
    """coeffs . x = rhs as a >= row and a <= row."""
    return [lp.row(coeffs, lp.GE, rhs), lp.row(coeffs, lp.LE, rhs)]


def _rows(coeffs, sense, rhs):
    """[the row], or for sense None the equation as two rows."""
    return _equation(coeffs, rhs) if sense is None else [lp.row(coeffs, sense, rhs)]


def test_simplex_face_vertex():
    inst = lp.instance([1, 1], [0, 0], [1, 1], [lp.row({0: 1, 1: 1}, lp.GE, 1)])
    opt = lp.solve(inst)
    assert opt.value == 1
    assert sorted(opt.point) == [Fraction(0), Fraction(1)]
    # x0 flips from its upper bound to 0, then x1 replaces the slack
    assert (opt.pivots, opt.bound_flips) == (1, 1)


def test_infeasible_and_unbounded_signaled_distinctly():
    with pytest.raises(lp.LpInfeasible):
        lp.solve(lp.instance([0], [0], [5],
                             [lp.row({0: 1}, lp.GE, 1), lp.row({0: 1}, lp.LE, 0)]))
    with pytest.raises(lp.LpUnbounded):
        lp.solve(lp.instance([-1], [0], [None], []))


def test_equality_system_unique_point():
    opt = lp.solve(lp.instance([0, 0], [0, 0], [None, None],
                               _equation({0: 1, 1: 1}, 3) + _equation({0: 1, 1: -1}, 1)))
    assert opt.point == [Fraction(2), Fraction(1)]
    # the two >= slacks start below 0; one dual step each
    assert (opt.pivots, opt.bound_flips) == (2, 0)


def test_cold_start_redundant_and_inconsistent_equations():
    # the second equation is twice the first: its slacks stay basic at 0
    inst = lp.instance([1, 2], [0, 0], [None, None],
                       _equation({0: 1, 1: 1}, 3) + _equation({0: 2, 1: 2}, 6)
                       + _equation({0: 1, 1: -1}, 1))
    opt = lp.solve(inst)
    assert opt.point == [2, 1] and opt.value == 4
    recheck_vertex(inst, opt)
    with pytest.raises(lp.LpInfeasible):
        lp.solve(lp.instance([1, 2], [0, 0], [None, None],
                             _equation({0: 1, 1: 1}, 3) + _equation({0: 2, 1: 2}, 5)))


def test_cold_start_clips_cost_for_the_dual_phase(monkeypatch):
    # x1 >= 5 - x0 is violated at x = 0, so the start is priced three
    # times: true cost, the cost clipped for the dual phase (x0 sits at
    # its lower bound with cost -1, so it gets 0), true cost again
    costs = []
    start = lp._Simplex._start

    def recording(self, cost):
        costs.append([str(c) for c in cost])
        start(self, cost)

    monkeypatch.setattr(lp._Simplex, "_start", recording)
    opt = lp.solve(lp.instance([-1, 1], [0, 0], [None, None],
                               [lp.row({0: 1}, lp.LE, 3),
                                lp.row({0: 1, 1: 1}, lp.GE, 5)]))
    assert opt.point == [3, 2] and opt.value == -1
    assert costs == [["-1", "1"], ["0", "1"], ["-1", "1"]]
    # with c >= 0 at lower bounds (every multigraph first LP) the clipped
    # cost is the true cost: the start is priced once, and the dual's
    # reduced costs serve the primal simplex that follows
    costs.clear()
    opt = lp.solve(lp.instance([2, 1, 0], [0, 0, 0], [None, None, None],
                               [lp.row({0: 1, 1: 1}, lp.GE, 5),
                                lp.row({1: 1, 2: 1}, lp.LE, 3)]))
    assert opt.point == [2, 3, 0] and opt.value == 7
    assert costs == [["2", "1", "0"]]
    # feasible after the dual phase, then unbounded along x0
    with pytest.raises(lp.LpUnbounded):
        lp.solve(lp.instance([-1, 0], [0, 0], [None, None],
                             [lp.row({0: 1, 1: 1}, lp.GE, 2)]))


def test_prism_equality_system_halves_and_quarters():
    # the nine tight constraints of the prism fixture over its nine
    # fractional edges admit exactly one solution: rungs 1/2, triangles 3/4
    g = gen("prism-k3").graph
    frac = [e.id for e in g.edges if e.cost > 0]
    var_of = {e: i for i, e in enumerate(frac)}
    members = [1 << v for v in range(6)] + [0b11, 0b1100, 0b110000]  # {1,2} {3,4} {5,6}
    rows = []
    for s in members:
        rhs = 2 if s.bit_count() == 1 else 3
        rows += _equation({var_of[e]: 1 for e in crossing(g, s, frac)}, rhs)
    opt = lp.solve(lp.instance([0] * 9, [0] * 9, [None] * 9, rows))
    values = {e: opt.point[var_of[e]] for e in frac}
    for e in frac:
        expected = Fraction(1, 2) if g.edges[e].cost == 1 else Fraction(3, 4)
        assert values[e] == expected
    # (2 + 2 - 3) / 2 = 1/2 is forced for each rung
    assert (2 + 2 - 3) / Fraction(2) == Fraction(1, 2)


def test_vertex_certificate_full_rank():
    rng = random.Random(5)
    for _ in range(25):
        nv = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(0, 6)):
            coeffs = {j: rng.randint(-3, 3) for j in range(nv)}
            coeffs = {j: c for j, c in coeffs.items() if c}
            if not coeffs:
                continue
            rows.append(lp.row(coeffs, rng.choice([lp.GE, lp.LE]),
                               rng.randint(-4, 4)))
        inst = lp.instance([rng.randint(0, 5) for _ in range(nv)],
                           [0] * nv, [rng.randint(1, 4) for _ in range(nv)], rows)
        try:
            opt = lp.solve(inst)
        except lp.LpInfeasible:
            continue
        assert len(opt.certificate) == nv
        recheck_vertex(inst, opt)  # independent rank computation
        for r in inst.rows:
            assert row_holds(r, opt.point)


def test_lazy_trivial_oracle_matches_direct_solve():
    rows = [lp.row({0: 1, 1: 2}, lp.GE, 3)]
    inst = lp.instance([2, 1], [0, 0], [4, 4], rows)
    direct = lp.solve(inst)
    lazy = lp.solve_lazy(inst, lambda nums, denom: [])
    assert lazy.optimum.value == direct.value
    assert lazy.separation_calls == 1


def test_lazy_kecss_lp_on_k5():
    g = complete_graph(5)
    req = Requirement(g, 4, {}, 3)

    def oracle(nums, denom):
        verdict = separate_fast(ScaledPoint(g, nums, denom), req)
        if isinstance(verdict, Feasible):
            return []
        return [lp.row({e: 1 for e in crossing(g, c.side)}, lp.GE, c.requirement)
                for c in verdict.cuts]

    inst = lp.instance([1] * g.m, [0] * g.m, [1] * g.m, [])
    result = lp.solve_lazy(inst, oracle)
    assert result.optimum.value == 10
    assert all(v == 1 for v in result.optimum.point)
    # matches the fully materialized system
    assert full_cut_lp(g, 4, "ecss").value == 10


def test_lazy_infeasible_propagates():
    g = cycle_graph(5)
    req = Requirement(g, 4, {}, 3)

    def oracle(nums, denom):
        verdict = separate_fast(ScaledPoint(g, nums, denom), req)
        if isinstance(verdict, Feasible):
            return []
        return [lp.row({e: 1 for e in crossing(g, c.side)}, lp.GE, c.requirement)
                for c in verdict.cuts]

    inst = lp.instance([1] * 5, [0] * 5, [1] * 5, [])
    with pytest.raises(lp.LpInfeasible):
        lp.solve_lazy(inst, oracle)


def test_infeasibility_names_the_basic_column_not_its_tableau_row():
    # after the dual simplex's pivots the stuck basic variable sits in a
    # tableau row whose position is neither its LP row nor its column:
    # the slack of LP row 0 (2x0 + 2x1 <= 3, which x1 >= 2 + x0 rules
    # out) in tableau row 2, and structural x0 (x0 <= -2 against
    # x0 >= 0) in tableau row 1
    cases = [
        (lp.instance([2, 3], [0, 0], [2, None],
                     [lp.row({0: 2, 1: 2}, lp.LE, 3), lp.row({1: -1}, lp.LE, -1),
                      lp.row({0: -1, 1: 1}, lp.GE, 2)]),
         "no column can move the slack of row 0 into its bounds"),
        (lp.instance([3], [0], [2], [lp.row({0: -2}, lp.LE, 0), lp.row({0: 1}, lp.LE, -2)]),
         "no column can move variable 0 into its bounds"),
    ]
    for inst, message in cases:
        with pytest.raises(lp.LpInfeasible) as err:
            lp.solve(inst)
        assert str(err.value) == message


def _substituted(inst):
    """inst with each fixed variable (lower == upper) substituted out of
    its rows, as (the LP over the other variables in order, those
    variables, the fixed variables' objective part)."""
    free = [j for j, (lo, up) in enumerate(zip(inst.lower, inst.upper)) if lo != up]
    fixed = {j: inst.lower[j] for j in range(inst.num_vars) if j not in free}
    rows = []
    for r in inst.rows:
        rhs = r.rhs - sum(a * fixed[j] for j, a in r.coeffs.items() if j in fixed)
        rows.append(lp.row({free.index(j): a for j, a in r.coeffs.items() if j not in fixed},
                           r.sense, rhs))
    sub = lp.instance([inst.objective[j] for j in free], [inst.lower[j] for j in free],
                      [inst.upper[j] for j in free], rows)
    return sub, free, sum(inst.objective[j] * v for j, v in fixed.items())


def test_fixed_columns_solve_like_substituted_rows():
    # a fixed variable takes no tableau column: the LP solves as the same
    # LP with it substituted out of the rows, pivot for pivot, and the
    # result speaks of it at its bound.  Fixed variables come before,
    # between and after the free ones, some with nonzero cost
    rng = random.Random(53)
    seen = {"solved": 0, "infeasible": 0, "named": 0, "fixed_cost": 0}
    for _ in range(150):
        nf = rng.randint(1, 5)
        kinds = ["fixed"] + ["free"] * nf + ["fixed"]
        kinds.insert(rng.randint(1, nf + 1), rng.choice(["fixed", "free"]))
        lower, upper, cost = [], [], []
        for kind in kinds:
            lo = rng.randint(-1, 0)
            up = rng.choice([1, 3, None])
            if kind == "fixed":
                lo = up = rng.randint(-1, 3)
            lower.append(lo)
            upper.append(up)
            cost.append(rng.randint(-3, 3))
        nv = len(kinds)
        # most rows hold at x0, so most instances are feasible
        x0 = [rng.randint(lo, 3 if up is None else up) for lo, up in zip(lower, upper)]
        rows = []
        for _ in range(rng.randint(1, 2 * nv)):
            coeffs = {j: rng.randint(-3, 3) for j in range(nv)}
            sense = rng.choice([lp.GE, lp.LE, None])
            rhs = sum(c * x0[j] for j, c in coeffs.items())
            if rng.random() < 0.2:
                rhs = rng.randint(-4, 6)
            rows += _rows(coeffs, sense, rhs)
        inst = lp.instance(cost, lower, upper, rows)
        sub, free, constant = _substituted(inst)
        simplex = lp._Simplex(inst)
        assert (simplex.ns, simplex.total) == (len(free), len(free) + len(rows))
        try:
            want = lp.solve(sub)
        except (lp.LpInfeasible, lp.LpUnbounded) as exc:
            with pytest.raises(type(exc)) as err:
                lp.solve(inst)
            # the structural variable named is the LP's, not the column
            message = str(exc)
            if message.startswith("no column can move variable "):
                c = int(message.split()[5])
                message = message.replace(f"variable {c} ", f"variable {free[c]} ")
                seen["named"] += 1
            assert str(err.value) == message
            seen["infeasible"] += isinstance(exc, lp.LpInfeasible)
            continue
        got = lp.solve(inst)
        assert got.value == want.value + constant
        assert [got.point[j] for j in free] == want.point
        assert all(got.point[j] == lower[j] for j in range(nv) if j not in free)
        assert (got.pivots, got.bound_flips, got.tight_rows) == (
            want.pivots, want.bound_flips, want.tight_rows)
        bounded = {j for kind, j, *_ in got.certificate if kind == "bound"}
        assert bounded >= set(range(nv)) - set(free)
        for j in set(range(nv)) - set(free):
            assert (j, "lower") in got.tight_bounds and (j, "upper") in got.tight_bounds
        assert len(got.certificate) == nv
        recheck_vertex(inst, got)
        seen["solved"] += 1
        seen["fixed_cost"] += constant != 0
    assert all(count > 20 for count in seen.values()), seen
    # the stuck structural variable is LP variable 1, tableau column 0
    inst = lp.instance([5, 3], [1, 0], [1, 2],
                       [lp.row({1: -2}, lp.LE, 0), lp.row({0: 1, 1: 1}, lp.LE, -1)])
    with pytest.raises(lp.LpInfeasible, match="^no column can move variable 1 into"):
        lp.solve(inst)


def test_lazy_equals_materialized_on_random_instances():
    rng = random.Random(17)
    for trial in range(10):
        n = rng.randint(4, 7)
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.8:
                    edges.append((u, v, rng.randint(1, 9)))
        from kecss.graphs import make_graph, edge_connectivity
        g = make_graph(n, edges) if edges else None
        if g is None or edge_connectivity(g) < 4:
            continue
        req = Requirement(g, 4, {}, 3)

        def oracle(nums, denom):
            verdict = separate_fast(ScaledPoint(g, nums, denom), req)
            if isinstance(verdict, Feasible):
                return []
            return [lp.row({e: 1 for e in crossing(g, c.side)}, lp.GE,
                           c.requirement) for c in verdict.cuts]

        inst = lp.instance([e.cost for e in g.edges], [0] * g.m, [1] * g.m, [])
        lazy = lp.solve_lazy(inst, oracle)
        assert lazy.optimum.value == full_cut_lp(g, 4, "ecss").value


def test_lazy_row_cap():
    calls = []

    def oracle(nums, denom):
        calls.append(1)
        return [lp.row({0: 1}, lp.GE, len(calls))]

    with pytest.raises(RuntimeError):
        lp.solve_lazy(lp.instance([1], [0], [None], []), oracle, max_added=5)


def test_degenerate_instances_terminate():
    # many redundant rows through one vertex
    rows = [lp.row({0: 1, 1: 1}, lp.GE, 2)] * 6
    rows += [lp.row({0: 1}, lp.LE, 1), lp.row({1: 1}, lp.LE, 1)]
    opt = lp.solve(lp.instance([1, 1], [0, 0], [1, 1], rows))
    assert opt.value == 2 and opt.point == [Fraction(1), Fraction(1)]


def _enumerate_vertex_optimum(inst):
    """Exact reference: try every square subsystem of tight constraints,
    keep feasible solutions, return the best objective value.  Sound for
    boxed instances, where the region is a polytope."""
    import itertools

    nv = inst.num_vars
    constraints = []  # (row vector, rhs) for candidate tight constraints
    for j in range(nv):
        vec = [Fraction(0)] * nv
        vec[j] = Fraction(1)
        constraints.append((vec, inst.lower[j]))
        constraints.append((list(vec), inst.upper[j]))
    for r in inst.rows:
        vec = [Fraction(0)] * nv
        for j, c in r.coeffs.items():
            vec[j] = Fraction(c)
        constraints.append((vec, Fraction(r.rhs)))

    def solve_square(idx):
        mat = [list(constraints[i][0]) + [constraints[i][1]] for i in idx]
        cols = []
        for col in range(nv):
            piv = None
            for r2 in range(len(cols), nv):
                if mat[r2][col] != 0:
                    piv = r2
                    break
            if piv is None:
                return None
            mat[len(cols)], mat[piv] = mat[piv], mat[len(cols)]
            base = len(cols)
            mat[base] = [c / mat[base][col] for c in mat[base]]
            for r2 in range(nv):
                if r2 != base and mat[r2][col] != 0:
                    f = mat[r2][col]
                    mat[r2] = [a - f * b for a, b in zip(mat[r2], mat[base])]
            cols.append(col)
        point = [Fraction(0)] * nv
        for r2, col in enumerate(cols):
            point[col] = mat[r2][nv]
        return point

    best = None
    for idx in itertools.combinations(range(len(constraints)), nv):
        point = solve_square(idx)
        if point is None:
            continue
        ok = all(inst.lower[j] <= point[j] <= inst.upper[j] for j in range(nv))
        if ok and all(row_holds(r, point) for r in inst.rows):
            value = sum(inst.objective[j] * point[j] for j in range(nv))
            if best is None or value < best:
                best = value
    return best


def test_solve_matches_vertex_enumeration():
    rng = random.Random(2024)
    solved = 0
    infeasible = 0
    for _ in range(120):
        nv = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(0, 4)):
            coeffs = {j: rng.randint(-3, 3) for j in range(nv)}
            coeffs = {j: c for j, c in coeffs.items() if c}
            if not coeffs:
                continue
            sense = rng.choice([lp.GE, lp.LE, None])
            rows += _rows(coeffs, sense, rng.randint(-5, 5))
        inst = lp.instance([rng.randint(-4, 4) for _ in range(nv)],
                           [rng.randint(-2, 0) for _ in range(nv)],
                           [rng.randint(1, 4) for _ in range(nv)], rows)
        expected = _enumerate_vertex_optimum(inst)
        try:
            got = lp.solve(inst)
        except lp.LpInfeasible:
            assert expected is None, "solver said infeasible, oracle found a vertex"
            infeasible += 1
            continue
        assert expected is not None, "oracle found no vertex but solver succeeded"
        assert got.value == expected
        solved += 1
    assert solved > 40 and infeasible > 10


def _check_integer_rows(simplex):
    """Every stored tableau entry is an int, every denominator positive,
    and every row (the reduced-cost row and its last entry included) is
    in lowest terms."""
    s = simplex
    rows = list(zip(s.matrix, s.den)) + [(s.red, s.red_den)]
    assert len(s.den) == len(s.matrix) == s.m
    for vec, den in rows:
        assert len(vec) == s.total + 1
        assert type(den) is int and den > 0
        assert all(type(a) is int for a in vec)
        assert math.gcd(den, *vec) == 1


def _state_from_rows(simplex):
    """The value of every column at the current basis: the nonbasic ones
    at their bounds, and the basic ones solved from the original rows'
    equations (row i with its slack at column ns + i, as the tableau
    builds it, and each fixed variable at its bound) by Gauss-Jordan
    elimination over Fractions."""
    s = simplex
    x = {j: Fraction(s.upper[j] if st == "U" else s.lower[j])
         for j, st in enumerate(s.status) if st != "B"}
    column = {j: c for c, j in enumerate(s.vars)}
    system = []
    for i, r in enumerate(s.rows):
        sign = -1 if r.sense == lp.GE else 1
        coeffs = {column[j]: Fraction(sign * c) for j, c in r.coeffs.items() if j in column}
        coeffs[s.ns + i] = Fraction(1)
        rhs = sign * (r.rhs - sum(c * s.lp.lower[j] for j, c in r.coeffs.items()
                                  if j not in column))
        rhs -= sum((c * x[j] for j, c in coeffs.items() if j in x), Fraction(0))
        system.append([coeffs.get(col, Fraction(0)) for col in s.basis] + [rhs])
    for c in range(s.m):
        p = next(i for i in range(c, s.m) if system[i][c])
        system[c], system[p] = system[p], system[c]
        system[c] = [a / system[c][c] for a in system[c]]
        for i in range(s.m):
            f = system[i][c]
            if i != c and f:
                system[i] = [a - f * b for a, b in zip(system[i], system[c])]
    for col, eq in zip(s.basis, system):
        x[col] = eq[-1]
    return x


def _hidden_rows_oracle(hidden, batch=2):
    """Lazy oracle over an explicit row list: the first `batch` rows that
    the point violates, in list order."""
    def oracle(nums, denom):
        point = [Fraction(a, denom) for a in nums]
        return [r for r in hidden if not row_holds(r, point)][:batch]
    return oracle


def _random_lazy_instance(rng, nv):
    """An LP over nv variables with a few seed rows, and more cut rows to
    hand out lazily.  Most rows hold at one random integer point within
    the bounds, so most instances are feasible."""
    lower = [rng.randint(-1, 0) for _ in range(nv)]
    upper = [rng.choice([1, 3, None]) for _ in range(nv)]
    x0 = [rng.randint(lo, 3 if up is None else up) for lo, up in zip(lower, upper)]

    def rows(count):
        out = []
        for _ in range(count):
            coeffs = {j: rng.randint(-3, 3) for j in range(nv)}
            coeffs = {j: c for j, c in coeffs.items() if c}
            if not coeffs:
                continue
            sense = rng.choice([lp.GE, lp.LE, None])
            rhs = sum(c * x0[j] for j, c in coeffs.items())
            if rng.random() < 0.1:
                rhs = rng.randint(-4, 6)
            elif sense == lp.GE:
                rhs -= rng.randint(0, 2)
            elif sense == lp.LE:
                rhs += rng.randint(0, 2)
            out += _rows(coeffs, sense, rhs)
        return out
    inst = lp.instance([rng.randint(-3, 3) for _ in range(nv)], lower, upper,
                       rows(rng.randint(0, nv)))
    return inst, rows(rng.randint(1, 3 * nv))


def _cut_oracle(graph, k):
    """Lazy oracle of the k-edge-connectivity cut LP, by separate_fast.

    It adds only the cheapest violated cut, so that the warm loop runs
    several rounds on small inputs."""
    req = Requirement(graph, k, {}, 3)

    def oracle(nums, denom):
        verdict = separate_fast(ScaledPoint(graph, nums, denom), req)
        if isinstance(verdict, Feasible):
            return []
        cut = verdict.cuts[0]
        return [lp.row({e: 1 for e in crossing(graph, cut.side)}, lp.GE,
                       cut.requirement)]
    return oracle


def test_incremental_state_matches_tableau(monkeypatch):
    # the entering choice runs once after every pivot and bound flip, and
    # the dual's leaving choice once after every dual pivot, so checks
    # there (and after each add_rows) see every update of the tableau's
    # last column and of the reduced-cost row
    seen = {"checks": 0, "bland": 0, "flips": 0, "infeasible_start": 0,
            "added": 0, "dual": 0}
    entering = lp._Simplex._entering
    leaving = lp._Simplex._leaving
    add_rows = lp._Simplex.add_rows
    dual = lp._Simplex._dual

    def check_state(self):
        # row i's last entry is den[i] times the value of basis[i], and
        # the reduced-cost row's is red_den times minus the objective
        _check_integer_rows(self)
        x = _state_from_rows(self)
        for i, (vec, den) in enumerate(zip(self.matrix, self.den)):
            assert [vec[c] for c in self.basis] == [
                den if r == i else 0 for r in range(self.m)]
            assert Fraction(vec[-1], den) == x[self.basis[i]]
        # the fixed variables' part of the objective is a constant
        obj = sum((self.cost[j] * x[j] for j in range(self.total)), Fraction(0))
        obj += sum(self.cost_nums[j] * lo for j, lo in enumerate(self.lp.lower)
                   if j not in self.vars)
        assert Fraction(self.red[-1], self.red_den) == -obj
        # the nonbasic reduced costs, from the tableau
        for j in range(self.total):
            if self.status[j] != "B":
                assert Fraction(self.red[j], self.red_den) == self.cost[j] - sum(
                    (self.cost[col] * Fraction(self.matrix[i][j], self.den[i])
                     for i, col in enumerate(self.basis)), Fraction(0))
        seen["checks"] += 1

    def checked(self, red, bland):
        check_state(self)
        assert self.red is red
        seen["bland"] += bland
        return entering(self, red, bland)

    def checked_leaving(self):
        check_state(self)
        seen["dual"] += 1
        return leaving(self)

    def checked_add_rows(self, rows):
        add_rows(self, rows)
        check_state(self)
        seen["added"] += len(rows)

    def counted_dual(self):
        # the cold solves below run the dual only when their start is
        # infeasible; its every step goes through checked_leaving
        seen["infeasible_start"] += 1
        dual(self)

    monkeypatch.setattr(lp._Simplex, "_entering", checked)
    monkeypatch.setattr(lp._Simplex, "_dual", counted_dual)
    monkeypatch.setattr(lp._Simplex, "_leaving", checked_leaving)
    monkeypatch.setattr(lp._Simplex, "add_rows", checked_add_rows)
    # no int LP here stalls long enough to reach Bland's rule at the
    # default limit, so every degenerate step takes it
    monkeypatch.setattr(lp, "_STALL_LIMIT", 0)
    instances = [_pin_instances()["beale"]]
    rng = random.Random(31)
    for trial in range(60):
        nv = rng.randint(2, 6) if trial < 50 else 10
        senses = [lp.GE, lp.LE, None] if trial < 50 else [lp.GE, lp.LE]
        rows = []
        for _ in range(rng.randint(1, 2 * nv)):
            coeffs = {j: rng.randint(-3, 3) for j in range(nv)}
            coeffs = {j: c for j, c in coeffs.items() if c}
            if coeffs:
                rows += _rows(coeffs, rng.choice(senses),
                              rng.randint(-4, 6) if trial < 50 else 0)
        instances.append(lp.instance(
            [rng.randint(-3, 3) for _ in range(nv)],
            [rng.randint(-1, 0) for _ in range(nv)],
            [rng.choice([1, 3, None]) for _ in range(nv)], rows))
    # the same with a fixed variable first and last (see
    # test_fixed_columns_solve_like_substituted_rows)
    for inst in instances[-20:]:
        nv = inst.num_vars + 2
        instances.append(lp.instance(
            [2, *inst.objective, -1], [1, *inst.lower, 0], [1, *inst.upper, 0],
            [lp.row({0: 1, nv - 1: 2, **{j + 1: a for j, a in r.coeffs.items()}},
                    r.sense, r.rhs + 1) for r in inst.rows]))
    for inst in instances:
        try:
            opt = lp.solve(inst)
        except (lp.LpInfeasible, lp.LpUnbounded):
            continue
        seen["flips"] += opt.bound_flips
    assert seen["checks"] > 300
    assert all(seen[key] > 0 for key in ("bland", "flips", "infeasible_start"))
    # warm lazy rounds: the k=6 hub under separation, and random LPs whose
    # cut rows come from a hidden list
    hub = gen("prism-hub-k6").graph
    for zero_lower in (0, 1):  # zero-cost edges free, then fixed at 1
        lp.solve_lazy(lp.instance([e.cost for e in hub.edges],
                                  [0 if e.cost else zero_lower for e in hub.edges],
                                  [1] * hub.m, []), _cut_oracle(hub, 6))
    rng = random.Random(37)
    for _ in range(80):
        inst, hidden = _random_lazy_instance(rng, rng.randint(2, 6))
        try:
            lp.solve_lazy(inst, _hidden_rows_oracle(hidden))
        except (lp.LpInfeasible, lp.LpUnbounded):
            continue
    assert seen["added"] > 80 and seen["dual"] > 150


def _pin_instances():
    # Beale's cycling example with its first two rows times 100
    beale = lp.instance(
        [Fraction(-3, 4), 150, Fraction(-1, 50), 6], [0] * 4, [None] * 4,
        [lp.row({0: 25, 1: -6000, 2: -4, 3: 900}, lp.LE, 0),
         lp.row({0: 50, 1: -9000, 2: -2, 3: 300}, lp.LE, 0),
         lp.row({2: 1}, lp.LE, 1)])
    # the first LP that kecss solves on the k=6 hub: 0 <= x <= 1 and
    # the ten degree cuts
    hub = gen("prism-hub-k6").graph
    hub_lp = lp.instance(
        [e.cost for e in hub.edges], [0] * hub.m, [1] * hub.m,
        [lp.row({e: 1 for e in crossing(hub, 1 << (v - 1))}, lp.GE, 6)
         for v in range(1, hub.n + 1)])
    # a multigraph LP (x >= 0): x = 0 violates every cut, so the cold
    # start runs the dual simplex first
    multi = gen("random", seed=6, n=8, p=0.5, k=5, cost_min=1, cost_max=10,
                ensure_connectivity=5).graph
    multi_lp = lp.instance(
        [e.cost for e in multi.edges], [0] * multi.m, [None] * multi.m,
        [lp.row({e: 1 for e in crossing(multi, 1 << (v - 1))}, lp.GE, 5)
         for v in range(1, multi.n + 1)])
    return {"beale": beale, "hub": hub_lp, "multi": multi_lp}


def test_pivot_sequence_pinned():
    # (value, point, pivots, bound flips): any change to the pivot
    # sequence shows here
    expected = {
        "beale": ("-1/20", "1/25 0 1 0", 6, 0),
        "hub": ("9", " ".join(["1"] * 30 + ["1/2"] * 6), 6, 2),
        "multi": ("50", "0 0 0 5 0 0 0 0 5 0 5 5 0 0 0 0 0 0 0 0 0 5", 6, 0),
    }
    for name, inst in _pin_instances().items():
        opt = lp.solve(inst)
        got = (str(opt.value), " ".join(str(v) for v in opt.point),
               opt.pivots, opt.bound_flips)
        assert got == expected[name], name


def _tableau_state(s):
    return (s.matrix, s.den, s.basis, s.status, s.movable, s.red, s.red_den,
            s.cost)


def test_add_rows_at_once_equals_one_at_a_time(monkeypatch):
    # the hub LP's cut rows, as its lazy loop adds them, appended to its
    # solved tableau in one call and one by one; and the cold tableau of
    # the hub LP against its bare columns given the degree rows one by one
    hub = gen("prism-hub-k6").graph
    inst = _pin_instances()["hub"]
    cuts = lp.solve_lazy(inst, _cut_oracle(hub, 6)).rows[len(inst.rows):]
    assert len(cuts) == 3
    pivots = []
    pivot = lp._Simplex._pivot

    def recorded(self, i, j, leaving_status):
        pivots.append((self, i, j, leaving_status))
        pivot(self, i, j, leaving_status)

    monkeypatch.setattr(lp._Simplex, "_pivot", recorded)
    at_once, one_by_one = lp._Simplex(inst), lp._Simplex(inst)
    at_once.solve()
    one_by_one.solve()
    at_once.add_rows(cuts)
    for r in cuts:
        one_by_one.add_rows([r])
    assert _tableau_state(at_once) == _tableau_state(one_by_one)
    pivots.clear()
    at_once._dual()
    one_by_one._dual()
    seq = [[step[1:] for step in pivots if step[0] is s] for s in (at_once, one_by_one)]
    assert seq[0] == seq[1] and seq[0]
    assert _tableau_state(at_once) == _tableau_state(one_by_one)
    cold = lp._Simplex(inst)
    bare = lp._Simplex(lp.LpInstance(inst.objective, inst.lower, inst.upper, ()))
    for r in inst.rows:
        bare.add_rows([r])
    assert _tableau_state(cold) == _tableau_state(bare)


def test_recheck_vertex_accepts_pinned_lps():
    # rows with large coefficients (beale's), the hub LP at its bounds,
    # and the multigraph LP
    for inst in _pin_instances().values():
        recheck_vertex(inst, lp.solve(inst))
    # x0/3 + 2x1/7 >= 1, x0/2 - x2/5 <= 1/4, 3x1/4 + 5x2/6 >= 2/3, each
    # times the lcm of its denominators
    thirds = lp.instance(
        [1, 1, 2], [0, 0, 0], [None, 1, None],
        [lp.row({0: 7, 1: 6}, lp.GE, 21),
         lp.row({0: 10, 2: -4}, lp.LE, 5),
         lp.row({1: 9, 2: 10}, lp.GE, 8)])
    recheck_vertex(thirds, lp.solve(thirds))


def test_recheck_vertex_rejects_deficient_rank():
    # two proportional tight rows span one dimension of two
    inst = lp.instance([1, 1], [0, 0], [None, None],
                       [lp.row({0: 1, 1: 1}, lp.GE, 1), lp.row({0: 3, 1: 3}, lp.GE, 3)])
    with pytest.raises(CertificationError, match="rank 1 < 2"):
        recheck_vertex(inst, lp.BasicOptimum(Fraction(1), [1, 1], 2, [0, 1], [], []))
    # a tight bound on x0 and rows that agree once x0 is fixed: rank 2 of 3
    inst = lp.instance([1, 1, 1], [0, 0, 0], [1, 1, 1],
                       [lp.row({0: 2, 1: 1, 2: 1}, lp.GE, 1),
                        lp.row({0: 5, 1: 1, 2: 1}, lp.GE, 1)])
    with pytest.raises(CertificationError, match="rank 2 < 3"):
        recheck_vertex(inst, lp.BasicOptimum(Fraction(1), [0, 1, 1], 2, [0, 1],
                                             [(0, "lower")], []))


def test_dual_ratio_tie_goes_to_smallest_column():
    # x = 0 solves the first relaxation; the cut x0 + x1 + x2 >= 1 then
    # leaves its slack at -1, and in the dual ratio test columns 0 and 2
    # tie at |red| / |a| = 1 (column 1 has 2).  Bland's rule enters
    # column 0; entering column 2 would end at (0, 0, 1)
    inst = lp.instance([1, 2, 1], [0, 0, 0], [1, 1, 1], [])
    cold = lp.solve(inst)
    assert cold.point == [0, 0, 0]
    cut = lp.row({0: 1, 1: 1, 2: 1}, lp.GE, 1)
    result = lp.solve_lazy(inst, _hidden_rows_oracle([cut]))
    assert result.optimum.value == 1
    assert result.optimum.point == [1, 0, 0]
    assert result.optimum.pivots == cold.pivots + 1


def _hub_lp(graph, k, rng=None):
    """Subgraph cut LP of a hub graph: 0 <= x <= 1 and the degree cuts;
    random costs in 0..9 when rng is given, else the graph's costs."""
    costs = ([rng.randint(0, 9) for _ in graph.edges] if rng
             else [e.cost for e in graph.edges])
    return lp.instance(costs, [0] * graph.m, [1] * graph.m,
                       [lp.row({e: 1 for e in crossing(graph, 1 << (v - 1))},
                               lp.GE, k) for v in range(1, graph.n + 1)])


def _recording(oracle):
    """The oracle, and the list of every batch of rows it returns."""
    batches = []

    def wrapped(nums, denom):
        cuts = oracle(nums, denom)
        batches.append(cuts)
        return cuts
    return wrapped, batches


def test_lazy_totals_and_warm_pivots_below_cold():
    hub = gen("prism-hub-k6").graph
    inst = _hub_lp(hub, 6)
    oracle, batches = _recording(_cut_oracle(hub, 6))
    result = lp.solve_lazy(inst, oracle)
    assert result.separation_calls == len(batches) > 2
    # the per-round cold solves of the same sequence of row sets
    rows = list(inst.rows)
    cold = []
    for cuts in batches:
        cold.append(lp.solve(lp.LpInstance(inst.objective, inst.lower,
                                           inst.upper, tuple(rows))))
        rows += cuts
    assert rows == result.rows
    # the first LP's value is 9; the cut LP's is 21/2
    assert cold[-1].value == result.optimum.value == Fraction(21, 2)
    assert cold[-1].point == result.optimum.point
    # the optimum carries totals over all rounds: the first round's cold
    # counts plus the dual pivots of the later ones
    opt = result.optimum
    assert opt.pivots > cold[0].pivots
    assert opt.bound_flips == cold[0].bound_flips
    assert opt.pivots < sum(c.pivots for c in cold)


def _warm_vs_cold(inst, oracle):
    """Run warm solve_lazy and a cold solve of its final row set; both
    must agree on the value, or both raise the same exception."""
    oracle, batches = _recording(oracle)
    try:
        result = lp.solve_lazy(inst, oracle)
    except (lp.LpInfeasible, lp.LpUnbounded) as exc:
        rows = list(inst.rows) + [r for cuts in batches for r in cuts]
        with pytest.raises(type(exc)):
            lp.solve(lp.LpInstance(inst.objective, inst.lower, inst.upper,
                                   tuple(rows)))
        return type(exc).__name__
    final = lp.LpInstance(inst.objective, inst.lower, inst.upper,
                          tuple(result.rows))
    assert lp.solve(final).value == result.optimum.value
    recheck_vertex(final, result.optimum)
    for r in result.rows:
        assert row_holds(r, result.optimum.point)
    return "solved"


def test_warm_lazy_matches_cold_solve_of_final_rows():
    rng = random.Random(41)
    outcomes = []
    for g, seeds in ((3, 4), (5, 2)):
        graph = make_graph(3 * g + 1, prism_hub_edges(g, 1, 2))
        for _ in range(seeds):
            outcomes.append(_warm_vs_cold(_hub_lp(graph, 6, rng),
                                          _cut_oracle(graph, 6)))
    assert outcomes == ["solved"] * 6
    for _ in range(120):
        inst, hidden = _random_lazy_instance(rng, rng.randint(2, 7))
        outcomes.append(_warm_vs_cold(inst, _hidden_rows_oracle(hidden)))
    assert all(outcomes.count(o) > 5
               for o in ("solved", "LpInfeasible", "LpUnbounded"))
    # a cut that empties a feasible relaxation: the dual finds no column
    # to repair the new row, and the cold solve fails in its dual phase
    inst = lp.instance([1, 1], [0, 0], [5, None], [lp.row({0: 1, 1: 1}, lp.GE, 2)])
    cut = lp.row({0: 1, 1: 1}, lp.LE, 1)
    assert _warm_vs_cold(inst, _hidden_rows_oracle([cut])) == "LpInfeasible"


def _with_rows(inst, rows):
    return lp.LpInstance(inst.objective, inst.lower, inst.upper, tuple(rows))


def _random_kept_result(rng, multiplied=False):
    """A seeded random lazy LP solved with its tableau kept, its oracle,
    and the LP; None when it is infeasible or unbounded.  With
    `multiplied`, each row is multiplied by a random 1..4, so that a rhs
    change of 1 may be a fraction of the row's common factor."""
    inst, hidden = _random_lazy_instance(rng, rng.randint(2, 6))
    if multiplied:
        def times(r):
            q = rng.randint(1, 4)
            return lp.row({j: c * q for j, c in r.coeffs.items()}, r.sense, r.rhs * q)
        inst = _with_rows(inst, [times(r) for r in inst.rows])
        hidden = [times(r) for r in hidden]
    oracle = _hidden_rows_oracle(hidden)
    try:
        return lp.solve_lazy(inst, oracle), oracle, inst
    except (lp.LpInfeasible, lp.LpUnbounded):
        return None


def test_warm_start_from_changed_rhs_matches_cold_solve():
    # the final relaxation's rows with random integer rhs changes, solved
    # from the first solve's tableau and cold under the same oracle: the
    # same value, or LpInfeasible on both paths; rows as drawn and rows
    # with a common factor alike
    rng = random.Random(53)
    outcomes = {"solved": 0, "infeasible": 0, "multiplied": 0, "fewer_pivots": 0}
    for trial in range(300):
        kept = _random_kept_result(rng, multiplied=trial % 2 == 1)
        if kept is None:
            continue
        first, oracle, inst = kept
        changed = _with_rows(inst, [
            lp.LpRow(r.coeffs, r.sense, r.rhs + rng.choice([-1, 0, 0, 0, 1, 2]))
            for r in first.rows])
        try:
            cold = lp.solve_lazy(changed, oracle)
        except lp.LpInfeasible:
            with pytest.raises(lp.LpInfeasible):
                lp.solve_lazy(changed, oracle, start=first)
            outcomes["infeasible"] += 1
            continue
        warm = lp.solve_lazy(changed, oracle, start=first)
        assert warm.optimum.value == cold.optimum.value
        assert warm.rows[:len(changed.rows)] == list(changed.rows)
        recheck_vertex(_with_rows(inst, warm.rows), warm.optimum)
        for r in warm.rows:
            assert row_holds(r, warm.optimum.point)
        outcomes["solved"] += 1
        outcomes["multiplied"] += trial % 2 == 1
        outcomes["fewer_pivots"] += warm.optimum.pivots < cold.optimum.pivots
    assert outcomes["solved"] > 50 and outcomes["infeasible"] > 50
    assert outcomes["multiplied"] > 20 and outcomes["fewer_pivots"] > 40


def test_warm_start_at_the_same_rhs_takes_no_pivot():
    rng = random.Random(59)
    seen = 0
    for trial in range(120):
        kept = _random_kept_result(rng, multiplied=trial % 2 == 1)
        if kept is None:
            continue
        first, oracle, inst = kept
        same = _with_rows(inst, [lp.row(r.coeffs, r.sense, r.rhs) for r in first.rows])
        warm = lp.solve_lazy(same, oracle, start=first)
        assert (warm.optimum.pivots, warm.optimum.bound_flips) == (0, 0)
        assert (warm.optimum.nums, warm.optimum.denom) == (first.optimum.nums,
                                                           first.optimum.denom)
        assert warm.rows == first.rows and warm.separation_calls == 1
        seen += 1
    assert seen > 50


def test_warm_start_refuses_anything_but_an_integer_rhs_change():
    rows = (lp.row({0: 1, 1: 1}, lp.GE, 2), lp.row({0: 1, 1: -2}, lp.LE, 2))
    inst = lp.instance([1, 2], [0, 0], [3, None], rows)

    def oracle(nums, denom):
        return []

    first = lp.solve_lazy(inst, oracle)
    refused = {
        "coefficient": _with_rows(inst, [lp.row({0: 1, 1: 2}, lp.GE, 2), rows[1]]),
        "sense": _with_rows(inst, [lp.row({0: 1, 1: 1}, lp.LE, 2), rows[1]]),
        "row count": _with_rows(inst, rows[:1]),
        "objective": lp.instance([1, 3], [0, 0], [3, None], rows),
        "lower bound": lp.instance([1, 2], [0, -1], [3, None], rows),
        "upper bound": lp.instance([1, 2], [0, 0], [4, None], rows),
    }
    for name, changed in refused.items():
        with pytest.raises(ValueError):
            lp.solve_lazy(changed, oracle, start=first)
    # a refused start leaves the tableau as it was
    assert lp.solve_lazy(inst, oracle, start=first).optimum.pivots == 0
    # the warm start took the tableau over
    with pytest.raises(ValueError, match="no tableau"):
        lp.solve_lazy(inst, oracle, start=first)
    first = lp.solve_lazy(inst, oracle)
    # a rhs change that is not a multiple of the row's common factor 2
    raised = _with_rows(inst, [rows[0], lp.row({0: 1, 1: -2}, lp.LE, 5)])
    assert lp.solve_lazy(raised, oracle, start=first).optimum.value == \
        lp.solve(raised).value


def test_lazy_result_rows_are_a_copy():
    # rows added to a kept tableau later do not reach a returned result
    inst = lp.instance([1, 1], [0, 0], [None, None], [lp.row({0: 1}, lp.GE, 1)])
    result = lp.solve_lazy(inst, lambda nums, denom: [])
    result.tableau.add_rows([lp.row({1: 1}, lp.GE, 1)])
    assert result.rows == list(inst.rows)


def test_integer_point_matches_fractions_every_round(monkeypatch):
    # at every optimum, cold or in a lazy round, the point leaves the
    # tableau as ints over one positive denominator in lowest terms, equal
    # to the values solved from the original rows over Fractions and to
    # the Fraction `point`
    optimum = lp._optimum
    seen = {"rounds": 0, "fractional": 0}

    def checked(simplex):
        opt = optimum(simplex)
        assert type(opt.denom) is int and opt.denom > 0
        assert all(type(a) is int for a in opt.nums)
        assert math.gcd(opt.denom, *opt.nums) == 1
        x = _state_from_rows(simplex)
        values = [x[j] for j in range(simplex.ns)]
        assert [Fraction(a, opt.denom) for a in opt.nums] == values == opt.point
        seen["rounds"] += 1
        seen["fractional"] += opt.denom > 1
        return opt

    monkeypatch.setattr(lp, "_optimum", checked)
    rng = random.Random(41)
    for g, seeds in ((3, 4), (5, 2)):
        graph = make_graph(3 * g + 1, prism_hub_edges(g, 1, 2))
        for _ in range(seeds):
            lp.solve_lazy(_hub_lp(graph, 6, rng), _cut_oracle(graph, 6))
    for _ in range(120):
        inst, hidden = _random_lazy_instance(rng, rng.randint(2, 7))
        try:
            lp.solve_lazy(inst, _hidden_rows_oracle(hidden))
        except (lp.LpInfeasible, lp.LpUnbounded):
            continue
    assert seen["rounds"] > 200 and seen["fractional"] > 100


def test_lazy_rejects_row_the_point_satisfies():
    # the first relaxation's optimum is (1/2, 1/2); each row below holds
    # there (two of them with slack), so returning it is an oracle fault
    inst = lp.instance([1, 1], [0, 0], [1, 1],
                       [lp.row({0: 1, 1: 3}, lp.GE, 2), lp.row({0: 3, 1: 1}, lp.GE, 2)])
    assert lp.solve(inst).point == [Fraction(1, 2)] * 2
    for satisfied in (lp.row({0: 1, 1: 1}, lp.GE, 1),
                      lp.row({0: 2, 1: -1}, lp.LE, 1),
                      lp.row({0: 2, 1: -2}, lp.GE, 0),
                      lp.row({0: 7}, lp.GE, 3),
                      lp.row({1: 2}, lp.LE, 1)):
        with pytest.raises(RuntimeError, match="non-violated row"):
            lp.solve_lazy(inst, lambda nums, denom: [satisfied])
    # a violated row of each kind is accepted and moves the point
    for violated, point in ((lp.row({0: 1}, lp.GE, 1), [1, Fraction(1, 3)]),
                            (lp.row({1: 8}, lp.LE, 3), [Fraction(7, 8), Fraction(3, 8)])):
        result = lp.solve_lazy(inst, _hidden_rows_oracle([violated]))
        assert result.optimum.point == point


def test_lazy_rejects_undeclared_variable():
    def oracle(nums, denom):
        return [lp.row({3: 1}, lp.GE, 1)]

    with pytest.raises(ValueError):
        lp.solve_lazy(lp.instance([1], [0], [None], []), oracle)


def test_instance_bounds_must_be_ints():
    for lower, upper in (([Fraction(1, 2)], [None]), ([0], [Fraction(3, 2)]),
                         ([0], [0.5]), ([Fraction(0)], [1])):
        with pytest.raises(ValueError, match="not an int"):
            lp.instance([1], lower, upper, [])
    assert lp.instance([1], [-2], [3], []).upper == (3,)


def test_rows_must_be_int_with_sense_ge_or_le():
    for coeffs, sense, rhs in (({0: Fraction(1, 2)}, lp.GE, 1), ({0: 0.5}, lp.LE, 1),
                               ({0: 1}, lp.GE, Fraction(1, 2)), ({0: 1}, lp.GE, 1.0)):
        for make in (lp.row, lp.LpRow):
            with pytest.raises(ValueError, match="not an int"):
                make(coeffs, sense, rhs)
    for make in (lp.row, lp.LpRow):
        with pytest.raises(ValueError, match="unknown row sense '=='"):
            make({0: 1}, "==", 1)
    assert lp.row({1: 2, 0: 1, 2: 0}, lp.LE, 3) == lp.LpRow({0: 1, 1: 2}, lp.LE, 3)


def fraction_rank(rows, ncols):
    """Reference: the rank of dict rows over Q by Fraction Gaussian elimination."""
    matrix = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i in range(rank + 1, len(matrix)):
            f = matrix[i][col] / matrix[rank][col]
            matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


def test_rank_tracker_matches_fraction_elimination():
    # 0/1 incidence rows, small ints (pivots other than 1, negative ones
    # too) and explicit zeros; one row in three is an int combination of
    # earlier rows, so dependent rows are rejected often.  Each decision
    # must equal the Fraction rank's step, and the caller's dict is kept.
    rng = random.Random(29)
    kept = rejected = big_pivots = 0
    for trial in range(300):
        ncols = rng.randint(1, 9)
        tracker = lp.RankTracker()
        rows, rank = [], 0
        for _ in range(rng.randint(1, 14)):
            if rows and rng.random() < 1 / 3:
                row = {}
                for r in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                    f = rng.choice((-2, -1, 1, 3))
                    for c, a in r.items():
                        row[c] = row.get(c, 0) + f * a
            elif trial % 2:
                row = {c: 1 for c in range(ncols) if rng.random() < 0.4}
            else:
                row = {c: rng.randint(-4, 4) for c in range(ncols) if rng.random() < 0.6}
            before = dict(row)
            added = tracker.add(row)
            assert row == before
            rows.append(row)
            assert added == (fraction_rank(rows, ncols) > rank)
            rank += added
            kept += added
            rejected += not added
        assert tracker.rank == rank
        big_pivots += sum(abs(piv[col]) > 1 for col, piv in tracker.pivots.items())
    assert kept > 500 and rejected > 500 and big_pivots > 100
