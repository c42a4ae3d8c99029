"""Acceptance suite: one test per criterion, exact tolerances, with the
per-criterion runtime budgets asserted.  Criteria 3-6 stash their traces
for the structural-invariant battery (criterion 8)."""

import random
import time
from fractions import Fraction

from kecss.certify import extract_laminar, tight_sets
from kecss.graphs import crossing, edge_connectivity, min_cut, vertices
from kecss.instances import gen
from kecss.lp import common
from kecss.requirements import Requirement
from kecss.rounding import (approximation_factor, bicriteria, kecsm,
                            kecss_even, md_kecsm, md_kecss)
from kecss.separation import ScaledPoint, Violated, separate_fast

from conftest import ACCEPTANCE_TRACES, degree_bounds_for, mask
from reference import (SetFunction, as_set_function, brute_force_opt, check_even_parity,
                       check_two_way_uncrossable, full_cut_lp, separate_exact,
                       symmetrize)


def _passed(criterion: str, elapsed: float, budget: float, detail: str = ""):
    print(f"criterion {criterion}: PASS ({elapsed:.1f}s / {budget:.0f}s budget)"
          + (f" {detail}" if detail else ""))
    assert elapsed < budget, f"criterion {criterion} exceeded its time budget"


def _degrees(graph, mult):
    deg = [0] * (graph.n + 1)
    for e, m in mult.items():
        deg[graph.edges[e].u] += m
        deg[graph.edges[e].v] += m
    return deg[1:]


def test_criterion_01_prism_k3_lp_and_laminar_basis():
    start = time.time()
    inst = gen("prism-k3")
    g = inst.graph
    opt = full_cut_lp(g, 3, "ecss")
    assert opt.value == Fraction(21, 2)
    for e in g.edges:
        expected = {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(3, 4)}[int(e.cost)]
        assert opt.point[e.id] == expected
    req = Requirement(g, 3, {}, 3)
    point = ScaledPoint.of(g, {e: opt.point[e] for e in range(g.m)})
    basis = extract_laminar(point, req, tight_sets(point, req))
    assert len(basis.frac_edges) == 9
    assert basis.size() == 9
    assert not basis.degree_vertices
    _passed("1 (tight fixture k=3)", time.time() - start, 5)


def test_criterion_02_prism_hub_k6_first_extreme_point():
    start = time.time()
    inst = gen("prism-hub-k6")
    g = inst.graph
    sol, trace = kecss_even(g, 6)
    first = trace.iterations[0]
    thick = sorted(e.id for e in g.edges if e.cost == 0)
    assert first.picked == thick
    for e, v in first.point.items():
        expected = {0: Fraction(1), 1: Fraction(1, 2),
                    2: Fraction(3, 4)}[int(g.edges[e].cost)]
        assert v == expected
    req = Requirement(g, 6, {e: 1 for e in thick}, 3)
    for u, v, t in ((2, 3, 4), (5, 6, 7), (8, 9, 10)):
        assert req.residual(mask({u})) == 2
        assert req.residual(mask({v})) == 2
        assert req.residual(mask({u, v, t})) == 3
    weights, denom = common([first.point.get(e, Fraction(0)) for e in range(g.m)])
    value, _ = min_cut(g, weights)
    assert value >= 6 * denom
    ACCEPTANCE_TRACES.setdefault("kecss", []).append((inst, g, trace))
    _passed("2 (tight fixture k=6)", time.time() - start, 10)


def test_criterion_03_exact_cost_suite(corpus50, structured_corpus):
    start = time.time()
    runs = ACCEPTANCE_TRACES.setdefault("kecss", [])
    for inst in corpus50 + structured_corpus:
        g = inst.graph
        sol, trace = kecss_even(g, inst.k)
        assert sol.connectivity >= inst.k - 2
        assert sol.cost <= trace.lp0  # exact rational comparison
        assert len(trace.iterations) <= g.m
        cost = Fraction(0)
        for rec in trace.iterations:
            assert rec.picked  # Q nonempty every iteration
            assert cost + rec.lp_value <= trace.lp0  # cost ledger
            cost += sum(g.edges[e].cost for e in rec.picked)
        assert cost == sol.cost
        runs.append((inst, g, trace))
    _passed("3 (exact-cost suite)", time.time() - start, 300,
            f"{len(corpus50) + len(structured_corpus)} instances")


def test_criterion_04_bicriteria_suite(corpus50, structured_corpus, unit_corpus):
    start = time.time()
    runs = ACCEPTANCE_TRACES.setdefault("bicriteria", [])
    for inst in corpus50 + structured_corpus:
        g = inst.graph
        sol, trace = bicriteria(g, inst.k)
        assert sol.connectivity >= inst.k - 1
        assert sol.cost <= Fraction(3, 2) * trace.lp0
        runs.append((inst, g, trace))
    for inst in unit_corpus:
        g = inst.graph
        sol, trace = bicriteria(g, inst.k)
        assert sol.connectivity >= inst.k - 1
        bound = min(Fraction(3, 2), 1 + Fraction(4, 3 * inst.k))
        assert sol.cost <= bound * trace.lp0
        first = trace.iterations[0]
        assert first.frac_support <= 2 * g.n  # |F_1| <= 2n
        if first.basis_size is not None:
            assert first.basis_size == first.frac_support
        runs.append((inst, g, trace))
    _passed("4 (bicriteria suite)", time.time() - start, 300)


def test_criterion_05_multigraph_suite(corpus50):
    start = time.time()
    runs = ACCEPTANCE_TRACES.setdefault("kecsm", [])
    for i, inst in enumerate(corpus50):
        g = inst.graph
        for k in (2, 3, 4, 5):
            sol, trace = kecsm(g, k)
            assert sol.connectivity >= k
            assert sol.cost <= approximation_factor(k) * sol.lp_value
            if i % 5 == 0:
                runs.append((inst, g, trace))
    _passed("5 (multigraph suite)", time.time() - start, 300,
            f"{4 * len(corpus50)} runs")


def test_criterion_06_degree_bounded_suites(corpus50, structured_corpus):
    start = time.time()
    runs = ACCEPTANCE_TRACES.setdefault("md", [])
    for i, inst in enumerate(corpus50 + structured_corpus):
        g = inst.graph
        lower, upper = degree_bounds_for(inst, 4000 + i)
        sol, trace = md_kecss(g, inst.k, lower, upper)
        assert sol.connectivity >= inst.k - 2
        assert sol.cost <= trace.lp0
        for v, d in enumerate(_degrees(g, sol.multiplicity), start=1):
            assert lower[v - 1] - 2 <= d <= upper[v - 1] + 2
        runs.append((inst, g, trace))

        sol2, trace2 = md_kecsm(g, inst.k, lower, upper)
        rho = approximation_factor(inst.k)
        assert sol2.connectivity >= inst.k
        assert sol2.cost <= rho * sol2.lp_value
        for v, d in enumerate(_degrees(g, sol2.multiplicity), start=1):
            assert Fraction(lower[v - 1] - 2) <= d <= rho * upper[v - 1] + 2
        runs.append((inst, g, trace2))
    _passed("6 (degree-bounded suites)", time.time() - start, 600)


def test_criterion_07_separation_equivalence():
    start = time.time()
    rng = random.Random(20260808)
    violated = 0
    for case in range(1000):
        n = rng.randint(4, 12)
        edges = [(u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.5]
        if not edges:
            edges.append((1, 2, 1))
        from kecss.graphs import make_graph
        g = make_graph(n, edges)
        threshold = rng.choice([2, 3])
        k = rng.choice([4, 5, 6, 7, 8]) if threshold == 3 else rng.randint(2, 8)
        picked = {e: rng.randint(1, 3) for e in range(g.m) if rng.random() < 0.4}
        x = {e: Fraction(rng.randint(0, 6), 6) for e in range(g.m)
             if e not in picked}
        req = Requirement(g, k, picked, threshold)
        vf = separate_fast(ScaledPoint.of(g, x), req)
        ve = separate_exact(x, req)
        assert type(vf) is type(ve), f"case {case}: verdicts disagree"
        if isinstance(vf, Violated):
            violated += 1
            assert vf.cuts[0].capacity == ve.cuts[0].capacity
            for cut in vf.cuts + ve.cuts:
                assert req.residual(cut.side) >= threshold  # soundness
                assert cut.lhs < cut.requirement
                mass = sum((x[e] for e in crossing(g, cut.side) if e in x),
                           Fraction(0))
                assert mass == cut.lhs
    assert violated > 100
    _passed("7 (separation equivalence)", time.time() - start, 120,
            f"{violated}/1000 violated")


def test_criterion_08_structural_invariant_battery():
    start = time.time()
    suites = [t for key in ("kecss", "bicriteria", "kecsm", "md")
              for t in ACCEPTANCE_TRACES.get(key, [])]
    assert suites, "guarantee suites must run first"
    bases = 0
    small_hits = 0
    pairs = 0
    for inst, g, trace in suites:
        for rec in trace.iterations:
            if rec.frac_support:
                # certification ran inline: a failed basis extraction,
                # token bound, or uncrossing identity would have raised
                if rec.basis_size is not None:
                    assert rec.basis_size == rec.frac_support
                    bases += 1
                    assert rec.small_member is not None
                    small_hits += 1
                pairs += rec.witness_pairs_checked
    assert bases > 0 and small_hits == bases
    assert pairs > 0
    _passed("8 (structural invariant battery)", time.time() - start, 60,
            f"{bases} bases, {pairs} uncross witnesses, zero failures")


def test_criterion_09_requirement_predicates():
    start = time.time()
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(4, 8)
        edges = [(u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.6]
        if not edges:
            edges.append((1, 2, 1))
        from kecss.graphs import make_graph
        g = make_graph(n, edges)
        k = rng.choice([4, 6, 8])
        picked = {e: rng.randint(1, 3) for e in range(g.m) if rng.random() < 0.5}
        table = as_set_function(Requirement(g, k, picked, 3))
        ok, witness = check_two_way_uncrossable(table)
        assert ok, witness
        ok, witness = check_even_parity(table)
        assert ok, witness
    # symmetrize: preserves two-way uncrossability, and feasibility is
    # equivalent before and after, on 100 random (f, x) pairs
    for _ in range(100):
        n = rng.randint(3, 6)
        edges = [(u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.7]
        if not edges:
            edges.append((1, 2, 1))
        from kecss.graphs import make_graph
        g = make_graph(n, edges)
        caps = {e: rng.randint(0, 4) for e in range(g.m)}
        weights = [-rng.randint(0, 2) for _ in range(n)]
        c = rng.randint(0, 10)
        full = (1 << n) - 1
        vals = []
        for m in range(1 << n):
            if m in (0, full):
                vals.append(0)
            else:
                vals.append(c - sum(caps[e] for e in crossing(g, m))
                            + sum(weights[v - 1] for v in vertices(m)))
        f = SetFunction(n, vals)
        ok, _ = check_two_way_uncrossable(f)
        assert ok
        sym = symmetrize(f)
        ok, witness = check_two_way_uncrossable(sym)
        assert ok, witness
        x = {e: Fraction(rng.randint(0, 8), 2) for e in range(g.m)}

        def covers(table):
            for m in range(1, full):
                mass = sum((x[e] for e in crossing(g, m)), Fraction(0))
                if mass < table.values[m]:
                    return False
            return True

        assert covers(f) == covers(sym)
    _passed("9 (requirement predicates)", time.time() - start, 120)


def test_criterion_10_sandwich(tiny_corpus):
    start = time.time()
    for inst in tiny_corpus:
        g = inst.graph
        assert g.m <= 14
        integer_opt, witness = brute_force_opt(g, 4, "ecss")
        assert edge_connectivity(g, witness) >= 4
        lp_value = full_cut_lp(g, 4, "ecss").value
        sol, _ = kecss_even(g, 4)
        assert integer_opt >= lp_value >= sol.cost
    _passed("10 (sandwich)", time.time() - start, 300,
            f"{len(tiny_corpus)} instances")
