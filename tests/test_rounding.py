import json
import random
import warnings
from fractions import Fraction

import pytest

from kecss import certify, graphs, rounding, separation
from kecss import lp as lpmod
from kecss.certify import CertificationError
from kecss.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, main
from kecss.graphs import (complete_graph, crossing, cuts_below, cycle_graph,
                          edge_connectivity, make_graph, vertices)
from kecss.instances import Instance, emit_instance, gen
from kecss.rounding import (MODES, InfeasibleInstance, _finish,
                            _solve_unbounded_cut_lp, approximation_factor,
                            bicriteria, kecsm, kecss, kecss_even,
                            md_kecsm, md_kecss)
from kecss.requirements import Requirement
from kecss.separation import ScaledPoint, Violated, separate_fast

from conftest import (degree_bounds_for, hub_cost_variant, mask, prism_hub_edges,
                      random_cost_hub, random_feasible)
from reference import full_cut_lp, separate_exact, violated_cuts_exact


def degrees(graph, mult):
    deg = [0] * (graph.n + 1)
    for e, m in mult.items():
        deg[graph.edges[e].u] += m
        deg[graph.edges[e].v] += m
    return deg[1:]


def test_kecss_k5():
    g = complete_graph(5)
    sol, trace = kecss_even(g, 4)
    assert sol.cost == 10 == trace.lp0
    assert sol.connectivity == 4
    assert set(sol.multiplicity) == set(range(10))
    assert len(trace.iterations) <= g.m


def test_kecss_infeasible_cycle():
    with pytest.raises(InfeasibleInstance):
        kecss_even(cycle_graph(5), 4)


def test_kecss_k2_returns_empty_with_warning():
    g = complete_graph(4)
    with pytest.warns(UserWarning):
        sol, trace = kecss_even(g, 2)
    assert sol.multiplicity == {} and sol.cost == 0
    # the loop never solves an LP at k=2, so even a tree gets the
    # vacuously 0-connected empty answer rather than an infeasibility error
    tree = make_graph(3, [(1, 2, 1), (2, 3, 1)])
    with pytest.warns(UserWarning):
        sol, _ = kecss_even(tree, 2)
    assert sol.multiplicity == {}


def test_kecss_odd_k_dispatch():
    g = complete_graph(6)
    sol, trace = kecss(g, 5)
    assert sol.k == 5
    assert sol.connectivity >= 2  # (k-3)-connected guarantee
    assert sol.cost <= trace.lp0
    even_sol, _ = kecss(g, 4)
    assert even_sol.cost == kecss_even(g, 4)[0].cost


def test_kecss_k7_runs_at_6():
    g = complete_graph(7)  # fractionally 6-connectable, not 7
    sol, trace = kecss(g, 7)
    assert sol.connectivity >= 4
    assert sol.cost <= trace.lp0


def test_kecss_rejects_bad_k():
    g = complete_graph(5)
    with pytest.raises(ValueError):
        kecss_even(g, 5)
    with pytest.raises(ValueError):
        kecss(g, 1)


def test_hub_fixture_first_iteration():
    inst = gen("prism-hub-k6")
    g = inst.graph
    sol, trace = kecss_even(g, 6)
    thick = sorted(e.id for e in g.edges if e.cost == 0)
    assert trace.iterations[0].picked == thick
    assert trace.iterations[0].frac_support == 9
    assert sorted(set(trace.iterations[0].point.values())) == \
        [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    assert sol.cost <= trace.lp0 == Fraction(21, 2)
    assert sol.connectivity >= 4


def test_bicriteria_k5_and_unit_bound():
    g = complete_graph(5)
    sol, trace = bicriteria(g, 4)
    assert sol.cost == 10
    assert sol.cost <= Fraction(3, 2) * trace.lp0
    assert sol.cost <= (1 + Fraction(4, 3 * 4)) * trace.lp0  # unit costs
    assert sol.connectivity >= 3


def test_bicriteria_c6_k2():
    sol, trace = bicriteria(cycle_graph(6), 2)
    assert sol.cost == 6 and trace.lp0 == 6
    assert sol.connectivity >= 1


def test_bicriteria_tree_infeasible():
    tree = make_graph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    with pytest.raises(InfeasibleInstance):
        bicriteria(tree, 2)


def test_bicriteria_fractional_fixture():
    inst = gen("prism-k3")
    sol, trace = bicriteria(inst.graph, 3)
    assert trace.lp0 == Fraction(21, 2)
    assert trace.iterations[0].frac_support == 9
    assert sol.cost <= Fraction(3, 2) * trace.lp0
    assert sol.connectivity >= 2


def test_kecsm_floor_first_examples():
    # kecsm rounds at k' = k+2 (even k) or k+3 (odd k); its trace is the
    # run at k', whose first LP is trace.lp0
    two = make_graph(2, [(1, 2, 1)])
    for k in (4, 3):  # k' = 6
        sol, trace = kecsm(two, k)
        assert sol.multiplicity == {0: 6} and sol.cost == 6 == trace.lp0

    tri = make_graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    for k in (2, 1):  # k' = 4
        sol, _ = kecsm(tri, k)
        assert sol.multiplicity == {0: 2, 1: 2, 2: 2}
        assert sol.cost == 6 and sol.connectivity == 4

    sol, trace = kecsm(complete_graph(5), 2)  # k' = 4
    assert sol.cost <= 10 and trace.lp0 == 10


def test_kecsm_wrapper_factors():
    two = make_graph(2, [(1, 2, 1)])
    sol, _ = kecsm(two, 4)
    assert sol.lp_value == 4 and sol.cost == 6
    assert sol.cost == approximation_factor(4) * sol.lp_value

    sol, _ = kecsm(two, 3)
    assert sol.lp_value == 3 and sol.cost == 6
    assert sol.cost == approximation_factor(3) * sol.lp_value

    tri = make_graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    sol, _ = kecsm(tri, 2)
    assert sol.lp_value == 3 and sol.cost == 6
    assert sol.connectivity >= 2


def test_kecsm_reference_scales_from_run_k():
    # kecsm derives LP(k) as k/k' * LP(k') from its run at k' = k+2 or k+3
    for seed in range(4):
        g = random_feasible(seed, 7, 1).graph
        for k in range(1, 6):
            sol, _ = kecsm(g, k)
            assert sol.lp_value == _solve_unbounded_cut_lp(g, k).optimum.value


def test_kecsm_disconnected():
    # both multigraph modes' first LPs need connectivity 1: infeasible on a
    # disconnected graph, which the one min cut after that verdict shows
    g = make_graph(4, [(1, 2, 1), (3, 4, 1)])
    message = r"^edge connectivity 0 is below 1; the LP is infeasible$"
    with pytest.raises(InfeasibleInstance, match=message):
        kecsm(g, 2)
    with pytest.raises(InfeasibleInstance, match=message):
        md_kecsm(g, 2, [0] * 4, [4] * 4)


def test_kecsm_verifies_its_output_once(monkeypatch):
    # one verify, through Mode.check: the ecsm target k and the ecsm cost
    # bound rho_k * LP(k), which is LP(k') exactly.  The rounding at k'
    # stops only once its output is (k'-2)-connected, k + 1 for odd k
    targets = []
    verify = certify.verify

    def counted(graph, mult, target, *args, **kwargs):
        targets.append(target)
        return verify(graph, mult, target, *args, **kwargs)

    monkeypatch.setattr(certify, "verify", counted)
    for k in (2, 3, 4, 5):
        targets.clear()
        sol, _ = kecsm(complete_graph(5), k)
        assert targets == [k]
        assert sol.connectivity >= k + k % 2
        assert sol.cost <= approximation_factor(k) * sol.lp_value


def test_certification_checks_every_weakly_crossing_pair(monkeypatch):
    # G=35 is the smallest hub whose first family has more than 200
    # members (105 tight sets and their complements); every weakly
    # crossing pair of each iteration's family gets its witness
    families = []
    tight_sets = certify.tight_sets

    def captured(point, req):
        tight = tight_sets(point, req)
        families.append(tight)
        return tight

    monkeypatch.setattr(certify, "tight_sets", captured)
    graph = gen("prism-hub-k6", gadgets=35).graph
    _, trace = kecss(graph, 6, certify=True)
    full = (1 << graph.n) - 1
    expected = []
    for tight in families:
        members = [side for s in tight for side in (s, full ^ s)]
        expected.append(sum(1 for i in range(len(members)) for j in range(i)
                            if members[i] & members[j] and members[i] & ~members[j]
                            and members[j] & ~members[i]))
    assert expected == [5460, 595]
    assert [rec.witness_pairs_checked for rec in trace.iterations] == expected


def test_kecsm_raises_on_a_rounding_below_its_guarantee(monkeypatch):
    # the rounding's picked multiset, cut to nothing (connectivity 0) or
    # doubled (cost 30 over the bound 3/2 * LP(4) = LP(6) = 15), fails the
    # ecsm check
    g = complete_graph(5)
    engine = rounding._round
    for failure, scale in (("connectivity 0 below target 4", 0),
                           ("cost 30 exceeds bound 15", 2)):
        def short(*args):
            picked, trace = engine(*args)
            return ScaledPoint(g, [scale * w for w in picked.weights], 1), trace

        monkeypatch.setattr(rounding, "_round", short)
        with pytest.raises(CertificationError,
                           match=f"^output fails verification: {failure}"):
            kecsm(g, 4)


def test_md_kecss_k5_tight_window():
    g = complete_graph(5)
    sol, trace = md_kecss(g, 4, [4] * 5, [4] * 5)
    assert sol.cost == 10 and len(sol.multiplicity) == 10
    assert degrees(g, sol.multiplicity) == [4] * 5


def test_md_kecss_zero_upper_infeasible():
    g = complete_graph(5)
    with pytest.raises(InfeasibleInstance):
        md_kecss(g, 4, [0] * 5, [0] * 5)


def test_md_kecss_k2_degree_only():
    # no cut constraints can reach threshold 3 at k=2: pure degree selection
    g = complete_graph(4)
    sol, trace = md_kecss(g, 2, [2] * 4, [3] * 4)
    d = degrees(g, sol.multiplicity)
    assert all(0 <= dv <= 5 for dv in d)  # within the +-2 window
    assert sol.cost <= trace.lp0


def test_md_kecss_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        md_kecss(g, 4, [3] * 4, [2] * 4)  # lower above upper
    with pytest.raises(ValueError):
        md_kecss(g, 4, [0] * 3, [9] * 4)  # wrong length


def test_md_kecsm_examples():
    two = make_graph(2, [(1, 2, 1)])
    sol, _ = md_kecsm(two, 4, [4, 4], [4, 4])
    assert sol.multiplicity == {0: 6} and sol.cost == 6
    assert degrees(two, sol.multiplicity) == [6, 6]
    rho = approximation_factor(4)
    assert all(d <= rho * 4 + 2 for d in degrees(two, sol.multiplicity))

    tri = make_graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    sol, _ = md_kecsm(tri, 2, [2] * 3, [2] * 3)
    assert sol.multiplicity == {0: 2, 1: 2, 2: 2}
    assert all(d <= 2 * 2 + 2 for d in degrees(tri, sol.multiplicity))


def test_md_kecsm_degree_activity_boundary():
    # after floor extraction vertex 8 meets 4 fractional edges of total 2:
    # fractional degree 2 and complement 2, both at the bound, so it leaves
    # the degree-constrained set, no cut is active, and the loop never runs
    inst = random_feasible(14, 8, 6)
    lower, upper = degree_bounds_for(inst, 14)
    sol, trace = md_kecsm(inst.graph, 6, lower, upper, certify=False)
    first = trace.iterations[0].point
    working = [e for e, v in first.items() if v.denominator != 1]
    at_8 = [e for e in working if 8 in (inst.graph.edges[e].u, inst.graph.edges[e].v)]
    assert len(at_8) == 4 and sum(first[e] % 1 for e in at_8) == 2
    assert len(trace.iterations) == 1
    assert trace.lp0 == Fraction(189, 2) and sol.connectivity >= 6


def test_md_kecsm_reference_equals_a_cold_solve():
    # md_kecsm reads LP(k) off its run LP's tableau at k' = k+2 or k+3;
    # it must equal the cold solve of the LP at k, on random graphs and
    # random-cost hubs, some of whose runs iterate
    runs = []
    for seed in (*range(10), 42, 66):
        for k in range(1, 7):
            inst = random_feasible(seed, 6 + seed % 4, k, p=0.5)
            runs.append((inst.graph, k, *degree_bounds_for(inst, seed)))
    for seed in (13, 16):
        g = random_cost_hub(3, seed, per_edge=True).graph
        rng = random.Random(seed)
        for k in (2, 3, 4, 5, 6):
            runs.append((g, k, [0] * g.n, [rng.randint(k, k + 3) for _ in range(g.n)]))
    iterated = 0
    for g, k, lower, upper in runs:
        sol, trace = md_kecsm(g, k, lower, upper, certify=False)
        cold = _solve_unbounded_cut_lp(g, k, (lower, upper)).optimum
        assert sol.lp_value == cold.value
        iterated += len(trace.iterations) > 1
    assert iterated >= 6


def test_md_kecsm_solves_one_tableau_for_both_first_lps(monkeypatch):
    # the run LP at k' is built and solved cold once, and the reference
    # LP at k is re-optimised on its tableau: one _Simplex per operation
    # when the rounding loop never runs
    built = []
    init = lpmod._Simplex.__init__

    def counted(self, inst):
        built.append(inst.num_vars)
        init(self, inst)

    monkeypatch.setattr(lpmod._Simplex, "__init__", counted)
    inst = random_feasible(14, 8, 6)
    lower, upper = degree_bounds_for(inst, 14)
    for certify_flag in (False, True):
        built.clear()
        sol, trace = md_kecsm(inst.graph, 6, lower, upper, certify=certify_flag)
        assert len(trace.iterations) == 1 and trace.certified == certify_flag
        assert built == [inst.graph.m]


def test_md_kecsm_infeasible_degree_bounds(tmp_path):
    # caps below twice k at vertex 3 of the path 1-3-2 starve the run LP
    # at k' too; lower bounds are not scaled, so x13 >= 3 and the cut
    # {2} at k=1 overfill cap 3 at vertex 3 in the reference LP alone
    path = make_graph(3, [(1, 3, 3), (2, 3, 2)])
    for k, lower, upper in ((2, [0] * 3, [9, 9, 1]), (1, [3, 0, 1], [9, 3, 3])):
        with pytest.raises(InfeasibleInstance, match="^degree-bounded LP infeasible: "):
            md_kecsm(path, k, lower, upper)
        text = tmp_path / f"path_k{k}.txt"
        text.write_text(f"p kecss 3 2 {k}\ne 1 3 3\ne 2 3 2\n" + "".join(
            f"d {v} {lo} {hi}\n" for v, lo, hi in zip((1, 2, 3), lower, upper)))
        assert main(["run", "--mode", "md-ecsm", "--input", str(text)]) == EXIT_INFEASIBLE


def test_md_kecsm_validation():
    tri = make_graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    with pytest.raises(ValueError):
        md_kecsm(tri, 2, [3] * 3, [2] * 3)


def test_degree_bounds_must_be_ints():
    # refused at the API edge, naming the vertex, before any LP row is built
    tri = make_graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    for lower, upper in (([2, Fraction(3, 2), 2], [4] * 3), ([2] * 3, [4, 4.0, 4])):
        for solver in (md_kecss, md_kecsm):
            with pytest.raises(ValueError, match="^vertex 2 has a degree bound "
                                                 "that is not an int$"):
                solver(tri, 2, lower, upper)


def test_progress_and_ledger_on_random_instances():
    rng = random.Random(77)
    for i in range(6):
        inst = random_feasible(800 + i, 6 + i % 3, 4)
        sol, trace = kecss_even(inst.graph, 4)
        assert len(trace.iterations) <= inst.graph.m
        for rec in trace.iterations:
            assert rec.picked  # an edge multiplicity increases every time
        picked_all = [e for rec in trace.iterations for e in rec.picked]
        assert len(picked_all) == len(set(picked_all))  # disjoint picks
        # cost ledger: partial cost + current residual LP value <= lp0
        cost = Fraction(0)
        for rec in trace.iterations:
            assert cost + rec.lp_value <= trace.lp0
            cost += sum(inst.graph.edges[e].cost for e in rec.picked)
        assert cost == sol.cost <= trace.lp0


def test_bicriteria_ledger_on_random_instances():
    for i in range(4):
        inst = random_feasible(900 + i, 6 + i % 3, 4)
        sol, trace = bicriteria(inst.graph, 4)
        cost = Fraction(0)
        factor = Fraction(3, 2)
        for rec in trace.iterations:
            assert cost + factor * rec.lp_value <= factor * trace.lp0
            cost += sum(inst.graph.edges[e].cost for e in rec.picked)
        assert cost == sol.cost


def test_no_progress_dump_holds_the_iterations_point():
    # a loop that picks nothing stops after its first LP; the dump must hold
    # that LP's point, although the working set has already dropped the
    # x = 0 edge that comes first by id (an expensive parallel rung)
    edges = [(2, 3, 100)] + prism_hub_edges(3, 1, 2)
    graph = make_graph(10, edges)
    stuck = rounding._LoopSpec(3, Fraction(2), False)
    with pytest.raises(CertificationError, match="no progress") as err:
        rounding._round(graph, 6, stuck, None, False, None)
    point = json.loads(err.value.dump.splitlines()[-1])["point"]
    # the hub's unique LP optimum: 1 on cost 0, 1/2 on cost 1, 3/4 on cost 2
    expected = {str(e.id): ("1/1", "1/2", "3/4")[int(e.cost)]
                for e in graph.edges if e.cost < 100}
    assert point == expected


def test_iteration_cap_dump_holds_the_last_point():
    # the hub iterates twice; capped at one iteration, the abort's first
    # line is the state line and its dump holds the first iteration's point
    graph = gen("prism-hub-k6").graph
    _, trace = kecss_even(graph, 6)
    with pytest.raises(RuntimeError) as err:
        kecss_even(graph, 6, max_iterations=1)
    first, *dump = str(err.value).splitlines()
    assert first.startswith("rounding exceeded 1 iterations; state: ")
    expected = {str(e): f"{x.numerator}/{x.denominator}"
                for e, x in trace.iterations[0].point.items()}
    assert json.loads(dump[-1])["point"] == expected


def _lp_infeasible_at(monkeypatch, call: int) -> None:
    """Make the run's `call`-th lazy LP solve report its LP infeasible."""
    real, calls = rounding._lazy_solve, []

    def failing(*args):
        calls.append(None)
        if len(calls) == call:
            raise lpmod.LpInfeasible("no column can move the slack of row 1 into its bounds")
        return real(*args)

    monkeypatch.setattr(rounding, "_lazy_solve", failing)


@pytest.mark.parametrize("mode, call, first", [
    # the hub iterates twice: its second residual LP follows a feasible one,
    # in md-ecss with degree rows too
    ("ecss", 2, "residual LP infeasible at iteration 2: "),
    ("md-ecss", 2, "residual LP infeasible at iteration 2: "),
    # the hub's edge connectivity 6 reaches k = 6, so its first LP is feasible
    ("ecss", 1, "residual LP infeasible at iteration 1: "),
    ("ecss15", 1, "residual LP infeasible at iteration 1: "),
    # the hub is connected, so kecsm's unbounded first LP is feasible
    ("ecsm", 1, "unbounded cut LP infeasible: ")])
def test_an_lp_the_theory_makes_feasible_is_a_fault_when_infeasible(
        monkeypatch, tmp_path, mode, call, first):
    # an infeasible verdict on an LP the theory makes feasible is an
    # internal fault with a reproducer dump (exit 5), never "infeasible"
    inst = gen("prism-hub-k6")
    _lp_infeasible_at(monkeypatch, call)
    with pytest.raises(RuntimeError) as err:
        MODES[mode].run(inst)
    line, *dump = str(err.value).splitlines()
    assert line == first + "no column can move the slack of row 1 into its bounds"
    assert "point" in json.loads(dump[-1])
    text = tmp_path / "hub.txt"
    text.write_text(emit_instance(inst))
    _lp_infeasible_at(monkeypatch, call)
    assert main(["run", "--mode", mode, "--input", str(text)]) == EXIT_INTERNAL


def test_monotone_lp_values_fixture():
    sol, trace = kecss_even(hub_cost_variant(3, 5).graph, 6)
    values = [rec.lp_value for rec in trace.iterations]
    assert values == sorted(values, reverse=True)
    assert len(trace.iterations) >= 2  # the fixture needs several rounds


def _oracle_calls(monkeypatch) -> list:
    """Record every separation call of the solvers as (x, req, verdict,
    enumerated), where x is the integer point the solver passed, as
    Fractions per edge id, and `enumerated` says whether `separate_fast`
    went through `cuts_below` or the min-cut probe decided."""
    calls = []
    listed = []

    def counted(*args, **kwargs):
        listed.append(True)
        return cuts_below(*args, **kwargs)

    def recorded(point, req):
        listed.clear()
        verdict = separate_fast(point, req)
        x = {e: Fraction(w, point.denom) for e, w in enumerate(point.weights)}
        calls.append((x, req, verdict, bool(listed)))
        return verdict

    monkeypatch.setattr(separation, "cuts_below", counted)
    monkeypatch.setattr(rounding, "separate_fast", recorded)
    return calls


def two_cliques(seed: int):
    """Two K5s on n=10 with costs 1..4, joined by 4-7 edges of cost 5..9:
    4-edge-connected, and the degree rows alone leave the joining cut at
    x-mass 0, so the min-cut probe decides the first round."""
    rng = random.Random(seed)
    halves = (range(1, 6), range(6, 11))
    edges = [(u, v, rng.randint(1, 4)) for half in halves
             for u in half for v in half if u < v]
    for _ in range(rng.randint(4, 7)):
        edges.append((rng.choice(halves[0]), rng.choice(halves[1]), rng.randint(5, 9)))
    return make_graph(10, edges)


def test_separate_fast_matches_reference_at_every_oracle_call(monkeypatch):
    # every separation call of real kecss, bicriteria, kecsm and md_kecss
    # runs, checked against the exhaustive scan at the same point and state
    calls = _oracle_calls(monkeypatch)
    for seed in range(12):
        for per_edge in (False, True):
            inst = random_cost_hub(3, seed, per_edge)
            kecss(inst.graph, 6)
            bicriteria(inst.graph, 6)
            kecsm(inst.graph, 6)
            md_kecss(inst.graph, 6, *degree_bounds_for(inst, seed))
    for seed, n in ((960, 6), (961, 7), (962, 8), (963, 9), (964, 9)):
        inst = random_feasible(seed, n, 4)
        kecss(inst.graph, 4)
        bicriteria(inst.graph, 4)
        kecsm(inst.graph, 4)
    # kecsm makes no calls here: no cut is active after it floors its first LP
    for x, req, verdict, _ in calls:
        expected = separate_exact(x, req)
        assert type(verdict) is type(expected)
        if isinstance(verdict, Violated):
            assert verdict.cuts[0].capacity == expected.cuts[0].capacity
            for cut in verdict.cuts:
                assert req.in_active_family(cut.side)
                assert cut.lhs < cut.requirement
                across = crossing(req.graph, cut.side)
                assert cut.capacity == sum(x.get(e, 0) + req.picked.get(e, 0)
                                           for e in across)
    violated = sum(isinstance(v, Violated) for _, _, v, _ in calls)
    assert len(calls) >= 111 and violated >= 69


def test_separate_fast_returns_every_violated_cut_at_every_oracle_call(monkeypatch):
    # where the enumeration ran, the verdict lists exactly the violated
    # active cuts of the exhaustive scan, in (capacity, side) order; where
    # the probe decided, it reports its one min cut
    calls = _oracle_calls(monkeypatch)
    for seed in range(4):
        for per_edge in (False, True):
            inst = random_cost_hub(3, seed, per_edge)
            kecss(inst.graph, 6)
            bicriteria(inst.graph, 6)
            md_kecss(inst.graph, 6, *degree_bounds_for(inst, seed))
    for seed in range(6):
        graph = two_cliques(seed)
        kecss(graph, 4)
        bicriteria(graph, 4)
    for seed in range(4):
        inst = random_feasible(2000 + 4 * seed, 7, 5, p=0.7)
        kecss(inst.graph, 5)
        bicriteria(inst.graph, 5)
    listed = probed = several = 0
    for x, req, verdict, enumerated in calls:
        if enumerated:
            got = verdict.cuts if isinstance(verdict, Violated) else ()
            assert list(got) == violated_cuts_exact(x, req)
            listed += bool(got)
            several += len(got) > 1
        elif isinstance(verdict, Violated):
            assert len(verdict.cuts) == 1
            probed += 1
    assert listed >= 25 and several >= 20 and probed >= 10


def test_lp0_matches_materialized_lp():
    for i in range(3):
        inst = random_feasible(950 + i, 6, 4, p=0.75)
        _, trace = kecss_even(inst.graph, 4)
        assert trace.lp0 == full_cut_lp(inst.graph, 4, "ecss").value


def _is_free_vertex(objective, rows, opt) -> bool:
    """Whether opt's point is a vertex of 0 <= x <= 1 and rows: its rows
    hold, and its tight rows and 0/1 bounds have full rank."""
    n, nums, denom = len(objective), opt.nums, opt.denom
    excess = [sum(a * nums[j] for j, a in r.coeffs.items()) - r.rhs * denom for r in rows]
    if any(e < 0 if r.sense == lpmod.GE else e > 0 for r, e in zip(rows, excess)):
        return False
    bounds = [(j, "lower") for j in range(n) if nums[j] == 0]
    bounds += [(j, "upper") for j in range(n) if nums[j] == denom]
    tight = [i for i, e in enumerate(excess) if e == 0]
    return len(lpmod._rank_certificate(n, rows, tight, bounds)) == n


def test_fixed_zero_cost_edges_solve_like_free_ones(monkeypatch):
    # every ecss and ecss15 residual LP fixes its zero-cost edges at 1.
    # Solved again with them free (lower bound 0), with the same rows and
    # oracle, it has the same value, rounds and rows; on hubs with one
    # (dashed, solid) cost pair also the same point, pivots and bound
    # flips.  With costs per edge the free loop can end at another
    # optimal vertex, one zero-cost edge at 0, so there the fixed point
    # is checked to be a vertex of the free LP.  The first LP is the
    # materialized cut LP's
    lazy_solve = rounding._lazy_solve
    solves = {"same": 0, "other": 0}

    def compared(graph, objective, lower, upper, rows, oracle, recheck, start=None):
        result = lazy_solve(graph, objective, lower, upper, rows, oracle, recheck, start)
        zero = [j for j, c in enumerate(objective) if c == 0]
        assert lower == [1 if c == 0 else 0 for c in objective] and upper == [1] * len(lower)
        free = lpmod.solve_lazy(
            lpmod.instance(objective, [0] * len(lower), upper, rows), oracle)
        a, b = result.optimum, free.optimum
        assert a.value == b.value and all(a.nums[j] == a.denom for j in zero)
        assert (result.separation_calls, result.rows) == (free.separation_calls, free.rows)
        if (a.nums, a.denom, a.pivots, a.bound_flips) == (
                b.nums, b.denom, b.pivots, b.bound_flips):
            solves["same"] += 1
        else:
            assert per_edge and _is_free_vertex(objective, result.rows, a)
            solves["other"] += 1
        return result

    monkeypatch.setattr(rounding, "_lazy_solve", compared)
    instances = [(random_cost_hub(3, seed, per_edge), per_edge)
                 for seed in range(4) for per_edge in (False, True)]
    instances += [(hub_cost_variant(1, 2), False), (hub_cost_variant(2, 7), False)]
    for inst, per_edge in instances:
        lp0 = full_cut_lp(inst.graph, 6, "ecss").value
        for solver in (kecss, bicriteria):
            _, trace = solver(inst.graph, 6)
            assert trace.lp0 == lp0
    assert solves["same"] >= 2 * 6 and solves["other"] > 0


def test_degree_bounded_residual_lps_keep_zero_cost_edges_free(monkeypatch):
    # the <= degree rows may hold a zero-cost edge below 1, so md-ecss
    # leaves its bounds at [0, 1]
    lazy_solve = rounding._lazy_solve
    bounds = []

    def recorded(graph, objective, lower, upper, rows, oracle, recheck, start=None):
        bounds.append((objective.count(0), lower, upper))
        return lazy_solve(graph, objective, lower, upper, rows, oracle, recheck, start)

    monkeypatch.setattr(rounding, "_lazy_solve", recorded)
    for seed in range(3):
        inst = random_cost_hub(3, seed)
        md_kecss(inst.graph, 6, *degree_bounds_for(inst, seed))
    assert all(lower == [0] * len(lower) and upper == [1] * len(upper)
               for _, lower, upper in bounds)
    assert sum(zeros > 0 for zeros, _, _ in bounds) == 3


def test_finish_holds_unit_cost_ecss15_to_four_thirds_k():
    # all ten K5 edges: cost 10, 4-connected; against an LP value of 7 the
    # ratio 10/7 lies above 1 + 4/(3*4) = 4/3 and below 3/2
    unit = complete_graph(5)
    with pytest.raises(CertificationError, match="cost"):
        _finish(unit, "ecss15", 4, ScaledPoint(unit, [1] * unit.m, 1), Fraction(7))
    # one edge at cost 2 lifts the bound to 3/2: 11 <= 3/2 * 15/2
    mixed = make_graph(5, [(e.u, e.v, 2 if e.id == 0 else 1) for e in unit.edges])
    sol = _finish(mixed, "ecss15", 4, ScaledPoint(mixed, [1] * mixed.m, 1),
                  Fraction(15, 2))
    assert (sol.cost, sol.connectivity) == (11, 4)
    assert Fraction(4, 3) * sol.lp_value < sol.cost <= Fraction(3, 2) * sol.lp_value


def test_two_vertex_parallel_edges_all_modes():
    g = make_graph(2, [(1, 2, c) for c in (1, 2, 3, 4, 5)])
    sol, trace = kecss_even(g, 4)
    assert sol.cost == 1 + 2 + 3 + 4 == trace.lp0  # cheapest four of five
    sol, _ = bicriteria(g, 4)
    assert sol.connectivity >= 3
    sol, _ = kecsm(g, 4)
    assert sol.connectivity >= 4 and sol.cost <= Fraction(3, 2) * sol.lp_value
    sol, _ = md_kecss(g, 4, [4, 4], [5, 5])
    assert sol.connectivity >= 2


def test_fractional_costs_through_api():
    # instance files carry integers, but the in-memory API is fully rational
    g = make_graph(3, [(1, 2, Fraction(1, 3)), (2, 3, Fraction(1, 2)),
                       (1, 3, Fraction(5, 7))])
    sol, trace = kecsm(g, 2)  # rounded at k' = 4
    assert sol.cost == 2 * (Fraction(1, 3) + Fraction(1, 2) + Fraction(5, 7))
    assert sol.connectivity == 4
    # a third of every cost scales every cost and LP value by 1/3 and
    # changes nothing else, in every mode and certification setting
    third = Fraction(1, 3)
    instances = [gen("prism-hub-k6"), gen("prism-k3"),
                 gen("random", seed=3, n=7, p=0.5, k=4, ensure_connectivity=4)]
    runs = 0
    for inst in instances:
        scaled = Instance(make_graph(inst.graph.n, [(e.u, e.v, e.cost * third)
                                                    for e in inst.graph.edges]),
                          inst.k, inst.bounds)
        for name, mode in MODES.items():
            for certify_flag in (True, False):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # k=2 returns the empty subgraph
                    sol, trace = mode.run(inst, certify=certify_flag)
                    sol3, trace3 = mode.run(scaled, certify=certify_flag)
                key = (inst.graph.n, name, certify_flag)
                assert sol3.cost == sol.cost * third, key
                assert sol3.lp_value == sol.lp_value * third, key
                assert sol3.multiplicity == sol.multiplicity, key
                assert len(trace3.iterations) == len(trace.iterations), key
                for rec, rec3 in zip(trace.iterations, trace3.iterations):
                    assert rec3.lp_value == rec.lp_value * third, key
                    assert ((rec3.picked, rec3.frac_support, rec3.lazy_rounds,
                             rec3.lp_rows, rec3.point)
                            == (rec.picked, rec.frac_support, rec.lazy_rounds,
                                rec.lp_rows, rec.point)), key
                runs += 1
    assert runs == 30


# ecsm at k=2 on a random graph (n=10, m=22): the first multigraph LP sets
# edges 11, 16 and 20 to 4/3, so floor extraction picks each once and keeps
# its remainder 1/3 in the working set of the residual LP
SPLIT_EDGE_GRAPH = (
    (4, 7, 4), (7, 9, 10), (9, 10, 6), (2, 10, 7), (1, 2, 6), (1, 6, 6), (5, 6, 4),
    (3, 5, 1), (3, 8, 10), (4, 8, 4), (1, 7, 5), (4, 9, 7), (1, 4, 9), (8, 10, 5),
    (6, 7, 3), (2, 5, 6), (6, 10, 2), (2, 8, 6), (6, 9, 10), (4, 6, 4), (2, 3, 6),
    (2, 6, 3))


@pytest.mark.parametrize("certify", [True, False])
def test_kecsm_split_edge_picked_and_working(certify):
    g = make_graph(10, SPLIT_EDGE_GRAPH)
    sol, trace = kecsm(g, 2, certify=certify)
    first = trace.iterations[0].point
    assert [e for e, v in sorted(first.items()) if v.denominator != 1 and v > 1] \
        == [11, 16, 20]
    assert len(trace.iterations) > 1  # a residual LP ran over the remainders
    assert edge_connectivity(g, sol.multiplicity) == sol.connectivity >= 2
    assert g.cost_of(sol.multiplicity) == sol.cost <= 2 * sol.lp_value
    assert (sol.cost, sol.lp_value, sol.connectivity) == (87, Fraction(146, 3), 3)


def test_prism_hub_g7_end_to_end():
    # n=22 lies above the old 20-vertex limit of the separation cut scan
    dashed, solid = 2, 3
    g = make_graph(22, prism_hub_edges(7, dashed, solid))
    assert (g.n, g.m) == (22, 84)
    lp = 7 * (Fraction(dashed, 2) + Fraction(3 * solid, 2))
    for solver, target, factor in ((kecss, 4, 1), (bicriteria, 5, Fraction(3, 2))):
        sol, trace = solver(g, 6)
        assert trace.lp0 == sol.lp_value == lp
        assert all(m == 1 for m in sol.multiplicity.values())
        assert edge_connectivity(g, sol.multiplicity) == sol.connectivity >= target
        assert g.cost_of(sol.multiplicity) == sol.cost <= factor * lp


def test_certified_runs_above_sixteen_vertices():
    # tight sets come from cuts_below, so certification needs no vertex
    # limit: the g=7 hub (n=22) certifies every iteration
    graph = make_graph(22, prism_hub_edges(7, 1, 2))
    for solver in (kecss, bicriteria):
        sol, trace = solver(graph, 6, certify=True)
        assert trace.certified and trace.iterations
        for rec in trace.iterations:
            assert rec.basis_size == rec.frac_support > 0
            assert rec.small_member is not None


def _degree_active_reference(point, vs):
    # fractional degree over the edges with 0 < x_e < 1, as Fractions
    x = [Fraction(w, point.denom) for w in point.weights]
    still = set()
    for v in vs:
        meeting = [e for e in crossing(point.graph, 1 << (v - 1)) if 0 < x[e] < 1]
        fdeg = sum((x[e] for e in meeting), Fraction(0))
        if fdeg > 2 or len(meeting) - fdeg > 2:
            still.add(v)
    return mask(still)


def test_degree_active_matches_a_fraction_reference_at_the_boundary():
    # K6 doubled: each vertex meets 10 edges; small denominators make a
    # fractional degree (or its complement) of exactly 2 common, where the
    # strict > keeps the vertex out
    g = make_graph(6, [(u, v, 1) for u in range(1, 7) for v in range(u + 1, 7)] * 2)
    rng = random.Random(16)
    at_two = {"degree": 0, "complement": 0}
    for _ in range(400):
        denom = rng.choice((1, 2, 3, 4, 6))
        weights = [rng.choice((0, denom, rng.randint(0, denom))) for _ in range(g.m)]
        point = ScaledPoint(g, weights, denom)
        vs = [v for v in range(1, 7) if rng.random() < 0.8]
        assert rounding._degree_active(point, mask(vs)) == \
            _degree_active_reference(point, vs)
        for v in vs:
            meeting = [w for e, w in enumerate(weights)
                       if 0 < w < denom and e in crossing(g, 1 << (v - 1))]
            at_two["degree"] += sum(meeting) == 2 * denom
            at_two["complement"] += len(meeting) * denom - sum(meeting) == 2 * denom
    assert min(at_two.values()) >= 20, at_two


def _counted_min_cut(monkeypatch) -> list[str]:
    """Count every Stoer-Wagner run, at each module that looks it up."""
    runs, real = [], graphs.min_cut
    for module in (graphs, separation, rounding, certify):
        def counted(graph, weights, site=module.__name__):
            runs.append(site)
            return real(graph, weights)
        monkeypatch.setattr(module, "min_cut", counted)
    return runs


def test_stoer_wagner_runs_per_solve_on_the_g5_hub(monkeypatch):
    # one probe per oracle call and one stop test: the first LP decides
    # feasibility, the first iteration's stop test is answered by a pool
    # side, and `verify` reads the last stop test's cut
    inst = gen("prism-hub-k6", gadgets=5)
    runs = _counted_min_cut(monkeypatch)
    for mode, iterations, expected in (("ecss", 2, 4), ("ecss15", 1, 3)):
        runs.clear()
        sol, trace = MODES[mode].run(inst)
        assert len(trace.iterations) == iterations
        assert len(runs) == expected, (mode, runs)
        assert runs.count("kecss.graphs") == 1 and "kecss.certify" not in runs
        assert sol.connectivity == edge_connectivity(inst.graph, sol.multiplicity)


def test_stop_test_pool_verdict_matches_a_fresh_min_cut(monkeypatch, corpus50):
    # at every iteration boundary the stop test, told a side the
    # witness pool found active, answers as a fresh Requirement's min cut
    real = Requirement.active_empty
    told = []

    def checked(self, known=None):
        got = real(self, known)
        fresh = Requirement(self.graph, self.k, self.picked, self.threshold, self.degree)
        assert got == real(fresh)
        if known is not None:
            told.append(got)
        return got

    monkeypatch.setattr(Requirement, "active_empty", checked)
    iterated = 0
    for g in (3, 5, 9):
        for seed, per_edge in ((0, False), (1, False), (0, True)):
            inst = random_cost_hub(g, seed, per_edge)
            for _, trace in (kecss(inst.graph, 6), kecss(inst.graph, 7),
                             bicriteria(inst.graph, 5), bicriteria(inst.graph, 6),
                             md_kecss(inst.graph, 6, *degree_bounds_for(inst, seed))):
                iterated += len(trace.iterations) > 1
    for inst in corpus50[:20]:
        kecss(inst.graph, inst.k)
        bicriteria(inst.graph, inst.k)
        kecsm(inst.graph, inst.k)
    # every iterating run's first boundary is answered by the pool
    assert iterated == len(told) >= 20 and not any(told)


def test_active_empty_checks_the_side_it_is_told():
    # a side told as active is checked: an inactive one falls back to the
    # min cut, which is then cached on the picked point
    g = complete_graph(5)
    picked = {e.id: 1 for e in g.edges if 1 not in (e.u, e.v)}  # K4 on 2..5
    req = Requirement(g, 5, picked, 3)
    assert req.residual(1) == 5 and req.residual(mask([2])) == 2
    assert not req.active_empty(1)
    assert "min_cut" not in vars(req.picked_point)
    assert not req.active_empty(mask([2]))
    assert req.picked_point.min_cut == (0, mask([2, 3, 4, 5]))
    done = Requirement(g, 5, {e: 1 for e in range(g.m)}, 3)
    assert done.active_empty(mask([2])) and done.active_empty()


def test_k2_warning_names_the_callers_line():
    g = complete_graph(4)
    for solve, k in ((kecss, 3), (kecss_even, 2), (MODES["ecss"].run, None)):
        with pytest.warns(UserWarning, match="empty subgraph") as caught:
            if k is None:
                solve(Instance(g, 3))
            else:
                solve(g, k)
        assert [w.filename for w in caught] == [__file__]


def test_cut_and_degree_rows_match_a_crossing_scan():
    # rows from boundary bitsets of the 0/1 point on the working edges
    # equal rows built by scanning each edge, keys in variable order
    rng = random.Random(28)
    for trial in range(40):
        inst = random_feasible(2800 + trial, 6 + trial % 5, 4, p=0.7)
        graph = inst.graph
        working = sorted(rng.sample(range(graph.m), rng.randint(0, graph.m)))
        var_of = {e: i for i, e in enumerate(working)}
        ones = rounding._edge_point(graph, working, [1] * len(working), 1)

        def scanned(side):
            return {var_of[e]: 1 for e in crossing(graph, side, working)}

        for side in rng.sample(range(1, 1 << graph.n), 12):
            got = rounding._cut_row(ones, side, 3)
            assert got == lpmod.row(scanned(side), lpmod.GE, 3)
            assert list(got.coeffs) == sorted(scanned(side))
        lower = [rng.randint(0, 2) for _ in range(graph.n)]
        upper = [lo + rng.randint(0, 3) for lo in lower]
        active = rng.randrange(1 << graph.n)
        expected = []
        for v in vertices(active):
            coeffs = scanned(1 << (v - 1))
            if lower[v - 1] >= 1:
                expected.append(lpmod.row(coeffs, lpmod.GE, lower[v - 1]))
            expected.append(lpmod.row(coeffs, lpmod.LE, upper[v - 1]))
        got = rounding._degree_rows(ones, lower, upper, active)
        assert got == expected
        assert [list(r.coeffs) for r in got] == [list(r.coeffs) for r in expected]
    # the rows hold only while the working ids, the variables, ascend
    graph = complete_graph(4)
    with pytest.raises(RuntimeError, match="do not ascend"):
        rounding._solve_residual(graph, Requirement(graph, 4), [1, 0, 2], set(), False)
