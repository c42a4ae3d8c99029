import itertools
import json
import random
from fractions import Fraction

import pytest

from kecss import certify as certmod
from kecss.certify import (extract_laminar, reproducer_dump, small_boundary_set,
                           tight_sets, uncross_witness, verify)
from kecss.graphs import (complete_graph, crossing, cycle_graph, edge_connectivity,
                          make_graph)
from kecss.instances import gen, parse_instance
from kecss.lp import LpInfeasible
from kecss.requirements import Requirement
from kecss.separation import ScaledPoint
from kecss.rounding import bicriteria, kecss, md_kecss

from conftest import degree_bounds_for, mask, random_cost_hub, tight_sets_scan
from reference import brute_force_opt, full_cut_lp


def fixture_point(inst):
    x = {}
    for e in inst.graph.edges:
        x[e.id] = {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(3, 4)}[int(e.cost)]
    return x


def test_verify_pass_and_fail():
    g = complete_graph(5)
    ones = {e: 1 for e in range(g.m)}
    report = verify(g, ones, 2, Fraction(10))
    assert report.ok and report.connectivity == 4 and report.cost == 10

    c5 = cycle_graph(5)
    broken = {e: 1 for e in range(4)}  # drop one cycle edge
    report = verify(c5, broken, 2, None)
    assert not report.ok
    assert report.witness_cut is not None
    assert len(crossing(c5, report.witness_cut, broken.keys())) <= 1
    assert report.failures == ["connectivity 1 below target 2 (cut side [5])"]


def test_verify_reads_a_cached_cut_only_on_identical_weights(monkeypatch):
    # each handed point carries a planted wrong cut, so a report that
    # matches a fresh `verify` shows the cut was run, not read
    g = complete_graph(5)
    ones = {e: 1 for e in range(g.m)}
    fresh = verify(g, ones, 4, Fraction(10))
    runs = []
    real = certmod.min_cut
    monkeypatch.setattr(certmod, "min_cut", lambda *a: runs.append(a) or real(*a))

    def planted(graph, weights, denom):
        point = ScaledPoint(graph, weights, denom)
        point.__dict__["min_cut"] = (1, mask([2]))  # the cached_property's slot
        return point

    twin = complete_graph(5)  # equal to g, but another graph
    others = [planted(g, [1] * (g.m - 1) + [0], 1),  # one entry differs
              planted(g, [1] * g.m, 2),              # the same weights over 2
              planted(twin, [1] * g.m, 1)]
    for point in others:
        assert verify(g, ones, 4, Fraction(10), picked=point) == fresh
    assert len(runs) == len(others)
    # identical weights over the same graph and denominator 1: read, not run
    report = verify(g, ones, 4, Fraction(10), picked=planted(g, [1] * g.m, 1))
    assert len(runs) == len(others)
    assert report.connectivity == 1 and not report.ok


def test_verify_reports_malformed_multiplicities():
    # a negative multiplicity, an edge id past the last edge and edge id
    # -1 are each a failure, and none of them counts towards the
    # connectivity or the cost
    g = make_graph(4, [(1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 1, 4), (1, 3, 5)])
    ones = {e: 1 for e in range(g.m)}
    for bad in ({4: -1}, {g.m: 1}, {-1: 1}):
        mult = {**ones, **bad}
        report = verify(g, mult, 2, None)
        (e, m), = bad.items()
        assert report.failures == [f"bad multiplicity {m} on edge {e}"]
        good = {f: 1 for f in range(g.m) if f not in bad}
        assert report.cost == g.cost_of(good)
        assert report.connectivity == 2
    assert verify(g, {**ones, 4: -1}, 2, None).cost == 10
    assert verify(g, {**ones, -1: 1}, 2, None).cost == 15


def test_verify_reports_multiplicities_that_are_not_ints():
    # a multiplicity or an edge id that is not an int is reported like a
    # negative one and left out of the sums, never raised
    g = make_graph(4, [(1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 1, 4), (1, 3, 5)])
    ones = {e: 1 for e in range(g.m)}
    for m in (Fraction(3, 2), 1.0, True):
        report = verify(g, {**ones, 0: m}, 1, None)
        assert not report.ok
        assert report.failures == [f"bad multiplicity {m} on edge 0"]
        assert report.cost == g.cost_of({f: 1 for f in range(1, g.m)})
        assert report.connectivity == 1
    report = verify(g, {**ones, 0.5: 1}, 2, None)
    assert report.failures == ["bad multiplicity 1 on edge 0.5"]
    assert report.cost == g.cost_of(ones) and report.connectivity == 2


def test_verify_degree_window():
    g = complete_graph(5)
    ones = {e: 1 for e in range(g.m)}
    window = {v: (Fraction(2), Fraction(6)) for v in range(1, 6)}
    assert verify(g, ones, 2, None, window).ok
    window[3] = (Fraction(5), Fraction(6))
    report = verify(g, ones, 2, None, window)
    assert not report.ok and report.degree_violations == [(3, 4, 5, 6)]


def test_tight_sets_k5():
    # the 5 singleton cuts, as canonical sides (the cut around vertex 1 is
    # represented by its complement)
    g = complete_graph(5)
    req = Requirement(g, 4, {}, 3)
    x = {e: Fraction(1) for e in range(g.m)}
    sets = tight_sets(ScaledPoint.of(g, x), req)
    assert len(sets) == 5
    assert all(not s & 1 for s in sets)
    assert sets == [mask({2}), mask({3}), mask({4}), mask({5}), mask({2, 3, 4, 5})]
    assert all(len(crossing(g, s)) == 4 for s in sets)


def test_tight_sets_above_requirement_empty():
    g = complete_graph(5)
    req = Requirement(g, 3, {}, 3)
    x = {e: Fraction(1) for e in range(g.m)}  # every cut has at least 4
    assert tight_sets(ScaledPoint.of(g, x), req) == []


def test_tight_sets_prism_fixture():
    inst = gen("prism-k3")
    full = (1 << 6) - 1
    req = Requirement(inst.graph, 3, {}, 3)
    sets = tight_sets(ScaledPoint.of(inst.graph, fixture_point(inst)), req)
    partitions = {min(s, full ^ s) for s in sets}  # one side per partition
    sides = [mask({v}) for v in range(1, 7)] + [mask(p) for p in ((1, 2), (3, 4), (5, 6))]
    for side in sides:
        assert min(side, full ^ side) in partitions


def _hub_fixture_state():
    """The k=6 hub after its first iteration's picks: zero-cost edges
    picked, rungs at 1/2 and triangle edges at 3/4."""
    g = gen("prism-hub-k6").graph
    picked = {e.id: 1 for e in g.edges if e.cost == 0}
    x = {e.id: {1: Fraction(1, 2), 2: Fraction(3, 4)}[int(e.cost)]
         for e in g.edges if e.cost > 0}
    return g, picked, x


def test_tight_sets_match_scan_on_fixture_points():
    prism = gen("prism-k3")
    hub, hub_picked, hub_x = _hub_fixture_state()
    k5 = complete_graph(5)
    c6 = cycle_graph(6)
    cases = [
        (fixture_point(prism), Requirement(prism.graph, 3, {}, 3)),
        (fixture_point(prism), Requirement(prism.graph, 3, {}, 2)),
        (hub_x, Requirement(hub, 6, hub_picked, 3)),
        (hub_x, Requirement(hub, 6, {}, 2)),
        ({e: Fraction(1) for e in range(k5.m)}, Requirement(k5, 4, {}, 3)),
        ({e: Fraction(1, 2) for e in range(k5.m)}, Requirement(k5, 2, {}, 2)),
        ({e: Fraction(1) for e in range(c6.m)}, Requirement(c6, 2, {}, 2)),
        # infeasible: every cut lies below its residual, none is tight
        ({e: Fraction(1, 3) for e in range(c6.m)}, Requirement(c6, 4, {0: 1}, 3)),
    ]
    sizes = []
    for x, req in cases:
        got = tight_sets(ScaledPoint.of(req.graph, x), req)
        assert got == tight_sets_scan(x, req)
        sizes.append(len(got))
    # every arc of the 6-cycle is tight at x = 1, k = 2
    assert sizes[6] == 15 and sizes[7] == 0
    assert sum(1 for size in sizes if size) >= 6


@pytest.fixture
def scan_checked(monkeypatch):
    """Check every `certify.tight_sets` call against the reference scan;
    returns the vertex counts of the checked calls."""
    calls = []
    original = certmod.tight_sets

    def checked(point, req):
        got = original(point, req)
        x = {e: Fraction(w, point.denom) for e, _, w in point.edges}
        assert got == tight_sets_scan(x, req)
        calls.append(req.graph.n)
        return got

    monkeypatch.setattr(certmod, "tight_sets", checked)
    return calls


def test_tight_sets_match_scan_on_fixture_runs(scan_checked, corpus50,
                                               structured_corpus, unit_corpus,
                                               tiny_corpus):
    # every test fixture with n <= 16, at the points and picked sets of
    # certified kecss runs
    fixtures = [gen("prism-hub-k6"), gen("complete", n=5, k=4)]
    fixtures += corpus50 + structured_corpus + unit_corpus + tiny_corpus
    for inst in fixtures:
        assert inst.graph.n <= 16
        kecss(inst.graph, inst.k, certify=True)
    assert len(scan_checked) >= len(fixtures)


@pytest.mark.parametrize("g", [3, 5])
def test_tight_sets_match_scan_on_seeded_hub_runs(scan_checked, g):
    # random-cost hubs, at the points and picked sets of real kecss,
    # bicriteria and md_kecss runs; the shared-pair hubs iterate twice
    runs = 0
    for seed in range(2):
        for per_edge in (False, True):
            inst = random_cost_hub(g, seed, per_edge)
            lower, upper = degree_bounds_for(inst, seed)
            for _, trace in (kecss(inst.graph, 6, certify=True),
                             bicriteria(inst.graph, 6, certify=True),
                             md_kecss(inst.graph, 6, lower, upper, certify=True)):
                assert trace.certified
                runs += len(trace.iterations)
    assert len(scan_checked) == runs > 12
    assert set(scan_checked) == {3 * g + 1}


def test_extract_laminar_prism():
    inst = gen("prism-k3")
    req = Requirement(inst.graph, 3, {}, 3)
    p = ScaledPoint.of(inst.graph, fixture_point(inst))
    basis = extract_laminar(p, req, tight_sets(p, req))
    assert basis.size() == 9 == len(basis.frac_edges)
    assert not basis.degree_vertices
    for a, b in itertools.combinations(basis.sets, 2):
        assert a & b in (0, a, b)


def test_extract_laminar_rows_are_fractional_boundary_bitsets():
    # a row is the member's boundary bitset over the support positions,
    # cut down to the fractional edges, in the order of members()
    inst = gen("prism-k3")
    req = Requirement(inst.graph, 3, {}, 3)
    p = ScaledPoint.of(inst.graph, fixture_point(inst))
    basis = extract_laminar(p, req, tight_sets(p, req))
    frac_bits = sum(1 << i for i, (e, _, _) in enumerate(p.edges)
                    if e in basis.frac_edges)
    assert frac_bits.bit_count() == 9
    assert basis.rows == tuple(p.boundary_bits(m) & frac_bits for m in basis.members())
    for row, member in zip(basis.rows, basis.members()):
        frac_cut = crossing(inst.graph, member, basis.frac_edges)
        assert [p.edges[i][0] for i in range(len(p.edges)) if row >> i & 1] == frac_cut


def test_extract_laminar_integral_point():
    g = complete_graph(5)
    req = Requirement(g, 4, {}, 3)
    p = ScaledPoint.of(g, {e: Fraction(1) for e in range(g.m)})
    basis = extract_laminar(p, req, tight_sets(p, req))
    assert basis.size() == 0 and basis.frac_edges == ()


def test_small_boundary_set_prism():
    inst = gen("prism-k3")
    req = Requirement(inst.graph, 3, {}, 3)
    x = fixture_point(inst)
    p = ScaledPoint.of(inst.graph, x)
    basis = extract_laminar(p, req, tight_sets(p, req))
    z = {e: v for e, v in x.items() if 0 < v < 1}
    member = small_boundary_set(basis, p, req)
    cut = crossing(inst.graph, member, z.keys())
    assert len(cut) <= 3
    assert sum((z[e] for e in cut), Fraction(0)) <= 2


def test_small_boundary_set_rejects_bad_z():
    inst = gen("prism-k3")
    req = Requirement(inst.graph, 3, {}, 3)
    x = fixture_point(inst)
    p = ScaledPoint.of(inst.graph, x)
    basis = extract_laminar(p, req, tight_sets(p, req))
    bad = dict(x)
    bad[basis.frac_edges[0]] = Fraction(1)  # not strictly fractional
    with pytest.raises(ValueError, match="not strictly fractional"):
        small_boundary_set(basis, ScaledPoint.of(inst.graph, bad), req)


def test_small_boundary_set_without_a_small_member_carries_a_dump():
    # every member of this hand-built basis has 4 fractional boundary
    # edges (integral mass 2), which the token-counting bound rules out
    g = complete_graph(5)
    req = Requirement(g, 4, {}, 3)
    point = ScaledPoint(g, [1] * g.m, 2)  # x = 1/2 everywhere
    frac = tuple(range(g.m))
    sets = (mask({1}), mask({2}))
    # every edge is fractional, so a row is the whole boundary bitset
    rows = tuple(point.boundary_bits(s) for s in sets)
    basis = certmod.LaminarBasis(sets, (), frac, rows)
    with pytest.raises(certmod.CertificationError,
                       match="no member with at most 3") as err:
        small_boundary_set(basis, point, req)
    assert err.value.dump is not None
    payload = json.loads(err.value.dump.splitlines()[-1])
    assert payload["point"] == {str(e): "1/2" for e in frac}
    assert payload["threshold"] == 3


def test_uncross_witness_intersection_union():
    # all proper sets active: crossing tight pair falls in the first case
    inst = gen("prism-k3")
    g = inst.graph
    req = Requirement(g, 3, {}, 2)
    x = fixture_point(inst)
    a = mask({1, 2})
    b = mask({2, 3, 4})
    mass_a = sum((x[e] for e in crossing(g, a)), Fraction(0))
    mass_b = sum((x[e] for e in crossing(g, b)), Fraction(0))
    assert mass_a == req.residual(a)
    if mass_b == req.residual(b):
        w = uncross_witness(a, b, ScaledPoint.of(g, x), req)
        assert w.case in ("intersection_union", "difference")
        assert w.a == a


def test_uncross_witness_cases_from_run():
    # collect weakly-crossing tight pairs from the fixture and check them all
    g, picked, x = _hub_fixture_state()
    req = Requirement(g, 6, picked, 3)
    p = ScaledPoint.of(g, x)
    tights = tight_sets(p, req)
    full = (1 << 10) - 1
    members = []
    for s in tights:
        members.append(s)
        members.append(full ^ s)
    cases = set()
    for a, b in itertools.combinations(members, 2):
        if not (a & b) or not (a & ~b) or not (b & ~a):
            continue
        w = uncross_witness(a, b, p, req)
        cases.add(w.case)
        assert w.a == a and len(w.family) >= 2
        if w.case == "intersection_union":
            assert w.theta == 0
        elif w.case == "difference":
            assert w.gamma == 0
        elif w.case.startswith("mixed"):
            assert w.theta == 0 and w.gamma == 0 and w.alpha == 0
    assert cases  # at least one weakly-crossing pair existed


def test_reproducer_dump_lists_the_support_in_lowest_terms():
    # the hub after its first picks, with x = 0 on the picked edges and on
    # one rung, and x = 1 on one ring edge: over the common denominator 4
    # the dump reduces each support value and leaves the zeros out
    g, picked, x = _hub_fixture_state()
    rung, ring = (min(e for e in x if g.edges[e].cost == c) for c in (1, 2))
    x = {**{e: Fraction(0) for e in picked}, **x, rung: Fraction(0), ring: Fraction(1)}
    req = Requirement(g, 6, picked, 3)
    point = ScaledPoint.of(g, x)
    assert point.denom == 4
    text = reproducer_dump(g, req, point)
    *instance_lines, payload = text.splitlines()
    payload = json.loads(payload)
    assert payload["point"] == {str(e): f"{v.numerator}/{v.denominator}"
                                for e, v in x.items() if v}
    assert payload["point"][str(ring)] == "1/1" and str(rung) not in payload["point"]
    assert "2/4" not in payload["point"].values()
    assert payload["picked"] == {str(e): 1 for e in sorted(picked)}
    assert payload["threshold"] == 3
    inst = parse_instance("\n".join(instance_lines))
    assert (inst.graph.n, inst.graph.m, inst.k) == (g.n, g.m, 6)
    assert [(e.u, e.v, e.cost) for e in inst.graph.edges] == \
        [(e.u, e.v, e.cost) for e in g.edges]


def _identity_reference(graph, point, combo, target):
    """The first support edge on which sum c * chi(S) over combo differs
    from the target's, read edge by edge from Edge.u and Edge.v."""
    terms = [(-target[0], target[1]), *combo]
    for e, _, _ in point.edges:
        u, v = graph.edges[e].u, graph.edges[e].v
        if sum(c for c, mask in terms if (mask >> (u - 1) & 1) != (mask >> (v - 1) & 1)):
            return e
    return None


def test_identity_failure_matches_per_edge_reference():
    # the term shapes uncross_witness checks, (1), (1, 1, -1) and
    # (1, 1, -2) against a target, on the corners of random vertex sets
    # A and B and on unrelated random masks, over seeded points on random
    # multigraphs: the same verdict and the same first failing edge
    rng = random.Random(19)
    verdicts = {True: 0, False: 0}
    for trial in range(60):
        n = 3 + trial % 8
        edges = [(u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 for _ in range(rng.randint(0, 2)) if rng.random() < 0.5]
        g = make_graph(n, edges)
        weights = [rng.randint(0, 4) if rng.random() < 0.6 else 0 for _ in range(g.m)]
        point = ScaledPoint(g, weights, rng.choice((1, 3, 4)))
        full = (1 << n) - 1
        for _ in range(10):
            a, b, *r = (rng.randrange(full + 1) for _ in range(6))
            inter, union, amb, bma = a & b, a | b, a & ~b, b & ~a
            cases = [([(1, amb)], (1, b)),
                     ([(1, inter), (1, union), (-1, a)], (1, b)),
                     ([(1, amb), (1, bma), (-1, a)], (1, b)),
                     ([(1, amb), (1, union), (-2, a)], (1, b)),
                     ([(1, bma), (1, union), (-2, b)], (1, a)),
                     ([(1, inter), (1, bma), (-2, a)], (1, b)),
                     ([(1, inter), (1, amb), (-2, b)], (1, a)),
                     ([(1, r[0])], (1, r[1])),
                     ([(1, r[0]), (1, r[1]), (-1, r[2])], (1, r[3])),
                     ([(1, r[0]), (1, r[1]), (-2, r[2])], (1, r[3])),
                     ([(1, a)], (1, full & ~a))]
            for combo, target in cases:
                got = certmod.identity_failure(point, combo, target)
                assert got == _identity_reference(g, point, combo, target)
                verdicts[got is None] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000


def test_uncross_witness_domain_errors():
    inst = gen("prism-k3")
    req = Requirement(inst.graph, 3, {}, 3)
    p = ScaledPoint.of(inst.graph, fixture_point(inst))
    with pytest.raises(ValueError):
        uncross_witness(mask({1}), mask({2}), p, req)  # disjoint
    with pytest.raises(ValueError):
        uncross_witness(mask({1}), mask({1, 2}), p, req)  # nested


def test_brute_force_examples():
    tri = make_graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    value, witness = brute_force_opt(tri, 2, "ecss")
    assert value == 3 and set(witness) == {0, 1, 2}

    k4 = complete_graph(4)
    value, witness = brute_force_opt(k4, 2, "ecss")
    assert value == 4
    assert edge_connectivity(k4, witness) >= 2

    two = make_graph(2, [(1, 2, 1)])
    value, witness = brute_force_opt(two, 4, "ecsm")
    assert value == 4 and witness == {0: 4}


def test_brute_force_infeasible():
    path = make_graph(3, [(1, 2, 1), (2, 3, 1)])
    with pytest.raises(LpInfeasible):
        brute_force_opt(path, 2, "ecss")


def test_brute_force_ecsm_matches_known():
    tri = make_graph(3, [(1, 2, 1), (2, 3, 2), (1, 3, 3)])
    value, witness = brute_force_opt(tri, 2, "ecsm")
    # doubling the two cheapest edges costs 6; the triangle costs 6 as well
    assert value == 6
    assert edge_connectivity(tri, witness) >= 2


def test_full_cut_lp_examples():
    assert full_cut_lp(complete_graph(5), 4, "ecss").value == 10
    assert full_cut_lp(gen("prism-k3").graph, 3, "ecss").value == Fraction(21, 2)
    disconnected = make_graph(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(LpInfeasible):
        full_cut_lp(disconnected, 1, "ecss")


def test_full_cut_lp_with_degree_rows():
    g = complete_graph(5)
    opt = full_cut_lp(g, 4, "ecss", ([4] * 5, [4] * 5))
    assert opt.value == 10
    tight = full_cut_lp(g, 4, "ecss", ([0] * 5, [4] * 5))
    assert tight.value == 10


def test_sandwich_small():
    rng = random.Random(5)
    for i in range(4):
        inst = gen("random", seed=600 + i, n=5, p=0.9, k=4,
                   ensure_connectivity=4)
        if inst.graph.m > 14:
            continue
        bf, _ = brute_force_opt(inst.graph, 4, "ecss")
        lp_value = full_cut_lp(inst.graph, 4, "ecss").value
        sol, _ = kecss(inst.graph, 4)
        assert bf >= lp_value >= sol.cost


def test_laminar_basis_with_degree_vertices():
    # a run with tight degree constraints must produce W entries that keep
    # |L| + |W| = |F|
    inst = gen("prism-hub-k6")
    g = inst.graph
    lower = [0] * 10
    upper = [g.degree(v) for v in range(1, 11)]
    from kecss.rounding import md_kecss
    sol, trace = md_kecss(g, 6, lower, upper)
    assert sol.connectivity >= 4
    for rec in trace.iterations:
        if rec.basis_size is not None and rec.frac_support:
            assert rec.basis_size == rec.frac_support
