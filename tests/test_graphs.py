import importlib
import math
import pkgutil
import random
from collections import Counter
from fractions import Fraction

import pytest

import kecss
from conftest import (degree_bounds_for, mask, min_cut_phases, min_cut_reference,
                      random_cost_hub, size_order)
from kecss import certify, rounding, separation
from kecss.certify import verify
from kecss.graphs import (Multigraph, _merged, complete_graph, crossing, cuts_below,
                          cycle_graph, edge_connectivity, make_graph, min_cut, vertices)
from kecss.instances import gen
from kecss.lp import common
from kecss.requirements import Requirement
from kecss.separation import ScaledPoint


def exhaustive_min_cut(graph, caps):
    best = None
    for mask_rest in range(1, 1 << (graph.n - 1)):
        mask = mask_rest << 1
        w = sum((Fraction(caps[e.id]) for e in graph.edges
                 if (mask >> (e.u - 1) & 1) != (mask >> (e.v - 1) & 1)),
                Fraction(0))
        if best is None or w < best:
            best = w
    return best


def random_graph(rng, n, p=0.6, parallel=0.1):
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                edges.append((u, v, 1))
                if rng.random() < parallel:
                    edges.append((u, v, 1))
    if not edges:
        edges.append((1, 2, 1))
    return make_graph(n, edges)


def test_multigraph_validation():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1, 1)])  # self-loop
    with pytest.raises(ValueError):
        make_graph(2, [(1, 3, 1)])  # endpoint out of range
    with pytest.raises(ValueError):
        make_graph(2, [(1, 2, -1)])  # negative cost
    g = make_graph(2, [(1, 2, 1), (1, 2, 1)])  # parallel edges are distinct ids
    assert g.m == 2


def test_boundary_cycle():
    c4 = cycle_graph(4)
    assert crossing(c4, mask({1, 2})) == [1, 3]  # edges v2v3 and v4v1


def test_boundary_star():
    k4 = complete_graph(4)
    assert len(crossing(k4, mask({1}))) == 3


def test_boundary_restricted_and_symmetry():
    g = gen("prism-hub-k6").graph
    frac = [e.id for e in g.edges if e.cost > 0]
    assert len(crossing(g, mask({2}), frac)) == 3  # one rung + two triangle edges
    rng = random.Random(0)
    for _ in range(30):
        gr = random_graph(rng, rng.randint(2, 8))
        side = mask(rng.sample(range(1, gr.n + 1), rng.randint(1, gr.n - 1)))
        other = ((1 << gr.n) - 1) ^ side
        assert crossing(gr, side) == crossing(gr, other)


def test_vertices_lists_a_mask_in_ascending_order():
    assert vertices(0) == []
    assert vertices(mask({3, 1, 7})) == [1, 3, 7]
    for side in range(1 << 9):
        assert vertices(side) == [v for v in range(1, 10) if side >> (v - 1) & 1]
        assert mask(vertices(side)) == side


def test_size_order_key_reproduces_the_set_order():
    # the mask key (size, sorted vertices) orders every vertex set of
    # 1..n as the sets themselves are ordered by (size, sorted tuple);
    # for equal sizes that is "the lowest bit of A ^ B lies in A"
    for n in range(1, 8):
        sets = [frozenset(v for v in range(1, n + 1) if m >> (v - 1) & 1)
                for m in range(1 << n)]
        old = [mask(s) for s in sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))]
        new = sorted(range(1 << n), key=certify.size_order)
        assert new == old == sorted(range(1 << n), key=size_order)
        for a, b in zip(new, new[1:]):
            if a.bit_count() == b.bit_count():
                assert (a ^ b) & -(a ^ b) & a
        # cuts_below's order: lexicographic by the sorted vertex list
        lex = sorted(sets, key=lambda s: tuple(sorted(s)))
        assert sorted(range(1 << n), key=vertices) == [mask(s) for s in lex]


def test_cuts_below_output_is_sorted_by_vertex_list():
    rng = random.Random(7)
    for trial in range(40):
        g = random_multigraph(rng, 3 + trial % 9)
        weights = [rng.randint(0, 4) for _ in range(g.m)]
        found = cuts_below(g, weights, rng.randint(1, 12))
        assert found == sorted(found, key=vertices)
        assert all(not side & 1 for side in found)  # vertex 1 stays outside


def test_min_cut_examples():
    assert min_cut(cycle_graph(5), [1] * 5)[0] == 2
    assert min_cut(complete_graph(5), [1] * 10)[0] == 4
    path = make_graph(3, [(1, 2, 1), (2, 3, 1)])
    value, side = min_cut(path, [1, 1])
    assert value == 1
    assert side in (mask({3}), mask({2, 3}))


def test_min_cut_needs_two_vertices():
    g = Multigraph(1, ())
    with pytest.raises(ValueError):
        min_cut(g, [])


def test_min_cut_matches_exhaustive():
    rng = random.Random(3)
    sizes = [rng.randint(2, 9) for _ in range(60)] + [12]
    for n in sizes:
        g = random_graph(rng, n)
        caps = {e: Fraction(rng.randint(0, 9), rng.randint(1, 4))
                for e in range(g.m)}
        weights, denom = common([caps[e] for e in range(g.m)])
        value, side = min_cut(g, weights)
        assert Fraction(value, denom) == exhaustive_min_cut(g, caps)
        attained = sum((caps[e] for e in crossing(g, side)), Fraction(0))
        assert attained == Fraction(value, denom)
        assert not side & 1  # canonical representative: vertex 1 outside


def random_multigraph(rng, n):
    """Up to three parallel copies per pair, with endpoints in either
    order; at low density the support is often disconnected."""
    p = rng.choice((0.1, 0.3, 0.7))
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                edges += [(u, v, 1) if rng.random() < 0.5 else (v, u, 1)] * rng.randint(1, 3)
    return make_graph(n, edges)


def test_one_crossing_sum_matches_endpoint_reference():
    # ScaledPoint.cross at several denominators, a Requirement's picked
    # multiplicity and verify's degrees all equal a sum over the edges
    # with exactly one endpoint in the set, read from Edge.u and Edge.v;
    # ScaledPoint.between equals the sum over the edges joining two
    # disjoint sets.  Every mask is asked twice, the second time from
    # the point's memo, and a point with empty support reads 0 everywhere.
    rng = random.Random(18)
    sides = pairs = 0
    for trial in range(80):
        g = random_multigraph(rng, 2 + trial % 8)
        weights = [rng.randint(0, 5) if rng.random() < 0.7 else 0 for _ in range(g.m)]
        mult = {e: rng.randint(1, 4) for e in range(g.m) if rng.random() < 0.5}
        picked = [mult.get(e, 0) for e in range(g.m)]

        def across(values, side):
            return sum(values[e.id] for e in g.edges if (e.u in side) != (e.v in side))

        def joining(values, left, right):
            return sum(values[e.id] for e in g.edges
                       if {e.u, e.v} & left and {e.u, e.v} & right)

        req = Requirement(g, 6, mult, 3)
        report = verify(g, mult, 0, None, dict.fromkeys(range(1, g.n + 1), (-1, -1)))
        assert [(v, deg) for v, deg, _, _ in report.degree_violations] == \
            [(v, across(picked, {v})) for v in range(1, g.n + 1)]
        points = [(ScaledPoint.of(g, {e: Fraction(w, d) for e, w in enumerate(weights)}), d)
                  for d in (1, 2, 3, 7, 12)]
        fives = ScaledPoint(g, weights, 5)
        empty = ScaledPoint(g, [0] * g.m, 4)
        assert empty.edges == ()
        for _ in range(10):
            side = {v for v in range(1, g.n + 1) if rng.random() < 0.5}
            bits = mask(side)
            for _ in range(2):
                assert fives.cross(bits) == across(weights, side)
                for point, d in points:
                    assert Fraction(point.cross(bits), point.denom) == \
                        Fraction(across(weights, side), d)
                assert req.picked_point.cross(bits) == across(picked, side)
                assert empty.cross(bits) == 0
            sides += 1
            # a random disjoint pair: each vertex left, right or neither
            where = [rng.randrange(3) for _ in range(g.n)]
            left = {v for v in range(1, g.n + 1) if where[v - 1] == 1}
            right = {v for v in range(1, g.n + 1) if where[v - 1] == 2}
            masks = mask(left), mask(right)
            for _ in range(2):
                assert fives.between(*masks) == joining(weights, left, right)
                for point, d in points:
                    assert Fraction(point.between(*masks), point.denom) == \
                        Fraction(joining(weights, left, right), d)
                assert req.picked_point.between(*masks) == joining(picked, left, right)
                assert empty.between(*masks) == 0
            pairs += 1
    assert sides == pairs == 800


def test_scaled_point_weights_are_read_only():
    # the support, its bitsets and the memo are built from `weights`
    # once, so the weights cannot change under them
    g = complete_graph(4)
    point = ScaledPoint(g, [1, 0, 2, 0, 1, 1], 2)
    assert point.weights == (1, 0, 2, 0, 1, 1)
    assert point.cross(mask({1})) == 3
    with pytest.raises(TypeError):
        point.weights[1] = 2
    assert ScaledPoint.of(g, {0: Fraction(1, 3)}).weights == (1, 0, 0, 0, 0, 0)


def test_min_cut_matches_reference_value_and_side():
    # exact (value, side) equality: the side reaches traces and digests.
    # Zero weights and disconnected supports leave vertices at key 0,
    # which the contraction takes in vertex-id order.  `min_cut` stops at
    # its first zero phase cut; the reference runs every phase, and in
    # some trials a zero cut comes before the last phase.
    rng = random.Random(29)
    zero_cuts = zero_early = 0
    for trial in range(400):
        g = random_multigraph(rng, 2 + trial % 23)
        top = rng.choice((1, 9, 10**12))
        weights = [rng.randint(0, top) if rng.random() < 0.7 else 0 for _ in range(g.m)]
        got = min_cut(g, weights)
        assert got == min_cut_reference(g, weights)
        zero_cuts += got[0] == 0
        values = [value for value, _ in min_cut_phases(g, weights)]
        zero_early += 0 in values[:-1]
    assert 20 < zero_cuts < 380
    assert zero_early >= 10


def test_min_cut_matches_reference_on_hub_lp_points(monkeypatch):
    # every LP point that separation probes while `kecss` and `bicriteria`
    # solve random-cost hubs with g = 3, 5 and 9 gadgets
    calls = []

    def checked(graph, weights):
        got = min_cut(graph, weights)
        assert got == min_cut_reference(graph, weights)
        calls.append(got)
        return got

    monkeypatch.setattr(separation, "min_cut", checked)
    for g in (3, 5, 9):
        for seed in range(8):
            inst = random_cost_hub(g, seed, per_edge=seed % 2 == 1)
            rounding.kecss(inst.graph, inst.k)
            rounding.bicriteria(inst.graph, inst.k)
    assert len(calls) > 80


def test_min_cut_matches_reference_at_every_call_site(monkeypatch):
    # every kecss module that looks up `min_cut` has each call checked:
    # graphs (`edge_connectivity`, so the reading of an infeasible first
    # LP, and `ScaledPoint.min_cut`, so `active_empty` and the cut the
    # solvers' `verify` reuses),
    # separation's probe, rounding's unbounded multigraph LP oracle,
    # certify's `verify`, called here on each solution without the run's
    # point, and the connectivity repair of `instances.gen`.
    # kecsm's first lazy rounds see a disconnected support: zero cuts.
    modules = [importlib.import_module(f"kecss.{info.name}")
               for info in pkgutil.iter_modules(kecss.__path__)]
    sites = sorted(module.__name__ for module in modules
                   if getattr(module, "min_cut", None) is min_cut)
    assert sites == ["kecss.certify", "kecss.graphs", "kecss.instances",
                     "kecss.rounding", "kecss.separation"]
    calls, zeros = Counter(), Counter()

    def checked(site):
        def wrapper(graph, weights):
            got = min_cut(graph, weights)
            assert got == min_cut_reference(graph, weights)
            calls[site] += 1
            zeros[site] += got[0] == 0
            return got
        return wrapper

    def verified(graph, run):
        # the connectivity a solver reported, from the cut its stop test
        # left for `verify`, against certify's own cut and the reference
        sol, _ = run
        weights = [sol.multiplicity.get(e, 0) for e in range(graph.m)]
        assert (sol.connectivity == verify(graph, sol.multiplicity, 0, None).connectivity
                == min_cut_reference(graph, weights)[0])

    for site in sites:
        monkeypatch.setattr(f"{site}.min_cut", checked(site))
    for k in (6, 7):
        for seed in range(4):
            inst = random_cost_hub(5, seed, per_edge=seed % 2 == 1)
            verified(inst.graph, rounding.kecss(inst.graph, k))
            verified(inst.graph, rounding.bicriteria(inst.graph, k))
            verified(inst.graph, rounding.md_kecss(inst.graph, k,
                                                   *degree_bounds_for(inst, seed)))
    for seed in range(12):
        k = 2 + seed % 4
        inst = gen("random", seed=seed, n=5 + seed % 4, p=0.5, k=k,
                   ensure_connectivity=k)
        verified(inst.graph, rounding.kecsm(inst.graph, k))
    # infeasible inputs: an infeasible first LP has one min cut say why
    split = make_graph(4, [(1, 2, 1), (3, 4, 1)])
    for solve, graph, k in (
            (rounding.kecss, cycle_graph(5), 4), (rounding.bicriteria, cycle_graph(5), 4),
            (rounding.kecss, complete_graph(5), 6), (rounding.bicriteria, complete_graph(5), 6),
            (rounding.bicriteria, split, 2), (rounding.kecsm, split, 2),
            (lambda g, k: rounding.md_kecsm(g, k, [0] * 4, [4] * 4), split, 2)):
        with pytest.raises(rounding.InfeasibleInstance, match="^edge connectivity "):
            solve(graph, k)
    least = {"kecss.certify": 24, "kecss.graphs": 40, "kecss.instances": 30,
             "kecss.rounding": 30, "kecss.separation": 40}
    assert all(calls[site] >= least[site] for site in sites), calls
    assert zeros["kecss.rounding"] >= 10, zeros


def test_cuts_below_reuses_reachable_set_and_matches_mask_scan():
    # Edge 2-3 is heavier than the limit, so once 2 is in S vertex 3 is
    # reachable from S and its S-child keeps the parent's flow; vertex n
    # meets only zero-weight edges, so it is never reachable and its
    # T-child does too.  The outputs must equal the mask scan.
    rng = random.Random(14)
    total = 0
    for trial in range(33):
        n = 4 + trial % 11
        g = random_multigraph(rng, n - 1)
        edges = [(e.u, e.v, 1) for e in g.edges] + [(2, 3, 1), (1, n, 1), (2, n, 1)]
        g = make_graph(n, edges)
        limit = rng.randint(1, 25)
        weights = [rng.randint(0, 6) for _ in range(g.m - 3)] + [limit, 0, 0]
        got = cuts_below(g, weights, limit)
        assert got == mask_scan_below(g, weights, limit)
        total += len(got)
    assert total > 100


def test_cuts_below_c4():
    c4 = cycle_graph(4)
    cuts = cuts_below(c4, [1] * 4, 3)
    # all 6 weight-2 partitions; the diagonal pair has weight 4
    expected = [side << 1 for side in range(1, 8) if len(crossing(c4, side << 1)) < 3]
    assert sorted(cuts) == expected
    assert len(cuts) == 6


def test_cuts_below_k5_and_empty():
    k5 = complete_graph(5)
    unit = [1] * 10
    cuts = cuts_below(k5, unit, 5)
    assert len(cuts) == 5 and all(s.bit_count() in (1, 4) for s in cuts)
    assert cuts_below(k5, unit, 4) == []
    with pytest.raises(ValueError):
        cuts_below(k5, unit, 0)


def test_cuts_below_matches_exhaustive_filter():
    rng = random.Random(11)
    sizes = [rng.randint(2, 8) for _ in range(25)] + [12]
    for n in sizes:
        g = random_graph(rng, n)
        caps = {e: Fraction(rng.randint(0, 5), rng.randint(1, 3))
                for e in range(g.m)}
        bound = Fraction(rng.randint(1, 8), rng.randint(1, 2))
        weights, denom = common([caps[e] for e in range(g.m)])
        got = cuts_below(g, weights, math.ceil(bound * denom))
        expected = []
        for mask_rest in range(1, 1 << (g.n - 1)):
            side = mask_rest << 1
            w = sum((caps[e] for e in crossing(g, side)), Fraction(0))
            if w < bound:
                expected.append(side)
        assert got == sorted(expected, key=vertices)


def test_cuts_below_cycle_above_old_limit():
    # n=21 was past the old exhaustive-scan limit; the result is exact
    big = cycle_graph(21)
    found = cuts_below(big, [1] * big.m, 3)
    arcs = [mask(range(a, b + 1)) for a in range(2, 22) for b in range(a, 22)]
    assert len(found) == 210
    assert found == sorted(arcs, key=vertices)
    assert all(len(crossing(big, side)) == 2 for side in found)


def mask_scan_below(graph, caps, bound):
    """Reference: every canonical side of capacity below `bound`, by mask."""
    found = []
    for mask_rest in range(1, 1 << (graph.n - 1)):
        side = mask_rest << 1
        w = sum((caps[e.id] for e in graph.edges
                 if (side >> (e.u - 1) & 1) != (side >> (e.v - 1) & 1)),
                Fraction(0))
        if w < bound:
            found.append(side)
    return sorted(found, key=vertices)


def test_cuts_below_hub_n16_matches_mask_scan():
    # hub vertex 1 joined to five gadgets (u, v, t), rings through u and v
    rng = random.Random(16)
    edges = []
    for i in range(5):
        u, v, t = 2 + 3 * i, 3 + 3 * i, 4 + 3 * i
        edges += [(1, u, 0), (1, v, 0), (1, t, 0), (u, t, 0), (v, t, 0), (u, v, 0)]
        edges += [(u, 2 + 3 * ((i + 1) % 5), 0), (v, 3 + 3 * ((i + 1) % 5), 0)]
    g = make_graph(16, edges)
    caps = {e: Fraction(rng.randint(1, 8), rng.choice([2, 3, 4]))
            for e in range(g.m)}
    weights, denom = common([caps[e] for e in range(g.m)])
    bound = 3 * Fraction(min_cut(g, weights)[0], denom) + Fraction(1, 3)
    got = cuts_below(g, weights, math.ceil(bound * denom))
    assert got == mask_scan_below(g, caps, bound)
    assert len(got) > 16


def counted_crossing(graph, weights, side):
    """Reference: the weight of the edges with one endpoint in `side`."""
    return sum(weights[e.id] for e in graph.edges
               if (side >> (e.u - 1) & 1) != (side >> (e.v - 1) & 1))


def test_cuts_below_constraint_equals_filtered_enumeration():
    # parallel edges carry different weights under both vectors, so the
    # merged arcs and the merged constraint weights are both exercised;
    # one bound in four is some listed side's own crossing, the boundary
    # case of the prune
    rng = random.Random(23)
    kept = dropped = at_bound = 0
    for trial in range(160):
        g = random_multigraph(rng, rng.randint(2, 10))
        if not g.m:
            continue
        weights = [rng.randint(0, 5) for _ in range(g.m)]
        c = [rng.choice((0, 0, 1, 2, 3)) for _ in range(g.m)]
        limit = rng.randint(1, 20)
        plain = cuts_below(g, weights, limit)
        bound = rng.randint(-2, 8)
        if plain and trial % 4 == 0:
            bound = counted_crossing(g, c, rng.choice(plain))
        got = cuts_below(g, weights, limit, constraint=(c, bound))
        expected = [s for s in plain if counted_crossing(g, c, s) <= bound]
        assert got == expected
        kept += len(got)
        dropped += len(plain) - len(got)
        at_bound += sum(counted_crossing(g, c, s) == bound for s in got)
        if bound < 0:
            assert got == []
        # the all-zero vector at bound 0 constrains nothing
        assert cuts_below(g, weights, limit, constraint=([0] * g.m, 0)) == plain
    assert kept > 200 and dropped > 200 and at_bound > 40


def test_cuts_below_constraint_on_a_hub_with_triple_rungs():
    # the g=5 prism hub carries each rung u-t and v-t three times: 60
    # edges on 40 adjacent pairs; picking its zero-cost edges once leaves
    # the sides of residual k - picked crossing >= threshold active
    g = gen("prism-hub-k6", gadgets=5).graph
    assert (g.n, g.m) == (16, 60)
    assert len({frozenset((e.u, e.v)) for e in g.edges}) == 40
    rng = random.Random(5)
    caps = {e: Fraction(rng.randint(1, 8), rng.choice([2, 3, 4])) for e in range(g.m)}
    weights, denom = common([caps[e] for e in range(g.m)])
    picked = [int(e.cost == 0) for e in g.edges]
    bound = 3 * Fraction(min_cut(g, weights)[0], denom) + Fraction(1, 3)
    scan = mask_scan_below(g, caps, bound)
    plain = cuts_below(g, weights, math.ceil(bound * denom))
    assert plain == scan
    for k, threshold in ((6, 3), (6, 2), (8, 3)):
        got = cuts_below(g, weights, math.ceil(bound * denom),
                         constraint=(picked, k - threshold))
        assert got == [s for s in scan if k - counted_crossing(g, picked, s) >= threshold]
        assert 0 < len(got) < len(scan)


def test_cuts_below_rejects_a_malformed_constraint():
    c4 = cycle_graph(4)
    for c in ([1, 1, 1, Fraction(1, 2)], [1, 1, -1, 1], [1, 1, 1], [1] * 5):
        with pytest.raises(ValueError):
            cuts_below(c4, [1] * 4, 3, constraint=(c, 2))
    with pytest.raises(ValueError):
        cuts_below(c4, [1] * 4, 3, constraint=([1] * 4, Fraction(2)))


def test_cut_kernels_reject_weights_that_are_not_nonnegative_ints():
    # the full message, naming the first bad edge whatever follows it, from
    # both kernels, cuts_below's constraint vector and ScaledPoint
    c4 = cycle_graph(4)
    bad = "weight of edge {} must be a nonnegative int, got {}"
    cases = [([1, 1, 1, Fraction(1, 2)], bad.format(3, "Fraction(1, 2)")),
             ([1, 1, 1, Fraction(2)], bad.format(3, "Fraction(2, 1)")),
             ([1, 1, 1, 1.0], bad.format(3, "1.0")),
             ([1, 1, -1, 1], bad.format(2, "-1")),
             ([1, None, 1, 1], bad.format(1, "None")),
             ([0, -2, None, 0.5], bad.format(1, "-2")),
             ([2, 1.5, -1, 1], bad.format(1, "1.5")),
             ([1, 1, 1], "weight vector has 3 entries for 4 edges"),
             ([1] * 5, "weight vector has 5 entries for 4 edges"),
             ([-1] * 5, "weight vector has 5 entries for 4 edges")]
    for weights, text in cases:
        for call in (lambda: min_cut(c4, weights), lambda: cuts_below(c4, weights, 3),
                     lambda: cuts_below(c4, [1] * 4, 3, constraint=(weights, 2)),
                     lambda: ScaledPoint(c4, weights, 1)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == text
    with pytest.raises(ValueError):
        cuts_below(c4, [1] * 4, Fraction(3))


def test_pair_index_and_merged_weights_match_a_per_edge_sum():
    # parallel edges in either endpoint order share one pair index, and
    # `_merged` sums weights per pair, as a dict keyed per edge would,
    # keeping the pairs of positive sum in pair order
    rng = random.Random(26)
    both_ways = dropped = 0
    for trial in range(200):
        n = 2 + trial % 9
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.4:
                    edges += [(u, v, 1) if rng.random() < 0.5 else (v, u, 1)
                              for _ in range(rng.randint(1, 3))]
        rng.shuffle(edges)
        g = make_graph(n, edges)
        keys, index = g.pairs
        ordered = [(min(e.u, e.v), max(e.u, e.v)) for e in g.edges]
        assert len(index) == g.m
        assert [keys[j] for j in index] == ordered
        assert list(keys) == list(dict.fromkeys(ordered))
        both_ways += len({(e.u, e.v) for e in g.edges}) - len(keys)
        weights = [rng.choice((0, 0, 1, 2, 7)) for _ in range(g.m)]
        expected = {}
        for key, w in zip(ordered, weights):
            if w:
                expected[key] = expected.get(key, 0) + w
        got = _merged(g, weights)
        assert got == expected and list(got) == [key for key in keys if key in got]
        dropped += len(keys) - len(got)
    assert both_ways > 100 and dropped > 100


def test_cut_submodularity_spot_check():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 8))
        caps = {e: Fraction(rng.randint(0, 6)) for e in range(g.m)}

        def w(side):
            return sum((caps[e] for e in crossing(g, side)), Fraction(0))

        verts = list(range(1, g.n + 1))
        s = mask(rng.sample(verts, rng.randint(1, g.n - 1)))
        t = mask(rng.sample(verts, rng.randint(1, g.n - 1)))
        assert w(s) + w(t) >= w(s & t) + w(s | t)
        assert w(s) + w(t) >= w(s & ~t) + w(t & ~s)


def test_edge_connectivity_examples():
    assert edge_connectivity(cycle_graph(6)) == 2
    tree = make_graph(4, [(1, 2, 1), (2, 3, 1), (2, 4, 1)])
    assert edge_connectivity(tree) == 1
    two = make_graph(2, [(1, 2, 1)])
    assert edge_connectivity(two, {0: 6}) == 6
    assert edge_connectivity(two, {0: 0}) == 0
