import random
from fractions import Fraction

import pytest

from kecss import separation
from kecss.graphs import complete_graph, crossing, cuts_below, make_graph
from kecss.instances import gen
from kecss.requirements import Requirement
from kecss.separation import (Feasible, ScaledPoint, Violated, mixed_capacities,
                              separate_fast)

from conftest import cut_at, mask
from reference import separate_exact, violated_cuts_exact


def random_graph(rng, n, p=0.55):
    edges = [(u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    if not edges:
        edges.append((1, 2, 1))
    return make_graph(n, edges)


def random_state(rng, n_max=10):
    g = random_graph(rng, rng.randint(4, n_max))
    threshold = rng.choice([2, 3])
    k = rng.choice([4, 5, 6, 7, 8]) if threshold == 3 else rng.randint(2, 8)
    picked = {e: rng.randint(1, 3) for e in range(g.m) if rng.random() < 0.4}
    x = {e: Fraction(rng.randint(0, 6), 6) for e in range(g.m)
         if e not in picked}
    return g, Requirement(g, k, picked, threshold), x


def test_mixed_capacities_examples():
    g = complete_graph(4)
    req = Requirement(g, 4, {}, 3)
    zero = ScaledPoint.of(g, {e: Fraction(0) for e in range(g.m)})
    assert mixed_capacities(zero, req) == ([0] * g.m, 1)
    two = make_graph(2, [(1, 2, 1), (1, 2, 1)])
    req = Requirement(two, 6, {1: 4}, 3)
    weights, denom = mixed_capacities(ScaledPoint.of(two, {0: Fraction(1, 2)}), req)
    assert denom == 2
    assert [Fraction(w, denom) for w in weights] == [Fraction(1, 2), Fraction(4)]


def test_mixed_capacities_fixture_point():
    inst = gen("prism-hub-k6")
    g = inst.graph
    req = Requirement(g, 6, {}, 3)
    x = {}
    for e in g.edges:
        x[e.id] = {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(3, 4)}[int(e.cost)]
    weights, denom = mixed_capacities(ScaledPoint.of(g, x), req)
    assert denom == 4
    assert {Fraction(w, denom) for w in weights} == {Fraction(1), Fraction(1, 2),
                                                     Fraction(3, 4)}


def test_mixed_capacities_domain_errors():
    g = complete_graph(3)
    req = Requirement(g, 4, {0: 1}, 3)
    with pytest.raises(ValueError):
        mixed_capacities(ScaledPoint.of(g, {1: Fraction(3, 2)}), req)  # out of [0,1]
    with pytest.raises(ValueError):
        mixed_capacities(ScaledPoint.of(g, {1: 0.5}), req)  # not exact
    with pytest.raises(ValueError):
        mixed_capacities(ScaledPoint.of(g, {5: Fraction(1, 2)}), req)  # edge id out of range
    # a floor-extracted edge: picked once, fractional remainder still working
    weights, denom = mixed_capacities(ScaledPoint.of(g, {0: Fraction(1, 3)}), req)
    assert denom == 3
    assert [Fraction(w, denom) for w in weights] == [Fraction(4, 3), 0, 0]


def test_scaled_point_rejects_a_denominator_that_is_not_positive():
    g = complete_graph(3)
    for denom in (0, -1, Fraction(1, 2), 1.0):
        with pytest.raises(ValueError, match="denominator must be a positive int"):
            ScaledPoint(g, [1, 0, 0], denom)
    # refused before separation could divide by it or call the point feasible
    with pytest.raises(ValueError, match="denominator"):
        separate_fast(ScaledPoint(g, [0, 0, 0], 0), Requirement(g, 4, {}, 3))


def test_scaled_point_rejects_weights_that_are_not_nonnegative_ints():
    g = complete_graph(3)
    # -1 over -1 is refused for its denominator, not read as x_0 = 1
    with pytest.raises(ValueError, match="denominator"):
        ScaledPoint(g, [-1, 0, 0], -1)
    for bad in (-1, Fraction(1, 2), 0.5, None):
        with pytest.raises(ValueError, match="weight of edge 1"):
            ScaledPoint(g, [1, bad, 0], 2)
    with pytest.raises(ValueError):
        ScaledPoint.of(g, {0: Fraction(-1, 2)})
    with pytest.raises(ValueError):
        ScaledPoint(g, [1, 1], 2)  # one entry short


def test_violated_needs_distinct_sides():
    a, b, c = mask({2}), mask({3}), mask({2, 3})
    assert Violated((a, b, c)).sides == (a, b, c)
    assert Violated((c, a)).sides == (c, a)  # the oracle orders them, not the verdict
    with pytest.raises(ValueError, match="at least one side"):
        Violated(())
    with pytest.raises(ValueError, match="distinct"):
        Violated((a, a))
    with pytest.raises(ValueError, match="distinct"):
        Violated((a, b, a))


def test_tied_sides_come_in_sorted_vertex_order():
    # on K4 the sides [2], [2, 4] and [3] all have capacity 3/2 < k = 2,
    # above the window 1, so the enumeration lists them; ties go by sorted
    # vertices, not by mask value: [2, 4] (mask 10) before [3] (mask 4)
    g = complete_graph(4)  # edges 12, 13, 14, 23, 24, 34
    req = Requirement(g, 2, {}, 2)
    x = {0: Fraction(1, 2), 1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(0),
         4: Fraction(1), 5: Fraction(1, 2)}
    verdict = separate_fast(ScaledPoint.of(g, x), req)
    sides = (mask({2}), mask({2, 4}), mask({3}))
    assert verdict == Violated(sides)
    assert [cut_at(x, req, side)[0] for side in sides] == [Fraction(3, 2)] * 3
    assert violated_cuts_exact(x, req) == [(Fraction(3, 2), side) for side in sides]


def test_feasible_on_saturated_k5():
    g = complete_graph(5)
    req = Requirement(g, 4, {}, 3)
    x = {e: Fraction(1) for e in range(g.m)}
    assert isinstance(separate_fast(ScaledPoint.of(g, x), req), Feasible)
    assert isinstance(separate_exact(x, req), Feasible)


def test_zero_point_violated_with_singleton():
    rng = random.Random(4)
    for _ in range(10):
        g = random_graph(rng, rng.randint(4, 8), p=0.7)
        req = Requirement(g, 4, {}, 3)
        x = {e: Fraction(0) for e in range(g.m)}
        verdict = separate_fast(ScaledPoint.of(g, x), req)
        assert isinstance(verdict, Violated)
        assert verdict.sides[0].bit_count() == 1
        assert cut_at(x, req, verdict.sides[0])[0] == 0


def test_fixture_point_feasible_for_k6():
    inst = gen("prism-hub-k6")
    g = inst.graph
    req = Requirement(g, 6, {}, 3)
    x = {}
    for e in g.edges:
        x[e.id] = {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(3, 4)}[int(e.cost)]
    assert isinstance(separate_fast(ScaledPoint.of(g, x), req), Feasible)
    assert isinstance(separate_exact(x, req), Feasible)


def test_dropped_sets_never_reported():
    # a set whose residual fell below the threshold is not a violation,
    # no matter how small its x-mass is
    g = complete_graph(4)
    side = mask({2})
    picked = {e: 1 for e in crossing(g, side)}  # residual of {2} becomes 1
    req = Requirement(g, 4, picked, 3)
    x = {e: Fraction(0) for e in range(g.m) if e not in picked}
    for verdict in (separate_exact(x, req), separate_fast(ScaledPoint.of(g, x), req)):
        if isinstance(verdict, Violated):
            for found in verdict.sides:
                assert found != side
                assert req.residual(found) >= 3


def test_threshold3_k2_immediately_feasible():
    g = complete_graph(4)
    req = Requirement(g, 2, {}, 3)
    x = {e: Fraction(0) for e in range(g.m)}
    assert isinstance(separate_fast(ScaledPoint.of(g, x), req), Feasible)


def test_fast_precondition_errors():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        separate_fast(ScaledPoint(g, [0] * g.m, 1), Requirement(g, 3, {}, 3))
    with pytest.raises(ValueError):
        separate_fast(ScaledPoint(g, [0] * g.m, 1), Requirement(g, 1, {}, 2))


def test_fast_matches_exact_randomized(monkeypatch):
    # where the enumeration ran, the verdict lists every violated cut of
    # the exhaustive scan in order; where the probe decided, one cut
    listed = []

    def counted(*args, **kwargs):
        listed.append(True)
        return cuts_below(*args, **kwargs)

    monkeypatch.setattr(separation, "cuts_below", counted)
    rng = random.Random(99)
    violated = probed = several = 0
    for _ in range(250):
        g, req, x = random_state(rng)
        listed.clear()
        vf = separate_fast(ScaledPoint.of(g, x), req)
        ve = separate_exact(x, req)
        assert type(vf) is type(ve)
        if listed:
            got = vf.sides if isinstance(vf, Violated) else ()
            assert [(cut_at(x, req, side)[0], side) for side in got] == \
                violated_cuts_exact(x, req)
            several += len(got) > 1
        elif isinstance(vf, Violated):
            assert len(vf.sides) == 1
            probed += 1
        if isinstance(vf, Violated):
            violated += 1
            assert isinstance(ve, Violated)
            assert cut_at(x, req, vf.sides[0])[0] == cut_at(x, req, ve.sides[0])[0]
            for side in vf.sides + ve.sides:
                assert req.residual(side) >= req.threshold
                lhs = cut_at(x, req, side)[1]
                assert lhs < req.residual(side)
                mass = sum((Fraction(x[e]) for e in crossing(g, side)
                            if e in x), Fraction(0))
                assert mass == lhs
    assert violated > 20 and probed > 10 and several > 5  # not vacuous


def test_soundness_of_violated_rows():
    rng = random.Random(123)
    for _ in range(80):
        g, req, x = random_state(rng, n_max=8)
        verdict = separate_fast(ScaledPoint.of(g, x), req)
        if isinstance(verdict, Violated):
            # each row x(delta_E'(S)) >= f_res(S) really is violated at x
            for side in verdict.sides:
                mass = sum((Fraction(x[e]) for e in crossing(g, side)
                            if e in x), Fraction(0))
                assert mass < req.residual(side)
