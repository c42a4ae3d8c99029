import random
from fractions import Fraction

import pytest

from kecss.graphs import complete_graph, crossing, make_graph, vertices
from kecss.instances import gen
from kecss.requirements import Requirement

from conftest import mask
from reference import (CapacityError, SetFunction, as_set_function, check_even_parity,
                       check_two_way_uncrossable, symmetrize)


def check_crossing_supermodular(f: SetFunction):
    """f(A)+f(B) <= f(A&B)+f(A|B) for crossing A, B whose union is not V."""
    full = (1 << f.n) - 1
    vals = f.values
    for a in range(1, full):
        for b in range(a + 1, full):
            if not (a & b) or not (a & ~b) or not (b & ~a) or (a | b) == full:
                continue
            if vals[a] + vals[b] > vals[a & b] + vals[a | b]:
                return False, (a, b)
    return True, None


def check_weakly_supermodular(f: SetFunction):
    """f(A)+f(B) <= max(f(A&B)+f(A|B), f(A-B)+f(B-A)) for all A, B."""
    full = (1 << f.n) - 1
    vals = f.values
    for a in range(1, full + 1):
        for b in range(a, full + 1):
            best = max(vals[a & b] + vals[a | b],
                       vals[a & ~b & full] + vals[b & ~a & full])
            if vals[a] + vals[b] > best:
                return False, (a, b)
    return True, None


def kecss_requirement_function(n: int, k: int) -> SetFunction:
    """The plain connectivity requirement: k on proper nonempty sets, else 0."""
    full = (1 << n) - 1
    return SetFunction(n, [0 if m in (0, full) else k for m in range(full + 1)])


def random_graph(rng, n, p=0.6):
    edges = [(u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    if not edges:
        edges.append((1, 2, 1))
    return make_graph(n, edges)


def residual_table(graph, k, picked):
    """Independent table construction for cross-checking Requirement."""
    req = Requirement(graph, k, picked, 3)
    return as_set_function(req)


def test_residual_arithmetic():
    g = complete_graph(4)
    side = mask({1, 2})
    picked = {e: 1 for e in crossing(g, side)}
    req = Requirement(g, 6, picked, 3)
    assert req.residual(side) == 6 - 4
    assert Requirement(g, 4, {}, 3).residual(side) == 4


def test_residual_symmetry_and_negative():
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 7))
        picked = {e: rng.randint(1, 5) for e in range(g.m) if rng.random() < 0.5}
        req = Requirement(g, rng.randint(1, 6), picked, 3)
        full = (1 << g.n) - 1
        for _ in range(8):
            side = mask(rng.sample(range(1, g.n + 1), rng.randint(1, g.n - 1)))
            assert req.residual(side) == req.residual(full ^ side)


def test_hub_fixture_residuals():
    inst = gen("prism-hub-k6")
    g = inst.graph
    picked = {e.id: 1 for e in g.edges if e.cost == 0}
    req = Requirement(g, 6, picked, 3)
    for u, v, t in ((2, 3, 4), (5, 6, 7), (8, 9, 10)):
        assert req.residual(mask({u})) == 2
        assert req.residual(mask({v})) == 2
        assert req.residual(mask({u, v, t})) == 3


def test_active_family_thresholds():
    g = complete_graph(4)
    req3 = Requirement(g, 4, {}, 3)
    assert req3.in_active_family(mask({1}))
    picked = {e: 1 for e in crossing(g, mask({1}))}  # residual of {1} becomes 1
    req_after = Requirement(g, 4, picked, 3)
    assert not req_after.in_active_family(mask({1}))
    req2 = Requirement(g, 2, {}, 2)
    assert req2.in_active_family(mask({1}))  # residual 2 meets threshold 2


def test_two_way_uncrossable_kecss_function():
    for k in (2, 3, 4, 7):
        ok, witness = check_two_way_uncrossable(kecss_requirement_function(5, k))
        assert ok, witness


def test_two_way_uncrossable_counterexample_cardinality():
    f = SetFunction.from_callable(4, int.bit_count)
    ok, witness = check_two_way_uncrossable(f)
    assert not ok
    a, b = witness
    assert a & b and a & ~b and b & ~a
    assert f(a) + f(b) > min(f(a & b) + f(a | b), f(a & ~b) + f(b & ~a))


def test_residual_functions_two_way_uncrossable_and_even():
    rng = random.Random(9)
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 7))
        k = rng.choice([4, 6, 8])
        picked = {e: rng.randint(1, 3) for e in range(g.m) if rng.random() < 0.6}
        f = residual_table(g, k, picked)
        ok, witness = check_two_way_uncrossable(f)
        assert ok, witness
        ok, witness = check_even_parity(f)
        assert ok, witness


def test_even_parity_odd_k_fails():
    ok, witness = check_even_parity(kecss_requirement_function(5, 3))
    assert not ok
    a, b = witness
    assert not (a & b)
    ok, _ = check_even_parity(kecss_requirement_function(5, 4))
    assert ok


def test_symmetric_crossing_supermodular_implies_two_way():
    # constant-minus-cut functions are symmetric and crossing supermodular
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng, rng.randint(4, 7))
        caps = {e: rng.randint(0, 4) for e in range(g.m)}
        c = rng.randint(0, 12)
        full = (1 << g.n) - 1

        def f(side):
            if side in (0, full):
                return 0
            return c - sum(caps[e] for e in crossing(g, side))

        table = SetFunction.from_callable(g.n, f)
        assert table.is_symmetric()
        ok, _ = check_crossing_supermodular(table)
        assert ok
        ok, witness = check_two_way_uncrossable(table)
        assert ok, witness
        # symmetric two-way uncrossable functions are weakly supermodular
        ok, witness = check_weakly_supermodular(table)
        assert ok, witness


def test_symmetrize_basic():
    n = 4
    vals = [0] * 16
    vals[0b0011] = 1  # single nonzero at {1,2}
    f = SetFunction(n, vals)
    g = symmetrize(f)
    assert g(mask({1, 2})) == 1 and g(mask({3, 4})) == 1
    assert g(0) == 0 and g(mask({1, 2, 3, 4})) == 0


def test_symmetrize_preserves_two_way_uncrossable():
    # asymmetric two-way uncrossable family: constant-minus-cut plus a
    # modular term with nonpositive vertex weights (the modular part is
    # additive on the intersection/union split and can only help the
    # difference split)
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randint(4, 6))
        caps = {e: rng.randint(0, 4) for e in range(g.m)}
        weights = [-rng.randint(0, 2) for _ in range(g.n)]
        c = rng.randint(0, 10)
        full = (1 << g.n) - 1
        vals = []
        for m in range(1 << g.n):
            if m in (0, full):
                vals.append(0)
            else:
                vals.append(c - sum(caps[e] for e in crossing(g, m))
                            + sum(weights[v - 1] for v in vertices(m)))
        f = SetFunction(g.n, vals)
        ok, _ = check_two_way_uncrossable(f)
        assert ok
        if any(weights):
            assert not f.is_symmetric()
        sym = symmetrize(f)
        ok, witness = check_two_way_uncrossable(sym)
        assert ok, witness


def test_symmetrize_feasibility_equivalence():
    # x covers f on all proper sets iff x covers symmetrize(f) everywhere
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 6))
        full = (1 << g.n) - 1
        vals = [rng.randint(-3, 5) for _ in range(full + 1)]
        vals[0] = vals[full] = 0
        f = SetFunction(g.n, vals)
        sym = symmetrize(f)
        x = {e: Fraction(rng.randint(0, 6), 2) for e in range(g.m)}

        def covers(table):
            for m in range(1, full):
                mass = sum((x[e] for e in crossing(g, m)), Fraction(0))
                if mass < table.values[m]:
                    return False
            return True

        assert covers(f) == covers(sym)


def test_symmetrize_tight_sets_stay_tight():
    # if x is feasible for f and tight at T, then T is tight for the
    # symmetrization as well
    rng = random.Random(43)
    found = 0
    while found < 15:
        g = random_graph(rng, rng.randint(3, 6))
        x = {e: Fraction(rng.randint(0, 4)) for e in range(g.m)}
        full = (1 << g.n) - 1
        vals = [0] * (full + 1)
        for m in range(1, full):
            mass = sum((x[e] for e in crossing(g, m)), Fraction(0))
            assert mass.denominator == 1
            vals[m] = int(mass) - rng.choice([0, 0, 1, 2])
        f = SetFunction(g.n, vals)
        sym = symmetrize(f)
        for m in range(1, full):
            mass = sum((x[e] for e in crossing(g, m)), Fraction(0))
            if mass == f.values[m]:
                assert mass == sym.values[m]
                found += 1


def test_set_function_capacity_limit():
    with pytest.raises(CapacityError):
        SetFunction(13, [0] * (1 << 13))


def test_requirement_validation():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        Requirement(g, 0, {}, 3)
    with pytest.raises(ValueError):
        Requirement(g, 4, {}, 5)
    with pytest.raises(ValueError):
        Requirement(g, 4, {0: 0}, 3)
    with pytest.raises(ValueError):
        Requirement(g, 4, {99: 1}, 3)
    # a multiplicity is an int >= 1: a rational or float one would make
    # every residual fractional
    for bad in (Fraction(3, 2), 1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="picked multiplicity of edge 0 must be"):
            Requirement(complete_graph(4), 6, {0: bad}, 3)
    assert Requirement(complete_graph(4), 6, {0: 2}, 3).residual(mask({1})) == 4
