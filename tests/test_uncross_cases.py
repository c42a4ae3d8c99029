"""Targeted coverage of every uncrossing-witness case.

Extreme points of the residual LPs have laminar tight families, so the
crossing cases rarely arise organically; these states are built by hand
to pin each dispatch branch and its vanishing quantities.
"""

import json
from fractions import Fraction

import pytest

from kecss.certify import (CertificationError, extract_laminar,
                           small_boundary_set, tight_sets, uncross_witness)
from kecss.graphs import make_graph
from kecss.instances import gen
from kecss.requirements import DegreeState, Requirement
from kecss.separation import ScaledPoint

from conftest import mask


def build_mixed_state():
    """k=6 on four regions 1=A-B, 2=A&B, 3=B-A, 4=outside.

    Picked: one 1-2 edge, three 2-3 edges, one 1-2... see residuals below.
    Residuals: A={1,2} -> 3, B={2,3} -> 4, A|B -> 5, A-B -> 5 (active);
    A&B -> 2, B-A -> 2 (dropped).  All six sets tight, and the support
    avoids the 1-3, 2-4, and 2-3 classes, so theta = gamma = alpha = 0.
    """
    edges = []
    # picked edges: ids 0..4
    edges.append((1, 2, 1))           # p(1-2) = 1
    edges += [(2, 3, 1)] * 3          # p(2-3) = 3
    edges.append((3, 4, 1))           # p(3-4) = 1
    # working edges: masses x(1-2)=2, x(1-4)=3, x(3-4)=2
    edges += [(1, 2, 1)] * 2          # ids 5,6
    edges += [(1, 4, 1)] * 3          # ids 7,8,9
    edges += [(3, 4, 1)] * 2          # ids 10,11
    g = make_graph(4, edges)
    picked = {e: 1 for e in range(5)}
    x = {e: Fraction(1) for e in range(5, 12)}
    req = Requirement(g, 6, picked, 3)
    a = mask({1, 2})
    b = mask({2, 3})
    assert req.residual(a) == 3 and req.residual(b) == 4
    assert req.residual(a & b) == 2 and req.residual(b & ~a) == 2
    assert req.residual(a | b) == 5 and req.residual(a & ~b) == 5
    return g, req, x, a, b


def test_mixed_union_diff_case():
    g, req, x, a, b = build_mixed_state()
    w = uncross_witness(a, b, ScaledPoint.of(g, x), req)
    assert w.case == "mixed_union_diff"
    assert w.family == (a, a & ~b, a | b)
    assert w.theta == 0 and w.gamma == 0 and w.alpha == 0


def test_mixed_union_codiff_case():
    # swapping the inputs lands in the symmetric corner
    g, req, x, a, b = build_mixed_state()
    w = uncross_witness(b, a, ScaledPoint.of(g, x), req)
    assert w.case == "mixed_union_codiff"
    assert w.family == (b, a & ~b, a | b)
    assert w.alpha == 0


def test_mixed_inter_codiff_case():
    # complementing B turns the union corner into an intersection corner
    g, req, x, a, b = build_mixed_state()
    b2 = 0b1111 ^ b  # {1, 4}
    assert req.residual(b2) == req.residual(b)
    w = uncross_witness(a, b2, ScaledPoint.of(g, x), req)
    assert w.case == "mixed_inter_codiff"
    assert w.alpha == 0


def test_mixed_inter_diff_case():
    g, req, x, a, b = build_mixed_state()
    b2 = 0b1111 ^ b
    w = uncross_witness(b2, a, ScaledPoint.of(g, x), req)
    assert w.case == "mixed_inter_diff"
    assert w.alpha == 0


def build_difference_state():
    """k=6 state where both differences are active but the union dropped.

    The support keeps a strictly positive 1-3 class (theta = 1/2), which
    the difference identity tolerates; only gamma must vanish.
    """
    edges = []
    edges.append((1, 2, 1))            # picked p(1-2) = 1
    edges.append((2, 3, 1))            # picked p(2-3) = 1
    edges += [(1, 4, 1)] * 2           # picked p(1-4) = 2
    edges += [(3, 4, 1)] * 2           # picked p(3-4) = 2
    edges += [(1, 2, 1)] * 2           # x(1-2) = 2
    edges += [(2, 3, 1)] * 2           # x(2-3) = 2
    edges.append((1, 3, 1))            # x(1-3) = 1/2  (theta)
    edges.append((1, 4, 1))            # x(1-4) = 1/2
    edges.append((3, 4, 1))            # x(3-4) = 1/2
    g = make_graph(4, edges)
    picked = {e: 1 for e in range(6)}
    x = {6: Fraction(1), 7: Fraction(1), 8: Fraction(1), 9: Fraction(1),
         10: Fraction(1, 2), 11: Fraction(1, 2), 12: Fraction(1, 2)}
    req = Requirement(g, 6, picked, 3)
    a = mask({1, 2})
    b = mask({2, 3})
    assert req.residual(a) == 3 and req.residual(b) == 3
    assert req.residual(a & b) == 4        # intersection stays active
    assert req.residual(a | b) == 2        # union dropped
    assert req.residual(a & ~b) == 3 and req.residual(b & ~a) == 3
    return g, req, x, a, b


def test_difference_case_allows_nonzero_theta():
    g, req, x, a, b = build_difference_state()
    p = ScaledPoint.of(g, x)
    w = uncross_witness(a, b, p, req)
    assert w.case == "difference"
    assert w.family == (a, a & ~b, b & ~a)
    assert w.gamma == 0
    # tolerated: not part of the identity
    assert Fraction(w.theta, p.denom) == Fraction(1, 2)


def test_intersection_union_case_on_doubled_cycle():
    # doubled 4-cycle at k=4: every cut is tight and active, so crossing
    # pairs resolve through the intersection/union corners
    edges = []
    for (u, v) in ((1, 2), (2, 3), (3, 4), (4, 1)):
        edges += [(u, v, 1)] * 2
    g = make_graph(4, edges)
    req = Requirement(g, 4, {}, 3)
    x = {e: Fraction(1) for e in range(g.m)}
    a = mask({1, 2})
    b = mask({2, 3})
    w = uncross_witness(a, b, ScaledPoint.of(g, x), req)
    assert w.case == "intersection_union"
    assert w.theta == 0
    assert w.family == (a, a & b, a | b)


def test_complement_case_on_prism():
    inst = gen("prism-k3")
    g = inst.graph
    req = Requirement(g, 3, {}, 3)
    x = {}
    for e in g.edges:
        x[e.id] = {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(3, 4)}[int(e.cost)]
    full = (1 << 6) - 1
    a = full ^ mask({1, 2})
    b = full ^ mask({3, 4})
    w = uncross_witness(a, b, ScaledPoint.of(g, x), req)
    assert w.case == "complement"
    assert w.family == (a, a & ~b)


def test_witness_rejects_broken_tightness():
    g, req, x, a, b = build_mixed_state()
    bad = dict(x)
    bad[7] = Fraction(1, 2)  # perturb an A-boundary edge: A no longer tight
    with pytest.raises(CertificationError) as err:
        uncross_witness(a, b, ScaledPoint.of(g, bad), req)
    assert json.loads(err.value.dump.splitlines()[-1])["point"]["7"] == "1/2"


def test_extract_laminar_with_degree_tight_vertices():
    # residual prism system at threshold 3: the singleton cuts are dropped
    # (residual 2), so spanning the nine fractional edges needs six
    # degree-tight vertices next to the three triple sets
    inst = gen("prism-k3")
    g = inst.graph
    picked = {e.id: 1 for e in g.edges if e.cost == 0}
    degree = DegreeState(lower=(0,) * 6, upper=(2,) * 6,
                         active=(1 << 6) - 1)
    req = Requirement(g, 3, picked, 3, degree)
    x = {e.id: {1: Fraction(1, 2), 2: Fraction(3, 4)}[int(e.cost)]
         for e in g.edges if e.cost > 0}
    p = ScaledPoint.of(g, x)
    basis = extract_laminar(p, req, tight_sets(p, req))
    assert len(basis.frac_edges) == 9
    assert basis.size() == 9
    assert len(basis.degree_vertices) == 6
    assert len(basis.sets) == 3
    assert all(s.bit_count() == 2 for s in basis.sets)
    member = small_boundary_set(basis, p, req)
    assert member  # the token bound holds with degree-tight members too
