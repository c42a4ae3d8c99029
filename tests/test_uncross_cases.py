"""Targeted coverage of every uncrossing-witness case.

Extreme points of the residual LPs have laminar tight families, so the
crossing cases rarely arise organically; these states are built by hand
to pin each dispatch branch and its vanishing quantities.
"""

import json
from fractions import Fraction

import pytest

from kecss import certify as certmod
from kecss.certify import (CertificationError, extract_laminar,
                           small_boundary_set, tight_sets, uncross_witness)
from kecss.graphs import make_graph, vertices
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


# -- every failure of uncross_witness, by its full message ---------------------
#
# Vertices 1..4 stand for the regions A-B, A&B, B-A and the outside of
# A = {1, 2} and B = {2, 3}.  A state is (k, picked multiplicity per
# vertex pair, x-mass per vertex pair); each pair gets one picked edge
# and one x edge.

A, B = mask({1, 2}), mask({2, 3})
CORNERS = {"input A": A, "input B": B, "A&B": A & B, "A|B": A | B,
           "A-B": A & ~B, "B-A": B & ~A}
H = Fraction(1, 2)

# per case, a state at which every check holds
STATES = {
    "intersection_union": (3, {}, {(2, 4): 3}),
    "difference": (4, {(1, 4): 1, (3, 4): 1}, {(1, 3): 3}),
    "mixed_union_diff": (6, {(1, 2): 1, (2, 3): 3, (3, 4): 1},
                         {(1, 2): 2, (1, 4): 3, (3, 4): 2}),
    "mixed_union_codiff": (6, {(1, 2): 3, (1, 4): 1, (2, 3): 1},
                           {(1, 4): 2, (2, 3): 2, (3, 4): 3}),
    "mixed_inter_codiff": (6, {(1, 2): 1, (1, 4): 3, (3, 4): 1},
                           {(1, 2): 2, (2, 3): 3, (3, 4): 2}),
    "mixed_inter_diff": (6, {(1, 4): 1, (2, 3): 1, (3, 4): 3},
                         {(1, 2): 3, (1, 4): 2, (2, 3): 2}),
}
# per mixed case, a state with the same active corners whose picks force
# alpha = 1/2 once every corner is tight (theta = gamma = 0)
ALPHA_STATES = {
    "mixed_union_diff": (5, {(1, 2): 1, (2, 3): 2, (3, 4): 1},
                         {(1, 2): 3 * H, (1, 4): 5 * H, (2, 3): H, (3, 4): 3 * H}),
    "mixed_union_codiff": (5, {(1, 2): 2, (1, 4): 1, (2, 3): 1},
                           {(1, 2): H, (1, 4): 3 * H, (2, 3): 3 * H, (3, 4): 5 * H}),
    "mixed_inter_codiff": (5, {(1, 2): 1, (1, 4): 2, (3, 4): 1},
                           {(1, 2): 3 * H, (1, 4): H, (2, 3): 5 * H, (3, 4): 3 * H}),
    "mixed_inter_diff": (5, {(1, 4): 1, (2, 3): 1, (3, 4): 2},
                         {(1, 2): 5 * H, (1, 4): 3 * H, (2, 3): 3 * H, (3, 4): H}),
}
IDENTITY = {
    "complement": "chi(B) = chi(A-B)",
    "intersection_union": "chi(A)+chi(B) = chi(A&B)+chi(A|B)",
    "difference": "chi(A)+chi(B) = chi(A-B)+chi(B-A)",
    "mixed_union_diff": "chi(B) = chi(A-B)+chi(A|B)-2chi(A)",
    "mixed_union_codiff": "chi(A) = chi(B-A)+chi(A|B)-2chi(B)",
    "mixed_inter_codiff": "chi(B) = chi(A&B)+chi(B-A)-2chi(A)",
    "mixed_inter_diff": "chi(A) = chi(A&B)+chi(A-B)-2chi(B)",
}
MIXED = [case for case in STATES if case.startswith("mixed")]


def four_regions(k, picked, x):
    """The requirement and point of a state (see above)."""
    pairs = list(picked) + list(x)
    g = make_graph(4, [(u, v, 1) for u, v in pairs])
    req = Requirement(g, k, {e: picked[pair] for e, pair in enumerate(picked)}, 3)
    point = ScaledPoint.of(g, {len(picked) + i: Fraction(v) for i, v in enumerate(x.values())})
    return req, point


def mass(x, side):
    """x's mass across a vertex mask, summed per vertex pair."""
    return sum((Fraction(v) for (u, w), v in x.items()
                if (side >> (u - 1) & 1) != (side >> (w - 1) & 1)), Fraction(0))


def corner_activity(req):
    return [req.residual(CORNERS[name]) >= req.threshold
            for name in ("A&B", "A|B", "A-B", "B-A")]


def raised(req, point, a=A, b=B):
    """The full text of the CertificationError raised on (a, b)."""
    with pytest.raises(CertificationError) as err:
        uncross_witness(a, b, point, req)
    assert err.value.dump is not None
    text, dump = str(err.value).split("\n", 1)
    assert dump == err.value.dump
    return text


def prism_complement():
    # the complement case of test_complement_case_on_prism
    g = gen("prism-k3").graph
    x = {e.id: {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(3, 4)}[int(e.cost)]
         for e in g.edges}
    full = (1 << 6) - 1
    return (Requirement(g, 3, {}, 3), ScaledPoint.of(g, x),
            full ^ mask({1, 2}), full ^ mask({3, 4}))


@pytest.mark.parametrize("case", list(STATES))
def test_every_case_holds_at_its_state(case):
    req, point = four_regions(*STATES[case])
    w = uncross_witness(A, B, point, req)
    assert w.case == case and w.identity == IDENTITY[case]
    if case == "difference":
        assert (w.theta, w.gamma, w.alpha) == (3, 0, None)  # theta is tolerated
    elif case == "intersection_union":
        assert (w.theta, w.alpha) == (0, None)
    else:
        assert (w.theta, w.gamma, w.alpha) == (0, 0, 0)


@pytest.mark.parametrize("name, picked", [("input A", {(1, 3): 1}),
                                          ("input B", {(1, 2): 1})])
def test_witness_rejects_an_inactive_input(name, picked):
    req, point = four_regions(3, picked, {(2, 4): 3})
    with pytest.raises(ValueError) as err:
        uncross_witness(A, B, point, req)
    assert str(err.value) == f"{name} is not active"


# (case, label, alternative state or None, x): the sets checked before
# `label` are tight at x and `label` is not
TIGHTNESS = [
    ("intersection_union", "input A", None, {(2, 3): 1}),
    ("intersection_union", "input B", None, {(2, 3): 3}),
    ("intersection_union", "A&B", None, {(1, 3): 3}),
    ("intersection_union", "A|B", None, {(1, 2): H, (1, 3): H, (2, 3): H, (2, 4): 2}),
    ("difference", "A-B", None, {(2, 4): 3}),
    ("difference", "B-A", None, {(1, 2): H, (1, 3): 2, (1, 4): H, (2, 4): H}),
    ("mixed_union_diff", "A&B", None, {(2, 4): 3, (3, 4): 1}),
    ("mixed_union_diff", "A|B", None, {(1, 3): 1, (2, 4): 2, (3, 4): 1}),
    ("mixed_union_diff", "A-B", None, {(1, 4): 1, (2, 4): 2, (3, 4): 2}),
    # at STATES' picks a tight A-B forces a tight B-A
    ("mixed_union_diff", "B-A", ALPHA_STATES,
     {(1, 2): 3 * H, (1, 4): 5 * H, (2, 4): H, (3, 4): 1}),
    ("mixed_union_codiff", "A&B", None, {(2, 3): 1, (2, 4): 3}),
    ("mixed_union_codiff", "A|B", None, {(1, 3): 1, (1, 4): 1, (2, 4): 2}),
    ("mixed_union_codiff", "A-B", None, {(1, 2): H, (1, 4): 5 * H, (2, 4): 3 * H, (3, 4): 1}),
    ("mixed_union_codiff", "B-A", None, {(1, 4): 2, (2, 4): 2, (3, 4): 1}),
    ("mixed_inter_codiff", "A&B", None, {(2, 4): 3, (3, 4): 1}),
    ("mixed_inter_codiff", "A|B", None, {(1, 2): 5 * H, (1, 3): H, (2, 3): 3 * H, (2, 4): 1}),
    ("mixed_inter_codiff", "A-B", None, {(1, 2): 5 * H, (1, 4): H, (2, 3): 1, (2, 4): 3 * H}),
    ("mixed_inter_codiff", "B-A", None, {(1, 2): 2, (2, 3): 1, (2, 4): 2}),
    ("mixed_inter_diff", "A&B", None, {(2, 3): 1, (2, 4): 3}),
    ("mixed_inter_diff", "A|B", None, {(1, 2): 3 * H, (1, 3): H, (2, 3): 5 * H, (2, 4): 1}),
    ("mixed_inter_diff", "A-B", None, {(1, 2): 1, (2, 3): 2, (2, 4): 2}),
    ("mixed_inter_diff", "B-A", ALPHA_STATES,
     {(1, 2): 5 * H, (1, 4): 3 * H, (2, 3): 1, (2, 4): H}),
]


@pytest.mark.parametrize("case, label, states, x", TIGHTNESS,
                         ids=[f"{case}-{label}" for case, label, _, _ in TIGHTNESS])
def test_witness_names_the_set_that_is_not_tight(case, label, states, x):
    k, picked, _ = (states or STATES)[case]
    req, point = four_regions(k, picked, x)
    # the same corners are active as at the case's own state
    assert corner_activity(req) == corner_activity(four_regions(*STATES[case])[0])
    side = CORNERS[label]
    assert mass(x, side) != req.residual(side)
    assert raised(req, point) == (f"{label} {vertices(side)} expected tight but "
                                  f"x(delta)={mass(x, side)} != {req.residual(side)}")


def test_witness_names_a_complement_that_is_not_tight(monkeypatch):
    # A-B is the complement of B, so it is tight whenever B is; a
    # requirement that reads A-B's residual one higher reaches the check
    req, point, a, b = prism_complement()
    amb = a & ~b
    residual = Requirement.residual
    monkeypatch.setattr(Requirement, "residual",
                        lambda self, side: residual(self, side) + (side == amb))
    expected = residual(req, amb) + 1
    assert raised(req, point, a, b) == (
        f"complement A-B {vertices(amb)} expected tight but "
        f"x(delta)={Fraction(point.cross(amb), point.denom)} != {expected}")


@pytest.mark.parametrize("lowered", [("A&B", "A|B"), ("A-B", "B-A")])
def test_witness_rejects_a_contradictory_corner_pattern(monkeypatch, lowered):
    # A and B active make one of A&B, A|B and one of A-B, B-A active for
    # any picked multiset; a requirement that lowers both of a pair
    # reaches the check
    req, point = four_regions(*STATES["intersection_union"])
    sides = {CORNERS[name] for name in lowered}
    residual = Requirement.residual
    monkeypatch.setattr(Requirement, "residual",
                        lambda self, side: residual(self, side) - 2 * (side in sides))
    assert raised(req, point) == \
        "corner activity pattern contradicts two-way uncrossability"


def _between_with(monkeypatch, pair, value):
    """ScaledPoint.between, reading `value` for the unordered pair."""
    between = ScaledPoint.between
    monkeypatch.setattr(ScaledPoint, "between", lambda self, left, right: (
        value if {left, right} == pair else between(self, left, right)))


THETA = {CORNERS["A-B"], CORNERS["B-A"]}
GAMMA = {CORNERS["A&B"], mask({4})}


@pytest.mark.parametrize("name, pair, case", [
    *[("theta", THETA, case) for case in ["intersection_union", *MIXED]],
    *[("gamma", GAMMA, case) for case in ["difference", *MIXED]]])
def test_witness_rejects_a_mass_that_does_not_vanish(monkeypatch, name, pair, case):
    # at a point with every checked set tight, theta and gamma are 0 for
    # any picked multiset; a point reading them as 1 / denom reaches the check
    req, point = four_regions(*STATES[case])
    _between_with(monkeypatch, pair, 1)
    assert raised(req, point) == f"{name} = {Fraction(1, point.denom)} expected 0"


@pytest.mark.parametrize("case", MIXED)
def test_witness_rejects_a_nonzero_alpha(case):
    req, point = four_regions(*ALPHA_STATES[case])
    assert corner_activity(req) == corner_activity(four_regions(*STATES[case])[0])
    assert raised(req, point) == "alpha = 1/2 expected 0"


@pytest.mark.parametrize("case", list(IDENTITY))
def test_witness_rejects_a_failed_identity(monkeypatch, case):
    # the identity holds whenever the masses before it vanish, so only a
    # failure reported by identity_failure reaches the check
    if case == "complement":
        req, point, a, b = prism_complement()
    else:
        (req, point), a, b = four_regions(*STATES[case]), A, B
    monkeypatch.setattr(certmod, "identity_failure", lambda point, combo, target: 5)
    assert raised(req, point, a, b) == f"incidence identity {IDENTITY[case]} fails on edge 5"
