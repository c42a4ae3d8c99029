"""Certification layer: solution verification and structural checks.

Everything here is an independent check on the rounding pipeline; the
one result `verify` takes from it, the min cut the last stop test ran on
the picked multiset, it reads only on identical weights, checked entry
by entry and never trusted.  The
laminar-basis extraction, the uncrossing witnesses, and the
small-boundary member are existence statements that hold for every
extreme point the solvers produce; a failure is treated as an
implementation bug and raised as CertificationError with enough state to
reproduce it.

Each extreme point is checked in integer arithmetic on one
`graphs.ScaledPoint`, the one form in which a point enters
separation and certification: x over one denominator, with a bitset
per vertex over the support edges, so a vertex set's boundary is an XOR
of bitsets and every x-mass the checks compare (across a cut side,
between two vertex classes, at a degree-tight vertex, on a basis
member) is an integer popcount sum, memoised per mask on the point.
The solvers build it from the LP's integers once per extreme point and
pass it to every check, so the masses of the sets that recur across
the uncrossing pairs are computed once.  Every vertex set here (tight
sets, basis members, witness families) is a vertex mask, as everywhere
in the package, and becomes a vertex list only in error text:
laminarity and weak crossing are mask tests, a basis row is a boundary
bitset over the support positions (`LaminarBasis.rows`), an incidence
identity holds when both sides' bit-plane sums over the boundary
bitsets agree (`identity_failure`), and each uncrossing case is one row
of a table that one check sequence runs (`uncross_witness`).
The tight sets are the active cut sides whose mixed capacity (x plus the
picked multiplicity) is exactly k; they are found among the cuts of
capacity at most k by `cuts_below`, with polynomial delay at any n,
since at the solvers' points every cut has capacity at least k/2 and
such near-minimum cuts are polynomially many (Karger 2000).  The
enumeration is given the active family's side constraint (picked
crossing at most k - threshold), so it lists active sides only, and
the residual and mass filters check each one.  The
vertex recheck runs the simplex's rank routine over the LP's own rows
in index order, independent of the simplex's basis.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import lp as lpmod
from .graphs import Multigraph, ScaledPoint, cuts_below, min_cut, vertices
from .requirements import DegreeState, Requirement
from .separation import mixed_capacities


class CertificationError(AssertionError):
    """A structural guarantee failed; carries a reproducer dump."""

    def __init__(self, message: str, dump: str | None = None):
        super().__init__(message if dump is None else f"{message}\n{dump}")
        self.dump = dump


def reproducer_dump(graph: Multigraph, req: Requirement, point: ScaledPoint) -> str:
    """Instance text plus a JSON block of the LP point's support, each
    x_e as p/q in lowest terms."""
    lines = [f"p kecss {graph.n} {graph.m} {req.k}"]
    for e in graph.edges:
        lines.append(f"e {e.u} {e.v} {e.cost}")
    values = {}
    for e, _, w in point.edges:
        g = math.gcd(w, point.denom)
        values[str(e)] = f"{w // g}/{point.denom // g}"
    payload = {"point": values, "threshold": req.threshold,
               "picked": {str(e): m for e, m in sorted(req.picked.items())}}
    return "\n".join(lines) + "\n" + json.dumps(payload, sort_keys=True)


# -- solution verification -------------------------------------------------

@dataclass
class VerifyReport:
    ok: bool
    connectivity: int
    cost: Fraction
    failures: list[str]
    witness_cut: int | None = None  # vertex mask of a cut below the target
    degree_violations: list[tuple[int, int, int, int]] | None = None


def verify(graph: Multigraph, multiplicity: Mapping[int, int],
           connectivity_target: int, cost_bound: Fraction | None,
           degree_window: Mapping[int, tuple[int, int]] | None = None,
           ecss_mode: bool = False, picked: ScaledPoint | None = None) -> VerifyReport:
    """Check connectivity, exact cost bound, and optional degree windows.

    `picked` is a run's picked multiset (the point its last stop test
    cut); its cached `min_cut` stands for connectivity only when it is
    over this graph and denominator 1 and its weights equal, entry by
    entry, the ones built here from `multiplicity`.  Any other point is
    ignored and the cut is run afresh."""
    failures: list[str] = []
    witness = None
    # a bad entry (not an int, a bool, negative, an id off the edges) is reported and skipped
    mult = {}
    for e, m in multiplicity.items():
        if type(e) is not int or type(m) is not int or m < 0 or not 0 <= e < graph.m:
            failures.append(f"bad multiplicity {m} on edge {e}")
        elif m:
            mult[e] = m
            if ecss_mode and m > 1:
                failures.append(f"edge {e} has multiplicity {m} in subgraph mode")
    point = ScaledPoint(graph, [mult.get(e, 0) for e in range(graph.m)], 1)
    conn, side = 0, 0  # a single vertex has no cut to count
    if graph.n > 1:
        if (picked is not None and picked.graph is graph and picked.denom == 1
                and picked.weights == point.weights):
            conn, side = picked.min_cut
        else:
            conn, side = min_cut(graph, point.weights)
    if conn < connectivity_target:
        witness = side
        failures.append(f"connectivity {conn} below target {connectivity_target} "
                        f"(cut side {vertices(side)})")
    cost = graph.cost_of(mult)
    if cost_bound is not None and cost > cost_bound:
        failures.append(f"cost {cost} exceeds bound {cost_bound}")
    degree_violations = []
    if degree_window is not None:
        for v, (lo, hi) in sorted(degree_window.items()):
            deg = point.cross(1 << (v - 1))
            if not lo <= deg <= hi:
                degree_violations.append((v, deg, lo, hi))
                failures.append(f"degree {deg} of vertex {v} outside [{lo}, {hi}]")
    return VerifyReport(not failures, conn, cost, failures, witness,
                        degree_violations or None)


# -- tight sets ---------------------------------------------------------------

def size_order(mask: int) -> tuple[int, list[int]]:
    """Order key of a vertex mask: (size, sorted vertices), the order of
    the tight sets, the laminar candidates and the solvers' witness pool."""
    return mask.bit_count(), vertices(mask)


def tight_sets(point: ScaledPoint, req: Requirement) -> list[int]:
    """All active canonical cut sides with x(boundary) equal to the residual.

    A side S is tight exactly when its mixed capacity x(delta S) plus the
    picked multiplicity crossing S equals k.  Scaled by the point's
    denominator every mixed capacity is an integer, so the tight sides
    are among the active cuts of scaled capacity below k * denom + 1,
    which `cuts_below` lists with polynomial delay under the active
    family's side constraint; those are then filtered by activity and
    x-mass.  Sorted by (size, vertices).
    """
    graph = req.graph
    if graph.n < 2:
        return []
    weights, denom = mixed_capacities(point, req)
    out = []
    for side in cuts_below(graph, weights, req.k * denom + 1,
                           constraint=req.active_constraint()):
        fres = req.residual(side)
        if fres >= req.threshold and point.cross(side) == fres * point.denom:
            out.append(side)
    return sorted(out, key=size_order)


@dataclass(frozen=True)
class LaminarBasis:
    """Laminar tight family plus degree-tight vertices spanning the
    fractional support: one member per fractional edge, with linearly
    independent boundary rows over the fractional edges, kept as bitsets
    over the point's support positions (`ScaledPoint.boundary_bits`)."""
    sets: tuple[int, ...]  # vertex masks
    degree_vertices: tuple[int, ...]
    frac_edges: tuple[int, ...]
    rows: tuple[int, ...]  # fractional boundary bitsets, sets then vertices

    def members(self) -> list[int]:
        """The members as vertex masks, the sets then the vertices."""
        return list(self.sets) + [1 << (v - 1) for v in self.degree_vertices]

    def size(self) -> int:
        return len(self.sets) + len(self.degree_vertices)


def extract_laminar(point: ScaledPoint, req: Requirement,
                    tight: Sequence[int]) -> LaminarBasis:
    """Greedy laminar basis for an extreme point of the residual system.

    Grows a maximal laminar family of active tight sets with independent
    boundary rows over the support, appends degree-tight vertices keeping
    independence, then selects exactly |F| members whose rows over the
    fractional edges F are independent.  Existence is guaranteed for
    vertices of the residual system; failure raises CertificationError.
    `tight` is `tight_sets(point, req)`.
    """
    graph = req.graph
    degree_state = req.degree
    # incidence rows are boundary bitsets over the support's positions,
    # which run in edge-id order
    frac_pos = [i for i, (_, _, w) in enumerate(point.edges) if w < point.denom]
    frac = tuple(point.edges[i][0] for i in frac_pos)
    frac_bits = sum(1 << i for i in frac_pos)
    full = (1 << graph.n) - 1
    candidates = {side for s in tight for side in (s, full ^ s)}

    tracker = lpmod.RankTracker()
    family: list[int] = []
    for mask in sorted(candidates, key=size_order):
        if all(mask & t in (0, mask, t) for t in family):  # nested or disjoint
            if tracker.add(lpmod.indicator(point.boundary_bits(mask))):
                family.append(mask)

    degree_vertices: list[int] = []
    if degree_state is not None:
        for v in vertices(degree_state.active):
            if not _degree_tight(point, degree_state, v):
                continue
            if tracker.add(lpmod.indicator(point.boundary_bits(1 << (v - 1)))):
                degree_vertices.append(v)

    # select |F| members with independent rows over the fractional columns,
    # the sets first, then the degree-tight vertices
    ftracker = lpmod.RankTracker()
    chosen_sets: list[int] = []
    chosen_vertices: list[int] = []
    rows: list[int] = []
    members = ([(mask, None) for mask in family]
               + [(1 << (v - 1), v) for v in degree_vertices])
    for mask, v in members:
        if ftracker.rank == len(frac):
            break
        bits = point.boundary_bits(mask) & frac_bits
        if bits and ftracker.add(lpmod.indicator(bits)):
            if v is None:
                chosen_sets.append(mask)
            else:
                chosen_vertices.append(v)
            rows.append(bits)

    if ftracker.rank != len(frac):
        raise CertificationError(
            f"no laminar basis of size |F|={len(frac)} found (got {ftracker.rank}); "
            "this falsifies the laminar-basis guarantee",
            reproducer_dump(graph, req, point))
    basis = LaminarBasis(tuple(chosen_sets), tuple(chosen_vertices), frac,
                         tuple(rows))
    _validate_basis(basis, req, point)
    return basis


def _degree_tight(point: ScaledPoint, state: DegreeState, v: int) -> bool:
    """Vertex v carries x-degree at least 1 and on one of its bounds."""
    deg = point.cross(1 << (v - 1))
    return deg >= point.denom and deg in (state.lower[v - 1] * point.denom,
                                          state.upper[v - 1] * point.denom)


def _validate_basis(basis: LaminarBasis, req: Requirement, point: ScaledPoint) -> None:
    graph, degree_state = req.graph, req.degree
    for a, b in itertools.combinations(basis.sets, 2):
        if a & b not in (0, a, b):
            raise CertificationError(f"family not laminar: {vertices(a)} / {vertices(b)}",
                                     reproducer_dump(graph, req, point))
    if basis.size() != len(basis.frac_edges):
        raise CertificationError("|family| + |degree vertices| != |F|",
                                 reproducer_dump(graph, req, point))
    tracker = lpmod.RankTracker()
    for r in basis.rows:
        if not tracker.add(lpmod.indicator(r)):
            raise CertificationError("basis rows not linearly independent",
                                     reproducer_dump(graph, req, point))
    for s in basis.sets:
        fres = req.residual(s)
        if fres < req.threshold or point.cross(s) != fres * point.denom:
            raise CertificationError(f"member {vertices(s)} not an active tight set",
                                     reproducer_dump(graph, req, point))
    for v in basis.degree_vertices:
        if degree_state is None or v not in vertices(degree_state.active):
            raise CertificationError(f"vertex {v} not degree-constrained",
                                     reproducer_dump(graph, req, point))
        if not _degree_tight(point, degree_state, v):
            raise CertificationError(f"vertex {v} not tight with mass >= 1",
                                     reproducer_dump(graph, req, point))


# -- uncrossing witnesses ----------------------------------------------------

@dataclass(frozen=True)
class UncrossWitness:
    """A checked replacement family for a weakly-crossing pair (a, b).

    theta (x-mass between A-B and B-A), gamma (between A&B and the
    outside) and alpha (between the classes a mixed case joins; None
    otherwise) are integers: the masses times the point's denominator,
    as the checks computed them.  The sets are vertex masks."""
    a: int
    b: int
    case: str
    family: tuple[int, ...]
    theta: int
    gamma: int
    alpha: int | None
    identity: str


def identity_failure(point: ScaledPoint, combo: Sequence[tuple[int, int]],
                     target: tuple[int, int]) -> int | None:
    """The first support edge id on which the incidence identity
    sum of c * chi(S) over `combo` = c * chi(T) for `target` fails, or
    None if it holds on every support edge.  Each term is (coefficient,
    vertex mask), chi(S) S's boundary bitset over the support.  Each
    side, the negative terms moved across, is summed per position as
    binary digit planes (bit i of plane j is digit j of position i's
    sum), and the sides agree where every plane does."""
    sides: tuple[list[int], list[int]] = ([], [])
    for c, mask in [*combo, (-target[0], target[1])]:
        planes = sides[c < 0]
        bits, c, j = point.boundary_bits(mask), abs(c), 0
        while c:
            if c & 1:
                carry, i = bits, j
                while carry:  # add the term's bits to digit plane i, rippling up
                    while len(planes) <= i:
                        planes.append(0)
                    planes[i], carry = planes[i] ^ carry, planes[i] & carry
                    i += 1
            c >>= 1
            j += 1
    left, right = sides
    diff = 0
    for i in range(max(len(left), len(right))):
        diff |= (left[i] if i < len(left) else 0) ^ (right[i] if i < len(right) else 0)
    if not diff:
        return None
    return point.edges[(diff & -diff).bit_length() - 1][0]


def uncross_witness(a: int, b: int, point: ScaledPoint,
                    req: Requirement) -> UncrossWitness:
    """Verified replacement family for two weakly-crossing active tight sets.

    The inputs must be active (ValueError) and tight.  The corners'
    activity then picks one row of the case table: the case, its family,
    the corners that must be tight, the masses that must vanish (theta
    between A-B and B-A, gamma between A&B and the outside, alpha between
    the classes a mixed case joins) and the incidence identity:

        complement          A|B is everything    A-B                   -
        intersection_union  A&B, A|B active      A&B, A|B              theta
        difference          A-B, B-A active      A-B, B-A              gamma
        mixed_*             one of each pair     A&B, A|B, A-B, B-A    theta, gamma, alpha

    One sequence checks the corners tight, the masses zero, then the
    identity (`identity_failure`).  Masses are integers over the point's
    denominator; the family is laminar, active, tight, and spans the
    boundary row of b together with a.
    """
    denom = point.denom
    m_inter, m_union = a & b, a | b
    m_amb, m_bma = a & ~b, b & ~a
    if not m_inter or not m_amb or not m_bma:
        raise ValueError("sets must weakly cross")
    full = (1 << req.graph.n) - 1
    m_out = full & ~m_union
    residual = {mask: req.residual(mask)  # read once per mask
                for mask in (a, b, m_inter, m_union, m_amb, m_bma)}

    def failure(text: str) -> CertificationError:
        return CertificationError(text, reproducer_dump(req.graph, req, point))

    def require_tight(mask: int, label: str) -> None:
        mass = point.cross(mask)
        if mass != residual[mask] * denom:
            raise failure(f"{label} {vertices(mask)} expected tight "
                          f"but x(delta)={Fraction(mass, denom)} != {residual[mask]}")

    for mask, name in ((a, "input A"), (b, "input B")):
        if residual[mask] < req.threshold:
            raise ValueError(f"{name} is not active")
        require_tight(mask, name)

    theta = point.between(m_amb, m_bma)
    gamma = point.between(m_inter, m_out) if m_union != full else 0
    alpha = None
    corners = ((m_inter, "A&B"), (m_union, "A|B"), (m_amb, "A-B"), (m_bma, "B-A"))
    if m_union == full:
        # weakly crossing but not crossing: A-B is the complement of B
        case, family, tight, vanish, combo, target, text = (
            "complement", (a, m_amb), ((m_amb, "complement A-B"),), (),
            ((1, m_amb),), (1, b), "chi(B) = chi(A-B)")
    else:
        inter, union, amb, bma = (residual[mask] >= req.threshold for mask, _ in corners)
        if not (inter or union) or not (amb or bma):
            raise failure("corner activity pattern contradicts two-way uncrossability")
        if inter and union:
            case, family, tight, vanish, combo, target, text = (
                "intersection_union", (a, m_inter, m_union), corners[:2], (("theta", theta),),
                ((1, m_inter), (1, m_union), (-1, a)), (1, b),
                "chi(A)+chi(B) = chi(A&B)+chi(A|B)")
        elif amb and bma:
            case, family, tight, vanish, combo, target, text = (
                "difference", (a, m_amb, m_bma), corners[2:], (("gamma", gamma),),
                ((1, m_amb), (1, m_bma), (-1, a)), (1, b), "chi(A)+chi(B) = chi(A-B)+chi(B-A)")
        else:
            # exactly one of A&B, A|B and one of A-B, B-A is active; per
            # pattern: the case, its family, the classes alpha joins, and the
            # identity chi(Y) = chi(P) + chi(Q) - 2 chi(X) as (P, Q, X, Y)
            case, family, joined, (p, q, m_x, m_y), text = {
                (True, True): ("mixed_union_diff", (a, m_amb, m_union), (m_inter, m_bma),
                               (m_amb, m_union, a, b), "chi(B) = chi(A-B)+chi(A|B)-2chi(A)"),
                (True, False): ("mixed_union_codiff", (a, m_bma, m_union), (m_inter, m_amb),
                                (m_bma, m_union, b, a), "chi(A) = chi(B-A)+chi(A|B)-2chi(B)"),
                (False, False): ("mixed_inter_codiff", (a, m_inter, m_bma), (m_amb, m_out),
                                 (m_inter, m_bma, a, b), "chi(B) = chi(A&B)+chi(B-A)-2chi(A)"),
                (False, True): ("mixed_inter_diff", (a, m_inter, m_amb), (m_bma, m_out),
                                (m_inter, m_amb, b, a), "chi(A) = chi(A&B)+chi(A-B)-2chi(B)"),
            }[union, amb]
            alpha = point.between(*joined)
            tight, vanish = corners, (("theta", theta), ("gamma", gamma), ("alpha", alpha))
            combo, target = ((1, p), (1, q), (-2, m_x)), (1, m_y)
    for mask, label in tight:
        require_tight(mask, label)
    for label, value in vanish:
        if value:
            raise failure(f"{label} = {Fraction(value, denom)} expected 0")
    e = identity_failure(point, combo, target)
    if e is not None:
        raise failure(f"incidence identity {text} fails on edge {e}")
    return UncrossWitness(a, b, case, family, theta, gamma, alpha, text)


def small_boundary_set(basis: LaminarBasis, point: ScaledPoint,
                       req: Requirement) -> int:
    """A basis member with at most 3 fractional boundary edges.

    Requires the point strictly fractional on F with integral x-mass over
    F on every member's boundary; the returned member then has that mass
    at most 2.  Absence of such a member would falsify the token-counting
    bound, so it raises CertificationError with a reproducer dump of
    `req` and the point.
    """
    weights, denom = point.weights, point.denom
    for e in basis.frac_edges:
        if not 0 < weights[e] < denom:
            raise ValueError(f"x[{e}]={Fraction(weights[e], denom)} not strictly "
                             "fractional")
    members = basis.members()
    masses = [point.mass(row) for row in basis.rows]
    for member, mass in zip(members, masses):
        if mass % denom:
            raise ValueError(f"member {vertices(member)} has non-integral mass "
                             f"{Fraction(mass, denom)} over F")
    for row, member, mass in zip(basis.rows, members, masses):
        count = row.bit_count()
        if count <= 3:
            if mass > 2 * denom:
                raise CertificationError(
                    f"member {vertices(member)} has {count} fractional edges but "
                    f"mass {Fraction(mass, denom)} > 2",
                    reproducer_dump(point.graph, req, point))
            return member
    raise CertificationError(
        "no member with at most 3 fractional boundary edges; this falsifies "
        "the token-counting bound", reproducer_dump(point.graph, req, point))


def recheck_vertex(inst: lpmod.LpInstance, opt: lpmod.BasicOptimum) -> None:
    """Full-rank check of the tight constraints at the point: the
    simplex's rank routine over the LP's own rows, in index order."""
    rank = len(lpmod._rank_certificate(inst.num_vars, inst.rows, opt.tight_rows,
                                       opt.tight_bounds))
    if rank != inst.num_vars:
        raise CertificationError(
            f"tight constraints have rank {rank} < {inst.num_vars}: not a vertex")
