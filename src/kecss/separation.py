"""Separation oracles for the residual cut LPs.

Feasibility of a point x over the working edge set E' is equivalent to
every active cut having mixed capacity at least k, where the mixed
capacity charges x_e on working edges plus the picked multiplicity on
picked edges.  Inactive (dropped) sets always have mixed capacity at
least k - (threshold - 1), so a global min cut below that window is
automatically an active violated cut; otherwise every violated cut lies
among the cuts of capacity below k, which are enumerated and filtered by
activity.  In that window the min cut is at least k/2, so the cuts below
k are 2-approximate min cuts: polynomially many, and `cuts_below`
lists them with polynomial delay at any n.  A side is active exactly
when its picked crossing is at most k - threshold, so `cuts_below` is
given that side constraint and lists only the active ones; the
activity filter stays as a check.  Every side it lists is violated, and
the verdict reports all of them, so one lazy round can add a row for
each.

The point is a `graphs.ScaledPoint`, also named here: x over edge ids
as nonnegative integers over one positive denominator, the one form in
which a point enters separation and certification.  The solvers build
it from the LP's integer point, without Fractions; `ScaledPoint.of` is
the one converter from a mapping of rationals.  The mixed capacities
add the picked multiplicity times that denominator, and k and the
window are scaled with them, so the cut kernels, each cut's `cross` and
every comparison work in integers.

`separate_fast` is the one oracle the solvers use; the tests compare it
with an exhaustive scan of every partition (`tests/reference.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import ScaledPoint, cuts_below, min_cut, vertices
from .requirements import Requirement


@dataclass(frozen=True)
class Feasible:
    pass


@dataclass(frozen=True)
class Cut:
    side: int           # canonical side: a vertex mask without vertex 1
    capacity: Fraction  # mixed capacity of the cut
    requirement: int    # residual requirement of the side
    lhs: Fraction       # x-mass of working edges across the cut

    def __post_init__(self):
        # mixed capacity below k exactly when the x-mass is below the residual
        if self.lhs >= self.requirement:
            raise ValueError(f"cut {vertices(self.side)} is not violated: x-mass "
                             f"{self.lhs} >= residual {self.requirement}")


@dataclass(frozen=True)
class Violated:
    cuts: tuple[Cut, ...]  # distinct violated cuts, cheapest first

    def __post_init__(self):
        if not self.cuts:
            raise ValueError("a violated verdict needs at least one cut")
        keys = [(c.capacity, vertices(c.side)) for c in self.cuts]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("cuts must be distinct and ordered by "
                             "(capacity, side)")


SeparationVerdict = Feasible | Violated


def mixed_capacities(point: ScaledPoint, req: Requirement) -> tuple[list[int], int]:
    """x_e on working edges plus the picked multiplicity, 0 elsewhere, as
    (integer weight per edge id, common denominator); each x_e is in [0, 1].

    An edge may carry both: floor extraction picks the integer part of a
    multigraph LP value and keeps its fractional remainder working.
    """
    denom = point.denom
    weights = list(point.weights)
    for e, w in enumerate(weights):
        if w > denom:
            raise ValueError(f"x[{e}]={Fraction(w, denom)} is not in [0, 1]")
    for e, mult in req.picked.items():
        weights[e] += mult * denom
    return weights, denom


def _check_fast_preconditions(req: Requirement) -> None:
    if req.threshold == 3:
        if req.k != 2 and req.k < 4:
            raise ValueError("threshold 3 needs k >= 4 (or k = 2, vacuous)")
    else:
        if req.k < 2:
            raise ValueError("threshold 2 needs k >= 2")


def _cut(req: Requirement, side: int, capacity: Fraction) -> Cut:
    return Cut(side, capacity, req.residual(side), capacity - req.picked_crossing(side))


def separate_fast(point: ScaledPoint, req: Requirement) -> SeparationVerdict:
    """Min-cut probe plus near-minimum-cut enumeration at the point.

    Returns Feasible, or Violated with the violated active cuts found,
    ordered by mixed capacity and then lexicographically by the canonical
    side's sorted vertices.  A min cut below the window is reported
    alone; otherwise the verdict holds every active side of capacity
    below k, which is every violated cut.
    """
    _check_fast_preconditions(req)
    if req.threshold == 3 and req.k == 2:
        return Feasible()  # no set can reach the threshold
    weights, denom = mixed_capacities(point, req)
    window = req.k - (req.threshold - 1)
    value, side = min_cut(req.graph, weights)
    if value < window * denom:
        # a dropped set has capacity >= window, so this side is active
        if not req.in_active_family(side):
            raise RuntimeError(f"min cut {vertices(side)} of capacity "
                               f"{Fraction(value, denom)} below {window} is not active")
        return Violated((_cut(req, side, Fraction(value, denom)),))
    if value >= req.k * denom:
        return Feasible()
    mixed = ScaledPoint(req.graph, weights, denom)
    found = [(mixed.cross(s), s)
             for s in cuts_below(req.graph, weights, req.k * denom,
                                 constraint=req.active_constraint())
             if req.in_active_family(s)]
    if not found:
        return Feasible()
    # candidates come sorted by side, so the stable sort breaks ties by side
    found.sort(key=lambda pair: pair[0])
    return Violated(tuple(_cut(req, s, Fraction(w, denom)) for w, s in found))

