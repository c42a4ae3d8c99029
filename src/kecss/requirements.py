"""Residual cut requirements and active families.

A Requirement captures the rounding state: target connectivity k, the
multiset of already-picked edges, the activity threshold (3 for the
exact-cost procedures, 2 for the bicriteria one), and optional residual
degree bounds.  A cut side S is a vertex mask (bit v-1 for vertex v,
see `graphs`); its residual requirement is k - (picked multiplicity
crossing S), and 0 for the empty and the full set.  A set is active when
its residual requirement reaches the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .graphs import Multigraph, ScaledPoint


@dataclass(frozen=True)
class DegreeState:
    """Residual degree windows for the still-constrained vertices."""
    lower: tuple[int, ...]  # residual lower bound per vertex 1..n
    upper: tuple[int, ...]  # residual upper bound per vertex 1..n
    active: int             # mask of the vertices whose degree rows are still enforced


@dataclass(frozen=True)
class Requirement:
    graph: Multigraph
    k: int
    picked: Mapping[int, int] = field(default_factory=dict)
    threshold: int = 3
    degree: DegreeState | None = None
    picked_point: ScaledPoint = field(init=False, repr=False, compare=False)  # over 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.threshold not in (2, 3):
            raise ValueError("threshold must be 2 or 3")
        weights = [0] * self.graph.m
        for e, mult in self.picked.items():
            if not 0 <= e < self.graph.m:
                raise ValueError(f"picked edge {e} out of range")
            if not isinstance(mult, int) or mult < 1:
                raise ValueError(f"picked multiplicity of edge {e} must be an int >= 1")
            weights[e] = mult
        object.__setattr__(self, "picked_point", ScaledPoint(self.graph, weights, 1))

    def picked_crossing(self, mask: int) -> int:
        """The picked multiplicity crossing the vertex mask."""
        return self.picked_point.cross(mask)

    def residual(self, mask: int) -> int:
        """k minus the picked multiplicity crossing the cut (may be
        negative); 0 for the empty and the full set."""
        if mask == 0 or mask == (1 << self.graph.n) - 1:
            return 0
        return self.k - self.picked_point.cross(mask)

    def active_constraint(self) -> tuple[tuple[int, ...], int]:
        """(picked multiplicity per edge id, k - threshold): a side other
        than the empty and the full set is active exactly when its picked
        crossing is at most that bound, the side constraint of
        `graphs.cuts_below`."""
        return self.picked_point.weights, self.k - self.threshold

    def in_active_family(self, mask: int) -> bool:
        # the empty and the full side have residual 0, below either threshold
        return self.residual(mask) >= self.threshold

    def active_empty(self, known: int | None = None) -> bool:
        """True iff no cut side reaches the threshold (the stopping rule).

        `known` is a side the caller holds as active (the rounding
        engine's witness pool); it is checked, and when it is active the
        answer is False without a min cut.  Otherwise a side is active
        exactly when the picked multiset's min cut is at most k -
        threshold, read from `picked_point.min_cut`, which stays cached
        on the point for `certify.verify`."""
        if known is not None and self.residual(known) >= self.threshold:
            return False
        if not self.picked:
            return self.k < self.threshold
        return self.k - self.picked_point.min_cut[0] < self.threshold
