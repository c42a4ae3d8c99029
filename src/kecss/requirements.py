"""Residual cut requirements, active families, and set-function predicates.

A Requirement captures the rounding state: target connectivity k, the
multiset of already-picked edges, the activity threshold (3 for the
exact-cost procedures, 2 for the bicriteria one), and optional residual
degree bounds.  The residual requirement of a cut side S is
k - (picked multiplicity crossing S); a set is active when its residual
requirement reaches the threshold.

SetFunction is an explicit 2^V table used only by predicate checks and
tests; requirement state never materializes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .graphs import (CapacityError, Multigraph, edge_connectivity, mask_vertices,
                     vertex_mask)

PREDICATE_VERTEX_LIMIT = 12


@dataclass(frozen=True)
class DegreeState:
    """Residual degree windows for the still-constrained vertices."""
    lower: tuple[int, ...]  # residual lower bound per vertex 1..n
    upper: tuple[int, ...]  # residual upper bound per vertex 1..n
    active: frozenset[int]  # vertices whose degree rows are still enforced


@dataclass(frozen=True)
class Requirement:
    graph: Multigraph
    k: int
    picked: Mapping[int, int] = field(default_factory=dict)
    threshold: int = 3
    degree: DegreeState | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.threshold not in (2, 3):
            raise ValueError("threshold must be 2 or 3")
        for e, mult in self.picked.items():
            if not 0 <= e < self.graph.m:
                raise ValueError(f"picked edge {e} out of range")
            if mult < 1:
                raise ValueError(f"picked multiplicity of edge {e} must be >= 1")
        # (endpoint mask, multiplicity) pairs for fast boundary sums
        ends = self.graph.ends
        object.__setattr__(self, "_picked_edges", tuple(
            (ends[e], mult) for e, mult in sorted(self.picked.items())))

    def picked_crossing(self, mask: int) -> int:
        total = 0
        for ends, mult in self._picked_edges:
            if 0 != mask & ends != ends:
                total += mult
        return total

    def residual_mask(self, mask: int) -> int:
        full = (1 << self.graph.n) - 1
        if mask == 0 or mask == full:
            return 0
        return self.k - self.picked_crossing(mask)

    def residual(self, side: Iterable[int]) -> int:
        """k minus the picked multiplicity crossing the cut (may be negative)."""
        return self.residual_mask(vertex_mask(side))

    def in_active_family(self, side: Iterable[int]) -> bool:
        # the empty and the full side have residual 0, below either threshold
        return self.residual_mask(vertex_mask(side)) >= self.threshold

    def active_empty(self) -> bool:
        """True iff no cut side reaches the threshold (the stopping rule)."""
        if not self.picked:
            return self.k < self.threshold
        conn = edge_connectivity(self.graph, self.picked)
        return self.k - conn < self.threshold

    def as_set_function(self) -> "SetFunction":
        n = self.graph.n
        if n > PREDICATE_VERTEX_LIMIT:
            raise CapacityError(f"n={n} too large for an explicit table")
        return SetFunction(n, [self.residual_mask(m) for m in range(1 << n)])


@dataclass(frozen=True)
class SetFunction:
    """Explicit integer-valued function on all subsets of 1..n (small n only)."""
    n: int
    values: list[int]

    def __post_init__(self):
        if self.n > PREDICATE_VERTEX_LIMIT:
            raise CapacityError(
                f"n={self.n} exceeds predicate limit {PREDICATE_VERTEX_LIMIT}")
        if len(self.values) != 1 << self.n:
            raise ValueError("table must cover all subsets")

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[frozenset[int]], int]) -> "SetFunction":
        return cls(n, [fn(mask_vertices(m, n)) for m in range(1 << n)])

    def __call__(self, side: Iterable[int]) -> int:
        return self.values[vertex_mask(side)]

    def is_symmetric(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.values[m] == self.values[full ^ m] for m in range(1 << self.n))


def _witness(n: int, a: int, b: int) -> tuple[frozenset[int], frozenset[int]]:
    return mask_vertices(a, n), mask_vertices(b, n)


def check_two_way_uncrossable(f: SetFunction):
    """All crossing pairs A,B must satisfy
    f(A)+f(B) <= min(f(A&B)+f(A|B), f(A-B)+f(B-A)).

    Returns (True, None) or (False, (A, B)) with a violating pair.
    """
    n = f.n
    full = (1 << n) - 1
    vals = f.values
    for a in range(1, full):
        for b in range(a + 1, full):
            inter = a & b
            if not inter:
                continue
            if not (a & ~b) or not (b & ~a):
                continue
            if (a | b) == full:
                continue
            lhs = vals[a] + vals[b]
            if lhs > vals[inter] + vals[a | b] or \
               lhs > vals[a & ~b & full] + vals[b & ~a & full]:
                return False, _witness(n, a, b)
    return True, None


def check_even_parity(f: SetFunction):
    """f(A)+f(B)+f(A|B) must be even for disjoint nonempty A, B."""
    n = f.n
    full = (1 << n) - 1
    vals = f.values
    for a in range(1, full + 1):
        rest = full & ~a
        b = rest
        while b:
            if b > a:  # unordered pairs once
                if (vals[a] + vals[b] + vals[a | b]) & 1:
                    return False, _witness(n, a, b)
            b = (b - 1) & rest
    return True, None


def symmetrize(f: SetFunction) -> SetFunction:
    """g(S) = max(f(S), f(V-S)) on proper nonempty S; g(empty)=g(V)=0."""
    full = (1 << f.n) - 1
    vals = [0] * (full + 1)
    for m in range(1, full):
        vals[m] = max(f.values[m], f.values[full ^ m])
    return SetFunction(f.n, vals)
