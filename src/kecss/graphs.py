"""Multigraph representation and exact cut machinery.

Vertices are 1..n.  Edge ids are dense 0..m-1 and parallel edges are kept
as distinct ids; self-loops are rejected.  The cut kernels take edge
weights as a list of nonnegative ints indexed by edge id, so every cut
value and comparison is integer arithmetic; a caller with rational
capacities scales them once to a common denominator (`lp.common`) and
scales its bounds with them.  `min_cut` is Stoer-Wagner; `cuts_below`
enumerates every cut under a limit by s-t max-flow branch and bound,
exactly and with polynomial delay at any n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class CapacityError(ValueError):
    """Input too large for an exhaustive routine."""


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    cost: Fraction


@dataclass(frozen=True)
class Multigraph:
    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        for idx, e in enumerate(self.edges):
            if e.id != idx:
                raise ValueError(f"edge ids must be dense 0..m-1, got {e.id} at {idx}")
            if not (1 <= e.u <= self.n and 1 <= e.v <= self.n):
                raise ValueError(f"edge {e.id} endpoint out of range")
            if e.u == e.v:
                raise ValueError(f"edge {e.id} is a self-loop")
            if e.cost < 0:
                raise ValueError(f"edge {e.id} has negative cost")

    @property
    def m(self) -> int:
        return len(self.edges)

    def cost_of(self, multiplicity: Mapping[int, int]) -> Fraction:
        return sum((self.edges[e].cost * m for e, m in multiplicity.items()),
                   Fraction(0))

    def degree(self, v: int) -> int:
        return len(crossing(self, 1 << (v - 1)))

    @cached_property
    def ends(self) -> tuple[int, ...]:
        """Per edge id, the vertex mask of its two endpoints.  The edge
        crosses a side's mask exactly when `0 != mask & ends != ends`."""
        return tuple((1 << (e.u - 1)) | (1 << (e.v - 1)) for e in self.edges)


def make_graph(n: int, edges: Iterable[tuple[int, int, int | Fraction]]) -> Multigraph:
    """Build a Multigraph from (u, v, cost) triples; ids assigned in order."""
    built = tuple(Edge(i, u, v, Fraction(c)) for i, (u, v, c) in enumerate(edges))
    return Multigraph(n, built)


def complete_graph(n: int, cost: int | Fraction = 1) -> Multigraph:
    return make_graph(n, [(u, v, cost) for u in range(1, n + 1)
                          for v in range(u + 1, n + 1)])


def cycle_graph(n: int, cost: int | Fraction = 1) -> Multigraph:
    return make_graph(n, [(v, v % n + 1, cost) for v in range(1, n + 1)])


def vertex_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def mask_vertices(mask: int, n: int) -> frozenset[int]:
    return frozenset(v for v in range(1, n + 1) if mask >> (v - 1) & 1)


def canonical_side(side: frozenset[int], n: int) -> frozenset[int]:
    """One representative per cut partition: the side not containing vertex 1."""
    if 1 in side:
        return frozenset(range(1, n + 1)) - side
    return side


def crossing(graph: Multigraph, mask: int,
             edges: Iterable[int] | None = None) -> list[int]:
    """Ids among `edges` (default: all, in id order) with exactly one
    endpoint in the vertex mask; for one vertex's bit, the edges meeting it."""
    ends = graph.ends
    return [e for e in (range(graph.m) if edges is None else edges)
            if 0 != mask & ends[e] != ends[e]]


def _check_cut_side(graph: Multigraph, side: frozenset[int]) -> None:
    if not side or len(side) >= graph.n:
        raise ValueError("cut side must be a nonempty proper vertex subset")
    for v in side:
        if not 1 <= v <= graph.n:
            raise ValueError(f"vertex {v} out of range")


def boundary(graph: Multigraph, side: Iterable[int],
             restrict: Iterable[int] | None = None) -> frozenset[int]:
    """Edge ids with exactly one endpoint in `side`, restricted to `restrict`."""
    side = frozenset(side)
    _check_cut_side(graph, side)
    ids = None if restrict is None else sorted(set(restrict))
    for e in ids or ():
        if not 0 <= e < graph.m:
            raise ValueError(f"edge id {e} out of range")
    return frozenset(crossing(graph, vertex_mask(side), ids))


def _check_weights(graph: Multigraph, weights: Sequence[int]) -> None:
    if len(weights) != graph.m:
        raise ValueError(f"weight vector has {len(weights)} entries for {graph.m} edges")
    for e in range(graph.m):
        w = weights[e]
        if not isinstance(w, int) or w < 0:
            raise ValueError(f"weight of edge {e} must be a nonnegative int, got {w!r}")


def min_cut(graph: Multigraph, weights: Sequence[int]) -> tuple[int, frozenset[int]]:
    """Exact global minimum cut (value, canonical side) for integer weights.

    Deterministic maximum-adjacency (Stoer-Wagner style) contraction.
    """
    if graph.n < 2:
        raise ValueError("min cut needs at least 2 vertices")
    _check_weights(graph, weights)

    # weight matrix over supernodes, each supernode remembers its members
    nodes = list(range(1, graph.n + 1))
    members: dict[int, set[int]] = {v: {v} for v in nodes}
    w: dict[int, dict[int, int]] = {v: {} for v in nodes}
    for e in graph.edges:
        if weights[e.id] == 0:
            continue
        w[e.u][e.v] = w[e.u].get(e.v, 0) + weights[e.id]
        w[e.v][e.u] = w[e.v].get(e.u, 0) + weights[e.id]

    best_value: int | None = None
    best_side: set[int] | None = None
    while len(nodes) > 1:
        # maximum-adjacency ordering; ties broken by node id for determinism
        start = nodes[0]
        in_a = {start}
        key = {v: w[start].get(v, 0) for v in nodes if v != start}
        order = [start]
        while len(in_a) < len(nodes):
            nxt = min(key, key=lambda v: (-key[v], v))
            order.append(nxt)
            in_a.add(nxt)
            del key[nxt]
            for v, wt in w[nxt].items():
                if v not in in_a:
                    key[v] += wt
        t = order[-1]
        s = order[-2]
        phase = sum(w[t].values())
        if best_value is None or phase < best_value:
            best_value = phase
            best_side = set(members[t])
        # merge t into s
        members[s] |= members[t]
        for v, wt in list(w[t].items()):
            if v == s:
                continue
            w[s][v] = w[s].get(v, 0) + wt
            w[v][s] = w[v].get(s, 0) + wt
        for v in w[t]:
            del w[v][t]
        del w[t]
        nodes.remove(t)

    if best_value is None or best_side is None:
        raise RuntimeError("maximum-adjacency contraction found no phase cut")
    side = canonical_side(frozenset(best_side), graph.n)
    return best_value, side


def cuts_below(graph: Multigraph, weights: Sequence[int],
               limit: int) -> list[frozenset[int]]:
    """All canonical cut sides with weight strictly below `limit`.

    Exact at any n, with polynomial delay (Vazirani-Yannakakis branching):
    vertex 1 is fixed outside the side, vertices 2..n are assigned in order,
    and a partial assignment is pruned as soon as the max flow from its
    assigned side to its assigned complement reaches `limit`, since no
    completion can then be cheaper.  Each child warm-starts from its
    parent's flow, which stays feasible when a vertex joins either end.
    Every branch that survives ends in a returned cut, so each cut costs
    at most 2n flow computations.  Output is sorted lexicographically by
    canonical side.
    """
    if not isinstance(limit, int) or limit <= 0:
        raise ValueError(f"limit must be a positive int, got {limit!r}")
    if graph.n < 2:
        raise ValueError("cut enumeration needs at least 2 vertices")
    _check_weights(graph, weights)
    n = graph.n
    # residual capacity of edge j from v towards u: weights[j] - sign * flow[j]
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    for e in graph.edges:
        if weights[e.id]:
            adj[e.u].append((e.v, e.id, 1))
            adj[e.v].append((e.u, e.id, -1))
    # side[v]: 1 in the cut side S, -1 in the complement T, 0 unassigned
    side = [0] * (n + 1)
    found: list[frozenset[int]] = []

    def max_flow(flow: list[int], value: int) -> int:
        """Augment `flow` (net flow u->v per edge, a valid S-T flow of
        `value`) by shortest paths; stop once the value reaches `limit`."""
        sources = [v for v in range(1, n + 1) if side[v] == 1]
        while value < limit:
            prev: dict[int, tuple[int, int, int] | None] = dict.fromkeys(sources)
            queue = list(sources)
            sink = 0
            for v in queue:
                for u, j, sign in adj[v]:
                    if u not in prev and weights[j] - sign * flow[j] > 0:
                        prev[u] = (v, j, sign)
                        if side[u] == -1:
                            sink = u
                            break
                        queue.append(u)
                if sink:
                    break
            if not sink:
                return value
            path = []
            while side[sink] != 1:
                sink, j, sign = prev[sink]
                path.append((j, sign))
            push = min([limit - value] + [weights[j] - sign * flow[j] for j, sign in path])
            for j, sign in path:
                flow[j] += sign * push
            value += push
        return value

    def branch(v: int, flow: list[int], value: int) -> None:
        # `flow` is a max S-T flow of the current assignment, below `limit`;
        # while S is empty it stays the zero flow
        if v > n:
            cut = frozenset(u for u in range(2, n + 1) if side[u] == 1)
            if cut:
                found.append(cut)
            return
        for choice in (1, -1):
            side[v] = choice
            child = flow[:]
            child_value = max_flow(child, value)
            if child_value < limit:
                branch(v + 1, child, child_value)
        side[v] = 0

    side[1] = -1
    branch(2, [0] * graph.m, 0)
    return sorted(found, key=lambda s: tuple(sorted(s)))


def edge_connectivity(graph: Multigraph,
                      multiplicity: Mapping[int, int] | None = None) -> int:
    """Global edge connectivity under integer edge multiplicities."""
    mult = dict.fromkeys(range(graph.m), 1) if multiplicity is None else multiplicity
    return min_cut(graph, [mult.get(e, 0) for e in range(graph.m)])[0]
