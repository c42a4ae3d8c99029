"""Multigraph representation and exact cut machinery.

Vertices are 1..n.  Edge ids are dense 0..m-1 and parallel edges are kept
as distinct ids; self-loops are rejected.  A vertex set, such as a cut
side, is an int mask with bit v-1 standing for vertex v; `vertices`
lists one in ascending order, the form in which sides are ordered and
written out.  Edge costs are Fractions, summed as integers over one
denominator (`costs`).  `ScaledPoint` is the one weighted-edge type
(an LP point, or an edge multiset over denominator 1) and its `cross`
the one sum over the edges crossing a vertex set, taken from per-vertex
bitsets over the point's support and kept in a memo per mask;
`crossing` lists the crossing edges' ids.  The cut kernels take edge
weights as a list of nonnegative ints indexed by edge id, so every cut
value and comparison is integer arithmetic; a caller with rational
capacities scales them once to a common denominator (`lp.common`) and
scales its bounds with them.  They return cut sides as canonical masks,
without vertex 1.  Both run on parallel edges merged into one weight
per vertex pair (`_merged`, by the pair index `Multigraph.pairs` keeps
per edge).  `min_cut` is Stoer-Wagner with a heap-ordered
maximum-adjacency order over int heap entries, stopping at a zero phase
cut; `cuts_below` enumerates every cut under a limit by s-t max-flow
branch and bound, exactly and with polynomial delay at any n, reusing a
parent's flow wherever a child cannot add to it; given a second int
vector per edge and a bound, it lists only the sides crossing at most
that bound under it (`Requirement.active_constraint`: active sides).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .lp import common


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
        nums, den = self.costs
        return Fraction(sum(nums[e] * m for e, m in multiplicity.items()), den)

    def degree(self, v: int) -> int:
        return len(crossing(self, 1 << (v - 1)))

    @cached_property
    def ends(self) -> tuple[int, ...]:
        """Per edge id, the vertex mask of its two endpoints.  The edge
        crosses a side's mask exactly when `0 != mask & ends != ends`."""
        return tuple((1 << (e.u - 1)) | (1 << (e.v - 1)) for e in self.edges)

    @cached_property
    def costs(self) -> tuple[tuple[int, ...], int]:
        """Edge costs as (integer numerators by id, one denominator)."""
        nums, den = common([e.cost for e in self.edges])
        return tuple(nums), den

    @cached_property
    def pairs(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        """The adjacent vertex pairs (u, v), u < v, by first edge, and per
        edge id the index of its pair, shared by parallel edges."""
        index: dict[tuple[int, int], int] = {}
        of = tuple(index.setdefault((e.u, e.v) if e.u < e.v else (e.v, e.u), len(index))
                   for e in self.edges)
        return tuple(index), of


def make_graph(n: int, edges: Iterable[tuple[int, int, int | Fraction]]) -> Multigraph:
    """Build a Multigraph from (u, v, cost) triples; ids assigned in order."""
    built = tuple(Edge(i, u, v, Fraction(c)) for i, (u, v, c) in enumerate(edges))
    return Multigraph(n, built)


def complete_graph(n: int, cost: int | Fraction = 1) -> Multigraph:
    return make_graph(n, [(u, v, cost) for u in range(1, n + 1)
                          for v in range(u + 1, n + 1)])


def cycle_graph(n: int, cost: int | Fraction = 1) -> Multigraph:
    return make_graph(n, [(v, v % n + 1, cost) for v in range(1, n + 1)])


def vertices(mask: int) -> list[int]:
    """The vertices of a vertex mask, ascending (bit v-1 stands for v):
    the form in which a side is ordered and written out."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def crossing(graph: Multigraph, mask: int,
             edges: Iterable[int] | None = None) -> list[int]:
    """Ids among `edges` (default: all, in id order) with exactly one
    endpoint in the vertex mask; for one vertex's bit, the edges meeting it."""
    ends = graph.ends
    return [e for e in (range(graph.m) if edges is None else edges)
            if 0 != mask & ends[e] != ends[e]]


def _check_weights(graph: Multigraph, weights: Sequence[int]) -> None:
    # C-level pass for the common case; the loop below finds what failed
    if (len(weights) == graph.m and all(map(isinstance, weights, repeat(int)))
            and min(weights, default=0) >= 0):
        return
    if len(weights) != graph.m:
        raise ValueError(f"weight vector has {len(weights)} entries for {graph.m} edges")
    for e in range(graph.m):
        w = weights[e]
        if not isinstance(w, int) or w < 0:
            raise ValueError(f"weight of edge {e} must be a nonnegative int, got {w!r}")


class ScaledPoint:
    """Edge weights by id as integers over one denominator: an LP point x
    over its denominator, or an edge multiset over denominator 1.

    `weights[e]` is x_e * `denom` for every edge id (0 off x's keys), a
    nonnegative int, kept as a tuple so nothing cached from it can go
    stale, and `denom` is a positive int; anything else raises
    ValueError.  `edges` lists the support (x_e > 0) by id as (id,
    endpoint mask, weight); position i in it is bit i of a support
    bitset.  Each vertex's bitset of the edges meeting it and each
    distinct weight's bitset are built once, on first use, so a vertex
    mask's boundary is an XOR of bitsets and an x-mass a popcount per
    weight, and `boundary_bits` and `cross` keep a memo per mask.  The
    global min cut of the weights is likewise run once, on first use
    (`min_cut`).  A point lives as long as the solver call that built
    it, so nothing cached on it is reused across calls.
    """

    def __init__(self, graph: Multigraph, weights: Sequence[int], denom: int):
        if not isinstance(denom, int) or denom <= 0:
            raise ValueError(f"denominator must be a positive int, got {denom!r}")
        _check_weights(graph, weights)
        self.graph = graph
        self.weights = tuple(weights)
        self.denom = denom
        self._bounds: dict[int, int] = {}
        self._masses: dict[int, int] = {}

    @classmethod
    def of(cls, graph: Multigraph, x: Mapping[int, Fraction]) -> ScaledPoint:
        """x (edge id -> int or Fraction) over its least common denominator."""
        for e, val in x.items():
            if not 0 <= e < graph.m:
                raise ValueError(f"edge id {e} out of range")
            if not isinstance(val, (int, Fraction)):
                raise ValueError(f"x[{e}]={val!r} is not an exact rational")
        scaled, denom = common(list(x.values()))
        weights = [0] * graph.m
        for e, w in zip(x, scaled):
            weights[e] = w
        return cls(graph, weights, denom)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The support as (id, endpoint mask, weight), by id."""
        ends = self.graph.ends
        return tuple((e, ends[e], w) for e, w in enumerate(self.weights) if w)

    @cached_property
    def _touch(self) -> list[int]:
        """Per vertex 1..n (index 0 unused), the support edges meeting it."""
        touch = [0] * (self.graph.n + 1)
        for i, (e, _, _) in enumerate(self.edges):
            edge = self.graph.edges[e]
            touch[edge.u] |= 1 << i
            touch[edge.v] |= 1 << i
        return touch

    @cached_property
    def _classes(self) -> tuple[tuple[int, int], ...]:
        """(weight, the support edges carrying it) per distinct weight."""
        classes: dict[int, int] = {}
        for i, (_, _, w) in enumerate(self.edges):
            classes[w] = classes.get(w, 0) | 1 << i
        return tuple(classes.items())

    def boundary_bits(self, mask: int) -> int:
        """The support edges crossing the vertex mask, as a bitset over
        positions in `edges`; vertices outside 1..n are ignored."""
        bits = self._bounds.get(mask)
        if bits is None:
            touch = self._touch
            n = self.graph.n
            full = (1 << n) - 1
            rest = mask & full
            if 2 * rest.bit_count() > n:  # a side and its complement share a boundary
                rest ^= full
            bits = 0
            while rest:
                low = rest & -rest
                bits ^= touch[low.bit_length()]
                rest ^= low
            self._bounds[mask] = bits
        return bits

    def mass(self, bits: int) -> int:
        """denom times the x-mass of the support edges in the bitset."""
        return sum(w * (bits & cls).bit_count() for w, cls in self._classes)

    def cross(self, mask: int) -> int:
        """denom times the x-mass of the edges crossing the vertex mask."""
        total = self._masses.get(mask)
        if total is None:
            total = self._masses[mask] = self.mass(self.boundary_bits(mask))
        return total

    def between(self, left: int, right: int) -> int:
        """denom times the x-mass of the edges joining two disjoint masks:
        the edges crossing both."""
        return self.mass(self.boundary_bits(left) & self.boundary_bits(right))

    @cached_property
    def min_cut(self) -> tuple[int, int]:
        """`min_cut` of the weights, (value, canonical side), run on first
        use: a run's stop test leaves it here for `certify.verify`."""
        return min_cut(self.graph, self.weights)


def _merged(graph: Multigraph, weights: Sequence[int]) -> dict[tuple[int, int], int]:
    """Summed positive weight per adjacent vertex pair (u, v), u < v, in
    the order of `Multigraph.pairs`."""
    keys, index = graph.pairs
    sums = [0] * len(keys)
    for j, w in zip(index, weights):
        sums[j] += w
    return {key: w for key, w in zip(keys, sums) if w}


def min_cut(graph: Multigraph, weights: Sequence[int]) -> tuple[int, int]:
    """Exact global minimum cut (value, canonical side) for integer
    weights; the canonical side is the vertex mask without vertex 1.

    Stoer-Wagner.  Each phase orders the live supernodes by maximum
    adjacency from vertex 1, popping ints `v - key * (n + 1)` off a heap:
    as 0 < v < n + 1 they pop in `(-key, v)` order (the largest key, then
    the smallest id), and `% (n + 1)` gives v back.  Keys only grow, so
    stale entries pop after live ones and are dropped.  With the heap
    empty, every unvisited vertex has key 0 and the smallest id is next.
    The first strictly smallest phase cut `key[t]` wins, so a zero one
    ends the search; t, never vertex 1, merges into its predecessor.
    """
    if graph.n < 2:
        raise ValueError("min cut needs at least 2 vertices")
    _check_weights(graph, weights)
    n = graph.n
    size = n + 1
    # sparse weight map per supernode; each supernode's members as a mask
    adj: list[dict[int, int]] = [{} for _ in range(size)]
    for (u, v), w in _merged(graph, weights).items():
        adj[u][v] = adj[v][u] = w
    members = [0] + [1 << v for v in range(n)]
    alive = list(range(1, size))
    best_value, best_side = -1, 0
    while len(alive) > 1:
        key = [0] * size
        done = [False] * size
        heap: list[int] = []
        zero = s = t = 0  # alive[:zero] are all done
        for _ in alive:
            while heap:
                v = heappop(heap) % size
                if not done[v]:
                    break
            else:
                while done[alive[zero]]:
                    zero += 1
                v = alive[zero]
            done[v] = True
            s, t = t, v
            for u, wt in adj[v].items():
                if not done[u]:
                    key[u] += wt
                    heappush(heap, u - key[u] * size)
        if best_value < 0 or key[t] < best_value:
            best_value, best_side = key[t], members[t]
            if not best_value:
                break
        members[s] |= members[t]
        for u, wt in adj[t].items():
            del adj[u][t]
            if u != s:
                adj[s][u] = adj[s].get(u, 0) + wt
                adj[u][s] = adj[u].get(s, 0) + wt
        alive.remove(t)
    return best_value, best_side


def cuts_below(graph: Multigraph, weights: Sequence[int], limit: int,
               constraint: tuple[Sequence[int], int] | None = None) -> list[int]:
    """All canonical cut sides (vertex masks without vertex 1) with weight
    strictly below `limit`; with `constraint` = (c, bound), c a
    nonnegative int per edge id, only those whose crossing weight under
    c is at most `bound` (none for a negative bound).

    Exact at any n (Vazirani-Yannakakis branching): vertex 1 is fixed
    outside the side, vertices 2..n are assigned in order, and a partial
    assignment is pruned as soon as the max flow from its assigned side S
    to its assigned complement T reaches `limit`, since no completion can
    then be cheaper; likewise once the c-weight of the edges between S
    and T, which cross every completion, passes `bound`.  The flow runs
    on one arc pair per adjacent vertex pair, with parallel edges merged.
    Each child warm-starts from its parent's flow, which stays feasible
    when a vertex joins either end.  A max flow below `limit` ends in a
    failed search whose reach R from S in the residual graph misses T; a
    child that puts a vertex of R into S, or one outside R into T, opens
    no augmenting path and keeps its parent's flow, value and R.
    Without the constraint every branch that survives ends in a returned
    cut, so each cut costs at most 2n flow computations; with it the
    search visits a subset of those branches.  Output is sorted
    lexicographically by the sides' sorted vertex lists (`vertices`).
    """
    if not isinstance(limit, int) or limit <= 0:
        raise ValueError(f"limit must be a positive int, got {limit!r}")
    if graph.n < 2:
        raise ValueError("cut enumeration needs at least 2 vertices")
    _check_weights(graph, weights)
    n = graph.n
    # arcs 2j (u->v) and 2j+1 (v->u) run along adjacent pair j (u < v);
    # a flow is held as the residual capacity of every arc
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    tail: list[int] = []
    capacity: list[int] = []
    for j, ((u, v), w) in enumerate(_merged(graph, weights).items()):
        adj[u].append((v, 2 * j))
        adj[v].append((u, 2 * j + 1))
        tail += (u, v)
        capacity += (w, w)
    # back[v]: (u, c-weight) for each u < v joined to v under c
    back: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    bound = 0
    if constraint is not None:
        c, bound = constraint
        _check_weights(graph, c)
        if not isinstance(bound, int):
            raise ValueError(f"constraint bound must be an int, got {bound!r}")
        for (u, v), w in _merged(graph, c).items():
            back[v].append((u, w))
    # side[v]: 1 in S, -1 in T, 0 unassigned; S also lists its vertices
    side = [0] * (n + 1)
    sources: list[int] = []
    found: list[int] = []

    def max_flow(res: list[int], value: int) -> tuple[int, list[bool]]:
        """Augment the S-T flow `res` of `value` by shortest paths; stop
        once the value reaches `limit`, or at a failed search, which also
        returns the reach R."""
        via = [0] * (n + 1)  # arc into each vertex the search reached
        while value < limit:
            seen = [False] * (n + 1)
            for v in sources:
                seen[v] = True
            queue = sources[:]
            sink = 0
            for v in queue:
                for u, a in adj[v]:
                    if not seen[u] and res[a]:
                        seen[u] = True
                        via[u] = a
                        if side[u] == -1:
                            sink = u
                            break
                        queue.append(u)
                if sink:
                    break
            if not sink:
                return value, seen
            path = []
            while side[sink] != 1:
                path.append(via[sink])
                sink = tail[via[sink]]
            push = min([limit - value] + [res[a] for a in path])
            for a in path:
                res[a] -= push
                res[a ^ 1] += push
            value += push
        return value, []

    def branch(v: int, res: list[int], value: int, reach: list[bool],
               spent: int) -> None:
        # `res` is a max S-T flow of the current assignment, below `limit`,
        # `reach` its R, and `spent` the c-weight between S and T
        if v > n:
            if sources:
                found.append(sum(1 << (u - 1) for u in sources))
            return
        sources.append(v)
        for choice in (1, -1):
            side[v] = choice
            if choice == -1:
                sources.pop()
            cost = spent
            for u, w in back[v]:
                if side[u] != choice:
                    cost += w
            if cost > bound:
                continue
            if reach[v] == (choice == 1):  # no augmenting path can open
                branch(v + 1, res, value, reach, cost)
                continue
            child = res[:]
            child_value, child_reach = max_flow(child, value)
            if child_value < limit:
                branch(v + 1, child, child_value, child_reach, cost)
        side[v] = 0

    side[1] = -1
    branch(2, capacity, 0, [False] * (n + 1), 0)
    return sorted(found, key=vertices)


def edge_connectivity(graph: Multigraph,
                      multiplicity: Mapping[int, int] | None = None) -> int:
    """Global edge connectivity under integer edge multiplicities."""
    mult = dict.fromkeys(range(graph.m), 1) if multiplicity is None else multiplicity
    return min_cut(graph, [mult.get(e, 0) for e in range(graph.m)])[0]
