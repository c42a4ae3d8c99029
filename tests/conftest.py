import math
import random
from fractions import Fraction

import pytest

from kecss import lp
from kecss.graphs import make_graph, vertices
from kecss.instances import Instance, gen

TIGHT_SCAN_VERTEX_LIMIT = 16


def mask(vs) -> int:
    """The vertex mask of a literal vertex set: bit v-1 for vertex v."""
    return sum(1 << (v - 1) for v in set(vs))


def size_order(side: int) -> tuple[int, list[int]]:
    """The (size, sorted vertices) order of vertex masks."""
    return side.bit_count(), vertices(side)


def random_feasible(seed: int, n: int, k: int, p: float = 0.6,
                    cost_min: int = 1, cost_max: int = 10) -> Instance:
    return gen("random", seed=seed, n=n, p=p, k=k, cost_min=cost_min,
               cost_max=cost_max, ensure_connectivity=k)


def hub_cost_variant(dashed: int, solid: int) -> Instance:
    """The k=6 hub fixture with rescaled fractional-edge costs.

    Any solid cost above the dashed cost keeps the unique fractional
    optimum (zero-cost edges at 1, rungs at 1/2, triangles at 3/4)."""
    return Instance(make_graph(10, prism_hub_edges(3, dashed, solid)), 6)


def prism_hub_edges(g, dashed, solid):
    """The `prism-hub-k6` generator's edges for g gadgets, with its
    cost-1 edges (u_i-v_i) at `dashed` and its cost-2 ring edges at
    `solid`."""
    hub = gen("prism-hub-k6", gadgets=g).graph
    return [(e.u, e.v, (0, dashed, solid)[int(e.cost)]) for e in hub.edges]


def random_cost_hub(g: int, seed: int, per_edge: bool = False) -> Instance:
    """A k=6 prism hub with seeded random costs: one (dashed, solid) pair
    with dashed < solid for the whole hub (the LP iterates twice), or with
    `per_edge` a dashed cost in 1..3 and a solid cost in 4..8 per edge."""
    rng = random.Random(seed)
    dashed = rng.randint(1, 4)
    solid = rng.randint(dashed + 1, 9)
    edges = []
    for u, v, c in prism_hub_edges(g, 1, 2):
        if per_edge and c:
            c = rng.randint(1, 3) if c == 1 else rng.randint(4, 8)
        elif c:
            c = dashed if c == 1 else solid
        edges.append((u, v, c))
    return Instance(make_graph(3 * g + 1, edges), 6)


def row_holds(row, point) -> bool:
    """Reference check of an LP row at a point of Fractions: the row's
    left side summed over Fractions, compared with its rhs by its sense."""
    lhs = sum((Fraction(c) * point[j] for j, c in row.coeffs.items()), Fraction(0))
    return {lp.GE: lhs >= row.rhs, lp.LE: lhs <= row.rhs}[row.sense]


def tight_sets_scan(x, req) -> list[int]:
    """Reference oracle for `certify.tight_sets`: scan all 2^(n-1)
    canonical sides S (vertex 1 outside), n <= 16.

    The picked and the scaled x weight crossing each side fill two tables
    by cut(S + v) = cut(S) + w(delta(v)) - 2 w(v, S), adding the lowest
    vertex of S last; S is tight when it is active and its x-mass equals
    its residual."""
    graph = req.graph
    n = graph.n
    if n > TIGHT_SCAN_VERTEX_LIMIT:
        raise ValueError(f"n={n} too large for the tight-set scan")
    denom = math.lcm(1, *(Fraction(v).denominator for v in x.values()))
    # per vertex: (neighbour, picked multiplicity, x * denom) per edge
    incident = [[] for _ in range(n + 1)]
    for e in graph.edges:
        weights = (req.picked.get(e.id, 0), int(Fraction(x.get(e.id, 0)) * denom))
        incident[e.u].append((e.v, *weights))
        incident[e.v].append((e.u, *weights))
    size = 1 << (n - 1)  # bit b of a side's index stands for vertex b + 2
    picked_cut = [0] * size
    x_cut = [0] * size
    out = []
    for i in range(1, size):
        low = i & -i
        rest = i ^ low
        p_cut, w_cut = picked_cut[rest], x_cut[rest]
        for u, p, w in incident[low.bit_length() + 1]:
            if u > 1 and rest >> (u - 2) & 1:
                p_cut, w_cut = p_cut - p, w_cut - w
            else:
                p_cut, w_cut = p_cut + p, w_cut + w
        picked_cut[i], x_cut[i] = p_cut, w_cut
        fres = req.k - p_cut
        if fres >= req.threshold and w_cut == fres * denom:
            out.append(i << 1)
    return sorted(out, key=size_order)


def min_cut_phases(graph, weights) -> list[tuple[int, int]]:
    """Reference maximum-adjacency contraction that picks each next vertex
    with `min` over a dict by (-key, v), with no heap and no early exit:
    every phase's cut value and the mask of its last vertex's members,
    in phase order."""
    nodes = list(range(1, graph.n + 1))
    members = {v: {v} for v in nodes}
    w = {v: {} for v in nodes}
    for e in graph.edges:
        if weights[e.id]:
            w[e.u][e.v] = w[e.u].get(e.v, 0) + weights[e.id]
            w[e.v][e.u] = w[e.v].get(e.u, 0) + weights[e.id]
    phases = []
    while len(nodes) > 1:
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
        s, t = order[-2], order[-1]
        phases.append((sum(w[t].values()), mask(members[t])))
        members[s] |= members[t]
        for v, wt in list(w[t].items()):
            if v != s:
                w[s][v] = w[s].get(v, 0) + wt
                w[v][s] = w[v].get(s, 0) + wt
        for v in w[t]:
            del w[v][t]
        del w[t]
        nodes.remove(t)
    return phases


def min_cut_reference(graph, weights) -> tuple[int, int]:
    """Reference for `graphs.min_cut`: the first strictly smallest phase
    cut of `min_cut_phases`, with the side's complement taken when it
    holds vertex 1.  `min_cut` must return the same value and side."""
    value, side = min(min_cut_phases(graph, weights), key=lambda phase: phase[0])
    return value, (side ^ ((1 << graph.n) - 1) if side & 1 else side)


def degree_bounds_for(inst: Instance, seed: int) -> tuple[list[int], list[int]]:
    """Feasible degree windows around the all-edges solution degrees."""
    g = inst.graph
    rng = random.Random(seed)
    lower = [max(0, min(g.degree(v), inst.k) - rng.randint(0, 2))
             for v in range(1, g.n + 1)]
    upper = [g.degree(v) + rng.randint(0, 2) for v in range(1, g.n + 1)]
    return lower, upper


@pytest.fixture(scope="session")
def corpus50() -> list[Instance]:
    """50 seeded random fractionally feasible instances, n <= 10, k in {4,6}."""
    out = []
    for i in range(50):
        k = 4 if i % 2 else 6
        n = 7 + i % 4
        p = (0.35, 0.5, 0.65)[i % 3]
        out.append(random_feasible(100 + i, n, k, p))
    return out


@pytest.fixture(scope="session")
def structured_corpus() -> list[Instance]:
    """Fixture variants with fractional extreme points, for suites 3-6."""
    return [gen("prism-hub-k6"), hub_cost_variant(3, 5), hub_cost_variant(1, 7),
            hub_cost_variant(2, 3)]


@pytest.fixture(scope="session")
def unit_corpus() -> list[Instance]:
    """Unit-cost instances for the refined bicriteria bound."""
    out = []
    for i in range(12):
        k = 4 if i % 2 else 6
        n = 7 + i % 4
        out.append(random_feasible(700 + i, n, k, p=0.5, cost_min=1, cost_max=1))
    out.append(hub_cost_variant(1, 1))
    return out


@pytest.fixture(scope="session")
def tiny_corpus() -> list[Instance]:
    """30 instances with at most 14 edges, 4-edge-connected."""
    out = []
    seed = 0
    while len(out) < 30:
        seed += 1
        n = 5 + seed % 2
        inst = random_feasible(500 + seed, n, 4, p=0.8)
        if inst.graph.m <= 14:
            out.append(inst)
    return out


# filled by the guarantee suites, consumed by the structural-invariant battery
ACCEPTANCE_TRACES: dict[str, list] = {}
