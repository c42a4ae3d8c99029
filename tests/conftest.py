import random

import pytest

from kecss.graphs import make_graph
from kecss.instances import Instance, gen


def random_feasible(seed: int, n: int, k: int, p: float = 0.6,
                    cost_min: int = 1, cost_max: int = 10) -> Instance:
    return gen("random", seed=seed, n=n, p=p, k=k, cost_min=cost_min,
               cost_max=cost_max, ensure_connectivity=k)


def hub_cost_variant(dashed: int, solid: int) -> Instance:
    """The k=6 hub fixture with rescaled fractional-edge costs.

    Any solid cost above the dashed cost keeps the unique fractional
    optimum (zero-cost edges at 1, rungs at 1/2, triangles at 3/4)."""
    base = gen("prism-hub-k6")
    edges = []
    for e in base.graph.edges:
        c = int(e.cost)
        if c == 1:
            c = dashed
        elif c == 2:
            c = solid
        edges.append((e.u, e.v, c))
    return Instance(make_graph(10, edges), 6)


def prism_hub_edges(g, dashed, solid):
    """Hub 1 and gadgets (u_i, v_i, t_i): zero-cost rays and tripled rungs
    u_i-t_i, v_i-t_i, a `dashed` edge u_i-v_i, and odd `solid` rings
    through the u_i and through the v_i."""
    u = [2 + 3 * i for i in range(g)]
    v = [3 + 3 * i for i in range(g)]
    t = [4 + 3 * i for i in range(g)]
    edges = []
    for i in range(g):
        edges += [(1, u[i], 0), (1, v[i], 0), (1, t[i], 0)]
        edges += [(u[i], t[i], 0)] * 3 + [(v[i], t[i], 0)] * 3
    edges += [(u[i], v[i], dashed) for i in range(g)]
    for ring in (u, v):
        edges += [(ring[i], ring[(i + 1) % g], solid) for i in range(g)]
    return edges


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
