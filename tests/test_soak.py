"""Cross-mode soak on random multigraphs (parallel edges, zero costs)."""

import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from kecss import approximation_factor, bicriteria, kecsm, kecss_even, md_kecss
from kecss.graphs import make_graph, min_cut, vertices

from reference import full_cut_lp


def random_multigraph(rng, n, k):
    while True:
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.55:
                    edges.append((u, v, rng.randint(0, 9)))
                    while rng.random() < 0.25:
                        edges.append((u, v, rng.randint(0, 9)))
        if not edges:
            continue
        g = make_graph(n, edges)
        value, side = min_cut(g, [1] * g.m)
        while value < k:
            a = rng.choice(vertices(side))
            b = rng.choice(vertices(((1 << n) - 1) ^ side))
            edges.append((a, b, rng.randint(0, 9)))
            g = make_graph(n, edges)
            value, side = min_cut(g, [1] * g.m)
        return g


def test_all_modes_on_random_multigraphs():
    rng = random.Random(414243)
    for trial in range(8):
        n = rng.randint(5, 8)
        k = rng.choice([4, 6])
        g = random_multigraph(rng, n, k)
        sol, trace = kecss_even(g, k)
        assert sol.cost <= trace.lp0 and sol.connectivity >= k - 2
        sol, trace = bicriteria(g, k)
        assert sol.cost <= Fraction(3, 2) * trace.lp0
        assert sol.connectivity >= k - 1
        kk = rng.choice([2, 3, 5])
        sol, _ = kecsm(g, kk)
        assert sol.cost <= approximation_factor(kk) * sol.lp_value
        assert sol.connectivity >= kk
        lower = [max(0, min(g.degree(v), k) - rng.randint(0, 2))
                 for v in range(1, n + 1)]
        upper = [g.degree(v) + rng.randint(0, 1) for v in range(1, n + 1)]
        sol, _ = md_kecss(g, k, lower, upper)
        deg = [0] * (n + 1)
        for e, m in sol.multiplicity.items():
            deg[g.edges[e].u] += m
            deg[g.edges[e].v] += m
        for v in range(1, n + 1):
            assert lower[v - 1] - 2 <= deg[v] <= upper[v - 1] + 2


def test_full_cut_lp_multigraph_mode():
    tri = make_graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    assert full_cut_lp(tri, 4, "ecsm").value == 6
    two = make_graph(2, [(1, 2, 3)])
    assert full_cut_lp(two, 5, "ecsm").value == 15
    # degree rows cap the multigraph relaxation
    capped = full_cut_lp(tri, 4, "ecsm", ([0, 0, 0], [4, 4, 4]))
    assert capped.value == 6


def test_concurrent_solves_are_independent():
    # solvers share no mutable state: concurrent runs on distinct inputs
    # give the same answers as sequential ones
    graphs = [random_multigraph(random.Random(s), 6, 4) for s in range(4)]
    sequential = [kecss_even(g, 4)[0].cost for g in graphs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(lambda g: kecss_even(g, 4)[0].cost, graphs))
    assert sequential == concurrent
