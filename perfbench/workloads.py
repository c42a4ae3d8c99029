"""Seeded instance generators and operation lists for the benchmark.

Every instance is built here from the seed and then round-tripped
through `emit_instance`/`parse_instance`, so the solvers see exactly
what `kecss run` would read from a file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from kecss import instances
from kecss.graphs import make_graph

HUB_K = 6
HUB_GADGETS = 5          # n=16, m=60: separation falls into the 2^(n-1) scan
HUB_INSTANCES = 6
PROBE_GADGETS = 7        # n=22: above the exhaustive cut-scan limit
SMALL_GADGETS = 3        # n=10: certification on by default
SMALL_ROUNDS = 3
SMALL_INSTANCES = 20 * SMALL_ROUNDS
RANDOM_CELLS = (("ecsm", 8), ("md-ecsm", 6))
MULTIGRAPH_KS = (2, 3, 4, 5)
RANDOM_ROUNDS = 32
RANDOM_PREFIX = 32
# ecsm at k=2 on a random graph (n=10, m=22) whose first LP at k'=4 sets
# edges 11, 16 and 20 to 4/3: floor extraction puts each of them both in
# the picked multigraph and in the working set, and the first residual
# separation raises ValueError("edge 11 is both picked and in the working set").
SPLIT_EDGE_GRAPH = (
    (4, 7, 4), (7, 9, 10), (9, 10, 6), (2, 10, 7), (1, 2, 6), (1, 6, 6), (5, 6, 4),
    (3, 5, 1), (3, 8, 10), (4, 8, 4), (1, 7, 5), (4, 9, 7), (1, 4, 9), (8, 10, 5),
    (6, 7, 3), (2, 5, 6), (6, 10, 2), (2, 8, 6), (6, 9, 10), (4, 6, 4), (2, 3, 6),
    (2, 6, 3))


@dataclass(frozen=True)
class Op:
    """One solver call: `mode` on the parsed instance `inst`.  `lp` is the
    first LP value when it is known independently of the solver."""
    label: str
    mode: str
    inst: instances.Instance
    lp: Fraction | None = None


@dataclass(frozen=True)
class Workload:
    """Operations in run order.  Every run completes the first `prefix`;
    the digest, `cost_over_lp` and the traced counts cover exactly those.
    Later operations are distinct instances of the same make-up, so a
    run of fixed length measures as many instances as it can.

    `probes` are operations known to fail today; the traced run solves
    each once, outside the timed loop, and reports how many failed.
    With `single_lp`, an operation whose rounding loop needs a residual
    LP after the first LP is dropped before it first runs (see run.py);
    the prefix then counts the operations that run."""
    ops: list[Op]
    prefix: int
    probes: tuple[Op, ...] = ()
    single_lp: bool = False


def hub_edges(g: int, dashed: int, solid: int) -> list[tuple[int, int, int]]:
    """Prism-hub gadget family, the g-gadget form of `prism-hub-k6`.

    Hub s=1 and triples (u_i, v_i, t_i).  Zero-cost hub rays to each of
    u_i, v_i, t_i and triple rungs u_i-t_i, v_i-t_i; one `dashed` edge
    u_i-v_i; odd rings of `solid` edges through the u_i and through the
    v_i.  With dashed < solid the first cut LP at k=6 is fractional.
    """
    if g < 3 or g % 2 == 0:
        raise ValueError("the rings need an odd gadget count of at least 3")
    if not 0 < dashed < solid:
        raise ValueError("need 0 < dashed < solid")
    u = [2 + 3 * i for i in range(g)]
    v = [3 + 3 * i for i in range(g)]
    t = [4 + 3 * i for i in range(g)]
    edges = []
    for i in range(g):
        edges += [(1, u[i], 0), (1, v[i], 0), (1, t[i], 0)]
        edges += [(u[i], t[i], 0)] * 3 + [(v[i], t[i], 0)] * 3
    edges += [(u[i], v[i], dashed) for i in range(g)]
    for ring in (u, v):
        edges += [(min(ring[i], ring[(i + 1) % g]), max(ring[i], ring[(i + 1) % g]),
                   solid) for i in range(g)]
    return edges


def hub_lp_degrees(g: int) -> list[int]:
    """Degrees of vertices 1..n at the hub's first LP optimum: rays and
    rungs at 1, dashed at 1/2, ring edges at 3/4."""
    return [3 * g] + [6, 6, 7] * g


def cost_pair(rng: random.Random) -> tuple[int, int]:
    dashed = rng.randint(1, 4)
    return dashed, rng.randint(dashed + 1, 2 * dashed + 2)


def random_graph_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int, int]]:
    """Random graph with n vertices, m edges and costs 1..10, built on a
    random Hamiltonian cycle.

    The cycle makes the graph 2-edge-connected, and x = k/2 on its edges
    is a feasible point of degree k at every vertex, so any degree window
    containing k is feasible.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    cycle = [(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])]
    chords = sorted({(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)}
                    - set(cycle))
    pairs = cycle + rng.sample(chords, m - n)
    return [(a, b, rng.randint(1, 10)) for a, b in pairs]


def random_degree_window(rng: random.Random, n: int, k: int) -> dict[int, tuple[int, int]]:
    """Windows [lo, hi] with lo <= k <= hi, so the Hamiltonian cycle at k/2
    stays feasible."""
    return {v: (rng.randint(0, k), rng.randint(k, k + 2)) for v in range(1, n + 1)}


def hub_degree_window(rng: random.Random, graph) -> dict[int, tuple[int, int]]:
    """Windows that contain the first LP optimum's degrees, so the
    degree-bounded LP keeps the hub's LP value."""
    g = (graph.n - 1) // 3
    return {v: (rng.randint(0, d - 1), rng.randint(d, graph.degree(v)))
            for v, d in enumerate(hub_lp_degrees(g), start=1)}


def _parsed(edges, n: int, k: int, bounds=None):
    """The instance as `kecss run` would read it from a file."""
    text = instances.emit_instance(instances.Instance(make_graph(n, edges), k, bounds))
    return instances.parse_instance(text)


def hub_lp_value(inst):
    """First cut-LP value g*(dashed/2 + 3*solid/2) of a hub instance.

    Each singleton {u_i}, {v_i} needs two units from its dashed and ring
    edges and each triple needs three units of ring edges, which bounds
    the cost below by this value; dashed at 1/2 and ring edges at 3/4
    attain it.
    """
    g = (inst.graph.n - 1) // 3
    dashed = inst.graph.edges[9 * g].cost
    solid = inst.graph.edges[10 * g].cost
    return g * (dashed / 2 + Fraction(3, 2) * solid)


def _hub(rng: random.Random, g: int, label: str):
    dashed, solid = cost_pair(rng)
    return f"{label}-d{dashed}s{solid}", hub_edges(g, dashed, solid)


def hub_separation(seed: int) -> Workload:
    """`ecss` and `ecss15` on g=5 hubs, plus the g=7 capacity probe."""
    rng = random.Random(seed)
    ops = []
    n = 1 + 3 * HUB_GADGETS
    for i in range(HUB_INSTANCES):
        label, edges = _hub(rng, HUB_GADGETS, f"hub{HUB_GADGETS}.{i}")
        inst = _parsed(edges, n, HUB_K)
        lp = hub_lp_value(inst)
        ops += [Op(f"{label}/ecss", "ecss", inst, lp),
                Op(f"{label}/ecss15", "ecss15", inst, lp)]
    label, edges = _hub(rng, PROBE_GADGETS, f"hub{PROBE_GADGETS}")
    inst = _parsed(edges, 1 + 3 * PROBE_GADGETS, HUB_K)
    probe = Op(f"{label}/ecss", "ecss", inst, hub_lp_value(inst))
    return Workload(ops, len(ops), (probe,))


def multigraph_lp(seed: int) -> Workload:
    """`ecsm` and `md-ecsm` at k=2..5, each operation on its own random
    graph.  `ecsm` runs on n=8 and `md-ecsm`, about twice as slow at equal
    size, on n=6, so operation times form one cluster and their median
    is steady from seed to seed.  Each round holds every (k, mode) cell
    once, so any stretch of the list has the same make-up.

    The workload measures the first LP alone: operations whose rounding
    loop needs a residual LP are dropped before the run.  On those the
    multigraph modes can fail (SPLIT_EDGE_GRAPH), which the probe shows."""
    rng = random.Random(seed)
    ops = []
    for _ in range(RANDOM_ROUNDS):
        for k in MULTIGRAPH_KS:
            for mode, n in RANDOM_CELLS:
                m = n * (n - 1) // 4
                edges = random_graph_edges(rng, n, m)
                bounds = random_degree_window(rng, n, k) if mode == "md-ecsm" else None
                ops.append(Op(f"rand{n}.m{m}.{len(ops)}/{mode}.k{k}", mode,
                              _parsed(edges, n, k, bounds)))
    probe = Op("split-edge.n10.m22/ecsm.k2", "ecsm",
               _parsed(list(SPLIT_EDGE_GRAPH), 10, 2))
    return Workload(ops, RANDOM_PREFIX, (probe,), single_lp=True)


def certified_small(seed: int) -> Workload:
    """`ecss`, `ecss15` and `md-ecss` on g=3 hubs, certified by default."""
    rng = random.Random(seed)
    ops = []
    n = 1 + 3 * SMALL_GADGETS
    for i in range(SMALL_INSTANCES):
        label, edges = _hub(rng, SMALL_GADGETS, f"hub{SMALL_GADGETS}.{i}")
        inst = _parsed(edges, n, HUB_K)
        lp = hub_lp_value(inst)
        bounds = hub_degree_window(rng, inst.graph)
        ops += [Op(f"{label}/ecss", "ecss", inst, lp),
                Op(f"{label}/ecss15", "ecss15", inst, lp),
                Op(f"{label}/md-ecss", "md-ecss", _parsed(edges, n, HUB_K, bounds), lp)]
    return Workload(ops, len(ops) // SMALL_ROUNDS)


WORKLOADS = {
    "hub-separation": hub_separation,
    "multigraph-lp": multigraph_lp,
    "certified-small": certified_small,
}
