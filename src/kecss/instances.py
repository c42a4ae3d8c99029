"""Instance file format, generators, and fixtures.

Format (DIMACS-adjacent, diff-friendly):

    # comment lines start with '#'
    p kecss <n> <m> <k>
    e <u> <v> <cost>          (m lines; repeated pairs make parallel edges)
    d <v> <lo> <hi>           (optional degree bounds, at most one per vertex)

Vertices are 1-indexed, costs are nonnegative integers.  Canonical
re-emission round-trips byte-identically.  The parser rejects n, m and k
above MAX_VERTICES, MAX_EDGES and MAX_K, and costs and degree bounds
above MAX_VALUE, before it builds anything of that size.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .graphs import Multigraph, complete_graph, cycle_graph, make_graph, min_cut, vertices


MAX_VERTICES = 10_000
MAX_EDGES = 200_000
MAX_K = 10_000
MAX_VALUE = 10**12  # edge costs and degree bounds
# min-cut work the connectivity repair of `gen` may spend, counted as
# n * (vertex pairs + n) per Stoer-Wagner call: about 3 s of repair
# (Python 3.11, one core of a 2-core VM)
REPAIR_WORK = 3 * 10**7


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Instance:
    graph: Multigraph
    k: int
    bounds: dict[int, tuple[int, int]] | None = None  # explicit d-lines only

    def degree_arrays(self) -> tuple[list[int], list[int]]:
        """Bounds for all vertices; missing ones default to the vacuous
        window [0, k * deg(v)]."""
        lower = [0] * self.graph.n
        upper = [0] * self.graph.n
        for v in range(1, self.graph.n + 1):
            lo, hi = (self.bounds or {}).get(v, (0, self.k * max(1, self.graph.degree(v))))
            lower[v - 1] = lo
            upper[v - 1] = hi
        return lower, upper


def parse_instance(text: str) -> Instance:
    header = None
    edges: list[tuple[int, int, int]] = []
    bounds: dict[int, tuple[int, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise ParseError(line_no, "duplicate problem line")
            if len(parts) != 5 or parts[1] != "kecss":
                raise ParseError(line_no, "expected 'p kecss <n> <m> <k>'")
            try:
                header = tuple(int(p) for p in parts[2:])
            except ValueError:
                raise ParseError(line_no, "non-integer field in problem line")
            if header[0] < 1 or header[1] < 0 or header[2] < 1:
                raise ParseError(line_no, "n, m, k out of range")
            for name, value, limit, limit_name in (
                    ("n", header[0], MAX_VERTICES, "MAX_VERTICES"),
                    ("m", header[1], MAX_EDGES, "MAX_EDGES"),
                    ("k", header[2], MAX_K, "MAX_K")):
                if value > limit:
                    raise ParseError(line_no, f"{name}={value} exceeds "
                                     f"{limit_name}={limit}")
        elif parts[0] == "e":
            if header is None:
                raise ParseError(line_no, "edge before problem line")
            if len(edges) == header[1]:
                raise ParseError(line_no, f"more edge lines than the declared {header[1]}")
            if len(parts) != 4:
                raise ParseError(line_no, "expected 'e <u> <v> <cost>'")
            try:
                u, v, cost = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(line_no, "non-integer edge field")
            if u == v:
                raise ParseError(line_no, f"self-loop at vertex {u}")
            if not (1 <= u <= header[0] and 1 <= v <= header[0]):
                raise ParseError(line_no, "edge endpoint out of range")
            if cost < 0:
                raise ParseError(line_no, "negative cost")
            if cost > MAX_VALUE:
                raise ParseError(line_no, f"cost {cost} exceeds MAX_VALUE={MAX_VALUE}")
            edges.append((u, v, cost))
        elif parts[0] == "d":
            if header is None:
                raise ParseError(line_no, "degree bound before problem line")
            if len(parts) != 4:
                raise ParseError(line_no, "expected 'd <v> <lo> <hi>'")
            try:
                v, lo, hi = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(line_no, "non-integer degree field")
            if not 1 <= v <= header[0]:
                raise ParseError(line_no, "vertex out of range")
            if v in bounds:
                raise ParseError(line_no, f"duplicate degree bounds for vertex {v}")
            if lo > hi:
                raise ParseError(line_no, f"lower bound {lo} above upper bound {hi}")
            if lo < 0:
                raise ParseError(line_no, "negative degree bound")
            if hi > MAX_VALUE:
                raise ParseError(line_no,
                                 f"degree bound {hi} exceeds MAX_VALUE={MAX_VALUE}")
            bounds[v] = (lo, hi)
        else:
            raise ParseError(line_no, f"unknown line type {parts[0]!r}")
    if header is None:
        raise ParseError(0, "missing problem line")
    n, m, k = header
    if len(edges) != m:
        raise ParseError(0, f"problem line declares {m} edges, found {len(edges)}")
    graph = make_graph(n, edges)
    return Instance(graph, k, bounds or None)


def emit_instance(inst: Instance) -> str:
    lines = [f"p kecss {inst.graph.n} {inst.graph.m} {inst.k}"]
    for e in inst.graph.edges:
        cost = e.cost
        if cost.denominator != 1:
            raise ValueError(f"edge {e.id} has non-integral cost {cost}")
        lines.append(f"e {e.u} {e.v} {cost.numerator}")
    for v in sorted(inst.bounds or {}):
        lo, hi = inst.bounds[v]
        lines.append(f"d {v} {lo} {hi}")
    return "\n".join(lines) + "\n"


def _prism_k3() -> Instance:
    """Triangular prism with doubled matching rungs, k=3.

    Matching pairs (u_i, v_i) carry one zero-cost edge and one cost-1
    edge; the two triangles cost 2 per edge.  The unique LP optimum puts
    1 on the zero-cost edges, 1/2 on the cost-1 rungs, and 3/4 on the
    triangle edges, for a value of 21/2, and its nine fractional edges
    are spanned by a laminar family of nine tight sets.
    """
    # u_i = 1,3,5; v_i = 2,4,6
    edges = []
    for i in range(3):
        edges.append((2 * i + 1, 2 * i + 2, 0))  # zero-cost rung
    for i in range(3):
        edges.append((2 * i + 1, 2 * i + 2, 1))  # parallel unit-cost rung
    for a, b in ((1, 3), (3, 5), (1, 5)):
        edges.append((a, b, 2))  # u-triangle
    for a, b in ((2, 4), (4, 6), (2, 6)):
        edges.append((a, b, 2))  # v-triangle
    return Instance(make_graph(6, edges), 3)


def _prism_hub_k6(gadgets: int) -> Instance:
    """Prism gadgets hanging off a hub, k=6, for an odd gadget count G.

    Vertices: hub s=1 and triples (u_i, v_i, t_i) = (3i+2, 3i+3, 3i+4).
    Zero-cost edges: one hub ray to each of u_i, v_i, t_i and tripled
    rungs u_i-t_i, v_i-t_i.  Cost-1 edges u_i-v_i and two cost-2 odd
    rings through the u_i and the v_i.  The unique LP optimum, of value
    7G/2, sets every zero-cost edge to 1, the cost-1 edges to 1/2, and
    the ring edges to 3/4; picking the integral edges leaves residual
    requirement 2 on each {u_i}, {v_i} and 3 on each {u_i, v_i, t_i}.
    """
    us = range(2, 3 * gadgets + 2, 3)  # u_i; v_i = u_i + 1 and t_i = u_i + 2
    edges = []
    for u in us:
        edges += [(1, u, 0), (1, u + 1, 0), (1, u + 2, 0)]
        edges += [(u, u + 2, 0)] * 3 + [(u + 1, u + 2, 0)] * 3
    edges += [(u, u + 1, 1) for u in us]
    for ring in (us, range(3, 3 * gadgets + 2, 3)):
        edges += [(a, b, 2) for a, b in zip(ring, ring[1:])] + [(ring[0], ring[-1], 2)]
    return Instance(make_graph(3 * gadgets + 1, edges), 6)


GENERATOR_KINDS = ("random", "complete", "cycle", "prism-k3", "prism-hub-k6")


def gen(kind: str, seed: int = 0, n: int = 8, p: float = 0.6,
        cost_min: int = 1, cost_max: int = 10, k: int = 4,
        cost: int = 1, ensure_connectivity: int | None = None,
        gadgets: int = 3) -> Instance:
    """Deterministic instance generator.

    random: Erdos-Renyi with integer costs; ensure_connectivity repairs
    the graph by adding random edges across deficient cuts until the
    unit-capacity connectivity reaches the given value.  Each added edge
    follows one min cut over all n vertices, so the repair spends at most
    REPAIR_WORK of min-cut work and raises ValueError past it, up front
    when the degree deficit alone needs more edges than that allows.
    prism-hub-k6 takes an odd gadget count of at least 3.  Sizes, k and
    costs are held to the parser's limits before anything is built, so
    `parse_instance` reads back whatever `gen` emits.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if kind in ("complete", "cycle", "random") and not 2 <= n <= MAX_VERTICES:
        raise ValueError(f"n={n} outside 2..MAX_VERTICES={MAX_VERTICES}")
    if kind == "complete" and n * (n - 1) // 2 > MAX_EDGES:
        raise ValueError(f"complete graph on n={n} exceeds MAX_EDGES={MAX_EDGES}")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k={k} outside 1..MAX_K={MAX_K}")
    if not (0 <= cost <= MAX_VALUE and 0 <= cost_min <= cost_max <= MAX_VALUE):
        raise ValueError(f"costs must satisfy 0 <= cost, cost_min <= cost_max "
                         f"and lie within MAX_VALUE={MAX_VALUE}")
    if not 0 <= p <= 1:  # also refuses nan
        raise ValueError(f"p={p} outside [0, 1]")
    if ensure_connectivity is not None and ensure_connectivity < 0:
        raise ValueError(f"connectivity {ensure_connectivity} is negative")
    if (ensure_connectivity or 0) * n > 2 * MAX_EDGES:
        raise ValueError(f"connectivity {ensure_connectivity} on n={n} needs more "
                         f"than MAX_EDGES={MAX_EDGES} edges")
    if kind == "prism-hub-k6" and not (3 <= gadgets <= MAX_VERTICES // 3 and gadgets % 2):
        raise ValueError(f"gadgets={gadgets} must be odd and within 3..{MAX_VERTICES // 3}")
    if kind == "complete":
        return Instance(complete_graph(n, cost), k)
    if kind == "cycle":
        return Instance(cycle_graph(n, cost), k)
    if kind == "prism-k3":
        return _prism_k3()
    if kind == "prism-hub-k6":
        return _prism_hub_k6(gadgets)
    rng = random.Random(seed)
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() < p:
                edges.append((a, b, rng.randint(cost_min, cost_max)))
                if len(edges) > MAX_EDGES:
                    raise ValueError(f"random graph exceeds MAX_EDGES={MAX_EDGES}")
    if not edges:
        edges.append((1, 2, rng.randint(cost_min, cost_max)))
    # the cut kernel sees only summed weights, so the repair loop hands it
    # one unit-cost edge per vertex pair, weighted by its multiplicity
    pairs = Counter((a, b) for a, b, _ in edges)
    if ensure_connectivity:
        # each added edge raises two degrees, so the degree deficit bounds
        # the edges to add, and with them the repair's work, from below
        degree = Counter(v for a, b, _ in edges for v in (a, b))
        deficit = sum(max(0, ensure_connectivity - degree[v]) for v in range(1, n + 1))
        least = (deficit + 1) // 2
        if least * n * (len(pairs) + n) > REPAIR_WORK:
            raise ValueError(f"connectivity {ensure_connectivity} on n={n} needs at "
                             f"least {least} repair edges, beyond the repair's "
                             "min-cut budget")
    work = 0
    while ensure_connectivity:
        work += n * (len(pairs) + n)
        if work > REPAIR_WORK:
            raise ValueError(f"connectivity repair to {ensure_connectivity} on n={n} "
                             "ran out of its min-cut budget")
        support = make_graph(n, [(a, b, 0) for a, b in pairs])
        value, side = min_cut(support, list(pairs.values()))
        if value >= ensure_connectivity:
            break
        if len(edges) == MAX_EDGES:
            raise ValueError(f"connectivity repair reached MAX_EDGES={MAX_EDGES}")
        a = rng.choice(vertices(side))
        b = rng.choice(vertices(((1 << n) - 1) ^ side))
        edges.append((a, b, rng.randint(cost_min, cost_max)))
        pairs[min(a, b), max(a, b)] += 1
    return Instance(make_graph(n, edges), k)
