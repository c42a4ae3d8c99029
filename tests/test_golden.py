"""Golden outputs: the solution JSON and trace JSONL of every mode, byte
for byte.

Each entry is the sha256 of `solution_json(sol) + trace_jsonl(trace)`
(or of "<exception class>: <message>" when the solver raises) for one
instance, mode and certification setting.  A refactor of the rounding
engine, the mode table or the crossing primitive must leave all of them
unchanged; a change that alters them on purpose re-records the table
and says why the new outputs are correct.  The solution JSON's `mode` is
the run mode (`ecss15`, `md-ecsm`, ...), not its family.
"""

import hashlib
import warnings
from fractions import Fraction

import pytest

from conftest import degree_bounds_for, random_cost_hub
from kecss import rounding
from kecss.cli import solution_json, trace_jsonl
from kecss.graphs import complete_graph, cycle_graph, make_graph
from kecss.instances import Instance, gen

MODE_NAMES = ("ecss", "ecss15", "ecsm", "md-ecss", "md-ecsm")


def _with_bounds(inst: Instance, seed: int) -> Instance:
    lower, upper = degree_bounds_for(inst, seed)
    return Instance(inst.graph, inst.k,
                    {v: (lower[v - 1], upper[v - 1]) for v in range(1, inst.graph.n + 1)})


INSTANCES = {
    "prism-k3": lambda: gen("prism-k3"),
    "prism-hub-k6": lambda: gen("prism-hub-k6"),
    "k5-k4": lambda: Instance(complete_graph(5), 4),
    "random-s3-n7-k4": lambda: _with_bounds(
        gen("random", seed=3, n=7, p=0.5, k=4, ensure_connectivity=4), 3),
    "random-s11-n8-k5": lambda: _with_bounds(
        gen("random", seed=11, n=8, p=0.6, k=5, ensure_connectivity=5), 11),
    # infeasible at the solved k in some or all modes: their digests hash
    # the exception text
    "c5-k4": lambda: Instance(cycle_graph(5), 4),
    "path-k4": lambda: Instance(make_graph(4, [(1, 2, 1), (2, 3, 2), (3, 4, 1)]), 4),
    "split-k2": lambda: Instance(make_graph(4, [(1, 2, 1), (3, 4, 1)]), 2),
    "k5-k6": lambda: Instance(complete_graph(5), 6),
}
# per-edge-cost hubs: dual-degenerate LPs, where a change of optimal
# vertex changes the picks; pinned in the subgraph modes
PER_EDGE_SEEDS = (0, 4, 9)
for _seed in PER_EDGE_SEEDS:
    INSTANCES[f"hub-per-edge-s{_seed}"] = lambda seed=_seed: _with_bounds(
        random_cost_hub(3, seed, per_edge=True), seed)
MODES_OF = {f"hub-per-edge-s{seed}": ("ecss", "ecss15", "md-ecss") for seed in PER_EDGE_SEEDS}
# the instances every pinned mode solves
FEASIBLE = ("prism-k3", "prism-hub-k6", "k5-k4", "random-s3-n7-k4", "random-s11-n8-k5",
            *(f"hub-per-edge-s{seed}" for seed in PER_EDGE_SEEDS))


def _solve(mode: str, inst: Instance, certify: bool):
    kwargs = dict(certify=certify)
    graph, k = inst.graph, inst.k
    if mode.startswith("md-"):
        lower, upper = inst.degree_arrays()
        fn = rounding.md_kecss if mode == "md-ecss" else rounding.md_kecsm
        return fn(graph, k, lower, upper, **kwargs)
    fn = {"ecss": rounding.kecss, "ecss15": rounding.bicriteria,
          "ecsm": rounding.kecsm}[mode]
    return fn(graph, k, **kwargs)


def _digest(mode: str, inst: Instance, certify: bool) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k=2 warns that it returns the empty subgraph
        try:
            sol, trace = _solve(mode, inst, certify)
            text = solution_json(sol) + trace_jsonl(trace)
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


# (instance, mode, certify) -> sha256
GOLDEN = {
    ("prism-k3", "ecss", True):
        "aad937c3d867cabc91efbff21dd03e3919730121bb496b4ac8db29ea92d2f54f",
    ("prism-k3", "ecss", False):
        "aad937c3d867cabc91efbff21dd03e3919730121bb496b4ac8db29ea92d2f54f",
    ("prism-k3", "ecss15", True):
        "2549818bd820a0bf7bfd2ad223ab4e32477322f6df55b5fcd19e83d35d2b06e9",
    ("prism-k3", "ecss15", False):
        "333df06321414a433c751db812c33f74034d9f6ae23a88a3f483e36e2dc5d030",
    ("prism-k3", "ecsm", True):
        "d28fc30ad2eb10af9de38421386d6ce27a918ba6b4fc7afb767c8f8ddc44eccc",
    ("prism-k3", "ecsm", False):
        "d28fc30ad2eb10af9de38421386d6ce27a918ba6b4fc7afb767c8f8ddc44eccc",
    ("prism-k3", "md-ecss", True):
        "2ebf15c55e674f84ebf9e49bd375bf2342d582e8091d0a59f4b1e5c0257a6eb4",
    ("prism-k3", "md-ecss", False):
        "b23db130a5c8619570a43d0086adecfacf61ec63f11a800f3245d6c1e39bf149",
    ("prism-k3", "md-ecsm", True):
        "7d43f29e94700e3c9b3f087131018d1bfbae5e27bdf96726e21d326523afee76",
    ("prism-k3", "md-ecsm", False):
        "7d43f29e94700e3c9b3f087131018d1bfbae5e27bdf96726e21d326523afee76",
    ("prism-hub-k6", "ecss", True):
        "2677bc01f5a08545a72b3e091e44a2cf7c70b9c7e0e243446fa9827aed0e693b",
    ("prism-hub-k6", "ecss", False):
        "2d825fd08338b3610dde0ee8101d18784d5e51d9beed2ada36e5aad932d02be0",
    ("prism-hub-k6", "ecss15", True):
        "679cc7c0e180f741085f4279773bf08c6fe7853825b603085ea647fdff0941d2",
    ("prism-hub-k6", "ecss15", False):
        "4bfd603f7e57817b0419d5ff32df494b4cbf8f9b384d83c42d95ba89770ad4b9",
    ("prism-hub-k6", "ecsm", True):
        "5c34a584db0e45ea6e686c756d3b1ff3b16a8c608bb46e52587ef134b82bc4ea",
    ("prism-hub-k6", "ecsm", False):
        "5c34a584db0e45ea6e686c756d3b1ff3b16a8c608bb46e52587ef134b82bc4ea",
    ("prism-hub-k6", "md-ecss", True):
        "087488ad90f4450389126eb43cba5ed056af5799813acd662db6f6ae9c130208",
    ("prism-hub-k6", "md-ecss", False):
        "32cc639e02947a1eea1ca16b74f0fc7c30e85cbe11f8ee727b1c9f1bde1dc62b",
    ("prism-hub-k6", "md-ecsm", True):
        "b89d919731af0640e5ed6cf549cd71e7b19a02c224c499c6cdf2500aa830c63d",
    ("prism-hub-k6", "md-ecsm", False):
        "b89d919731af0640e5ed6cf549cd71e7b19a02c224c499c6cdf2500aa830c63d",
    ("k5-k4", "ecss", True):
        "b8a4cc0cee1ea36fca3d901ef07e3a0eea72daa09924bbb1cc3bcec0e2cf1033",
    ("k5-k4", "ecss", False):
        "999b454bcbd2189b6400576919e03972ee3b46a838db418040b82a01913d1a2b",
    ("k5-k4", "ecss15", True):
        "a4dc9c70f8dc29a95cf027b94add71f0320690dbc3b5a0c70f100afb975599f5",
    ("k5-k4", "ecss15", False):
        "ccc6c51ad69f033789afbe0c91a75646a03f6c9f4fd66d8b01b04275d67a5510",
    ("k5-k4", "ecsm", True):
        "5eb25d78e7d8c294bf765256a4f6f664d366606c201e3f611ed116c3083d3413",
    ("k5-k4", "ecsm", False):
        "5eb25d78e7d8c294bf765256a4f6f664d366606c201e3f611ed116c3083d3413",
    ("k5-k4", "md-ecss", True):
        "ddfe1ca2fc7d37e3c51ce4862834c8f9bdc4614801d5165ff259ebeb74f781ec",
    ("k5-k4", "md-ecss", False):
        "e42aa9b8c2f10bac00d386f3cc78d194833416b0b8f30f75dea9ee38784af19e",
    ("k5-k4", "md-ecsm", True):
        "6bc758b89298b5a1b451130ea3876fa85759cb3043176a082412e3cca7ac5afd",
    ("k5-k4", "md-ecsm", False):
        "6bc758b89298b5a1b451130ea3876fa85759cb3043176a082412e3cca7ac5afd",
    ("random-s3-n7-k4", "ecss", True):
        "0653c84882f27f6b7cac7bb81ac20b21198b9ccad74e6bb2fc04eff466a510ad",
    ("random-s3-n7-k4", "ecss", False):
        "36bae257163b18b132b92156fc52a60bd196a75b09d50bb75eefc55b6e3c2b32",
    ("random-s3-n7-k4", "ecss15", True):
        "fc17e9a6926f97670c108c7102e7e3cdf89a36052e60d942bee9f3165abd5631",
    ("random-s3-n7-k4", "ecss15", False):
        "47a549ef6e36e0b4079a987ef938c33321da49ac54fc18026190bc0173dbd3ee",
    ("random-s3-n7-k4", "ecsm", True):
        "d254e4636dd529b325c1fa5f46d70b6607df2224f57c1dd1a0f2fe30a4db3837",
    ("random-s3-n7-k4", "ecsm", False):
        "d254e4636dd529b325c1fa5f46d70b6607df2224f57c1dd1a0f2fe30a4db3837",
    ("random-s3-n7-k4", "md-ecss", True):
        "325746a93dd4ab0188fcb0cd9ec04601a2a1a91e9b0dde530354c37970259ae1",
    ("random-s3-n7-k4", "md-ecss", False):
        "614d5bd3d18d4d6ca6686d3061e1281817fdd877b0058aa50844ecdf291e7ff4",
    ("random-s3-n7-k4", "md-ecsm", True):
        "d59e65656e03eeef48cea3450cd2aebf98b491aad4c149420a604ad91fdae209",
    ("random-s3-n7-k4", "md-ecsm", False):
        "d59e65656e03eeef48cea3450cd2aebf98b491aad4c149420a604ad91fdae209",
    ("random-s11-n8-k5", "ecss", True):
        "91fa5bfba90baa34aa38a6fbe44c5cbb5fe28e66a77c3c16f3192baee174faec",
    ("random-s11-n8-k5", "ecss", False):
        "afad8089368a7c16646896f3dc07db4d01aeb77c412b2e2943079b50d30c3019",
    ("random-s11-n8-k5", "ecss15", True):
        "2673d04582aee550a7acdc530820903679ee636b56158713b107686d5166cb3b",
    ("random-s11-n8-k5", "ecss15", False):
        "90c27d6da6a043d688afd5c6e9e1581a0756163b39ebbe34452243a18dcbbfa7",
    ("random-s11-n8-k5", "ecsm", True):
        "61a27e978baa248795a44c2a9657cd8c0b194f88e567f097e6941e7f4e444e45",
    ("random-s11-n8-k5", "ecsm", False):
        "61a27e978baa248795a44c2a9657cd8c0b194f88e567f097e6941e7f4e444e45",
    ("random-s11-n8-k5", "md-ecss", True):
        "a5e1f7a7337be387d3c61fb37d76a77c7c507e5caad6f24ba12c3aac96eff517",
    ("random-s11-n8-k5", "md-ecss", False):
        "2dc0efa5d9eaf317f23704fd0e3f2c1c7430895a71f8fc36a8768adab549736e",
    ("random-s11-n8-k5", "md-ecsm", True):
        "d7bdca232c5fa21330ebaed0825e65c8cc9c5ff8e1198ea9dc3560bc4775fc89",
    ("random-s11-n8-k5", "md-ecsm", False):
        "d7bdca232c5fa21330ebaed0825e65c8cc9c5ff8e1198ea9dc3560bc4775fc89",
    ("c5-k4", "ecss", True):
        "255a1ab03282cf7f9c9b13dc3b143feef751a9e46d266f889630c132230df566",
    ("c5-k4", "ecss", False):
        "255a1ab03282cf7f9c9b13dc3b143feef751a9e46d266f889630c132230df566",
    ("c5-k4", "ecss15", True):
        "255a1ab03282cf7f9c9b13dc3b143feef751a9e46d266f889630c132230df566",
    ("c5-k4", "ecss15", False):
        "255a1ab03282cf7f9c9b13dc3b143feef751a9e46d266f889630c132230df566",
    ("c5-k4", "ecsm", True):
        "1ceccda657fe122b5de60551bb4520578ad9c714ba7bfa3a4c9d92425180b3cd",
    ("c5-k4", "ecsm", False):
        "1ceccda657fe122b5de60551bb4520578ad9c714ba7bfa3a4c9d92425180b3cd",
    ("c5-k4", "md-ecss", True):
        "0ec25ef356bae870329d91ecbc89b91a1f7befc1139bf96a33a33c819f40c704",
    ("c5-k4", "md-ecss", False):
        "0ec25ef356bae870329d91ecbc89b91a1f7befc1139bf96a33a33c819f40c704",
    ("c5-k4", "md-ecsm", True):
        "6292cd6e29a03f271089fce5f2a02be947a739b9cba0c52531a72d0d6ec6a73e",
    ("c5-k4", "md-ecsm", False):
        "6292cd6e29a03f271089fce5f2a02be947a739b9cba0c52531a72d0d6ec6a73e",
    ("path-k4", "ecss", True):
        "aee3efca058b5b2ee6ada78b0dec30c328d75a2ed5ca5f071ede10dcf91059f8",
    ("path-k4", "ecss", False):
        "aee3efca058b5b2ee6ada78b0dec30c328d75a2ed5ca5f071ede10dcf91059f8",
    ("path-k4", "ecss15", True):
        "aee3efca058b5b2ee6ada78b0dec30c328d75a2ed5ca5f071ede10dcf91059f8",
    ("path-k4", "ecss15", False):
        "aee3efca058b5b2ee6ada78b0dec30c328d75a2ed5ca5f071ede10dcf91059f8",
    ("path-k4", "ecsm", True):
        "ebf0ea3fa1518f742c5f09f0466f06f803f5d6a93a11686c87e04b7694c850bf",
    ("path-k4", "ecsm", False):
        "ebf0ea3fa1518f742c5f09f0466f06f803f5d6a93a11686c87e04b7694c850bf",
    ("path-k4", "md-ecss", True):
        "46b0bb54bc8caca1fb8aac493a1f26e09d4278098cc90cbe130d74014db02111",
    ("path-k4", "md-ecss", False):
        "46b0bb54bc8caca1fb8aac493a1f26e09d4278098cc90cbe130d74014db02111",
    ("path-k4", "md-ecsm", True):
        "71997835ef2323877bbc2a208a0fde92e375ffad68fc5ffa66647266cfd81f16",
    ("path-k4", "md-ecsm", False):
        "71997835ef2323877bbc2a208a0fde92e375ffad68fc5ffa66647266cfd81f16",
    ("split-k2", "ecss", True):
        "6f1adf674ef2c610c7e4f2a3f72734ebb75c8c1ff7bff761f9719e84be0ed7ac",
    ("split-k2", "ecss", False):
        "6f1adf674ef2c610c7e4f2a3f72734ebb75c8c1ff7bff761f9719e84be0ed7ac",
    ("split-k2", "ecss15", True):
        "3e0a649b3c9725ccc7e027144d5ac8afe203e2337e426378afe839615bcbf0cd",
    ("split-k2", "ecss15", False):
        "3e0a649b3c9725ccc7e027144d5ac8afe203e2337e426378afe839615bcbf0cd",
    ("split-k2", "ecsm", True):
        "2a7ac1bc6c59cecb63b6f46dd10199850c84b79400cbc27de60d539b135ecbb0",
    ("split-k2", "ecsm", False):
        "2a7ac1bc6c59cecb63b6f46dd10199850c84b79400cbc27de60d539b135ecbb0",
    ("split-k2", "md-ecss", True):
        "9bb7c030dcc1c8b585b89c3fb231f5c96380f0612052e649aff4a2be5730a024",
    ("split-k2", "md-ecss", False):
        "639f3514beeaeb549abcfcced90efdfc2273c63d36fc80c96fa8eb8719d846a0",
    ("split-k2", "md-ecsm", True):
        "2a7ac1bc6c59cecb63b6f46dd10199850c84b79400cbc27de60d539b135ecbb0",
    ("split-k2", "md-ecsm", False):
        "2a7ac1bc6c59cecb63b6f46dd10199850c84b79400cbc27de60d539b135ecbb0",
    ("k5-k6", "ecss", True):
        "ebfe8d8e2e385e42156e5418bdbe59be7bfd87eb927795e70a7bc1a25885130f",
    ("k5-k6", "ecss", False):
        "ebfe8d8e2e385e42156e5418bdbe59be7bfd87eb927795e70a7bc1a25885130f",
    ("k5-k6", "ecss15", True):
        "ebfe8d8e2e385e42156e5418bdbe59be7bfd87eb927795e70a7bc1a25885130f",
    ("k5-k6", "ecss15", False):
        "ebfe8d8e2e385e42156e5418bdbe59be7bfd87eb927795e70a7bc1a25885130f",
    ("k5-k6", "ecsm", True):
        "57e4efc368f6e414401ac9cb834a4c6185badf054b4cacdfd6adddc7f096fd38",
    ("k5-k6", "ecsm", False):
        "57e4efc368f6e414401ac9cb834a4c6185badf054b4cacdfd6adddc7f096fd38",
    ("k5-k6", "md-ecss", True):
        "0ec25ef356bae870329d91ecbc89b91a1f7befc1139bf96a33a33c819f40c704",
    ("k5-k6", "md-ecss", False):
        "0ec25ef356bae870329d91ecbc89b91a1f7befc1139bf96a33a33c819f40c704",
    ("k5-k6", "md-ecsm", True):
        "5b7210eecbdab59076debac7691c2b618ad60af6688ace892c626477dd5a8d04",
    ("k5-k6", "md-ecsm", False):
        "5b7210eecbdab59076debac7691c2b618ad60af6688ace892c626477dd5a8d04",
    ("hub-per-edge-s0", "ecss", True):
        "aebecc20d10318d435c6c1a3afcf6dcc4958895eda70ce4a746bc73178f38e7f",
    ("hub-per-edge-s0", "ecss", False):
        "5964fb7d1548fb7a7c42417e2cdb344103d1cdcc80e6a97fd0bfcfef2eb6f887",
    ("hub-per-edge-s0", "ecss15", True):
        "2b09fc4331ddca67423c085bdb3f9750a8d25cb65b66bd4f35be89609d7676ac",
    ("hub-per-edge-s0", "ecss15", False):
        "7c80a659cb21f91936738a3a65a6f3da76711f75223fca34a2c97eb957729264",
    ("hub-per-edge-s0", "md-ecss", True):
        "71489d2425ad3e0093da304a9293a8c7f589ce2019d41ac7545837bda6ee84ac",
    ("hub-per-edge-s0", "md-ecss", False):
        "33c2d0f40cfe136ab0e5d80b9cb5980760b64b7a7c7c3192665197450ac30872",
    ("hub-per-edge-s4", "ecss", True):
        "d663f886c138a63c9211e85de581cbcb1957de7a14ae9bceb1489e883385a366",
    ("hub-per-edge-s4", "ecss", False):
        "110c857185aa7fb459df8115ae72cc872698986e03d113a295b3f909c7ef64c4",
    ("hub-per-edge-s4", "ecss15", True):
        "15b28b35e2e0ff23a607c308112e71b8d49bc659713b25509bf5bbc2f84136be",
    ("hub-per-edge-s4", "ecss15", False):
        "a857840b9ab6cb889098964796203dc0e5f0a975810659eec58bd04256d76c3e",
    ("hub-per-edge-s4", "md-ecss", True):
        "d9573e3707c2d98a9f36877b07f5109729bde90c166bdcca056ea2d31a82334b",
    ("hub-per-edge-s4", "md-ecss", False):
        "233a25cbb71a58463678f6a09ce99bcf0aad309c972d8b659e01c3c62e8edcc1",
    ("hub-per-edge-s9", "ecss", True):
        "5705bc4d2fb62070499fc6a9178c478ae0f4ce2a7528ac3ab1ffbe0e9096788f",
    ("hub-per-edge-s9", "ecss", False):
        "f43905dbaef74d2961355e784300a14964a20869eb98fb1f55cb52f84fbb54bd",
    ("hub-per-edge-s9", "ecss15", True):
        "db68ac61f8f353744bc5319dd1c2a3103b3270787c225de49199556dda895946",
    ("hub-per-edge-s9", "ecss15", False):
        "d2c9a49d824fd04a72680b3498098603b84b082a7ffdb617e2fd1c197063e0da",
    ("hub-per-edge-s9", "md-ecss", True):
        "9ebbf9a0c2ee79a9dde6c8429b12db518459d3b96fbe73b0c6ec6bf8da6b503d",
    ("hub-per-edge-s9", "md-ecss", False):
        "0ffc515104e0ee166286589d45757194c8c4ec48f902a3336d8703bfd14f9f3c",
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_outputs(name):
    inst = INSTANCES[name]()
    got = {(name, mode, cert): _digest(mode, inst, cert)
           for mode in MODES_OF.get(name, MODE_NAMES) for cert in (True, False)}
    want = {key: value for key, value in GOLDEN.items() if key[0] == name}
    assert got == want


def test_feasible_runs_compute_no_edge_connectivity(monkeypatch):
    # the LP is the feasibility test: only an infeasible first LP has the
    # graph's edge connectivity computed, so no feasible run computes it
    def refused(*args):
        raise AssertionError("a feasible run computed the edge connectivity")

    monkeypatch.setattr(rounding, "edge_connectivity", refused)
    for name in FEASIBLE:
        inst = INSTANCES[name]()
        for mode in MODES_OF.get(name, MODE_NAMES):
            for cert in (True, False):
                assert _digest(mode, inst, cert) == GOLDEN[name, mode, cert]


# the PAPER.md guarantee table, k = 2..9: (connectivity target, cost factor)
EXACT_COST = [(0, 1), (0, 1), (2, 1), (2, 1), (4, 1), (4, 1), (6, 1), (6, 1)]
GUARANTEES = {
    "ecss": EXACT_COST,
    "ecss15": [(1, Fraction(3, 2)), (2, Fraction(3, 2)), (3, Fraction(3, 2)),
               (4, Fraction(3, 2)), (5, Fraction(3, 2)), (6, Fraction(3, 2)),
               (7, Fraction(3, 2)), (8, Fraction(3, 2))],
    "ecsm": [(2, 2), (3, 2), (4, Fraction(3, 2)), (5, Fraction(8, 5)),
             (6, Fraction(4, 3)), (7, Fraction(10, 7)), (8, Fraction(5, 4)),
             (9, Fraction(4, 3))],
}
GUARANTEES["md-ecss"] = GUARANTEES["ecss"]
GUARANTEES["md-ecsm"] = GUARANTEES["ecsm"]
# with unit costs ecss15 pays at most min(3/2, 1 + 4/(3k)) times the LP
UNIT_GUARANTEES = dict(GUARANTEES, ecss15=[
    (1, Fraction(3, 2)), (2, Fraction(13, 9)), (3, Fraction(4, 3)),
    (4, Fraction(19, 15)), (5, Fraction(11, 9)), (6, Fraction(25, 21)),
    (7, Fraction(7, 6)), (8, Fraction(31, 27))])


def test_mode_table_matches_paper_guarantees():
    assert set(rounding.MODES) == set(MODE_NAMES)
    mixed = gen("prism-hub-k6").graph  # edge costs 0, 1 and 2
    unit = complete_graph(5)
    for table, graph in ((GUARANTEES, mixed), (UNIT_GUARANTEES, unit)):
        for name, expected in table.items():
            got = [rounding.MODES[name].guarantee(graph, k) for k in range(2, 10)]
            assert got == expected
    assert {name: (m.family, m.min_k) for name, m in rounding.MODES.items()} == {
        "ecss": ("ecss", 2), "ecss15": ("ecss", 2), "ecsm": ("ecsm", 1),
        "md-ecss": ("ecss", 2), "md-ecsm": ("ecsm", 1)}
