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

from conftest import degree_bounds_for
from kecss import rounding
from kecss.cli import solution_json, trace_jsonl
from kecss.graphs import complete_graph
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
}


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
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_outputs(name):
    inst = INSTANCES[name]()
    got = {(name, mode, cert): _digest(mode, inst, cert)
           for mode in MODE_NAMES for cert in (True, False)}
    want = {key: value for key, value in GOLDEN.items() if key[0] == name}
    assert got == want


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
