"""Golden outputs: the solution JSON and trace JSONL of every mode, byte
for byte.

Each entry is the sha256 of `solution_json(sol) + trace_jsonl(trace)`
(or of "<exception class>: <message>" when the solver raises) for one
instance, mode and certification setting.  A refactor of the rounding
engine, the mode table or the crossing primitive must leave all of them
unchanged; a change that alters them on purpose re-records the table
and says why the new outputs are correct.
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
        "19833453e779e42068ba77161feed28e1c26186bb5baaa7cd66d3f1f6664161f",
    ("prism-k3", "ecss15", False):
        "d83def1f6aa8901de64844b4a57fc128858c96631aad3f197c8ea50c7db79523",
    ("prism-k3", "ecsm", True):
        "d28fc30ad2eb10af9de38421386d6ce27a918ba6b4fc7afb767c8f8ddc44eccc",
    ("prism-k3", "ecsm", False):
        "d28fc30ad2eb10af9de38421386d6ce27a918ba6b4fc7afb767c8f8ddc44eccc",
    ("prism-k3", "md-ecss", True):
        "cc6cdd2501f4932a08ae764c6e45e4092087b57d01bc83c70c84123664b01a61",
    ("prism-k3", "md-ecss", False):
        "504cf7b3915d72ebf8f02e20262b7874549769c8af5436a460a73679673c2f8e",
    ("prism-k3", "md-ecsm", True):
        "5c66537a60ab336d566f29f210fcf25c1891d2491f3889377f0e1ec42a608121",
    ("prism-k3", "md-ecsm", False):
        "5c66537a60ab336d566f29f210fcf25c1891d2491f3889377f0e1ec42a608121",
    ("prism-hub-k6", "ecss", True):
        "2677bc01f5a08545a72b3e091e44a2cf7c70b9c7e0e243446fa9827aed0e693b",
    ("prism-hub-k6", "ecss", False):
        "2d825fd08338b3610dde0ee8101d18784d5e51d9beed2ada36e5aad932d02be0",
    ("prism-hub-k6", "ecss15", True):
        "2c0c9f4b10674bc7cb5669961c567e8f588699c939609a99d47a4c0a31887d4d",
    ("prism-hub-k6", "ecss15", False):
        "bac827d4768280b34ee1d5e70bd135434c614e1c4a73169bb6daaf3d4da978fe",
    ("prism-hub-k6", "ecsm", True):
        "5c34a584db0e45ea6e686c756d3b1ff3b16a8c608bb46e52587ef134b82bc4ea",
    ("prism-hub-k6", "ecsm", False):
        "5c34a584db0e45ea6e686c756d3b1ff3b16a8c608bb46e52587ef134b82bc4ea",
    ("prism-hub-k6", "md-ecss", True):
        "4cda12c784e9d6df56508d399eaf5cf9e1a29efbf008d55916e82cfcd4ea49a6",
    ("prism-hub-k6", "md-ecss", False):
        "1172b45f17a5435ac23dc7c76cde44348e86ee3922642908621faced63e6e4e3",
    ("prism-hub-k6", "md-ecsm", True):
        "7454e1f1243b0b523d38d495cdd3e6e92fb318082f3822f608931f463907d59b",
    ("prism-hub-k6", "md-ecsm", False):
        "7454e1f1243b0b523d38d495cdd3e6e92fb318082f3822f608931f463907d59b",
    ("k5-k4", "ecss", True):
        "b8a4cc0cee1ea36fca3d901ef07e3a0eea72daa09924bbb1cc3bcec0e2cf1033",
    ("k5-k4", "ecss", False):
        "999b454bcbd2189b6400576919e03972ee3b46a838db418040b82a01913d1a2b",
    ("k5-k4", "ecss15", True):
        "b8a4cc0cee1ea36fca3d901ef07e3a0eea72daa09924bbb1cc3bcec0e2cf1033",
    ("k5-k4", "ecss15", False):
        "999b454bcbd2189b6400576919e03972ee3b46a838db418040b82a01913d1a2b",
    ("k5-k4", "ecsm", True):
        "5eb25d78e7d8c294bf765256a4f6f664d366606c201e3f611ed116c3083d3413",
    ("k5-k4", "ecsm", False):
        "5eb25d78e7d8c294bf765256a4f6f664d366606c201e3f611ed116c3083d3413",
    ("k5-k4", "md-ecss", True):
        "696d8bec7b66b53b700c2283d8632f6177adced89c38894cbe7b56e9e1f448e3",
    ("k5-k4", "md-ecss", False):
        "dbbd913b1c84b180d675ce507a11d84ead2c070bad3d4a407816471031635a8e",
    ("k5-k4", "md-ecsm", True):
        "08deb13cc1a6253e77a8207d5fb4554199aa87cedb84e4011dfee1643f1577e3",
    ("k5-k4", "md-ecsm", False):
        "08deb13cc1a6253e77a8207d5fb4554199aa87cedb84e4011dfee1643f1577e3",
    ("random-s3-n7-k4", "ecss", True):
        "0653c84882f27f6b7cac7bb81ac20b21198b9ccad74e6bb2fc04eff466a510ad",
    ("random-s3-n7-k4", "ecss", False):
        "36bae257163b18b132b92156fc52a60bd196a75b09d50bb75eefc55b6e3c2b32",
    ("random-s3-n7-k4", "ecss15", True):
        "0653c84882f27f6b7cac7bb81ac20b21198b9ccad74e6bb2fc04eff466a510ad",
    ("random-s3-n7-k4", "ecss15", False):
        "36bae257163b18b132b92156fc52a60bd196a75b09d50bb75eefc55b6e3c2b32",
    ("random-s3-n7-k4", "ecsm", True):
        "d254e4636dd529b325c1fa5f46d70b6607df2224f57c1dd1a0f2fe30a4db3837",
    ("random-s3-n7-k4", "ecsm", False):
        "d254e4636dd529b325c1fa5f46d70b6607df2224f57c1dd1a0f2fe30a4db3837",
    ("random-s3-n7-k4", "md-ecss", True):
        "3dfd56bdfd99bb370c0520a606b89e2814050e0478da8bcb2e297f01813c85b5",
    ("random-s3-n7-k4", "md-ecss", False):
        "df393a52e1b6c920416a31cfd92b69b862cd296f6bbec61005ef48d260f7f571",
    ("random-s3-n7-k4", "md-ecsm", True):
        "4c85ee9fc46327bb2119786cbf6f4edaf01446023dc703dfe29c48bb416f09d3",
    ("random-s3-n7-k4", "md-ecsm", False):
        "4c85ee9fc46327bb2119786cbf6f4edaf01446023dc703dfe29c48bb416f09d3",
    ("random-s11-n8-k5", "ecss", True):
        "91fa5bfba90baa34aa38a6fbe44c5cbb5fe28e66a77c3c16f3192baee174faec",
    ("random-s11-n8-k5", "ecss", False):
        "afad8089368a7c16646896f3dc07db4d01aeb77c412b2e2943079b50d30c3019",
    ("random-s11-n8-k5", "ecss15", True):
        "9c0105d0412a27d97da7a5d94e29533e64ca80c0b57e39996483eca099ac1902",
    ("random-s11-n8-k5", "ecss15", False):
        "da2c8f23aa5e814dd458758052610f018d0eaf11a246a0879ade5cab21eebec7",
    ("random-s11-n8-k5", "ecsm", True):
        "61a27e978baa248795a44c2a9657cd8c0b194f88e567f097e6941e7f4e444e45",
    ("random-s11-n8-k5", "ecsm", False):
        "61a27e978baa248795a44c2a9657cd8c0b194f88e567f097e6941e7f4e444e45",
    ("random-s11-n8-k5", "md-ecss", True):
        "3c58daf27dda9da48b8f00b63668ef14503659e49b884eff15d385be6e0bb700",
    ("random-s11-n8-k5", "md-ecss", False):
        "06ef85945b79a07b66ad5410f032e8affc753f5648b14858b9cfcfac28d6e165",
    ("random-s11-n8-k5", "md-ecsm", True):
        "ac6760fabb793fde41f86a20d61215a0a50ca035d671c40ff724e512e22d0dec",
    ("random-s11-n8-k5", "md-ecsm", False):
        "ac6760fabb793fde41f86a20d61215a0a50ca035d671c40ff724e512e22d0dec",
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
