import csv
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kecss import instances, lp
from kecss.cli import main
from kecss.graphs import edge_connectivity, make_graph
from kecss.instances import (MAX_EDGES, MAX_K, MAX_VALUE, MAX_VERTICES,
                             Instance, ParseError, emit_instance, gen,
                             parse_instance)
from kecss.rounding import MODES, Mode
from test_golden import FEASIBLE, INSTANCES, MODE_NAMES, MODES_OF


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "kecss.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_minimal():
    inst = parse_instance("p kecss 2 1 4\ne 1 2 1\n")
    assert inst.graph.n == 2 and inst.graph.m == 1 and inst.k == 4
    assert inst.bounds is None


def test_parse_comments_and_bounds():
    text = "# header\np kecss 3 3 2\ne 1 2 5\ne 2 3 5\ne 1 3 5\nd 1 0 2\n"
    inst = parse_instance(text)
    assert inst.bounds == {1: (0, 2)}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("p kecss 5 1 4\ne 1 1 5\n")
    assert err.value.line_no == 2  # self-loop

    with pytest.raises(ParseError) as err:
        parse_instance("p kecss 3 1 2\ne 1 2 1\nd 1 3 2\n")
    assert err.value.line_no == 3  # lower above upper

    with pytest.raises(ParseError) as err:
        parse_instance("p kecss 3 1 2\ne 1 2 1\nd 1 0 2\nd 1 0 2\n")
    assert err.value.line_no == 4  # duplicate degree line

    with pytest.raises(ParseError):
        parse_instance("e 1 2 1\n")  # edge before problem line

    with pytest.raises(ParseError):
        parse_instance("p kecss 2 2 4\ne 1 2 1\n")  # edge count mismatch


def test_parse_rejects_edge_lines_beyond_header_count():
    # the edge list never outgrows the header: the extra line is named
    with pytest.raises(ParseError) as err:
        parse_instance("p kecss 3 1 2\ne 1 2 1\ne 2 3 1\n")
    assert err.value.line_no == 3


def _limit_error(text):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    return str(err.value)


def test_parse_vertex_limit():
    parse_instance(f"p kecss {MAX_VERTICES} 0 4\n")
    assert "MAX_VERTICES" in _limit_error(f"p kecss {MAX_VERTICES + 1} 0 4\n")
    assert "MAX_VERTICES" in _limit_error("p kecss 1000000000 0 4\n")


def test_parse_edge_limit():
    # the header alone trips the limit, before any edge line is read
    assert "MAX_EDGES" in _limit_error(f"p kecss 2 {MAX_EDGES + 1} 4\n")


def test_parse_k_limit():
    parse_instance(f"p kecss 2 1 {MAX_K}\ne 1 2 1\n")
    assert "MAX_K" in _limit_error(f"p kecss 2 1 {MAX_K + 1}\ne 1 2 1\n")


def test_parse_cost_limit():
    parse_instance(f"p kecss 2 1 4\ne 1 2 {MAX_VALUE}\n")
    assert "MAX_VALUE" in _limit_error(f"p kecss 2 1 4\ne 1 2 {MAX_VALUE + 1}\n")


def test_parse_degree_bound_limit():
    parse_instance(f"p kecss 2 1 4\ne 1 2 1\nd 1 0 {MAX_VALUE}\n")
    assert "MAX_VALUE" in _limit_error(
        f"p kecss 2 1 4\ne 1 2 1\nd 1 0 {MAX_VALUE + 1}\n")


def test_cli_run_rejects_oversized_header(tmp_path: Path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("p kecss 1000000000 0 4\n")
    assert main(["run", "--mode", "ecss", "--input", str(big)]) == 2
    assert "MAX_VERTICES" in capsys.readouterr().err


def test_roundtrip_byte_identity():
    inst = gen("random", seed=7, n=8, p=0.6, k=4)
    text = emit_instance(inst)
    again = emit_instance(parse_instance(text))
    assert text == again
    with_bounds = Instance(inst.graph, inst.k, {1: (0, 3), 4: (1, 5)})
    text = emit_instance(with_bounds)
    assert emit_instance(parse_instance(text)) == text


def test_emit_rejects_fractional_cost():
    inst = Instance(make_graph(2, [(1, 2, Fraction(3, 2))]), 2)
    with pytest.raises(ValueError):
        emit_instance(inst)


def test_gen_determinism():
    a = emit_instance(gen("random", seed=7, n=8, p=0.6))
    b = emit_instance(gen("random", seed=7, n=8, p=0.6))
    assert a == b
    c = emit_instance(gen("random", seed=8, n=8, p=0.6))
    assert a != c


def test_gen_complete_and_cycle():
    k5 = gen("complete", n=5, cost=1, k=4)
    assert k5.graph.m == 10 and all(e.cost == 1 for e in k5.graph.edges)
    c6 = gen("cycle", n=6, cost=2, k=2)
    assert c6.graph.m == 6


def test_gen_fixtures():
    p3 = gen("prism-k3")
    assert p3.graph.n == 6 and p3.graph.m == 12 and p3.k == 3
    hub = gen("prism-hub-k6")
    assert hub.graph.n == 10 and hub.graph.m == 36 and hub.k == 6
    with pytest.raises(ValueError):
        gen("unknown-kind")


PRISM_HUB_G3_SHA256 = "7c8ab2b46c19613b7ddf13f643406e126768fed0fcf9c03ad1627a299395289a"


def test_gen_prism_hub_gadgets(tmp_path: Path, capsys):
    # G=3, the default, keeps the fixture's bytes from before --gadgets
    for extra in ([], ["--gadgets", "3"]):
        assert main(["gen", "--kind", "prism-hub-k6", *extra]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PRISM_HUB_G3_SHA256
    for bad in ("4", "1", "-3"):
        assert main(["gen", "--kind", "prism-hub-k6", "--gadgets", bad]) == 2
        assert capsys.readouterr().err.count("\n") == 1
    hub = tmp_path / "hub15.txt"
    sol = tmp_path / "sol.json"
    assert main(["gen", "--kind", "prism-hub-k6", "--gadgets", "15", "--out", str(hub)]) == 0
    assert parse_instance(hub.read_text()).graph.n == 46
    assert main(["run", "--mode", "ecss", "--input", str(hub), "--solution", str(sol)]) == 0
    assert Fraction(json.loads(sol.read_text())["lp"]) == Fraction(7 * 15, 2)


@pytest.mark.parametrize("args, limit", [
    (["--kind", "cycle", "--n", str(MAX_VERTICES + 1)], "MAX_VERTICES"),
    (["--kind", "complete", "--n", "700"], "MAX_EDGES"),
    (["--kind", "random", "--n", "3", "--k", "20000"], "MAX_K"),
    (["--kind", "complete", "--n", "4", "--cost", str(MAX_VALUE + 1)], "MAX_VALUE"),
    (["--kind", "random", "--n", "4", "--cost-max", "10000000000000"], "MAX_VALUE"),
    (["--kind", "random", "--n", "3", "--ensure-connectivity", "200000"], "MAX_EDGES"),
])
def test_gen_rejects_what_the_parser_would_refuse(args, limit, capsys):
    assert main(["gen", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and limit in captured.err


@pytest.mark.parametrize("args", [["--p", "7"], ["--p", "-1"], ["--p", "nan"],
                                  ["--p", "1.0001"], ["--ensure-connectivity", "-2"]])
def test_gen_rejects_p_outside_unit_interval_and_negative_connectivity(args, capsys):
    assert main(["gen", "--kind", "random", "--n", "5", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid generator parameters: ")
    assert captured.err.count("\n") == 1


def test_gen_accepts_the_ends_of_the_unit_interval():
    assert gen("random", n=4, p=0).graph.m == 1  # the fallback edge
    assert gen("random", n=4, p=1).graph.m == 6
    # connectivity 0 asks for no repair
    assert gen("random", n=4, p=0, ensure_connectivity=0) == gen("random", n=4, p=0)


def test_gen_edge_count_stops_at_max_edges(monkeypatch):
    # the random draw and the connectivity repair both stop at MAX_EDGES
    monkeypatch.setattr(instances, "MAX_EDGES", 40)
    with pytest.raises(ValueError, match="random graph exceeds MAX_EDGES=40"):
        gen("random", n=12, p=0.9)
    with pytest.raises(ValueError, match="connectivity repair reached MAX_EDGES=40"):
        gen("random", n=4, p=0.5, ensure_connectivity=20)


def test_gen_repair_is_fast_at_high_connectivity():
    inst = gen("random", n=3, k=4, ensure_connectivity=5000)
    assert edge_connectivity(inst.graph) >= 5000
    assert emit_instance(parse_instance(emit_instance(inst))) == emit_instance(inst)


def test_gen_connectivity_repair_stays_within_its_budget(monkeypatch, capsys):
    # the degree deficit bounds the repair edges from below: at n=2000 with
    # no random edges, connectivity 3 needs 2999 of them, each after a min
    # cut on 2000 vertices, so gen refuses before running any min cut
    def no_min_cut(*args):
        raise AssertionError("min cut run")

    with monkeypatch.context() as patch:
        patch.setattr(instances, "min_cut", no_min_cut)
        assert main(["gen", "--kind", "random", "--n", "2000", "--p", "0",
                     "--ensure-connectivity", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid generator parameters: connectivity 3 on n=2000 "
                            "needs at least 2999 repair edges, beyond the repair's "
                            "min-cut budget\n")
    # a repair that passes the deficit bound still stops at the budget:
    # n=12 needs 17 edges and so 18 min cuts of at least 12 * 13 work each
    monkeypatch.setattr(instances, "REPAIR_WORK", 17 * 12 * 13)
    with pytest.raises(ValueError, match="ran out of its min-cut budget"):
        gen("random", n=12, p=0, ensure_connectivity=3)


def test_cli_run_solution_and_trace(tmp_path: Path):
    inst_path = tmp_path / "k5.txt"
    sol_path = tmp_path / "k5.sol.json"
    trace_path = tmp_path / "k5.trace.jsonl"
    assert main(["gen", "--kind", "complete", "--n", "5", "--k", "4",
                 "--out", str(inst_path)]) == 0
    assert main(["run", "--mode", "ecss", "--input", str(inst_path),
                 "--solution", str(sol_path), "--trace", str(trace_path)]) == 0
    payload = json.loads(sol_path.read_text())
    assert payload["cost"] == "10/1" and payload["connectivity"] == 4
    assert payload["lp"] == "10/1" and payload["mode"] == "ecss"
    assert len(payload["edges"]) == 10
    lines = trace_path.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) == {"iter", "lp", "picked", "frac_support",
                          "dropped_witnesses", "lazy_rounds", "lp_rows",
                          "basis_size", "small_member",
                          "witness_pairs_checked"}


def test_cli_trace_reports_lp_and_certification_counters(tmp_path: Path):
    # the k=6 hub iterates twice: rungs at 1/2 and triangles at 3/4 first,
    # then a residual LP over the remainders; both iterations certified
    inst_path = tmp_path / "hub.txt"
    trace_path = tmp_path / "hub.trace.jsonl"
    assert main(["gen", "--kind", "prism-hub-k6", "--out", str(inst_path)]) == 0
    assert main(["run", "--mode", "ecss", "--input", str(inst_path),
                 "--solution", str(tmp_path / "hub.sol.json"),
                 "--trace", str(trace_path), "--certify"]) == 0
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert [rec["frac_support"] for rec in records] == [9, 3]
    for rec in records:
        assert rec["basis_size"] == rec["frac_support"]
    # the first LP starts from the ten degree cuts; its first round adds
    # a row for each of the three violated cuts found, and its second
    # finds none.  The residual LP's carried cuts suffice
    first, second = records
    assert (first["lp_rows"], first["lazy_rounds"]) == (13, 2)
    assert second["lazy_rounds"] == 1
    assert [rec["small_member"] for rec in records] == [[2], [2, 3, 4]]
    assert [rec["witness_pairs_checked"] for rec in records] == [36, 3]


def test_cli_exit_codes(tmp_path: Path):
    c5 = tmp_path / "c5.txt"
    main(["gen", "--kind", "cycle", "--n", "5", "--k", "4", "--out", str(c5)])
    assert main(["run", "--mode", "ecss", "--input", str(c5)]) == 1  # infeasible

    bad = tmp_path / "bad.txt"
    bad.write_text("p kecss 2 1 4\ne 1 1 3\n")
    assert main(["run", "--mode", "ecss", "--input", str(bad)]) == 2  # parse

    missing = tmp_path / "missing.txt"
    assert main(["run", "--mode", "ecss", "--input", str(missing)]) == 2


def test_cli_unwritable_output_paths_exit_2(tmp_path: Path, capsys):
    k5 = tmp_path / "k5.txt"
    assert main(["gen", "--kind", "complete", "--n", "5", "--k", "4",
                 "--out", str(k5)]) == 0
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    nowhere = str(tmp_path / "no" / "such" / "dir" / "o.json")
    capsys.readouterr()
    for argv in (["run", "--mode", "ecss", "--input", str(k5), "--solution", nowhere],
                 ["run", "--mode", "ecss", "--input", str(k5), "--trace", nowhere],
                 ["gen", "--kind", "complete", "--n", "5", "--out", nowhere],
                 ["bench", "--dir", str(corpus), "--out", nowhere]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("cannot write output:") and err.count("\n") == 1


def test_cli_bench_dir_not_a_directory_exits_2(tmp_path: Path, capsys):
    k5 = tmp_path / "k5.txt"
    main(["gen", "--kind", "complete", "--n", "5", "--k", "4", "--out", str(k5)])
    out = tmp_path / "bench.csv"
    for bad in (k5, tmp_path / "missing"):
        capsys.readouterr()
        assert main(["bench", "--dir", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"not a directory: {bad}\n"
    assert not out.exists()


def test_cli_certify_tampered_solution(tmp_path: Path):
    inst_path = tmp_path / "k5.txt"
    sol_path = tmp_path / "sol.json"
    main(["gen", "--kind", "complete", "--n", "5", "--k", "4",
          "--out", str(inst_path)])
    main(["run", "--mode", "ecss", "--input", str(inst_path),
          "--solution", str(sol_path)])
    assert main(["run", "--mode", "certify", "--input", str(inst_path),
                 "--solution", str(sol_path)]) == 0
    payload = json.loads(sol_path.read_text())
    payload["edges"] = payload["edges"][:-1]  # drop an edge
    sol_path.write_text(json.dumps(payload))
    assert main(["run", "--mode", "certify", "--input", str(inst_path),
                 "--solution", str(sol_path)]) == 3


def test_cli_determinism(tmp_path: Path):
    inst_path = tmp_path / "r.txt"
    main(["gen", "--kind", "random", "--n", "7", "--k", "4", "--seed", "3",
          "--ensure-connectivity", "4", "--out", str(inst_path)])
    outs = []
    for tag in ("a", "b"):
        sol = tmp_path / f"{tag}.json"
        trace = tmp_path / f"{tag}.jsonl"
        assert main(["run", "--mode", "ecss", "--input", str(inst_path),
                     "--solution", str(sol), "--trace", str(trace)]) == 0
        outs.append((sol.read_bytes(), trace.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_md_modes_with_default_bounds(tmp_path: Path):
    inst_path = tmp_path / "k5.txt"
    sol_path = tmp_path / "md.json"
    main(["gen", "--kind", "complete", "--n", "5", "--k", "4",
          "--out", str(inst_path)])
    assert main(["run", "--mode", "md-ecss", "--input", str(inst_path),
                 "--solution", str(sol_path)]) == 0
    payload = json.loads(sol_path.read_text())
    assert payload["connectivity"] >= 2


def test_cli_ecss15_on_c22_is_2_connected(tmp_path: Path):
    # n=22 is past every exhaustive routine's limit; separation runs at any n
    inst_path = tmp_path / "c22.txt"
    main(["gen", "--kind", "cycle", "--n", "22", "--k", "2",
          "--out", str(inst_path)])
    code, out, _ = run_cli("run", "--mode", "ecss15", "--input", str(inst_path))
    assert code == 0 and json.loads(out)["connectivity"] == 2


def test_cli_run_has_no_exhaustive_separation_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "--exact-sep" not in usage and "oracle" not in usage
    # the solvers take no seed: only the generator draws random numbers
    for command, has_seed in (("run", False), ("bench", False), ("gen", True)):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert ("--seed" in capsys.readouterr().out) == has_seed


def test_cli_max_iters_abort(tmp_path: Path, capsys):
    inst_path = tmp_path / "k5.txt"
    main(["gen", "--kind", "complete", "--n", "5", "--k", "4",
          "--out", str(inst_path)])
    capsys.readouterr()
    # an iteration-cap abort is an internal stop, not an infeasible input
    assert main(["run", "--mode", "ecss", "--input", str(inst_path),
                 "--max-iters", "0"]) == 5
    first, *dump = capsys.readouterr().err.splitlines()
    assert first == "aborted: rounding exceeded 0 iterations; state: |H|=0, working=10"
    # the reproducer: the instance, then the (zero, as no LP ran) point
    graph = parse_instance(inst_path.read_text()).graph
    again = parse_instance("\n".join(dump[:-1]))
    assert again.k == 4 and again.graph.n == graph.n
    assert ([(e.u, e.v, e.cost) for e in again.graph.edges]
            == [(e.u, e.v, e.cost) for e in graph.edges])
    assert json.loads(dump[-1]) == {"picked": {}, "point": {}, "threshold": 3}


@pytest.mark.parametrize("mode, first", [("ecss", "simplex pivot limit exceeded"),
                                         ("ecsm", "dual simplex pivot limit exceeded")])
def test_cli_pivot_limit_abort_carries_a_dump(tmp_path: Path, capsys, monkeypatch,
                                              mode, first):
    # ecss stops in its first residual LP, ecsm in its first multigraph
    # LP: neither has recorded a point, so the dump's point is zero
    inst_path = tmp_path / "hub.txt"
    inst_path.write_text(emit_instance(gen("prism-hub-k6")))
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 2)
    assert main(["run", "--mode", mode, "--input", str(inst_path)]) == 5
    head, *dump = capsys.readouterr().err.splitlines()
    assert head == f"aborted: {first}"
    graph = parse_instance(inst_path.read_text()).graph
    again = parse_instance("\n".join(dump[:-1]))
    assert ([(e.u, e.v, e.cost) for e in again.graph.edges]
            == [(e.u, e.v, e.cost) for e in graph.edges])
    assert json.loads(dump[-1]) == {"picked": {}, "point": {}, "threshold": 3}


def test_cli_k2_warning_is_one_line(tmp_path: Path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    inst_path = corpus / "random.txt"
    inst_path.write_text(emit_instance(gen("random", seed=0, n=6, k=3)))
    code, out, err = run_cli("run", "--mode", "ecss", "--input", str(inst_path))
    assert code == 0 and json.loads(out)["edges"] == []
    assert err == "warning: k=2: returning the empty subgraph\n"
    code, _, err = run_cli("bench", "--dir", str(corpus), "--out", str(tmp_path / "b.csv"))
    assert code == 0 and err == "warning: k=2: returning the empty subgraph\n"


def test_cli_negative_max_iters_exits_2(tmp_path: Path):
    inst_path = tmp_path / "hub.txt"
    main(["gen", "--kind", "prism-hub-k6", "--out", str(inst_path)])
    code, out, err = run_cli("run", "--mode", "ecss", "--input", str(inst_path),
                             "--max-iters", "-1")
    assert code == 2 and out == "" and _one_line_error(err)
    assert "--max-iters" in err


def test_cli_bench(tmp_path: Path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    main(["gen", "--kind", "complete", "--n", "5", "--k", "4",
          "--out", str(corpus / "k5.txt")])
    main(["gen", "--kind", "cycle", "--n", "5", "--k", "4",
          "--out", str(corpus / "c5.txt")])
    out = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(corpus), "--out", str(out),
                 "--modes", "ecss,ecss15,ecsm"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance,mode")
    assert len(lines) == 7  # header + 2 instances x 3 modes
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] in ("ok", "infeasible")
        if fields[-1] == "ok":
            assert fields[9] == "true"  # within the mode's exact bound


def test_cli_bench_md_modes_with_bounds(tmp_path: Path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    text = "p kecss 5 10 4\n"
    for u in range(1, 6):
        for v in range(u + 1, 6):
            text += f"e {u} {v} 1\n"
    for v in range(1, 6):
        text += f"d {v} 2 4\n"
    (corpus / "k5b.txt").write_text(text)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(corpus), "--out", str(out),
                 "--modes", "md-ecss,md-ecsm"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == "ok" and fields[9] == "true"


def test_cli_entrypoint_subprocess(tmp_path: Path):
    inst_path = tmp_path / "k5.txt"
    code, out, err = run_cli("gen", "--kind", "complete", "--n", "5",
                             "--k", "4", "--out", str(inst_path))
    assert code == 0
    code, out, err = run_cli("run", "--mode", "ecss", "--input", str(inst_path))
    assert code == 0
    assert json.loads(out)["cost"] == "10/1"


def _one_line_error(err: str) -> bool:
    return "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_cli_run_k_below_mode_minimum_exits_2(tmp_path: Path):
    inst_path = tmp_path / "k5-k1.txt"
    inst_path.write_text(emit_instance(gen("complete", n=5, k=1)))
    code, out, err = run_cli("run", "--mode", "ecss", "--input", str(inst_path))
    assert code == 2 and out == "" and _one_line_error(err)
    assert "k >= 2" in err
    # ecsm takes k=1
    code, out, _ = run_cli("run", "--mode", "ecsm", "--input", str(inst_path))
    assert code == 0 and json.loads(out)["connectivity"] >= 1
    for bad_k in ("0", str(MAX_K + 1)):
        code, out, err = run_cli("run", "--mode", "ecsm", "--input", str(inst_path),
                                 "--k", bad_k)
        assert code == 2 and out == "" and _one_line_error(err)


def test_cli_run_undecodable_input_exits_2(tmp_path: Path):
    inst_path = tmp_path / "latin1.txt"
    inst_path.write_bytes(b"# caf\xe9\np kecss 2 1 4\ne 1 2 1\n")
    code, out, err = run_cli("run", "--mode", "ecss", "--input", str(inst_path))
    assert code == 2 and out == "" and _one_line_error(err)


def test_cli_bench_records_bad_k_and_undecodable_files(tmp_path: Path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a-k1.txt").write_text(emit_instance(gen("complete", n=5, k=1)))
    (corpus / "b-latin1.txt").write_bytes(b"# caf\xe9\np kecss 2 1 4\ne 1 2 1\n")
    (corpus / "c-k4.txt").write_text(emit_instance(gen("complete", n=5, k=4)))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(corpus), "--out", str(out),
                 "--modes", "ecss,ecsm"]) == 0
    status = {tuple(line.split(",")[:2]): line.split(",")[-1]
              for line in out.read_text().splitlines()[1:]}
    assert status[("a-k1.txt", "ecss")] == "invalid-k: needs k >= 2"
    assert status[("a-k1.txt", "ecsm")] == "ok"
    assert status[("b-latin1.txt", "ecss")].startswith("parse-error: ")
    assert status[("b-latin1.txt", "ecsm")].startswith("parse-error: ")
    assert status[("c-k4.txt", "ecss")] == status[("c-k4.txt", "ecsm")] == "ok"


def test_cli_run_one_vertex_instance_exits_2(tmp_path: Path, capsys):
    inst_path = tmp_path / "one.txt"
    inst_path.write_text("p kecss 1 0 2\n")
    for mode in MODES:
        assert main(["run", "--mode", mode, "--input", str(inst_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line_error(captured.err)
        assert "at least 2 vertices" in captured.err


def test_cli_bench_records_one_vertex_instance(tmp_path: Path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a-one.txt").write_text("p kecss 1 0 2\n")
    (corpus / "b-k4.txt").write_text(emit_instance(gen("complete", n=5, k=4)))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(corpus), "--out", str(out),
                 "--modes", "ecss,ecsm"]) == 0
    status = {tuple(line.split(",")[:2]): line.split(",")[-1]
              for line in out.read_text().splitlines()[1:]}
    assert status[("a-one.txt", "ecss")] == "invalid-n: needs at least 2 vertices"
    assert status[("a-one.txt", "ecsm")] == "invalid-n: needs at least 2 vertices"
    assert status[("b-k4.txt", "ecss")] == status[("b-k4.txt", "ecsm")] == "ok"


def test_cli_bench_quotes_status_text_with_commas(tmp_path: Path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    text = "p kecss 2 2 4\ne 1 2 1\n"
    (corpus / "short.txt").write_text(text)
    (corpus / "k5.txt").write_text(emit_instance(gen("complete", n=5, k=4)))
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "," in str(err.value)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(corpus), "--out", str(out),
                 "--modes", "ecss,ecsm"]) == 0
    with out.open(newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 5 and all(len(row) == 14 for row in rows)
    status = {tuple(row[:2]): row[-1] for row in rows[1:]}
    assert status[("short.txt", "ecss")] == f"parse-error: {err.value}"
    assert status[("k5.txt", "ecsm")] == "ok"


def test_cli_bench_records_an_internal_fault_and_keeps_going(tmp_path: Path,
                                                             monkeypatch):
    # a fault that `kecss run` exits 5 on is the row's status, not a traceback
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "hub.txt").write_text(emit_instance(gen("prism-hub-k6")))
    out = tmp_path / "bench.csv"
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 2)
    assert main(["bench", "--dir", str(corpus), "--out", str(out),
                 "--modes", "ecss,ecsm"]) == 0
    with out.open(newline="") as f:
        rows = list(csv.reader(f))
    assert [row[:5] for row in rows[1:]] == [["hub.txt", mode, "10", "36", "6"]
                                             for mode in ("ecss", "ecsm")]
    assert [row[-1] for row in rows[1:]] == ["aborted: simplex pivot limit exceeded",
                                             "aborted: dual simplex pivot limit exceeded"]
    assert all(row[5:-1] == [""] * 8 for row in rows[1:])


def test_cli_certify_rejects_malformed_solution(tmp_path: Path):
    inst_path = tmp_path / "k5.txt"
    sol_path = tmp_path / "sol.json"
    inst_path.write_text(emit_instance(gen("complete", n=5, k=4)))
    assert main(["run", "--mode", "ecsm", "--input", str(inst_path),
                 "--solution", str(sol_path)]) == 0
    payload = json.loads(sol_path.read_text())
    # the mode takes no such k, or there is no such mode
    for mode, k in (("ecsm", 0), ("ecss", 1), ("steiner", 4)):
        sol_path.write_text(json.dumps(dict(payload, mode=mode, k=k)))
        code, out, err = run_cli("run", "--mode", "certify", "--input", str(inst_path),
                                 "--solution", str(sol_path))
        assert code == 2 and _one_line_error(err)
    # an edge the instance does not have, or a negative multiplicity
    for rec in ({"id": 10, "mult": 1}, {"id": 0, "mult": -1}):
        sol_path.write_text(json.dumps(dict(payload, edges=payload["edges"] + [rec])))
        code, out, err = run_cli("run", "--mode", "certify", "--input", str(inst_path),
                                 "--solution", str(sol_path))
        assert code == 2 and _one_line_error(err)


def test_cli_certify_rejects_duplicate_edge_ids(tmp_path: Path, capsys):
    # a later entry for an edge id used to overwrite an earlier one: edge
    # 0 listed twice at mult 1 certified, and a second entry at mult 0
    # was checked as if edge 0 were left out
    inst_path = tmp_path / "prism.txt"
    sol_path = tmp_path / "sol.json"
    inst_path.write_text(emit_instance(gen("prism-k3")))
    assert main(["run", "--mode", "ecss", "--k", "4", "--input", str(inst_path),
                 "--solution", str(sol_path)]) == 0
    payload = json.loads(sol_path.read_text())
    assert {"id": 0, "mult": 1} in payload["edges"]
    for i, extra in enumerate(({"id": 0, "mult": 1}, {"id": 0, "mult": 0})):
        dup_path = tmp_path / f"dup{i}.json"
        dup_path.write_text(json.dumps(dict(payload, edges=payload["edges"] + [extra])))
        capsys.readouterr()
        assert main(["run", "--mode", "certify", "--input", str(inst_path),
                     "--solution", str(dup_path)]) == 2
        err = capsys.readouterr().err
        assert err == "parse error in solution file: an edge id is listed twice\n"


_SOLUTION = {"mode": "ecsm", "k": 4, "cost": "10/1", "lp": "10/1",
             "connectivity": 4, "edges": [{"id": 0, "mult": 1}]}


@pytest.mark.parametrize("payload", [
    dict(_SOLUTION, cost="1/0"),
    [_SOLUTION],
    dict(_SOLUTION, edges=5),
    dict(_SOLUTION, k=float("inf")),
], ids=["zero-denominator", "top-level-array", "edges-not-a-list", "infinite-k"])
def test_cli_certify_rejects_unreadable_solution_values(tmp_path: Path, capsys,
                                                        payload):
    inst_path = tmp_path / "k5.txt"
    sol_path = tmp_path / "sol.json"
    inst_path.write_text(emit_instance(gen("complete", n=5, k=4)))
    sol_path.write_text(json.dumps(payload))
    assert main(["run", "--mode", "certify", "--input", str(inst_path),
                 "--solution", str(sol_path)]) == 2
    err = capsys.readouterr().err
    assert _one_line_error(err) and err.startswith("parse error in solution file")


@pytest.mark.parametrize("field, edit", [
    ("k", lambda p: p["k"] + 0.9),
    ("connectivity", lambda p: p["connectivity"] + 0.7),
    ("id", lambda p: float(p["edges"][0]["id"])),
    ("mult", lambda p: p["edges"][0]["mult"] + 0.5),
    ("mult", lambda p: str(p["edges"][0]["mult"])),
    ("k", lambda p: True),
    ("lp", lambda p: 10.0),
    ("cost", lambda p: True),
], ids=["k-float", "connectivity-float", "id-float", "mult-float", "mult-string",
        "k-bool", "lp-float", "cost-bool"])
def test_cli_certify_rejects_non_integer_fields(tmp_path: Path, capsys, field, edit):
    # int() would read each edited value as an integer (4.9 as 4, "3" as
    # 3, true as 1) and certify the file; only JSON integers are accepted.
    # Fraction() would read the LP value 10.0 as 10 and certify the file,
    # or true as 1; `lp` and `cost` are accepted only as "p/q" strings
    inst_path = tmp_path / "k5.txt"
    sol_path = tmp_path / "sol.json"
    inst_path.write_text(emit_instance(gen("complete", n=5, k=4)))
    certify = ["run", "--mode", "certify", "--input", str(inst_path),
               "--solution", str(sol_path)]
    assert main(["run", "--mode", "ecsm", "--input", str(inst_path),
                 "--solution", str(sol_path)]) == 0
    payload = json.loads(sol_path.read_text())
    assert main(certify) == 0
    capsys.readouterr()
    if field in payload:
        payload[field] = edit(payload)
    else:
        payload["edges"][0][field] = edit(payload)
    sol_path.write_text(json.dumps(payload))
    assert main(certify) == 2
    err = capsys.readouterr().err
    assert _one_line_error(err) and err.startswith("parse error in solution file")


def _certify_file(capsys, inst_path: Path, payload: dict, *extra: str):
    """Write `payload` next to the instance and run `kecss run --mode
    certify` on it: (exit code, stdout, stderr lines)."""
    sol_path = inst_path.with_suffix(".certify.json")
    sol_path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["run", "--mode", "certify", "--input", str(inst_path),
                 "--solution", str(sol_path), *extra])
    out, err = capsys.readouterr()
    return code, out, err.splitlines()


def _solution(tmp_path: Path, inst_path: Path, mode: str) -> dict:
    sol_path = tmp_path / f"{mode}.json"
    assert main(["run", "--mode", mode, "--input", str(inst_path),
                 "--solution", str(sol_path)]) == 0
    return json.loads(sol_path.read_text())


@pytest.fixture
def hub_g3(tmp_path: Path) -> Path:
    inst_path = tmp_path / "hub.txt"  # LP 21/2
    inst_path.write_text(emit_instance(gen("prism-hub-k6", gadgets=3)))
    return inst_path


def test_cli_certify_refuses_hand_made_files(tmp_path: Path, capsys, hub_g3):
    # each file used to print `certified ok` (or, relabelled md-ecss,
    # exit 2 as no family of that name); each failure is one line
    ecss = _solution(tmp_path, hub_g3, "ecss")
    graph = parse_instance(hub_g3.read_text()).graph
    every_edge = dict(ecss, cost="15/1", lp="1000000", connectivity=7,
                      edges=[{"id": e, "mult": 1} for e in range(graph.m)])
    assert graph.cost_of(dict.fromkeys(range(graph.m), 1)) == 15
    assert _certify_file(capsys, hub_g3, every_edge) == (3, "", [
        "certify: recomputed lp 21/2 != claimed 1000000",
        "certify: cost 15 exceeds bound 21/2"])
    # the ecss15 solution, ratio 8/7, under the ecss label: no ecss run
    # pays more than its LP
    ecss15 = _solution(tmp_path, hub_g3, "ecss15")
    assert (ecss15["mode"], ecss15["cost"], ecss15["lp"]) == ("ecss15", "12/1", "21/2")
    assert _certify_file(capsys, hub_g3, dict(ecss15, mode="ecss")) == (3, "", [
        "certify: cost 12 exceeds bound 21/2"])
    # K6 at k=4 with every degree window [0, 2]: md-ecss has no solution
    # there, so an ecss file relabelled md-ecss claims one that is not
    k6 = tmp_path / "k6.txt"
    k6.write_text(emit_instance(gen("complete", n=6, k=4))
                  + "".join(f"d {v} 0 2\n" for v in range(1, 7)))
    relabelled = dict(_solution(tmp_path, k6, "ecss"), mode="md-ecss")
    code, out, err = _certify_file(capsys, k6, relabelled)
    assert (code, out, len(err)) == (3, "", 1)
    assert err[0].startswith("certify: no md-ecss solution at k=4: ")


def test_cli_certify_accepts_ecss15_under_its_own_mode(tmp_path: Path, capsys, hub_g3):
    ecss15 = _solution(tmp_path, hub_g3, "ecss15")
    assert (ecss15["mode"], ecss15["cost"], ecss15["lp"]) == ("ecss15", "12/1", "21/2")
    assert _certify_file(capsys, hub_g3, ecss15) == (0, "certified ok\n", [])


def test_cli_certify_writes_the_trace_of_its_run(tmp_path: Path, capsys, hub_g3):
    # --trace in certify mode gets the trace of the re-run of the file's
    # mode, the file `run --trace` writes; an unwritable path exits 2
    ecss15 = _solution(tmp_path, hub_g3, "ecss15")
    run_trace, certify_trace = tmp_path / "run.jsonl", tmp_path / "certify.jsonl"
    assert main(["run", "--mode", "ecss15", "--input", str(hub_g3),
                 "--solution", str(tmp_path / "again.json"),
                 "--trace", str(run_trace)]) == 0
    assert _certify_file(capsys, hub_g3, ecss15, "--trace", str(certify_trace)) == (
        0, "certified ok\n", [])
    assert certify_trace.read_text() == run_trace.read_text() != ""
    code, out, err = _certify_file(capsys, hub_g3, ecss15,
                                   "--trace", str(tmp_path / "missing" / "t.jsonl"))
    assert (code, out, len(err)) == (2, "", 1)
    assert err[0].startswith("cannot write output: ")


def test_cli_certify_accepts_every_golden_solution(tmp_path: Path, capsys):
    # every solution of the golden instances certifies under the run mode
    # it records; ecss on prism-k3 (k=3) runs at k=2 and warns so again
    results = {}
    for name in FEASIBLE:
        inst_path = tmp_path / f"{name}.txt"
        inst_path.write_text(emit_instance(INSTANCES[name]()))
        for mode in MODES_OF.get(name, MODE_NAMES):
            payload = _solution(tmp_path, inst_path, mode)
            assert payload["mode"] == mode
            results[name, mode] = _certify_file(capsys, inst_path, payload)
    warned = ["warning: k=2: returning the empty subgraph"]
    assert results == {key: (0, "certified ok\n", warned if key == ("prism-k3", "ecss") else [])
                       for key in results}
    assert len(results) == sum(len(MODES_OF.get(name, MODE_NAMES)) for name in FEASIBLE)


def test_cli_certify_rejects_an_unknown_mode(tmp_path: Path, capsys):
    inst_path = tmp_path / "k5.txt"
    inst_path.write_text(emit_instance(gen("complete", n=5, k=4)))
    payload = _solution(tmp_path, inst_path, "ecsm")
    for mode in ("ecsm-core", "steiner", None, ["ecsm"]):
        code, out, err = _certify_file(capsys, inst_path, dict(payload, mode=mode))
        assert (code, out, len(err)) == (2, "", 1)
        assert err[0].startswith("parse error in solution file: ")
    assert _certify_file(capsys, inst_path, dict(payload, mode="steiner"))[2] == [
        "parse error in solution file: unknown mode 'steiner'"]


def test_cli_certify_k_must_match_the_file(tmp_path: Path, capsys):
    # the file's k is what gets checked; a --k other than it is an error
    # rather than ignored
    inst_path = tmp_path / "k5.txt"
    inst_path.write_text(emit_instance(gen("complete", n=5, k=4)))
    payload = _solution(tmp_path, inst_path, "ecss")
    assert _certify_file(capsys, inst_path, payload, "--k", "5") == (2, "", [
        "parse error in solution file: k=4 differs from --k 5"])
    assert _certify_file(capsys, inst_path, payload, "--k", "4") == (0, "certified ok\n", [])


def test_cli_certify_holds_md_ecsm_to_its_degree_window(tmp_path: Path, capsys):
    # K5 at k=4 with every window [0, 4]: md-ecsm allows degrees up to
    # ceil(3/2 * 4) + 2 = 8.  Fifteen edges, vertex 1 at degree 9, are
    # 4-connected at cost 15 = 3/2 * LP, so only the window fails
    inst_path = tmp_path / "k5.txt"
    inst_path.write_text(emit_instance(gen("complete", n=5, k=4))
                         + "".join(f"d {v} 0 4\n" for v in range(1, 6)))
    graph = parse_instance(inst_path.read_text()).graph
    payload = _solution(tmp_path, inst_path, "md-ecsm")
    assert (payload["mode"], payload["lp"]) == ("md-ecsm", "10/1")
    star = {2: 3, 3: 2, 4: 2, 5: 2}
    mult = {e.id: star.get(e.v, 1) if e.u == 1 else 1 for e in graph.edges}
    assert edge_connectivity(graph, mult) == 5
    heavy = dict(payload, cost="15/1", connectivity=5,
                 edges=[{"id": e, "mult": m} for e, m in sorted(mult.items())])
    assert _certify_file(capsys, inst_path, heavy) == (3, "", [
        "certify: degree 9 of vertex 1 outside [-2, 8]"])
    # one unit less on edge 1-2 is inside the window
    mult[0] -= 1
    lighter = dict(heavy, cost="14/1", connectivity=edge_connectivity(graph, mult),
                   edges=[{"id": e, "mult": m} for e, m in sorted(mult.items())])
    assert _certify_file(capsys, inst_path, lighter) == (0, "certified ok\n", [])


def test_cli_certify_holds_subgraph_modes_to_multiplicities_0_1(tmp_path: Path, capsys):
    # K5 at k=4 under ecss15: every edge once costs 10, within 4/3 * LP;
    # edge 0 twice costs 11, still within, but a subgraph has no
    # multiplicity 2
    inst_path = tmp_path / "k5.txt"
    inst_path.write_text(emit_instance(gen("complete", n=5, k=4)))
    graph = parse_instance(inst_path.read_text()).graph
    payload = _solution(tmp_path, inst_path, "ecss15")
    assert (payload["cost"], payload["lp"]) == ("10/1", "10/1")
    mult = {e: 1 for e in range(graph.m)}
    mult[0] = 2
    doubled = dict(payload, cost="11/1", connectivity=edge_connectivity(graph, mult),
                   edges=[{"id": e, "mult": m} for e, m in sorted(mult.items())])
    assert _certify_file(capsys, inst_path, doubled) == (3, "", [
        "certify: edge 0 has multiplicity 2 in subgraph mode"])
    assert _certify_file(capsys, inst_path, dict(doubled, mode="ecsm")) == (
        0, "certified ok\n", [])


def test_a_bare_lp_infeasible_is_an_internal_fault(tmp_path: Path, monkeypatch, capsys):
    # every solver reads its LP's "infeasible" verdict itself, so one that
    # reaches `run` or `bench` unread is a fault: exit 5 and an aborted row
    verdict = "no column can move the slack of row 1 into its bounds"

    def leaked(self, inst, **options):
        raise lp.LpInfeasible(verdict)

    monkeypatch.setattr(Mode, "run", leaked)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "k5.txt").write_text(emit_instance(gen("complete", n=5, k=4)))
    assert main(["run", "--mode", "ecss", "--input", str(corpus / "k5.txt")]) == 5
    assert capsys.readouterr().err == f"aborted: {verdict}\n"
    out = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(corpus), "--out", str(out),
                 "--modes", "ecss,md-ecsm"]) == 0
    with out.open(newline="") as f:
        rows = list(csv.reader(f))
    assert [row[-1] for row in rows[1:]] == [f"aborted: {verdict}"] * 2
