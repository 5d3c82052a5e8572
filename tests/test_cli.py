import hashlib
import json
import os
import re
import resource
import subprocess
import sys

import pytest

from ramseykit import EdgeColoring, Graph, build_from_text, certificate, emit_graph6, parse_graph6
from ramseykit import cli, randomgraphs
from ramseykit.cli import build_parser, main, parse_graph_argument


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_arrow_k6(capsys):
    doc = run_json(capsys, "arrow", "K6", "K3", "K3")
    assert doc["arrows"] is True
    assert doc["witness"] is None


def test_arrow_k5_witness(capsys):
    doc = run_json(capsys, "arrow", "K5", "K3", "K3")
    assert doc["arrows"] is False
    assert len(doc["witness"]) == 10
    assert {w["color"] for w in doc["witness"]} == {"red", "blue"}


def test_arrow_matchings(capsys):
    doc = run_json(capsys, "arrow", "3K2", "2K2", "2K2")
    assert doc["arrows"] is True


def test_unknown_is_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "arrow", "K6", "K3", "K3", "--budget", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "unknown"


def test_minimal_subcommand(capsys):
    assert run_json(capsys, "minimal", "K6", "K3", "K3")["is_minimal"] is True
    assert run_json(capsys, "minimal", "K7", "K3", "K3")["is_minimal"] is False
    assert run_json(capsys, "minimal", "K2", "K2", "K2")["is_minimal"] is True


def test_density_subcommand(capsys):
    doc = run_json(capsys, "density", "K4")
    assert doc["rho"] == "3/2"
    assert doc["m2"] == "5/2"
    doc = run_json(capsys, "density", "C5")
    assert doc["rho"] == "1"
    assert doc["m2"] == "4/3"
    doc = run_json(capsys, "density", "K3", "--pair", "K3")
    assert doc["m2_pair"] == "2"


def test_density_winners_among_the_high_vertices(capsys):
    # 14 vertices: each witness ends in the chunk's high vertices, so its
    # high part is recovered after the accumulator reads
    doc = run_json(capsys, "density", "K4+K10", "--pair", "K3")
    assert (doc["rho"], doc["m2"], doc["m2_pair"]) == ("9/2", "11/2", "90/17")
    assert doc["m2_pair_swapped"] is False
    for key in ("rho_witness", "m2_witness", "m2_pair_witness"):
        assert doc[key] == list(range(4, 14))


def test_density_usage_errors(capsys):
    code, _, err = run_cli(capsys, "density", "30K2")
    assert code == 1
    assert "subset enumeration capped at 24 vertices" in err
    code, _, err = run_cli(capsys, "density", "K3", "--pair", "P4")
    assert code == 1
    assert "contain a cycle" in err


def test_classify_subcommand(capsys):
    assert run_json(capsys, "classify", "S5+S2", "S3+122K2")["rule"] == "R7"
    assert run_json(capsys, "classify", "S3", "S3")["rule"] == "R5"
    doc = run_json(capsys, "classify", "P4", "P4")
    assert doc["verdict"] == "Infinite"
    assert doc["rule"] == "R4"
    assert doc["citations"]


def test_enumerate_subcommand(capsys):
    doc = run_json(capsys, "enumerate", "K2", "K2", "--max-v", "4", "--max-e", "4")
    assert [m["graph6"] for m in doc["members"]] == ["A_"]


def test_enumerate_catalog_at_ten_vertices_twelve_edges(capsys):
    doc = run_json(capsys, "enumerate", "2K2", "2K2", "--max-v", "10", "--max-e", "12")
    got = sorted(certificate(parse_graph6(m["graph6"])) for m in doc["members"])
    assert got == sorted(certificate(build_from_text(x)) for x in ("3K2", "C5"))
    assert doc["completeness"] == "complete within bounds"


def _catalog_doc(pair, max_v, max_e, members):
    return {
        "command": "enumerate",
        "pair": pair,
        "bounds": {"max_vertices": max_v, "max_edges": max_e, "node_budget": 100000000},
        "members": [
            {"graph6": g6, "vertices": n, "edges": m, "edge_witnesses": m} for g6, n, m in members
        ],
        "completeness": "complete within bounds",
        "citations": [],
    }


MATCHING_CATALOGS = [
    (("2K2", "2K2", 8, 10), _catalog_doc(["C`", "C`"], 8, 10, [("E`?G", 6, 3), ("DLo", 5, 5)])),
    (("2K2", "2K2", 10, 12), _catalog_doc(["C`", "C`"], 10, 12, [("E`?G", 6, 3), ("DLo", 5, 5)])),
    (
        ("3K2", "2K2", 9, 11),
        _catalog_doc(["E`?G", "C`"], 9, 11, [("G`?G?C", 8, 4), ("F@Ue?", 7, 7), ("F@Q^?", 7, 8)]),
    ),
]


@pytest.mark.parametrize("question,want", MATCHING_CATALOGS)
def test_matching_catalog_documents_are_pinned(capsys, question, want):
    # the whole document, as the containment pre-filter through the
    # general DFS gave it: the lister-based pre-filter must agree
    G, H, max_v, max_e = question
    assert run_json(capsys, "enumerate", G, H, "--max-v", str(max_v), "--max-e", str(max_e)) == want


# sha256 (first 16 hex digits) of each command's stdout with `elapsed`
# masked, in JSON and in --format text. `density --pair` lists its m2_pair
# keys before `citations`, which ends every document.
GOLDEN = [
    ("arrow K6 K3 K3", "3822a483681b3189", "cb521a061400e274"),
    ("arrow K5 K3 K3", "a464bafe29d78426", "9cd05d4b3754024d"),
    ("arrow K6 K3 K3 --budget 3", "baaccb495f1385cc", "1c971d0eb6a27289"),
    ("arrow K6+K1 K3 K3", "3822a483681b3189", "cb521a061400e274"),
    ("minimal K6 K3 K3", "ed3834297e6294f1", "0373188abc138cdd"),
    ("minimal K7 K3 K3", "985c64cd6cbfa4f0", "69f0d8564f1e9d97"),
    ("minimal C5 2K2 2K2", "57256c4ac9dc6a3e", "4b6270ceeff5a09f"),
    ("density K4", "361fe4c4dcc2d854", "ea626337b54a820f"),
    ("density K3 --pair K3", "45c293ea92d8b5b5", "38473d4af1d94f58"),
    ("classify S5+S2 S3+122K2", "2f0aee8b5b4c702e", "b6b4bacc94cb96e2"),
    ("classify P4 P4", "422860aedd0c9ea3", "2d98ff0338337a2a"),
    ("classify S5+S2+K2 S3+122K2", "380efaf5258132ef", "d123824b82cabbb1"),
    ("enumerate K2 K2 --max-v 4 --max-e 4", "9556cefc79326bd5", "8f27ff0bf18e0cff"),
]


@pytest.mark.parametrize("command,json_sha,text_sha", GOLDEN)
def test_documents_are_pinned(capsys, command, json_sha, text_sha):
    for fmt, want in (("json", json_sha), ("text", text_sha)):
        code, out, err = run_cli(capsys, *command.split(), "--format", fmt)
        assert code == 0, err
        out = re.sub(r'(elapsed"?: )[-+.e0-9]+', r"\1*", out)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want, out


def test_documents_start_with_command_and_end_with_citations(capsys):
    for command, _, _ in GOLDEN:
        argv = command.split()
        keys = list(run_json(capsys, *argv))
        assert (keys[0], keys[-1]) == ("command", "citations"), command
        assert run_json(capsys, *argv)["command"] == argv[0]


def test_failure_while_printing_is_an_internal_error(capsys, monkeypatch):
    def fail(doc):
        raise RuntimeError("cannot encode")

    monkeypatch.setattr(cli, "json", type("Stub", (), {"dumps": staticmethod(fail)}))
    code, out, err = run_cli(capsys, "density", "K4")
    assert (code, out) == (2, "")
    assert "cannot encode" in err


def test_json_output_is_one_line(capsys):
    code, out, _ = run_cli(capsys, "arrow", "K5", "K3", "K3")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out)["arrows"] is False


def test_enumerate_and_threshold_reject_bad_targets(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "enumerate", "K2+K1", "K2", "--max-v", "1", "--max-e", "1")
    assert (code, out) == (1, "")
    assert "isolated" in err
    drawn = []
    monkeypatch.setattr(randomgraphs, "edge_uniforms", lambda *a: drawn.append(a))
    code, out, err = run_cli(capsys, "threshold", "K3+K1", "K3", "--n", "8", "--c", "1", "--samples", "1")
    assert (code, out) == (1, "")
    assert "isolated" in err
    assert drawn == []


def test_threshold_subcommand_and_determinism(capsys):
    args = ["threshold", "K3", "K3", "--n", "7", "--c", "0.3,2.0", "--samples", "20", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "n,c,p,samples,hits,misses,unknowns,estimate,seed"
    assert len(lines) == 3


@pytest.mark.parametrize("c,message", [("1/0", "zero denominator"), ("1e400", "finite float")])
def test_threshold_rejects_c_values_without_a_float(capsys, c, message):
    code, out, err = run_cli(capsys, "threshold", "K3", "K3", "--n", "8", "--c", c, "--samples", "1")
    assert (code, out) == (1, "")
    assert message in err
    assert len(err.strip().splitlines()) == 1


def test_threshold_unwritable_output_is_a_usage_error(capsys, tmp_path):
    for path in (tmp_path / "missing" / "out.csv", tmp_path):
        code, out, err = run_cli(capsys, "threshold", "K3", "K3", "--n", "8", "--c", "1",
                                 "--samples", "1", "--output", str(path))
        assert (code, out) == (1, "")
        assert "cannot write" in err
        assert len(err.strip().splitlines()) == 1


def test_threshold_rejects_acyclic(capsys):
    code, _, err = run_cli(capsys, "threshold", "P4", "K3", "--n", "7", "--c", "1")
    assert code == 1
    assert "cycle" in err


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "arrow", "zz!!", "K3", "K3")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "arrow", "K6")[0] == 1


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    first = run_json(capsys, "arrow", "K5", "K3", "K3")
    second = run_json(capsys, "arrow", "K5", "K3", "K3")
    del first["elapsed"], second["elapsed"]
    assert first == second
    assert run_json(capsys, "density", "C5") == run_json(capsys, "density", "C5")
    # the reused parser still reports a usage error on this call's stderr
    for _ in range(2):
        code, out, err = run_cli(capsys, "arrow", "K6")
        assert (code, out) == (1, "")
        assert err.startswith("usage: ramseykit arrow")
        assert "the following arguments are required: G, H" in err


def test_graph6_and_expression_inputs_agree(capsys):
    # E~~w is canonical K6
    doc_a = run_json(capsys, "arrow", "E~~w", "K3", "K3")
    doc_b = run_json(capsys, "arrow", "K6", "K3", "K3")
    assert doc_a["arrows"] == doc_b["arrows"] is True


def test_file_input(tmp_path, capsys):
    path = tmp_path / "graph.g6"
    path.write_text("E~~w\n")
    doc = run_json(capsys, "arrow", str(path), "K3", "K3")
    assert doc["arrows"] is True


def test_file_input_reads_an_expression_and_no_further_path(tmp_path, monkeypatch, capsys):
    (tmp_path / "cycle").write_text("C5\n")
    (tmp_path / "loop").write_text("loop\n")  # names itself
    (tmp_path / "chain").write_text("cycle\n")
    monkeypatch.chdir(tmp_path)
    assert run_json(capsys, "arrow", "cycle", "2K2", "2K2")["arrows"] is True
    for path in ("loop", "chain"):
        code, out, err = run_cli(capsys, "arrow", path, "K3", "K3")
        assert code == 1, err
        assert out == ""
        assert "cannot read graph argument" in err


def test_parse_graph_argument_prefers_expressions():
    g = parse_graph_argument("C5")
    assert (g.n, g.edge_count) == (5, 5)


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "classify", "S3", "S3", "--format", "text")
    assert code == 0
    assert "verdict: Finite" in out


def _k32_32_graph6():
    return emit_graph6(Graph.from_edges(64, [(u, v) for u in range(32) for v in range(32, 64)]))


def test_arrow_and_minimal_on_k32_32(capsys):
    # 1024 edges: the search depth must not follow the edge count
    host = _k32_32_graph6()
    doc = run_json(capsys, "arrow", host, "K3", "K3")
    assert doc["arrows"] is False
    F = parse_graph6(host)
    coloring = EdgeColoring(F, {tuple(w["edge"]): w["color"] for w in doc["witness"]})
    assert coloring.is_good(build_from_text("K3"), build_from_text("K3"))
    doc = run_json(capsys, "minimal", host, "K3", "K3")
    assert doc["is_ramsey"] is False
    assert doc["is_minimal"] is False


def test_nonpositive_budget_is_a_usage_error(capsys):
    for budget in ("0", "-5"):
        code, out, err = run_cli(capsys, "arrow", "K6", "K3", "K3", "--budget", budget)
        assert code == 1
        assert out == ""
        assert "budget" in err


def test_host_over_vertex_cap_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "arrow", "40K2", "K2", "K2")
    assert code == 1
    assert out == ""
    assert "cap" in err


def test_threads_flag_is_gone(capsys):
    assert run_cli(capsys, "arrow", "K6", "K3", "K3", "--threads", "2")[0] == 1


def test_unread_flags_are_gone(capsys):
    assert run_cli(capsys, "density", "K4", "--budget", "1")[0] == 1
    assert run_cli(capsys, "classify", "S3", "S3", "--budget", "1")[0] == 1
    threshold = ["threshold", "K3", "K3", "--n", "7", "--c", "1", "--samples", "2"]
    assert run_cli(capsys, *threshold, "--format", "text")[0] == 1
    assert run_cli(capsys, *threshold, "--budget", "10")[0] == 0


def test_minimal_with_a_proven_deletion_is_false_under_budget(capsys):
    # the K5-edge deletions still arrow within the budget, the K6-edge
    # witness searches do not finish: one proof settles is_minimal
    doc = run_json(capsys, "minimal", "K6+2K5", "K3", "K3", "--budget", "60")
    assert doc["is_ramsey"] is True
    assert doc["is_minimal"] is False
    assert all(item["good_coloring"] is None for item in doc["per_edge"])
    verdicts = [item["verdict"] for item in doc["per_edge"]]
    assert verdicts.count("arrows") == 20
    assert verdicts.count("unknown") == 15


def _limit_memory():
    # an input that is built before its size is checked fails here, not the machine
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def run_python(*argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=60, preexec_fn=_limit_memory)


def run_module(*argv):
    return run_python("-m", "ramseykit", *argv)


def test_python_m_ramseykit_runs_the_cli():
    proc = run_module("arrow", "K6", "K3", "K3")
    assert proc.returncode == 0, proc.stderr
    assert '"arrows": true' in proc.stdout


def _c65_graph6():
    return emit_graph6(build_from_text("C65"))


def test_input_checks_through_python_m():
    # (argv, exit code, text expected in stdout or stderr, text not expected)
    cases = [
        (["arrow", "K2+K1", "K2+K1", "K2+K1"], 1, "isolated", None),
        (["classify", "100000000K2", "S3"], 1, "1024", "graph6"),
        (["classify", "2000K2", "S3"], 1, "1024", "graph6"),
        (["classify", "2000S3", "S3"], 1, "1024", "graph6"),
        (["classify", "S0", "S3"], 1, "r >= 1", "graph6"),
        (["classify", _c65_graph6(), "S3"], 0, '"verdict": "Infinite"', None),
        (["arrow", _c65_graph6(), "K3", "K3"], 1, "cap 64", None),
        (["classify", "S5+S2", "S3+122K2"], 0, '"rule": "R7"', None),
    ]
    for argv, code, want, unwanted in cases:
        proc = run_module(*argv)
        assert proc.returncode == code, (argv, proc.stderr)
        assert want in proc.stdout + proc.stderr, argv
        if unwanted is not None:
            assert unwanted not in proc.stderr, argv


def test_oversized_expression_fails_at_once():
    # timed in the child, so interpreter start-up does not count
    proc = run_python("-c", "import sys, time; from ramseykit.cli import main; t = time.perf_counter(); "
                      "code = main(['classify', '100000000K2', 'S3']); print(time.perf_counter() - t); "
                      "sys.exit(code)")
    assert proc.returncode == 1, proc.stderr
    assert float(proc.stdout) < 1
    assert "1024" in proc.stderr


def test_witnesses_use_the_input_labels(capsys):
    K3, M2 = build_from_text("K3"), build_from_text("2K2")
    F = build_from_text("K1+K3")
    doc = run_json(capsys, "arrow", "K1+K3", "K3", "K3")
    assert doc["arrows"] is False
    coloring = EdgeColoring(F, {tuple(w["edge"]): w["color"] for w in doc["witness"]})
    assert set(coloring.assignment) <= set(F.edges())
    assert coloring.is_good(K3, K3)

    # an isolated vertex between two components: the second K3 keeps labels 4-6
    F = build_from_text("K3+K1+K3")
    doc = run_json(capsys, "arrow", "K3+K1+K3", "K3", "K3")
    assert doc["arrows"] is False
    coloring = EdgeColoring(F, {tuple(w["edge"]): w["color"] for w in doc["witness"]})
    assert set(coloring.assignment) == set(F.edges())
    assert coloring.is_good(K3, K3)

    F = build_from_text("K1+C5")
    doc = run_json(capsys, "minimal", "K1+C5", "2K2", "2K2")
    assert doc["is_minimal"] is True
    assert {tuple(item["edge"]) for item in doc["per_edge"]} == set(F.edges())
    for item in doc["per_edge"]:
        host = F.delete_edge(*item["edge"])
        coloring = EdgeColoring(host, {tuple(w["edge"]): w["color"] for w in item["good_coloring"]})
        assert set(coloring.assignment) <= set(F.edges())
        assert coloring.is_good(M2, M2)
