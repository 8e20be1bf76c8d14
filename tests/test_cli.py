import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import naive_closure, random_dipath_arcset, reference_is_forcing_arc_set
from zfcubes import (ArcSet, GraphDocument, TwistSpec, arcsets, build_minority_cube,
                     build_twisted, cli, closure, decompose, dumps_json_document,
                     find_chain_twist, from_json_document, graphs, serialize,
                     solve_exact, to_dot, to_json_document, trace_to_arcset)
from zfcubes.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    manifest = json.loads(captured.err.strip().splitlines()[-1])
    return code, captured.out, manifest


def test_build_hypercube_document(capsys):
    code, out, manifest = run_cli(capsys, "build", "hypercube", "-n", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 8
    assert len(doc["edges"]) == 12
    assert manifest["outcome"] == "ok"
    assert manifest["command"] == "build"
    assert manifest["version"]


def test_build_minority_document(capsys):
    code, out, _ = run_cli(capsys, "build", "minority", "-n", "4")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["arcs"]) == 9
    assert doc["bridge_arc"] == ["0110", "0111"]
    assert doc["twisted_edges"] == [["0100", "1011"], ["0101", "1010"]]


def test_build_minority_domain_error_exits_two(capsys):
    code, out, manifest = run_cli(capsys, "build", "minority", "-n", "2")
    assert code == 2
    assert out == ""
    assert manifest["outcome"] == "error"


def test_build_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "build", "minority", "-n", "5")
    _, second, _ = run_cli(capsys, "build", "minority", "-n", "5")
    assert first == second


def test_build_twisted_from_spec(capsys, tmp_path):
    spec = tmp_path / "plan.json"
    spec.write_text(json.dumps(
        {"levels": ["identity", "identity", {"00": "01", "01": "00"}]}))
    code, out, _ = run_cli(capsys, "build", "twisted-from-spec",
                           "--spec-file", str(spec))
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 3
    assert len(doc["twisted_edges"]) == 2


def test_build_twisted_from_bad_spec(capsys, tmp_path):
    spec = tmp_path / "plan.json"
    for text in ('{"levels": [{"0": "1"}]}',       # breaks the bijection
                 '{"levels": [{"": [1]}]}',        # values must be bit strings
                 '{"levels": [{"": {"a": 1}}]}'):
        spec.write_text(text)
        code, _, manifest = run_cli(capsys, "build", "twisted-from-spec",
                                    "--spec-file", str(spec))
        assert code == 2, text
        assert manifest["inputs"]


@pytest.mark.parametrize("table, bad", [
    ({"xx": "01"}, "'xx'"),                # an unknown key
    ({"00": 1}, "1"),                      # a value that is not a string
    ({"00": "0"}, "'0'"),                  # a value that is not a 2-bit string
    ({"00": "01", "11": [1]}, "[1]"),      # a later entry, after a good one
])
def test_bad_spec_table_entry_is_named(capsys, tmp_path, table, bad):
    spec = tmp_path / "plan.json"
    spec.write_text(json.dumps({"levels": ["identity", "identity", table]}))
    code = main(["build", "twisted-from-spec", "--spec-file", str(spec)])
    captured = capsys.readouterr()
    *errors, manifest = captured.err.strip().splitlines()
    assert code == 2 and captured.out == ""
    assert errors == [f"error: levels[2]: {bad} is not a 2-bit string"]
    assert json.loads(manifest)["error_type"] == "DocumentError"


def test_spec_file_past_the_dimension_limit_is_refused_before_building(
        capsys, monkeypatch, tmp_path):
    # 21 levels would build permutations of 2^0 to 2^20 ids, gigabytes by 25
    built = []

    def level_perm(level, entry):
        built.append(level)
        assert level <= graphs.CONSTRUCTION_DIMENSION_LIMIT, "permutation past the limit"
        return list(range(1 << (level - 1)))

    monkeypatch.setattr(cli, "_level_perm", level_perm)
    spec = tmp_path / "plan.json"
    spec.write_text(json.dumps(
        {"levels": ["identity"] * (graphs.CONSTRUCTION_DIMENSION_LIMIT + 1)}))
    code, out, manifest = run_cli(capsys, "build", "twisted-from-spec",
                                  "--spec-file", str(spec))
    assert (code, out, manifest["error_type"]) == (2, "", "ResourceLimitError")
    assert built == []


def test_verify_arcs_on_minority_ten(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "minority", "-n", "10")
    path = tmp_path / "m10.json"
    path.write_text(doc)
    code, out, manifest = run_cli(capsys, "verify", "arcs", "--input", str(path))
    assert code == 0
    assert "639 arcs" in out
    assert "PASS" in out
    assert manifest["inputs"][str(path)]


def test_verify_twist_on_minority_four(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "minority", "-n", "4")
    path = tmp_path / "m4.json"
    path.write_text(doc)
    code, out, _ = run_cli(capsys, "verify", "twist", "--input", str(path))
    assert code == 0
    assert "no chain twist" in out


def test_walk_witness_does_not_depend_on_the_hash_seed(tmp_path):
    rng = random.Random(6)
    g = build_twisted(TwistSpec.random(6, rng))
    arcs = ArcSet(g, random_dipath_arcset(g, rng))
    assert find_chain_twist(arcs, method="walk") is not None
    path = tmp_path / "forest.json"
    path.write_text(dumps_json_document(g, arcs))
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-m", "zfcubes.cli", "verify", "twist", "--input", str(path)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True)
        assert run.returncode == 1, run.stderr
        outs.append(run.stdout)
    assert outs[0].startswith("chain twist: ")
    assert outs[0] == outs[1]


def test_verify_arcs_fails_on_broken_structure(capsys, tmp_path):
    doc = {
        "dimension": 2,
        "vertices": ["00", "01", "10", "11"],
        "edges": [["00", "01"], ["00", "10"], ["01", "11"], ["10", "11"]],
        "arcs": [["01", "00"], ["10", "00"]],  # two arcs into 00
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "arcs", "--input", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_arcs_validates_and_decomposes_once(capsys, monkeypatch, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "minority", "-n", "6")
    path = tmp_path / "m6.json"
    path.write_text(doc)
    calls = {"validate": 0, "decompose": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    validate = counting("validate", arcsets.validate_arcset)
    monkeypatch.setattr(arcsets, "validate_arcset", validate)
    monkeypatch.setattr(cli, "validate_arcset", validate)
    # every decomposition that is computed, not reused, builds one of these
    monkeypatch.setattr(arcsets, "ChainDecomposition",
                        counting("decompose", arcsets.ChainDecomposition))
    code, out, _ = run_cli(capsys, "verify", "arcs", "--input", str(path))
    assert code == 0 and "PASS" in out
    assert calls == {"validate": 1, "decompose": 1}


def test_verify_arcs_prints_every_violation(capsys, tmp_path):
    doc = {
        "vertices": ["00", "01", "10", "11"],
        "edges": [["00", "01"], ["00", "10"], ["01", "11"], ["10", "11"]],
        "arcs": [["00", "11"], ["01", "11"], ["11", "01"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "arcs", "--input", str(path))
    assert code == 1
    assert out == ("violation: arc '00'->'11': '00'-'11' is not an edge of the host\n"
                   "violation: arc '01'->'11': the reverse arc is also present\n"
                   "FAIL: not a valid arc set\n")


def test_a_dot_export_of_faulty_arcs_writes_nothing(capsys, tmp_path):
    # DOT writes an arc as the line of its edge, so it cannot carry these faults
    doc = {
        "vertices": ["00", "01", "10", "11"],
        "edges": [["00", "01"], ["00", "10"], ["01", "11"], ["10", "11"]],
        "arcs": [["00", "11"], ["01", "11"], ["11", "01"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, manifest = run_cli(capsys, "export", "--dot", "--input", str(path))
    assert (code, out, manifest["error_type"]) == (2, "", "ValueError")
    main(["export", "--dot", "--input", str(path)])
    assert capsys.readouterr().err.splitlines()[0] == (
        "error: arc '00'->'11': '00'-'11' is not an edge of the host")
    code, out, _ = run_cli(capsys, "export", "--input", str(path))
    assert code == 0 and json.loads(out)["arcs"] == doc["arcs"]


def test_a_dot_export_of_unreadable_labels_writes_nothing(capsys, tmp_path):
    for label in ('a"b', "a\nb"):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"vertices": [label, "c"], "edges": [[label, "c"]]}))
        code, out, manifest = run_cli(capsys, "export", "--dot", "--input", str(path))
        assert (code, out, manifest["error_type"]) == (2, "", "ValueError"), label
        code, out, _ = run_cli(capsys, "export", "--input", str(path))
        assert code == 0 and json.loads(out)["vertices"] == [label, "c"]


def test_a_reader_that_closes_early_ends_the_run_with_exit_two_and_a_manifest():
    src = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen([sys.executable, "-m", "zfcubes.cli", "build", "minority", "-n", "12"],
                          env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b'{\n  "dimen'  # the document is far longer than a pipe holds
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err
    manifest = json.loads(err.splitlines()[-1])
    assert (manifest["outcome"], manifest["error_type"]) == ("error", "BrokenPipeError")


def test_verify_arcs_reports_a_loop_arc_once(capsys, tmp_path):
    path = tmp_path / "loop.json"
    path.write_text('{"vertices":["0","1"],"edges":[["0","1"]],"arcs":[["1","1"]]}')
    code, out, _ = run_cli(capsys, "verify", "arcs", "--input", str(path))
    assert code == 1
    assert out == ("violation: arc '1'->'1': '1'-'1' is not an edge of the host\n"
                   "FAIL: not a valid arc set\n")


def test_verify_twist_reports_witness(capsys, tmp_path):
    doc = {
        "dimension": None,
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
        "arcs": [["a", "b"], ["c", "d"]],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "twist", "--input", str(path))
    assert code == 1
    assert "chain twist: a b c d" in out


def test_auto_walks_a_dense_host_within_the_vertex_limit(capsys, tmp_path):
    # K10 has 10 vertices but 45 edges; scanning all its cycles takes about 1 s (2 vCPUs)
    labels = [str(i) for i in range(10)]
    path = tmp_path / "k10.json"
    path.write_text(json.dumps({"vertices": labels, "arcs": [["0", "1"]],
                                "edges": [[u, v] for u in labels for v in labels if u < v]}))
    code, out, _ = run_cli(capsys, "verify", "twist", "--input", str(path))
    assert (code, out) == (0, "no chain twist found (method=walk)\n")


def test_verify_set_failure_counts_unforced(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "hypercube", "-n", "3")
    path = tmp_path / "q3.json"
    path.write_text(doc)
    code, out, _ = run_cli(capsys, "verify", "set", "--input", str(path),
                           "--set", "000")
    assert code == 1
    assert "7 unforced" in out
    code, out, _ = run_cli(capsys, "verify", "set", "--input", str(path),
                           "--set", "000,010,001,011")
    assert code == 0
    assert "PASS" in out


def test_verify_set_alias(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "hypercube", "-n", "2")
    path = tmp_path / "q2.json"
    path.write_text(doc)
    code, out, _ = run_cli(capsys, "verify-set", "--input", str(path),
                           "--set", "00,01")
    assert code == 0
    assert "PASS" in out


def test_verify_set_requires_payload(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "hypercube", "-n", "2")
    path = tmp_path / "q2.json"
    path.write_text(doc)
    code, _, manifest = run_cli(capsys, "verify", "set", "--input", str(path))
    assert code == 2
    assert manifest["outcome"] == "error"


def test_verify_set_reads_document_payload(capsys, tmp_path):
    doc = json.loads((run_cli(capsys, "build", "hypercube", "-n", "2"))[1])
    doc["set"] = ["00", "01"]
    path = tmp_path / "q2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "set", "--input", str(path))
    assert code == 0


def test_solve_q2_and_minority(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "hypercube", "-n", "2")
    path = tmp_path / "q2.json"
    path.write_text(doc)
    code, out, _ = run_cli(capsys, "solve", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {"z": 2, "witness": ["00", "01"],
                               "status": "exact", "bounds": [2, 2]}

    _, doc, _ = run_cli(capsys, "build", "minority", "-n", "4")
    path = tmp_path / "m4.json"
    path.write_text(doc)
    code, out, manifest = run_cli(capsys, "solve", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["z"] == 7 and payload["status"] == "exact"
    assert manifest["subsets_tested"] > 0


def test_solve_inconclusive_exits_one(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "hypercube", "-n", "4")
    path = tmp_path / "q4.json"
    path.write_text(doc)
    code, out, _ = run_cli(capsys, "solve", "--input", str(path),
                           "--budget-subsets", "50")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "inconclusive"
    assert payload["bounds"][0] <= 8 <= payload["bounds"][1]


def test_export_dot(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "minority", "-n", "4")
    path = tmp_path / "m4.json"
    path.write_text(doc)
    code, out, _ = run_cli(capsys, "export", "--input", str(path), "--dot")
    assert code == 0
    assert sum("->" in line for line in out.splitlines()) == 9
    assert out.count("color=red") == 2


def test_export_json_round_trip_is_stable(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "minority", "-n", "4")
    path = tmp_path / "m4.json"
    path.write_text(doc)
    code, out, _ = run_cli(capsys, "export", "--input", str(path))
    assert code == 0
    assert out == doc


def test_stdin_input(capsys, monkeypatch, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "minority", "-n", "4")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(doc.encode())))
    code, out, manifest = run_cli(capsys, "verify", "arcs", "--input", "-")
    assert code == 0
    assert "PASS" in out
    assert "<stdin>" in manifest["inputs"]


def test_stdin_and_file_agree_on_a_non_utf8_byte(capsys, monkeypatch, tmp_path):
    raw = json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]],
                      "set": ["a"]}).encode().replace(b'"b"', b'"b\xff"')
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    by_file = run_cli(capsys, "verify", "set", "--input", str(path))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
    by_stdin = run_cli(capsys, "verify", "set", "--input", "-")
    assert by_file[:2] == by_stdin[:2] == (0, "initial 1, derived 2/2, 0 unforced\n"
                                                "PASS: zero forcing set\n")
    digest = hashlib.sha256(raw).hexdigest()
    assert by_file[2]["inputs"] == {str(path): digest}
    assert by_stdin[2]["inputs"] == {"<stdin>": digest}


def test_closed_stdin_is_a_read_error(capsys, monkeypatch):
    # Python sets sys.stdin to None when the process starts with fd 0 closed
    monkeypatch.setattr("sys.stdin", None)
    code = main(["verify", "set", "--input", "-"])
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert (code, captured.out) == (2, "")
    assert lines[0] == "error: cannot read -: stdin is closed"
    manifest = json.loads(lines[-1])
    assert (manifest["outcome"], manifest["error_type"]) == ("error", "DocumentError")


def test_truncated_document_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": ["00",')
    code, _, manifest = run_cli(capsys, "verify", "arcs", "--input", str(path))
    assert code == 2
    assert manifest["outcome"] == "error"


def test_usage_error_exits_two(capsys):
    assert main(["build", "nonsense", "-n", "3"]) == 2
    captured = capsys.readouterr()
    manifest = json.loads(captured.err.strip().splitlines()[-1])
    assert manifest["outcome"] == "error"


def test_help_writes_an_ok_manifest(capsys):
    for argv in (["--help"], ["build", "--help"]):
        code, out, manifest = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("usage: zfcubes")
        assert manifest["outcome"] == "ok" and "error_type" not in manifest
        assert manifest["command"] == argv[0]


def test_entrypoint_exits_with_the_run_code(capsys, monkeypatch, tmp_path):
    path = tmp_path / "q2.json"
    path.write_text(dumps_json_document(graphs.build_hypercube(2)))
    for argv, expected in ((["build", "hypercube", "-n", "2"], 0),
                           (["verify", "set", "--input", str(path), "--set", "00"], 1),
                           (["build", "minority", "-n", "2"], 2)):
        monkeypatch.setattr(sys, "argv", ["zfcubes", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == expected, argv
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["outcome"] == (
            "ok", "fail", "error")[expected]


def _workflow_step_script(workflow: Path, step: str) -> str:
    """The body of a step's ``run: |`` block: the lines after it that are
    blank or indented as deeply as its first line, with that indent removed."""
    lines = workflow.read_text().splitlines()
    start = lines.index(f"      - name: {step}")
    first = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |") + 1
    indent = len(lines[first]) - len(lines[first].lstrip())
    body = []
    for line in lines[first:]:
        if line.strip() and not line.startswith(" " * indent):
            break
        body.append(line[indent:])
    return "\n".join(body) + "\n"


def test_the_ci_shell_smoke_step_passes(tmp_path):
    script = _workflow_step_script(
        Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml",
        "Shell pipeline smoke")
    assert "zfcubes build minority -n 12 | head -c 1" in script
    assert "zfcubes verify set --input - <&-" in script
    bin_dir, runner_temp = tmp_path / "bin", tmp_path / "runner"
    bin_dir.mkdir()
    runner_temp.mkdir()
    src = str(Path(cli.__file__).resolve().parents[1])
    shim = bin_dir / "zfcubes"  # stands in for the installed console script
    shim.write_text(f"#!/bin/sh\nPYTHONPATH={shlex.quote(src)} "
                    f'exec {shlex.quote(sys.executable)} -m zfcubes.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, RUNNER_TEMP=str(runner_temp),
               PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    run = subprocess.run(["bash", "-c", script], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]


def test_build_writes_the_document_to_output_file(capsys, tmp_path):
    output = tmp_path / "q2.json"
    code, _, manifest = run_cli(capsys, "build", "hypercube", "-n", "2",
                                "--output", str(output))
    assert code == 0
    assert manifest["outcome"] == "ok"
    assert json.loads(output.read_text())["dimension"] == 2


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    output = tmp_path / "missing" / "q3.json"
    code, out, manifest = run_cli(capsys, "build", "hypercube", "-n", "3",
                                  "--output", str(output))
    assert (code, out) == (2, "")
    assert (manifest["outcome"], manifest["error_type"]) == ("error", "DocumentError")
    assert not output.parent.exists()


def test_trace_bindings_resolve(monkeypatch):
    # perfbench/spans.py replaces these module bindings to time each layer
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for module_name, attr, _, _ in spans.BINDINGS:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)


def test_a_command_runs_with_the_cyclic_collector_paused(capsys, monkeypatch):
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(cli, "cmd_build", handler)
    assert gc.isenabled()
    assert main(["build", "hypercube", "-n", "2"]) == 0
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_every_way_out_of_main_leaves_the_collector_as_it_found_it(
        capsys, monkeypatch, tmp_path, enabled):
    path = tmp_path / "q2.json"
    path.write_text(dumps_json_document(graphs.build_hypercube(2)))

    def handler(args):
        raise RuntimeError("escapes main")

    (gc.enable if enabled else gc.disable)()
    try:
        for argv, expected in ((["build", "hypercube", "-n", "2"], 0),
                               (["verify", "set", "--input", str(path), "--set", "00"], 1),
                               (["verify", "set", "--input", str(tmp_path / "none.json")], 2),
                               (["build", "nonsense", "-n", "2"], 2),
                               (["--help"], 0)):
            assert main(argv) == expected, argv
            assert gc.isenabled() is enabled, argv
        monkeypatch.setattr(cli, "cmd_build", handler)
        with pytest.raises(RuntimeError, match="escapes main"):
            main(["build", "hypercube", "-n", "2"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("error", [RecursionError, MemoryError, KeyboardInterrupt])
def test_interpreter_errors_exit_two_with_manifest(capsys, monkeypatch, error):
    def handler(args):
        raise error()

    monkeypatch.setattr(cli, "cmd_solve", handler)
    code, out, manifest = run_cli(capsys, "solve", "--input", "q2.json")
    assert code == 2
    assert out == ""
    assert manifest["outcome"] == "error"
    assert manifest["error_type"] == error.__name__


@pytest.mark.parametrize("bad", [["0", ["1"]], ["0", {"1": "0"}], ["0", "1", "0"], "01"])
@pytest.mark.parametrize("key", ["edges", "arcs"])
def test_malformed_pairs_exit_two(capsys, tmp_path, key, bad):
    doc = {"vertices": ["0", "1"], "edges": [["0", "1"]], "arcs": [["0", "1"]]}
    doc[key] = [bad]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, manifest = run_cli(capsys, "verify", "arcs", "--input", str(path))
    assert code == 2
    assert out == ""
    assert manifest["error_type"] == "DocumentError"


@pytest.mark.parametrize("flag, value", [("--budget-secs", "nan"), ("--budget-secs", "-1"),
                                         ("--budget-subsets", "-1"), ("--max-k", "-3")])
def test_solve_bad_budget_exits_two(capsys, tmp_path, flag, value):
    _, doc, _ = run_cli(capsys, "build", "hypercube", "-n", "3")
    path = tmp_path / "q3.json"
    path.write_text(doc)
    code, out, manifest = run_cli(capsys, "solve", "--input", str(path), flag, value)
    assert code == 2
    assert out == ""
    assert manifest["outcome"] == "error"
    assert manifest["error_type"] == "ValueError"


def test_exact_search_oracles_pass(capsys, monkeypatch, tmp_path):
    # the benchmark's exact-search operations, checked by its own oracles
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    assert gen.main(["exact-search", "7", str(tmp_path)]) == 0
    rounds = workloads.load(tmp_path)
    assert rounds and all(rounds)
    for op in (op for round_ in rounds for op in round_):
        code = main(op.argv)
        out = capsys.readouterr().out
        assert op.check(code, out) is None, (op.instance, op.argv)


def test_parser_is_reused_without_changing_any_run(capsys, tmp_path):
    cube = build_minority_cube(4)
    path = tmp_path / "m4.json"
    path.write_text(dumps_json_document(cube.graph, cube.arcs))
    runs = [["build", "nonsense", "-n", "3"],
            ["verify", "set", "--input", str(path), "--set", ",".join(cube.zero_forcing_set())],
            ["build", "hypercube", "-n", "3"]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "zfcubes.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert [main(argv) for argv in runs] == [2, 0, 0]
    assert cli._build_parser() is cli._build_parser()


def test_label_views_stay_unbuilt(capsys, monkeypatch, tmp_path):
    cube = build_minority_cube(10)
    path = tmp_path / "m10.json"
    path.write_text(dumps_json_document(cube.graph, cube.arcs,
                                       initial_set=cube.zero_forcing_set()))
    loaded = []

    def load(text):
        loaded.append(from_json_document(text))
        return loaded[-1]

    monkeypatch.setattr(cli, "from_json_document", load)
    for argv in (["verify", "arcs"], ["verify", "twist", "--method", "walk"],
                 ["verify", "set"], ["export", "--dot"]):
        assert main([*argv, "--input", str(path)]) == 0, argv
        assert "adjacency" not in loaded[-1].graph.__dict__, argv
    assert len(loaded) == 4


def test_every_manifest_carries_peak_rss(capsys, monkeypatch, tmp_path):
    _, doc, ok = run_cli(capsys, "build", "hypercube", "-n", "3")
    path = tmp_path / "q3.json"
    path.write_text(doc)
    _, _, fail = run_cli(capsys, "solve", "--input", str(path), "--max-k", "2")
    _, _, bad_input = run_cli(capsys, "verify", "set", "--input", str(tmp_path / "none.json"))
    assert main(["build", "nonsense"]) == 2
    usage = json.loads(capsys.readouterr().err.strip().splitlines()[-1])

    def handler(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_export", handler)
    _, _, crashed = run_cli(capsys, "export", "--input", str(path))
    outcomes = [m["outcome"] for m in (ok, fail, bad_input, usage, crashed)]
    assert outcomes == ["ok", "fail", "error", "error", "error"]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for manifest in (ok, fail, bad_input, usage, crashed):
        # the peak of this process so far, in MiB
        assert isinstance(manifest["peak_rss_mb"], float)
        assert 1 < manifest["peak_rss_mb"] <= peak + 0.1


def test_solve_manifest_names_the_engine(capsys, tmp_path):
    _, doc, _ = run_cli(capsys, "build", "minority", "-n", "4")
    path = tmp_path / "m4.json"
    path.write_text(doc)
    code, wavefront, manifest = run_cli(capsys, "solve", "--input", str(path))
    assert (code, manifest["engine"]) == (0, "wavefront")
    code, certificate, manifest = run_cli(capsys, "solve", "--input", str(path), "--no-prune")
    assert (code, manifest["engine"]) == (0, "certificate")
    assert certificate == wavefront
    # the engine is named also when the solve stops with an error
    code, _, manifest = run_cli(capsys, "solve", "--input", str(tmp_path / "none.json"),
                                "--no-prune")
    assert (code, manifest["engine"], manifest["error_type"]) == (
        2, "certificate", "DocumentError")
    _, _, manifest = run_cli(capsys, "build", "hypercube", "-n", "2")
    assert "engine" not in manifest


def test_solve_manifest_reports_the_engine_work(capsys, tmp_path):
    # a random twisted 5-cube whose witness level prunes by feasibility checks
    graph = build_twisted(TwistSpec.random(5, random.Random(4)))
    path = tmp_path / "t5.json"
    path.write_text(dumps_json_document(graph))
    keys = ("subsets_tested", "wavefront_closures", "memo_hits", "feasibility_checks",
            "pruned_subsets")
    code, wavefront, manifest = run_cli(capsys, "solve", "--input", str(path))
    result = solve_exact(graph)
    assert code == 0
    assert {key: manifest[key] for key in keys} == {key: getattr(result, key) for key in keys}
    assert manifest["feasibility_checks"] > 0 and manifest["pruned_subsets"] > 0
    assert 0 < manifest["wavefront_closures"] + manifest["memo_hits"] < manifest["subsets_tested"]
    code, _, manifest = run_cli(capsys, "solve", "--input", str(path), "--no-prune",
                                "--max-k", "5")
    assert code == 1
    assert [manifest[key] for key in keys] == [201376, 0, 0, 0, 0]


def _levels(spec):
    tables = []
    while not spec.is_leaf:
        assert spec.left is spec.right
        tables.append(spec.matching)
        spec = spec.left
    return tables[::-1]


def test_streamed_output_is_the_document(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(serialize, "_ROWS_PER_CHUNK", 7)  # many chunks per edge list
    spec = TwistSpec.from_level_matchings(
        dict(zip(labels, random.Random(m).sample(labels, len(labels))))
        for m, labels in enumerate(map(graphs.bitstrings, range(7))))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"levels": _levels(spec)}))
    cube = build_minority_cube(7)
    m7 = tmp_path / "m7.json"
    m7.write_text(dumps_json_document(cube.graph, cube.arcs, cube.zero_forcing_set(),
                                      extras={"note": ["x", 1]}))
    loaded = from_json_document(m7.read_text())
    expected = {
        ("build", "hypercube", "-n", "6"): to_json_document(graphs.build_hypercube(6)),
        ("build", "minority", "-n", "7"): to_json_document(
            cube.graph, cube.arcs, extras={"bridge_arc": list(cube.bridge_arc)}),
        ("build", "twisted-from-spec", "--spec-file", str(plan)):
            to_json_document(build_twisted(spec)),
        ("export", "--input", str(m7)): to_json_document(
            loaded.graph, loaded.arcs, loaded.initial_set, loaded.extras),
    }
    expected = {argv: json.dumps(doc, indent=2) + "\n" for argv, doc in expected.items()}
    expected[("export", "--dot", "--input", str(m7))] = to_dot(loaded.graph, loaded.arcs)
    assert expected[("export", "--input", str(m7))] == m7.read_text()
    for argv, text in expected.items():
        code, out, manifest = run_cli(capsys, *argv)
        assert (code, manifest["outcome"]) == (0, "ok"), argv
        assert out == text, argv
        output = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, *argv, "--output", str(output))
        assert (code, out) == (0, ""), argv
        assert output.read_text() == text, argv


def test_a_failed_export_writes_nothing(capsys, monkeypatch, tmp_path):
    path = tmp_path / "q2.json"
    path.write_text(dumps_json_document(graphs.build_hypercube(2)))
    relabelled = graphs.build_hypercube(2).relabel(graphs.vertex_id)

    def load(text):  # a document the emitter refuses: integer labels
        return GraphDocument(graph=relabelled)

    monkeypatch.setattr(cli, "from_json_document", load)
    output = tmp_path / "out.json"
    for extra in ([], ["--output", str(output)], ["--dot"]):
        code, out, manifest = run_cli(capsys, "export", "--input", str(path), *extra)
        assert (code, out, manifest["error_type"]) == (2, "", "ValueError"), extra
    assert not output.exists()


@pytest.mark.parametrize("argv, busy", [
    (["build", "minority", "-n", "8"], ("compute", "emit")),
    (["verify", "arcs", "--input", "{m8}"], ("load", "compute")),
    (["verify-set", "--input", "{m8}"], ("load", "compute")),
    (["solve", "--input", "{q3}"], ("load", "compute", "emit")),
    (["export", "--dot", "--input", "{m8}"], ("load", "emit")),
    (["export", "--input", "{m8}"], ("load", "emit")),
])
def test_manifest_phase_timings(capsys, tmp_path, argv, busy):
    cube = build_minority_cube(8)
    paths = {"m8": tmp_path / "m8.json", "q3": tmp_path / "q3.json"}
    paths["m8"].write_text(dumps_json_document(cube.graph, cube.arcs, cube.zero_forcing_set()))
    paths["q3"].write_text(dumps_json_document(graphs.build_hypercube(3)))
    argv = [arg.format(**paths) for arg in argv]
    code, out, manifest = run_cli(capsys, *argv)
    assert code == 0
    phases = manifest["phase_secs"]
    assert sorted(phases) == ["compute", "emit", "load"]
    assert all(phases[name] > 0 for name in busy), phases
    if "load" not in busy:
        assert phases["load"] == 0.0
    assert sum(phases.values()) <= manifest["elapsed_secs"] + 0.002
    assert "phase_secs" not in out


def test_manifest_phase_timings_on_errors(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": ["00",')
    code, out, manifest = run_cli(capsys, "verify", "arcs", "--input", str(path))
    assert (code, out, manifest["error_type"]) == (2, "", "DocumentError")
    phases = manifest["phase_secs"]
    assert phases["load"] > 0 and phases["emit"] == 0.0 and phases["compute"] >= 0
    assert main(["build", "nonsense"]) == 2  # refused by the parser: no phase ran
    usage = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert usage["phase_secs"] == {"load": 0.0, "compute": 0.0, "emit": 0.0}


def test_spec_file_plans_equal_the_level_matchings():
    rng = random.Random(12)
    for n in range(0, 13):
        tables = [dict(zip(labels, rng.sample(labels, len(labels))))
                  for labels in map(graphs.bitstrings, range(n))]
        levels = [table if rng.random() < 0.7 else "identity" for table in tables]
        partial = [{k: v for k, v in table.items() if k != v or rng.random() < 0.5}
                   if table != "identity" else table for table in levels]
        expected = TwistSpec.from_level_matchings(
            graphs.identity_matching(m) if level == "identity" else level
            for m, level in enumerate(levels, start=1))
        for plan in (levels, partial):
            spec = cli._parse_twist_spec_file(json.dumps({"levels": plan}))
            assert spec.dimension == n
            assert _levels(spec) == _levels(expected)


def test_verify_arcs_reports_a_stalled_execution(capsys, tmp_path):
    # on the 4-cycle 00-01-11-10 the arcs 00->01 and 11->10 are valid paths,
    # but each tail keeps two white neighbours: nothing can be performed
    doc = json.loads(run_cli(capsys, "build", "hypercube", "-n", "2")[1])
    doc["arcs"] = [["00", "01"], ["11", "10"]]
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(doc))
    code, out, manifest = run_cli(capsys, "verify", "arcs", "--input", str(path))
    assert (code, manifest["outcome"]) == (1, "fail")
    assert out == ("2 arcs, 2 chains, 0 isolated vertices\n"
                   "FAIL: greedy execution stalls; not a forcing arc set\n")
    code, out, _ = run_cli(capsys, "verify", "twist", "--input", str(path))
    assert (code, out) == (1, "chain twist: 00 01 11 10\n")


@pytest.mark.parametrize("argv, spec, message", [
    (["build", "hypercube"], None, "build hypercube requires -n"),
    (["build", "minority"], None, "build minority requires -n"),
    (["build", "twisted-from-spec"], None, "build twisted-from-spec requires --spec-file"),
    (["build", "twisted-from-spec", "--spec-file", "{path}"], "not json",
     "line 1 column 1: invalid JSON: Expecting value"),
    (["build", "twisted-from-spec", "--spec-file", "{path}"], "[1]",
     "spec file must be an object with a 'levels' list"),
    (["build", "twisted-from-spec", "--spec-file", "{path}"], '{"levels": [3]}',
     "levels[0]: each level must be 'identity' or an override table"),
    (["verify", "arcs", "--input", "{path}"], '{"vertices": ["0"], "edges": []}',
     "document carries no 'arcs' payload"),
    (["verify", "twist", "--input", "{path}"], '{"vertices": ["0"], "edges": []}',
     "document carries no 'arcs' payload"),
])
def test_cli_refusals(capsys, tmp_path, argv, spec, message):
    path = tmp_path / "input.json"
    if spec is not None:
        path.write_text(spec)
    code = main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    manifest = json.loads(captured.err.strip().splitlines()[-1])
    assert (code, captured.out, manifest["error_type"]) == (2, "", "DocumentError")
    assert captured.err.splitlines()[0] == f"error: {message}"


def test_an_export_of_arcs_outside_the_graph_writes_nothing(capsys, monkeypatch, tmp_path):
    path = tmp_path / "q2.json"
    path.write_text(dumps_json_document(graphs.build_hypercube(2)))
    q2 = graphs.build_hypercube(2)

    def load(text):  # a document the writers refuse: an arc leaves the graph
        return GraphDocument(graph=q2, arcs=ArcSet(q2, [("00", "01"), ("11", "zz")]))

    monkeypatch.setattr(cli, "from_json_document", load)
    output = tmp_path / "out.json"
    for extra in ([], ["--output", str(output)], ["--dot"], ["--dot", "--output", str(output)]):
        code, out, manifest = run_cli(capsys, "export", "--input", str(path), *extra)
        assert (code, out, manifest["error_type"]) == (2, "", "ValueError"), extra
    assert not output.exists()


def _label_chains(graph, arcs):
    """The maximal directed paths of a dipath forest, walked over labels."""
    following = dict(arcs)
    entered = set(following.values())
    chains = []
    for v in graph.vertices:
        if v not in entered:
            chain = [v]
            while chain[-1] in following:
                chain.append(following[chain[-1]])
            chains.append(tuple(chain))
    return tuple(chains)


def test_verify_matches_the_label_level_oracles(capsys, tmp_path):
    rng = random.Random(1901)
    outcomes = set()
    for case in range(40):
        graph = build_twisted(TwistSpec.random(rng.randint(4, 8), rng))
        initial = rng.sample(graph.vertices, rng.randint(1, len(graph) // 2))
        if case % 2:
            arcs = random_dipath_arcset(graph, rng, keep=rng.choice((0.3, 0.6, 0.9)))
        else:
            arcs = list(trace_to_arcset(closure(graph, initial)))
        arcset = ArcSet(graph, arcs)
        chains = _label_chains(graph, arcs)
        assert decompose(arcset).chains == chains
        if case % 3 == 0:  # the chain-initial vertices, a zero forcing set when the arcs force
            initial = [chain[0] for chain in chains]
        path = tmp_path / f"case{case}.json"
        path.write_text(dumps_json_document(graph, arcset, initial_set=initial))

        on_arcs = {v for arc in arcs for v in arc}
        forcing = reference_is_forcing_arc_set(arcset)
        expected = (f"{len(arcs)} arcs, {len(graph) - len(arcs)} chains, "
                    f"{len(graph) - len(on_arcs)} isolated vertices\n"
                    + (f"PASS: forcing arc set, {len(arcs)} arcs executed\n" if forcing
                       else "FAIL: greedy execution stalls; not a forcing arc set\n"))
        code, out, _ = run_cli(capsys, "verify", "arcs", "--input", str(path))
        assert (code, out) == (0 if forcing else 1, expected), case

        derived = len(naive_closure(graph, initial))
        unforced = len(graph) - derived
        expected = (f"initial {len(set(initial))}, derived {derived}/{len(graph)}, "
                    f"{unforced} unforced\n"
                    + ("FAIL: not a zero forcing set\n" if unforced
                       else "PASS: zero forcing set\n"))
        code, out, _ = run_cli(capsys, "verify", "set", "--input", str(path))
        assert (code, out) == (1 if unforced else 0, expected), case
        outcomes.add((forcing, not unforced))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
