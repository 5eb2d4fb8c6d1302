"""End-to-end CLI behavior: flows, exit codes, and interchange formats."""

import json

import pytest

import sublabel.cli
import sublabel.labeling
from sublabel import from_json, weight_profile
from sublabel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_then_verify_round_trip(capsys, tmp_path):
    out = tmp_path / "c3.json"
    code, _, _ = run(capsys, "construct", "--family", "cycle", "--n", "3",
                     "--labeling", "sa-sv-al", "--out", str(out))
    assert code == 0
    doc = from_json(out.read_text())
    assert doc.labeling.vertex_labels == (1, 2, 3)
    assert doc.labeling.arc_labels == (5, 4, 6)
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "arithmetic (a=4, d=1)" in stdout
    assert "arithmetic (a=1, d=1)" in stdout
    assert "a_1=6" in stdout and "v_3=1" in stdout


def test_construct_star_magic_constant(capsys):
    code, stdout, _ = run(capsys, "construct", "--family", "star", "--n", "2",
                          "--labeling", "saml")
    assert code == 0
    doc = from_json(stdout)
    assert doc.labeling.vertex_labels == (1, 2, 3)
    assert doc.labeling.arc_labels == (5, 4)
    assert doc.classification["arc"] == {"kind": "magic", "mu": 6}


def test_verify_reads_stdin(capsys, monkeypatch, tmp_path):
    import io
    code, stdout, _ = run(capsys, "construct", "--family", "star", "--n", "2",
                          "--labeling", "saml")
    monkeypatch.setattr("sys.stdin", io.StringIO(stdout))
    code, stdout, _ = run(capsys, "verify")
    assert code == 0
    assert "magic (mu=6)" in stdout


def test_verify_reports_magic_constant(capsys, tmp_path):
    out = tmp_path / "star.json"
    run(capsys, "construct", "--family", "star", "--n", "2",
        "--labeling", "saml", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "magic (mu=6)" in stdout


@pytest.mark.parametrize("argv,names", [
    (["--family", "tadpole", "--n", "3", "--t", "2", "--labeling", "saal"],
     ["v_1", "v_2", "v_3", "u_1", "u_2", "a_1", "a_2", "a_3", "b_1", "c"]),
    (["--family", "friendship", "--n", "2", "--labeling", "sa-al"],
     ["x", "v_11", "v_12", "v_21", "v_22", "a_10", "a_11", "a_12", "a_20", "a_21", "a_22"]),
], ids=["tadpole", "friendship"])
def test_verify_prints_conventional_names(capsys, tmp_path, argv, names):
    out = tmp_path / "doc.json"
    run(capsys, "construct", *argv, "--out", str(out))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    weights = stdout.split("{")[0]
    assert all(f" {name}=" in weights for name in names)


def test_construct_corrected_path_labels_carry_a_note(capsys):
    code, stdout, _ = run(capsys, "construct", "--family", "path", "--n", "4",
                          "--labeling", "sa-al")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["arc_labels"] == [7, 6, 5]
    assert any("2n+1-i" in note for note in doc["notes"])


def test_invalid_family_kind_combination_exits_2(capsys):
    code, _, err = run(capsys, "construct", "--family", "cycle", "--n", "3",
                       "--labeling", "saml")
    assert code == 2
    assert "sa-sv-al" in err  # diagnostic names the valid kinds


def test_constructor_bounds_error_exits_2(capsys):
    code, _, err = run(capsys, "construct", "--family", "wheel", "--n", "2",
                       "--labeling", "sval")
    assert code == 2
    assert "n >= 3" in err


def test_construct_rejects_inapplicable_options(capsys):
    code, stdout, err = run(capsys, "construct", "--n", "4", "--family", "path",
                            "--labeling", "saml", "--t", "2")
    assert code == 2
    assert stdout == ""
    assert "only meaningful for tadpoles" in err


# construct picks the one orientation each labeling is built on, so it has
# no --orientation option, not even for the orientation it would pick
@pytest.mark.parametrize("family,kind,orientation", [
    ("cycle", "sa-sv-al", "in"),
    ("path", "saml", "forward"),
    ("path", "saml", "alternating"),
])
def test_construct_has_no_orientation_option(capsys, family, kind, orientation):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", family, "--n", "4", "--labeling", kind,
              "--orientation", orientation])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: --orientation {orientation}" in captured.err


def test_verify_weighs_the_labeling_once(capsys, monkeypatch, tmp_path):
    # the printed weights and the verdicts come from one weight profile
    out = tmp_path / "c5.json"
    run(capsys, "construct", "--family", "cycle", "--n", "5", "--labeling", "sa-sv-al",
        "--out", str(out))
    calls = []

    def counted(g, l):
        calls.append(l)
        return weight_profile(g, l)

    monkeypatch.setattr(sublabel.cli, "weight_profile", counted)
    monkeypatch.setattr(sublabel.labeling, "weight_profile", counted)
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0 and "arithmetic (a=6, d=1)" in stdout
    assert len(calls) == 1


@pytest.mark.parametrize("document", [
    {"format_version": 1, "family": {"name": "tadpole", "n": 4, "t": 3}, "vertex_count": 7,
     "arcs": [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 0]],
     "vertex_labels": [4, 7, 6, 5, 1, 2, 3], "arc_labels": [8, 9, 10, 11, 14, 13, 12]},
    {"format_version": 1, "vertex_count": 3, "arcs": [],
     "vertex_labels": [2, 3, 1], "arc_labels": []},
], ids=["tadpole", "no-arcs"])
def test_verify_writes_its_document_as_json_dumps(capsys, tmp_path, document):
    # the enriched document follows the report lines, its weight lists
    # written by to_json itself: negative, and empty without arcs
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code, stdout, _ = run(capsys, "verify", str(path))
    text = stdout[stdout.index("\n{") + 1:]
    assert code == 0 and text == json.dumps(json.loads(text), indent=2) + "\n"
    weights = json.loads(text)["classification"]
    doc = from_json(json.dumps(document))
    profile = weight_profile(doc.graph, doc.labeling)
    assert weights["arc_weights"] == list(profile.arc_weights)
    assert weights["vertex_weights"] == list(profile.vertex_weights)


def test_verify_rejects_non_bijection_exits_2(capsys, tmp_path):
    doc = {"format_version": 1, "vertex_count": 3, "arcs": [[0, 1], [1, 2]],
           "vertex_labels": [1, 2, 3], "arc_labels": [6, 5]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "labels not a bijection onto 1..5" in err


def test_verify_refuses_a_misspelt_key_exits_2(capsys, tmp_path):
    doc = {"format_version": 1, "vertex_count": 2, "arcs": [[0, 1]],
           "vertex_labels": [1, 2], "arc_labels": [3], "note": ["typo"]}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert "unknown key 'note' in the document" in err


def test_verify_exit_1_when_no_side_classifies(capsys, tmp_path):
    doc = {"format_version": 1, "vertex_count": 3,
           "arcs": [[0, 1], [1, 2], [2, 0]],
           "vertex_labels": [1, 4, 2], "arc_labels": [3, 6, 5]}
    path = tmp_path / "none.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert stdout.count("none") >= 2


def test_verify_exit_0_without_arcs(capsys, tmp_path):
    # the arc side is vacuously magic, the vertex weights are the labels
    doc = {"format_version": 1, "vertex_count": 3, "arcs": [],
           "vertex_labels": [2, 3, 1], "arc_labels": []}
    path = tmp_path / "points.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "arc side: magic (mu=None)" in stdout
    assert "vertex side: arithmetic (a=1, d=1)" in stdout


def test_verify_graph_only_document_exits_2(capsys, tmp_path):
    doc = {"format_version": 1, "vertex_count": 2, "arcs": [[0, 1]]}
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "no labeling" in err


def test_search_requires_n_with_family(capsys):
    code, _, err = run(capsys, "search", "--family", "path", "--class", "svml")
    assert code == 2 and "--n" in err


def test_search_negative_is_exit_1(capsys):
    code, stdout, _ = run(capsys, "search", "--family", "path", "--n", "3",
                          "--class", "svml")
    assert code == 1
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["solutions_found"] == 0
    assert payload["exhaustive"] is True


def test_search_positive_is_exit_0(capsys):
    code, stdout, _ = run(capsys, "search", "--family", "path", "--n", "2",
                          "--class", "saml")
    assert code == 0
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["solutions_found"] == 6


def test_search_arithmetic_class_with_parameters(capsys):
    code, stdout, _ = run(capsys, "search", "--family", "cycle", "--n", "3",
                          "--class", "sa-al", "--a", "4", "--d", "1",
                          "--mode", "collect-up-to", "--limit", "3")
    assert code == 0
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["query"]["target"] == {"side": "arc", "kind": "arithmetic",
                                          "a": 4, "d": 1}
    assert len(payload["witnesses"]) == 3


def test_search_cap_refusal_exits_2(capsys):
    code, _, err = run(capsys, "search", "--family", "cycle", "--n", "7",
                       "--class", "saml")
    assert code == 2
    assert "cap" in err


def test_search_cap_flag_override(capsys):
    code, _, _ = run(capsys, "search", "--family", "cycle", "--n", "7",
                     "--class", "saml", "--cap", "14")
    assert code == 1


def test_search_from_document_input(capsys, tmp_path):
    path = tmp_path / "g.json"
    run(capsys, "construct", "--family", "path", "--n", "2",
        "--labeling", "saml", "--out", str(path))
    code, stdout, _ = run(capsys, "search", "--input", str(path), "--class", "saml")
    assert code == 0
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["solutions_found"] == 6


def test_export_dot(capsys, tmp_path):
    path = tmp_path / "c3.json"
    run(capsys, "construct", "--family", "cycle", "--n", "3",
        "--labeling", "sa-sv-al", "--out", str(path))
    code, first, _ = run(capsys, "export", str(path), "--format", "dot")
    assert code == 0
    assert first.count("->") == 3
    assert '[label="5 (w=6)"]' in first
    code, second, _ = run(capsys, "export", str(path), "--format", "dot")
    assert first == second


def test_export_json_round_trip(capsys, tmp_path):
    path = tmp_path / "t.json"
    run(capsys, "construct", "--family", "tadpole", "--n", "3", "--t", "2",
        "--labeling", "saal", "--out", str(path))
    code, stdout, _ = run(capsys, "export", str(path), "--format", "json")
    assert code == 0
    assert from_json(stdout) == from_json(path.read_text())


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_export_rejects_non_bijection_exits_2(capsys, tmp_path, fmt):
    doc = {"format_version": 1, "vertex_count": 3, "arcs": [[0, 1], [1, 2]],
           "vertex_labels": [1, 2, 3], "arc_labels": [6, 5]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "export", str(path), "--format", fmt)
    assert code == 2 and out == ""
    assert "labels not a bijection onto 1..5" in err


def test_export_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "export", str(path), "--format", "dot")
    assert code == 2 and "JSON" in err


@pytest.mark.parametrize("n", ["2.5", '"3"', "true"])
def test_export_non_integer_family_n_exits_2(capsys, tmp_path, n):
    path = tmp_path / "star.json"
    path.write_text('{"format_version": 1, "family": {"name": "star", "n": %s}, '
                    '"vertex_count": 2, "arcs": [[0, 1]]}' % n)
    code, out, err = run(capsys, "export", str(path), "--format", "json")
    assert code == 2 and "integers" in err and out == ""


def assert_one_line_failure(code, stdout, err):
    assert code == 2 and stdout == ""
    assert err.startswith("sublabel: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "{missing}"],
    ["export", "{missing}", "--format", "dot"],
    ["search", "--input", "{missing}", "--class", "saml"],
])
def test_missing_input_file_exits_2(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.json")
    code, stdout, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert_one_line_failure(code, stdout, err)
    assert "missing.json" in err


def test_verify_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format_version": 1, "notes": ["caf\xe9"]}')
    code, stdout, err = run(capsys, "verify", str(path))
    assert_one_line_failure(code, stdout, err)
    assert "utf-8" in err
    assert str(path) in err


def test_verify_non_utf8_stdin_exits_2(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
    code, stdout, err = run(capsys, "verify")
    assert_one_line_failure(code, stdout, err)
    assert "<stdin> is not valid utf-8" in err


def test_construct_out_into_missing_directory_exits_2(capsys, tmp_path):
    out = tmp_path / "no-such-dir" / "c3.json"
    code, stdout, err = run(capsys, "construct", "--family", "cycle", "--n", "3",
                            "--labeling", "sa-sv-al", "--out", str(out))
    assert_one_line_failure(code, stdout, err)
    assert not out.parent.exists()


@pytest.mark.parametrize("extra,option", [
    (["--n", "9"], "--n"),
    (["--t", "4"], "--t"),
    (["--orientation", "in"], "--orientation"),
])
def test_search_input_rejects_graph_options(capsys, tmp_path, extra, option):
    path = tmp_path / "g.json"
    run(capsys, "construct", "--family", "path", "--n", "2",
        "--labeling", "saml", "--out", str(path))
    code, stdout, err = run(capsys, "search", "--input", str(path),
                            "--class", "saml", *extra)
    assert_one_line_failure(code, stdout, err)
    assert option in err and "--input" in err


@pytest.mark.parametrize("graph_args", [[], ["--family", "path", "--n", "3", "--input", "{doc}"]])
def test_search_needs_exactly_one_of_family_or_input(capsys, tmp_path, graph_args):
    path = tmp_path / "g.json"
    run(capsys, "construct", "--family", "path", "--n", "3",
        "--labeling", "saml", "--out", str(path))
    argv = [a.replace("{doc}", str(path)) for a in graph_args]
    code, stdout, err = run(capsys, "search", *argv, "--class", "saml")
    assert_one_line_failure(code, stdout, err)
    assert "exactly one of --family or --input" in err


def test_construct_unknown_kind_message_matches_the_library(capsys):
    from sublabel import ParameterError, construct
    with pytest.raises(ParameterError) as exc:
        construct("star", 3, "svml")
    code, stdout, err = run(capsys, "construct", "--family", "star", "--n", "3",
                            "--labeling", "svml")
    assert_one_line_failure(code, stdout, err)
    assert err == f"sublabel: {exc.value}\n"


def test_console_entry_missing_file_exits_2_without_traceback(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", "from sublabel.cli import entry; entry()",
         "verify", str(tmp_path / "missing.json")],
        capture_output=True, text=True, env=env, timeout=60)
    assert_one_line_failure(proc.returncode, proc.stdout, proc.stderr)


def all_construction_instances():
    for n in range(2, 51):
        for kind in ("saml", "sa-al", "sv-al"):
            yield "path", n, None, kind
    for n in range(3, 51):
        yield "cycle", n, None, "sa-sv-al"
    for n in range(1, 51):
        for kind in ("saml", "sa-al", "sval"):
            yield "star", n, None, kind
    for n in range(3, 41):
        yield "wheel", n, None, "sval"
    for n in range(3, 16):
        for t in range(1, 16):
            yield "tadpole", n, t, "saal"
            yield "tadpole", n, t, "sv-al"
    for n in range(1, 31):
        yield "friendship", n, None, "sa-al"
    for n in range(3, 31):
        for kind in ("sa-al", "sval"):
            yield "butterfly", n, None, kind


def test_construct_verify_round_trip_full_sweep(capsys, tmp_path):
    from sublabel import classify
    path = tmp_path / "doc.json"
    for family, n, t, kind in all_construction_instances():
        argv = ["construct", "--family", family, "--n", str(n),
                "--labeling", kind, "--out", str(path)]
        if t is not None:
            argv += ["--t", str(t)]
        code, _, _ = run(capsys, *argv)
        assert code == 0, (family, n, t, kind)
        code, stdout, _ = run(capsys, "verify", str(path))
        assert code == 0, (family, n, t, kind)
        payload = json.loads(stdout[stdout.index("{"):])
        doc = from_json(json.dumps(payload))
        want = classify(doc.graph, doc.labeling).to_dict()
        got = {k: payload["classification"][k] for k in want}
        assert got == want, (family, n, t, kind)


def test_search_workers_flag(capsys):
    code1, out1, _ = run(capsys, "search", "--family", "cycle", "--n", "3",
                         "--class", "saal", "--workers", "1")
    code2, out2, _ = run(capsys, "search", "--family", "cycle", "--n", "3",
                         "--class", "saal", "--workers", "2")
    assert code1 == code2 == 0
    p1 = json.loads(out1[out1.index("{"):])
    p2 = json.loads(out2[out2.index("{"):])
    p1.pop("elapsed"), p2.pop("elapsed")
    assert p1 == p2


@pytest.mark.parametrize("extra,message", [
    (["--class", "sa-al", "--d", "0"], "at least 1"),
    (["--class", "sv-al", "--a", "3", "--d", "-2"], "at least 1"),
    (["--class", "saml", "--a", "5", "--d", "0"], "arithmetic targets only"),
    (["--class", "svml", "--a", "5"], "arithmetic targets only"),
    (["--class", "saal", "--d", "1"], "arithmetic targets only"),
    (["--class", "saal", "--workers", "0"], "workers"),
    (["--class", "saal", "--workers", "-3"], "workers"),
    (["--class", "saal", "--limit", "5"], "collect-up-to mode only"),
    (["--class", "saal", "--mode", "first-witness", "--limit", "5"], "collect-up-to mode only"),
    (["--class", "saal", "--cap", "-1"], "cap must be at least 0, got -1"),
])
def test_search_rejects_bad_target_and_worker_options(capsys, extra, message):
    code, stdout, err = run(capsys, "search", "--family", "cycle", "--n", "3", *extra)
    assert code == 2
    assert stdout == ""
    assert message in err


def test_search_workers_without_fork_exit_2(capsys, monkeypatch):
    import os
    monkeypatch.delattr(os, "fork")
    code, stdout, err = run(capsys, "search", "--family", "cycle", "--n", "3",
                            "--class", "saal", "--workers", "2")
    assert code == 2
    assert stdout == ""
    assert "needs os.fork" in err


def test_closed_stdout_ends_quietly_with_exit_141():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    # the witness list runs to several hundred kB, far beyond a pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-c", "from sublabel.cli import entry; entry()",
         "search", "--family", "cycle", "--n", "4", "--class", "saal",
         "--mode", "collect-up-to", "--limit", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()  # what `| head -2` does once it has its lines
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert head[0].startswith(b"search: cycle")
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_cli_import_loads_no_dataclasses_fractions_or_typing():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the modules `import sublabel.cli` adds to those that argparse and json
    # load, so that what the interpreter and site load at start-up differs
    # between Python versions does not matter
    code = ("import argparse, json, sys\n"
            "before = set(sys.modules)\n"
            "import sublabel.cli\n"
            "import sublabel\n"
            "print(json.dumps({'added': sorted(set(sys.modules) - before),\n"
            "                  'search': sublabel.search.__module__,\n"
            "                  'callable': callable(sublabel.search)}))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = json.loads(proc.stdout)
    added = set(loaded["added"])
    assert not added & {"dataclasses", "inspect", "fractions", "decimal", "typing"}
    # sublabel.search is loaded, and the package's name search is the function
    assert "sublabel.search" in added
    assert loaded["search"] == "sublabel.search" and loaded["callable"]
