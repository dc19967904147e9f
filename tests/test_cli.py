"""Command-line behaviour: stable output, schemas, exit codes."""

from __future__ import annotations

import errno
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import zcx
from zcx import classify, cli
from zcx.cli import main
from zcx.core import decode


def _schema(name):
    text = resources.files("zcx.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_count(capsys):
    code, out, _ = _run(capsys, "enumerate", "--size", "4")
    assert code == 0 and out == "7\n"


def test_enumerate_list_lines(capsys):
    code, out, _ = _run(capsys, "enumerate", "--size", "2", "--list")
    assert code == 0 and out == "0-0\n"


def test_enumerate_json_schema(capsys):
    code, out, _ = _run(
        capsys, "enumerate", "--size", "5", "--list", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("enumerate"))
    assert payload["count"] == "28"
    assert len(payload["polyominoes"]) == 28


def test_enumerate_ascii(capsys):
    code, out, _ = _run(capsys, "enumerate", "--size", "2", "--list", "--format", "ascii")
    assert code == 0 and out == "#\n"


@pytest.mark.parametrize("argv", [[], ["--list"]], ids=["count", "list"])
def test_enumerate_size_below_2_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, "enumerate", "--size", "1", *argv)
    assert code == 2 and out == ""
    assert err == "zcx: error: size must be >= 2\n"


def test_census_csv_example(capsys):
    code, out, _ = _run(capsys, "census", "--max-size", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) == 8  # header + sizes 2..8
    c22_idx = header.index("c22")
    assert [line.split(",")[c22_idx] for line in lines[1:]] == [
        "0", "0", "0", "0", "0", "0", "2",
    ]


def test_census_json_schema(capsys):
    code, out, _ = _run(capsys, "census", "--max-size", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("census"))
    assert payload["rows"][0]["total_convex"] == "1"


def test_census_output_independent_of_threads(capsys, monkeypatch):
    # Past POOL_MIN_SIZE two workers take the pooled path, one the serial.
    monkeypatch.setattr(classify, "POOL_MIN_SIZE", 2)
    _, out1, _ = _run(capsys, "--threads", "1", "census", "--max-size", "7")
    _, out2, _ = _run(capsys, "--threads", "2", "census", "--max-size", "7")
    assert out1 == out2


def test_series_example(capsys):
    code, out, _ = _run(capsys, "series", "--name", "A", "--terms", "11")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("series"))
    assert payload["coeffs"][-1] == "28498"
    assert payload["name"] == "Agf"


def test_series_with_params_csv(capsys):
    code, out, _ = _run(
        capsys, "series", "--name", "Np", "--z", "2/3", "--terms", "6",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,coefficient"
    assert len(lines) == 7


def test_series_rational_fractions_kept_exact(capsys):
    code, out, _ = _run(
        capsys, "series", "--name", "C0p", "--x", "1/2", "--y", "1/3",
        "--terms", "8",
    )
    payload = json.loads(out)
    assert payload["params"] == {"x": "1/2", "y": "1/3", "z": None}
    assert any("/" in c for c in payload["coeffs"])


def test_series_negative_param_attached_form(capsys):
    code, out, _ = _run(
        capsys, "series", "--name", "S0p", "--x=-1/2", "--y", "2/7",
        "--terms", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"x": "-1/2", "y": "2/7", "z": None}
    assert payload["coeffs"][4:] == ["-2/49", "-22/343"]


def test_series_missing_param_is_usage_error(capsys):
    code, _, err = _run(capsys, "series", "--name", "Cp", "--terms", "5")
    assert code == 2 and "requires parameter" in err


def test_series_unknown_name_is_usage_error(capsys):
    code, out, err = _run(capsys, "series", "--name", "bogus")
    assert code == 2 and out == ""
    assert err == "zcx: error: unknown generating function 'bogus'\n"


@pytest.mark.parametrize("argv,param", [
    (("--name", "A", "--x", "1/2"), "x"),
    (("--name", "Np", "--x", "1/2", "--z", "2/3"), "x"),
    (("--name", "C111", "--z", "1"), "z"),
])
def test_series_unused_param_is_usage_error(capsys, argv, param):
    code, out, err = _run(capsys, "series", *argv)
    assert code == 2 and out == ""
    assert err.endswith(f"does not take parameter {param}\n")


def test_gentree_labels_json(capsys):
    code, out, _ = _run(
        capsys, "gentree", "--max-size", "6", "--format", "json",
        "--dump-level", "4",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("gentree"))
    assert [lv["total"] for lv in payload["levels"]] == ["1", "2", "7", "26", "101"]
    assert len(payload["labels"]) == 7


def test_gentree_labels_equal_the_frozen_references(capsys):
    # The benchmark's references: the label DP's level totals to 40.
    refs = Path(__file__).parents[1] / "perfbench" / "refs" / "labels.json"
    code, out, _ = _run(capsys, "gentree", "--mode", "labels", "--max-size", "40",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["levels"] == json.loads(refs.read_text())["levels"]


def test_gentree_construct_matches_labels(capsys):
    _, out1, _ = _run(capsys, "gentree", "--max-size", "7", "--dump-level", "5")
    _, out2, _ = _run(
        capsys, "gentree", "--max-size", "7", "--mode", "construct",
        "--dump-level", "5",
    )
    assert out1 == out2


def test_gentree_bad_dump_level(capsys, monkeypatch):
    def no_dp(max_size):
        raise AssertionError("the label DP ran before --dump-level was checked")

    monkeypatch.setattr("zcx.gentree.levels", no_dp)
    for k in ("1", "9"):
        code, out, err = _run(capsys, "gentree", "--max-size", "5", "--dump-level", k)
        assert code == 2 and out == ""
        assert err == f"zcx: error: --dump-level {k} outside 2..5\n"


def test_verify_suite_success_and_exit_code(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "kernels")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_json_schema(capsys):
    code, out, _ = _run(
        capsys, "verify", "--suite", "kernels", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("verify"))
    assert payload["passed"] is True


def test_verify_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A005436": {"start": 2, "values": [9]}}))
    code, out, _ = _run(
        capsys, "verify", "--suite", "kernels", "--fixtures", str(bad)
    )
    assert code == 1
    assert "overall: FAIL" in out


def test_verify_wrong_closed_form_is_a_failure_not_a_usage_error(
        capsys, halve_first_term):
    # C22gf with its first term halved has the coefficient -1/2 at t^4: the
    # identities suite prints a FAIL row, and the next suite still runs.
    halve_first_term("C22gf")
    code, out, err = _run(capsys, "--threads", "1", "verify", "--suite",
                          "identities,structure", "--max-size", "6")
    assert code == 1 and err == ""
    assert "  [FAIL] n=4: census c22 = [t^4] C22gf  <- (4, -1/2, 0)\n" in out
    assert "suite structure: PASS" in out and "overall: FAIL" in out


def test_verify_non_ascending_child_is_a_failure_not_a_usage_error(
        capsys, rewrite_children):
    rewrite_children("0-1", lambda kids: kids + [("nc", decode("1-2;0-1").rows)])
    code, out, err = _run(capsys, "--threads", "1", "verify", "--suite",
                          "gentree", "--max-size", "6")
    assert code == 1 and err == ""
    assert "  [FAIL] gentree suite ran to its end  <- NotAscending: 1-2;0-1\n" in out


def test_verify_failed_assertion_is_a_failure_not_a_traceback(
        capsys, rewrite_children):
    def duplicate(kids):
        raise AssertionError("duplicate children of 0-1")

    rewrite_children("0-1", duplicate)
    code, out, err = _run(capsys, "--threads", "1", "verify", "--suite",
                          "gentree", "--max-size", "6")
    assert code == 1 and err == ""
    assert ("  [FAIL] gentree suite ran to its end"
            "  <- AssertionError: duplicate children of 0-1\n") in out


def test_verify_missing_fixtures_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = _run(
        capsys, "verify", "--suite", "kernels", "--fixtures", str(missing)
    )
    assert code == 2 and out == ""
    assert err == f"zcx: error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("entry", [
    [2, 5], {"values": [1]}, {"start": -2, "values": [1, 2, 3]},
    {"start": 2.5, "values": [1]}, {"start": 2, "values": [1, 7.9]},
    {"start": 2, "values": [1, True]}, {"start": 2, "values": []},
], ids=["list", "no_start", "negative_start", "float_start", "float_value",
        "bool_value", "empty_values"])
def test_verify_malformed_fixture_is_usage_error(capsys, tmp_path, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A005436": entry}))
    code, out, err = _run(
        capsys, "verify", "--suite", "kernels", "--fixtures", str(bad)
    )
    assert code == 2 and out == ""
    assert err == (f'zcx: error: {bad}: fixture A005436 is not '
                   f'{{"start": <int>, "values": [<int>, ...]}}\n')


@pytest.mark.parametrize("content, reason", [
    (b"{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["not_json", "not_utf8"])
def test_verify_fixtures_not_json_is_usage_error(capsys, tmp_path, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = _run(
        capsys, "verify", "--suite", "kernels", "--fixtures", str(bad)
    )
    assert code == 2 and out == ""
    assert err == f"zcx: error: {bad}: not JSON: {reason}\n"


def test_verify_unknown_suite_is_usage_error(capsys):
    # A name beside all is checked too, before all runs every suite.
    for suites, name in (("nope", "nope"), ("all,bogus", "bogus")):
        code, out, err = _run(capsys, "verify", "--suite", suites)
        assert code == 2 and out == ""
        assert err == (f"zcx: error: unknown suite '{name}'; choose from "
                       "all,identities,gentree,refined,structure,kernels,asymptotics\n")


@pytest.mark.parametrize("suites", ["", " , "])
def test_verify_no_suite_is_usage_error(capsys, suites):
    code, out, err = _run(capsys, "verify", "--suite", suites)
    assert code == 2 and out == ""
    assert err.startswith("zcx: error: no suite named")


def test_verify_max_size_below_2_is_usage_error(capsys):
    code, out, err = _run(
        capsys, "verify", "--suite", "identities,structure,refined", "--max-size", "1"
    )
    assert code == 2 and out == ""
    assert "max size must be >= 2" in err


def test_verify_max_size_for_suites_without_one_is_usage_error(capsys):
    code, out, err = _run(
        capsys, "--threads", "1", "verify", "--suite", "kernels", "--max-size", "5"
    )
    assert code == 2 and out == ""
    assert err == ("zcx: error: max size bounds only identities,gentree,refined,"
                   "structure; kernels take no size\n")


def test_render(capsys):
    code, out, _ = _run(capsys, "render", "--encoding", "1-2;0-1")
    assert code == 0 and out == "##.\n.##\n"


def test_render_refuses_a_picture_over_the_cell_bound(capsys):
    # A width of 10^11 would ask render for 100 GB: refused before drawing.
    code, out, err = _run(capsys, "render", "--encoding", "0-99999999999")
    assert code == 2 and out == ""
    assert err == ("zcx: error: rows x width = 1 x 100000000000 is over the "
                   "bound of 1000000 cells for a picture\n")
    code, out, _ = _run(capsys, "render", "--encoding", "0-999")
    assert code == 0 and out == "#" * 1000 + "\n"
    # The bound itself is drawn; one cell more is refused.
    code, out, _ = _run(capsys, "render", "--encoding", "0-999999")
    assert code == 0 and out == "#" * 10**6 + "\n"
    code, out, err = _run(capsys, "render", "--encoding", "0-1000000")
    assert code == 2 and out == ""
    assert err == ("zcx: error: rows x width = 1 x 1000001 is over the "
                   "bound of 1000000 cells for a picture\n")


def test_render_invalid_encoding(capsys):
    code, _, err = _run(capsys, "render", "--encoding", "0-0;5-5")
    assert code == 2 and "error" in err
    # int() reads each of these rows; encode writes none of them.
    for row in ("+0-0", "0-+1", " 0-0", "0_0-1", "\u0660-\u0660",
                "00-01", "0-01", "01-1"):
        code, out, err = _run(capsys, "render", "--encoding", row)
        assert code == 2 and out == ""
        assert err == f"zcx: error: malformed row {row!r}\n"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "res.txt"
    code, out, _ = _run(
        capsys, "--out", str(target), "enumerate", "--size", "4"
    )
    assert code == 0 and out == ""
    assert target.read_text() == "7\n"


def test_out_flag_unwritable_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "res.txt"
    code, out, err = _run(
        capsys, "--out", str(target), "enumerate", "--size", "3"
    )
    assert code == 2 and out == ""
    assert err == f"zcx: error: {target}: No such file or directory\n"


class _FullWriter(io.StringIO):
    """A file whose writes fail the way /dev/full's do."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_out_flag_failed_write_names_the_file(capsys, monkeypatch):
    # The OSError of a failed write carries no file name; zcx names --out.
    monkeypatch.setattr(cli, "open", lambda *a, **k: _FullWriter(), raising=False)
    code, out, err = _run(capsys, "--out", "full.txt", "enumerate", "--size", "3")
    assert code == 2 and out == ""
    assert err == f"zcx: error: full.txt: {os.strerror(errno.ENOSPC)}\n"


def test_an_os_error_without_a_file_prints_its_message_alone(capsys, monkeypatch):
    def no_space(args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_cmd_render", no_space)
    code, out, err = _run(capsys, "render", "--encoding", "0-0")
    assert code == 2 and out == ""
    assert err == f"zcx: error: {os.strerror(errno.ENOSPC)}\n"


def test_out_flag_opened_before_the_command_runs(capsys, monkeypatch, tmp_path):
    def no_census(args):
        raise AssertionError("the census ran before --out was opened")

    monkeypatch.setattr(cli, "_cmd_census", no_census)
    target = tmp_path / "missing" / "res.txt"
    code, out, err = _run(
        capsys, "--out", str(target), "census", "--max-size", "10"
    )
    assert code == 2 and out == ""
    assert err == f"zcx: error: {target}: No such file or directory\n"


def test_worker_count_is_read_from_threads_alone(capsys, monkeypatch):
    # ZCX_THREADS is not a setting: set to anything, it changes neither the
    # output nor the exit code of a command, with workers or without.
    for argv in (["series", "--name", "A", "--terms", "3"],
                 ["render", "--encoding", "0-1;1-1"],
                 ["census", "--max-size", "5"]):
        monkeypatch.delenv("ZCX_THREADS", raising=False)
        want = _run(capsys, *argv)
        assert want[0] == 0, argv
        for value in ("junk", "0"):
            monkeypatch.setenv("ZCX_THREADS", value)
            assert _run(capsys, *argv)[:2] == want[:2], (argv, value)


@pytest.mark.parametrize("k", ["0", "-4"])
def test_threads_below_1_is_usage_error(capsys, k):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", k, "census", "--max-size", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("zcx: error: --threads must be >= 1\n")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing --size
    assert exc.value.code == 2


def test_gentree_construct_below_2_is_usage_error(capsys):
    # The library refuses the size, in both modes, with one message.
    for mode in ("construct", "labels"):
        for size in ("1", "0"):
            code, out, err = _run(capsys, "gentree", "--max-size", size, "--mode", mode)
            assert code == 2 and out == ""
            assert err == "zcx: error: max size must be >= 2\n", (mode, size)


_FOOTPRINT = (
    "import contextlib, io, sys\n"
    "from zcx import cli\n"
    "if sys.argv[1:]:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert cli.main(sys.argv[1:]) == 0\n"
    "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'zcx'\n"
    "                      or m in ('dataclasses', 'fractions'))))\n"
)


@pytest.mark.parametrize("argv, loaded", [
    ([], set()),
    (["series", "--name", "A", "--terms", "5"], {"series"}),
    (["census", "--max-size", "4"], {"classify", "core", "enumerate"}),
    (["gentree", "--max-size", "4", "--mode", "labels"], {"core", "gentree"}),
    (["enumerate", "--size", "4"], {"core", "enumerate"}),
    (["render", "--encoding", "0-1;1-1"], {"core"}),
    (["verify", "--suite", "structure", "--max-size", "4"],
     {"classify", "core", "enumerate", "gentree", "series", "verify"}),
], ids=["import", "series", "census", "gentree", "enumerate", "render", "verify"])
def test_each_command_imports_only_its_modules(argv, loaded):
    # A fresh interpreter: this process has imported every module already.
    src_dir = os.path.dirname(os.path.dirname(zcx.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    expected = {"zcx", "zcx.cli"} | {f"zcx.{m}" for m in loaded}
    # fractions comes with zcx.series; cli imports it only to parse a
    # rational option.
    expected |= {"fractions"} if "series" in loaded else set()
    modules = set(proc.stdout.split())
    # ``import dataclasses`` alone costs more than 10 ms (it loads inspect).
    assert "dataclasses" not in modules
    assert modules == expected
