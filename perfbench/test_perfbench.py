"""Self-tests of the benchmark: python3 -m pytest perfbench

They run small operations only (a few seconds in all).
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import metrics
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from zcx import cli, series  # noqa: E402

SEEDS = (0, 1, 2, 17, 12345)

# Small operations covering every operation kind and both series paths.
SMALL_OPS = [
    {"kind": "census", "spec": {"argv": ["--threads", "1", "census", "--max-size", "6",
                                         "--format", "json"]}},
    {"kind": "series", "spec": {"argv": ["--threads", "1", "series", "--name", "C",
                                         "--terms", "80"]}},
    {"kind": "labels", "spec": {"argv": ["--threads", "1", "gentree", "--mode", "labels",
                                         "--max-size", "12", "--dump-level", "9",
                                         "--format", "json"]}},
    {"kind": "construct", "spec": {"argv": ["--threads", "1", "gentree", "--mode",
                                            "construct", "--max-size", "7",
                                            "--format", "json"]}},
    {"kind": "verify", "spec": {"argv": ["--threads", "1", "verify", "--suite",
                                         "structure,kernels", "--max-size", "6",
                                         "--format", "json"]}},
    {"kind": "gentree_suite", "spec": {"call": "verify.suite_gentree",
                                       "kwargs": {"max_construct": 6, "max_labels": 8}}},
    {"kind": "fe", "spec": {"call": "series.functional_equation_checks",
                            "args": ["1/2", "2/3", "3/5", 8]}},
    {"kind": "gf", "spec": {"argv": ["--threads", "1", "series", "--name", "Np",
                                     "--terms", "70", "--z", "2/5"]}},
]


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path)


def test_same_seed_gives_same_inputs():
    for w in workloads.WORKLOADS:
        for seed in SEEDS:
            assert workloads.generate(w, seed) == workloads.generate(w, seed)
        distinct = len({json.dumps(workloads.generate(w, s)) for s in SEEDS})
        # The census command has no input to draw; every other workload varies.
        assert distinct == 1 if w == "census" else distinct > 1


def test_generated_inputs_are_in_range():
    for seed in range(50):
        names = [op["name"] for op in workloads.generate("series-deep", seed)]
        assert len(set(names)) == workloads.SERIES_OPS
        assert set(names) <= set(workloads.SERIES_NAMES)
        (labels,) = workloads.generate("labels", seed)
        assert workloads.LABELS_DUMP[0] <= labels["dump_level"] <= workloads.LABELS_DUMP[1]
        for op in workloads.generate("mixed", seed):
            if op["kind"] == "fe":
                x, y, z, _ = op["spec"]["args"]
                assert Fraction(y) != 1 and Fraction(z) != 1
                # The library accepts the draw: no DegenerateParam.
                series.functional_equation_checks(x, y, z, 4)


def _cli_payload(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def test_corrupted_census_count_fails(monkeypatch):
    monkeypatch.setattr(workloads, "CENSUS_MAX", 6)
    op = {"kind": "census", "spec": {"argv": []}}
    payload = _cli_payload(["--threads", "1", "census", "--max-size", "6", "--format", "json"])
    refs = workloads.load_refs()
    assert workloads.check(op, 0, json.dumps(payload).encode(), refs) is None
    payload["rows"][-1]["c21"] = str(int(payload["rows"][-1]["c21"]) + 1)
    assert "census rows differ" in workloads.check(op, 0, json.dumps(payload).encode(), refs)


@pytest.mark.parametrize("name", workloads.SERIES_NAMES)
def test_corrupted_series_residue_fails(monkeypatch, name):
    monkeypatch.setattr(workloads, "SERIES_TERMS", 40)
    op = {"kind": "series", "name": name, "spec": {"argv": []}}
    payload = _cli_payload(["--threads", "1", "series", "--name", name, "--terms", "40"])
    refs = workloads.load_refs()
    assert workloads.check(op, 0, json.dumps(payload).encode(), refs) is None
    payload["coeffs"][37] = str(int(payload["coeffs"][37]) + 1)
    assert "differ from the reference" in workloads.check(op, 0, json.dumps(payload).encode(), refs)
    payload["coeffs"].pop()
    assert "39 coefficients" in workloads.check(op, 0, json.dumps(payload).encode(), refs)


def test_a_failed_verify_check_fails_the_operation():
    def report(suite, status):
        return {"suite": suite, "passed": status == "pass",
                "checks": [{"description": "d", "status": status}]}

    suites = ["identities", "structure", "refined", "kernels"]
    ok = {"passed": True, "reports": [report(s, "pass") for s in suites]}
    bad = {"passed": False, "reports": [report(s, "pass") for s in suites[:3]]
           + [report("kernels", "fail")]}
    for kind, good, wrong in (("verify", ok, bad),
                              ("gentree_suite", report("gentree", "pass"),
                               report("gentree", "fail"))):
        op = {"kind": kind}
        assert workloads.check(op, 0, json.dumps(good).encode(), {}) is None
        assert "checks failed" in workloads.check(op, 0, json.dumps(wrong).encode(), {})


def test_references_reach_the_workload_sizes():
    refs = workloads.load_refs()
    assert set(refs["series"]["residues"]) == set(workloads.SERIES_NAMES)
    assert all(len(r) >= workloads.SERIES_TERMS for r in refs["series"]["residues"].values())
    assert len(refs["census"]["rows"]) >= workloads.CENSUS_MAX - 1
    assert len(refs["labels"]["levels"]) >= workloads.LABELS_MAX - 1


def _small_labels():
    """A real labels output to size 12, its operation, and the reference
    cut to the same size."""
    op = {"kind": "labels", "dump_level": 9, "spec": {"argv": [
        "--threads", "1", "gentree", "--mode", "labels", "--max-size", "12",
        "--dump-level", "9", "--format", "json"]}}
    payload = _cli_payload(op["spec"]["argv"])
    refs = workloads.load_refs()
    refs["labels"]["levels"] = refs["labels"]["levels"][:11]
    return op, payload, refs


def test_corrupted_label_counts_fail():
    op, payload, refs = _small_labels()
    assert workloads.check(op, 0, json.dumps(payload).encode(), refs) is None
    assert workloads.check(op, 1, json.dumps(payload).encode(), refs)
    bad = json.loads(json.dumps(payload))
    bad["levels"][-1]["total"] = str(int(bad["levels"][-1]["total"]) + 1)
    assert "totals differ" in workloads.check(op, 0, json.dumps(bad).encode(), refs)
    bad = json.loads(json.dumps(payload))
    family, b, w, r, rect, count = bad["labels"][0].split(",")
    bad["labels"][0] = ",".join([family, b, w, r, rect, str(int(count) + 1)])
    assert "does not add up" in workloads.check(op, 0, json.dumps(bad).encode(), refs)


@pytest.mark.parametrize("name", workloads.MIXED_GF_NAMES)
def test_rational_identity_detects_one_wrong_coefficient(name):
    op = next(o for o in workloads.generate("mixed", 5) if o.get("name") == name)
    g = series.gf(name, workloads.MIXED_GF_TERMS,
                  **{k: Fraction(op[k]) for k in "xyz"})
    payload = {"name": name, "coeffs": [str(c) for c in g.coeffs]}
    refs = workloads.load_refs()
    assert workloads.check(op, 0, json.dumps(payload).encode(), refs) is None
    payload["coeffs"][150] = str(g.coeffs[150] + Fraction(1, 3))
    assert "fails its identity" in workloads.check(op, 0, json.dumps(payload).encode(), refs)


def test_corrupted_output_counts_as_failed_operation(runner, monkeypatch):
    op, payload, refs = _small_labels()
    good = json.dumps(payload).encode()
    payload["levels"][3]["rectangular"] += "0"
    bad = json.dumps(payload).encode()
    results = iter([run.OpResult(1.0, 1.0, 0, good, None),
                    run.OpResult(1.0, 1.0, 0, bad, None)])
    monkeypatch.setattr(runner, "spawn", lambda spec, traced=False: next(results))
    assert run.run_round(runner, [op], refs, traced=False)["failures"] == []
    (failure,) = run.run_round(runner, [op], refs, traced=False)["failures"]
    assert failure["kind"] == "labels"


def _instant_operations(monkeypatch):
    """Operations that take no time and always pass their check."""
    monkeypatch.setattr(run.Runner, "spawn", lambda self, spec, traced=False:
                        run.OpResult(0.001, 0.001, 0, b"{}", None))
    monkeypatch.setattr(workloads, "check", lambda op, code, out, refs: None)


def test_round_count_does_not_depend_on_program_speed(tmp_path, monkeypatch):
    _instant_operations(monkeypatch)
    for w in workloads.WORKLOADS:
        info, result = run.measure(w, 1, 30, False, tmp_path)
        assert info["rounds"] == workloads.rounds(w, 30) > 1
        assert len(info["setup_samples_s"]) == run.SETUP_SAMPLES
        assert result["attempted"] == info["rounds"] * len(info["operations"])


def test_rounds_past_the_run_limit_are_not_started_nor_failed(tmp_path, monkeypatch):
    _instant_operations(monkeypatch)
    monkeypatch.setattr(run, "LAST_ROUND_START_S", 0.0)
    info, result = run.measure("mixed", 1, 30, False, tmp_path)
    assert info["rounds"] == 1
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(info["operations"])


def test_traced_and_untraced_outputs_are_identical(runner):
    for op in SMALL_OPS:
        plain = runner.spawn(op["spec"])
        traced = runner.spawn(op["spec"], traced=True)
        assert plain.code == traced.code == 0, op
        assert workloads.canonical(op, plain.out) == workloads.canonical(op, traced.out), op
        if op["kind"] not in ("verify", "gentree_suite"):
            assert plain.out == traced.out
        assert spans.load(traced.span_file)["count"] > 0


def test_self_times_and_remainder_add_up_to_traced_wall(runner):
    aggs, wall = [], 0.0
    for op in SMALL_OPS:
        res = runner.spawn(op["spec"], traced=True)
        wall += res.wall_s
        aggs.append(spans.aggregate(spans.load(res.span_file)))
    agg = metrics.merge(aggs)
    self_sum = sum(row["self_s"] for row in agg["names"].values())
    assert self_sum == pytest.approx(agg["root_s"], rel=1e-9)
    layer = metrics.layer_metrics(agg, wall, 0)
    assert self_sum + layer["trace.remainder_s"] == pytest.approx(wall, rel=1e-9)
    # The remainder is interpreter start-up, import and exit: well under a
    # second per operation, however long the operation's work.
    assert 0 < layer["trace.remainder_s"] < 0.5 * len(SMALL_OPS)
    for name, row in agg["names"].items():
        assert -1e-9 <= row["self_s"] <= row["total_s"] + 1e-9, name


def test_recorder_self_time_and_generator_spans():
    rec = spans.Recorder()

    def leaf(x):
        return x + 1

    def gen(n):
        for i in range(n):
            yield wleaf(i)

    wleaf = rec.wrap("leaf", leaf)
    wgen = rec.wrap("walk", gen, "generator")
    wouter = rec.wrap("outer", lambda n: [wleaf(v) for v in wgen(n)],
                      lambda a, r: len(r))
    assert wouter(3) == [2, 3, 4]
    agg = spans.aggregate({"names": rec.names, "name": rec.name, "parent": rec.parent,
                           "start": rec.start, "end": rec.end, "work": rec.work,
                           "import_s": 0.0})
    rows = agg["names"]
    assert rows["outer"]["calls"] == 1 and rows["outer"]["work"] == 3
    assert rows["walk"]["calls"] == 4 and rows["walk"]["work"] == 3
    assert rows["leaf"]["calls"] == 6
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(
        rows["outer"]["total_s"], rel=1e-9)
    # Leaf spans inside the walk are children of a walk span, not of outer.
    walk = rec.names.index("walk")
    assert sum(1 for sid, p in enumerate(rec.parent)
               if p >= 0 and rec.name[p] == walk) == 3


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in metrics.PER_LAYER]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "labels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
