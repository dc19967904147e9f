"""Suite runner behaviour: determinism, witnesses, fixtures."""

from __future__ import annotations

import json

import pytest

from zcx import gentree, verify


def test_identities_suite_passes_and_is_deterministic():
    a = verify.suite_identities(max_n=7, series_order=80)
    b = verify.suite_identities(max_n=7, series_order=80)
    assert a.passed
    da, db = a.to_dict(), b.to_dict()
    da.pop("elapsed_seconds"), db.pop("elapsed_seconds")
    assert da == db


def test_gentree_suite_passes():
    rep = verify.suite_gentree(max_construct=8, max_labels=20)
    assert rep.passed, rep.to_text()


def test_refined_suite_passes():
    rep = verify.suite_refined_gf(max_n=8)
    assert rep.passed, rep.to_text()


def test_structure_suite_passes():
    rep = verify.suite_structure(max_n=8, oracle_max_n=6)
    assert rep.passed, rep.to_text()


def test_kernels_suite_passes():
    rep = verify.suite_kernels(terms=60, eq_terms=30)
    assert rep.passed, rep.to_text()


def test_failing_checks_carry_witnesses():
    rep = verify.SuiteReport("demo")
    rep.record("a check", False, (3, 10, 11))
    rep.record("another", True)
    assert not rep.passed
    assert rep.checks[0].witness == "(3, 10, 11)"
    assert rep.checks[1].witness is None
    text = rep.to_text()
    assert "FAIL" in text and "(3, 10, 11)" in text


def test_fixture_suite(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "A005436": {"start": 2, "values": [1, 2, 7, 28, 120, 528]},
                "A097613": {"start": 2, "values": [1, 2, 7, 25, 91]},
            }
        )
    )
    rep = verify.suite_fixtures(str(good))
    assert rep.passed, rep.to_text()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A005436": {"start": 2, "values": [1, 2, 8]}}))
    rep = verify.suite_fixtures(str(bad))
    assert not rep.passed
    assert rep.checks[0].witness == "(4, 8, 7)"

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"A000001": {"start": 0, "values": [1]}}))
    rep = verify.suite_fixtures(str(unknown))
    assert not rep.passed


def test_run_suites_unknown_name():
    with pytest.raises(KeyError):
        verify.run_suites(["nope"])


def test_run_suites_respects_max_size(tmp_path):
    fixture = tmp_path / "f.json"
    fixture.write_text(json.dumps({"A003480": {"start": 2, "values": [1, 2, 7, 24]}}))
    reports = verify.run_suites(
        ["identities", "structure"], max_size=6, fixtures=str(fixture)
    )
    assert [r.suite for r in reports] == ["identities", "structure", "fixtures"]
    assert all(r.passed for r in reports)


def test_run_suites_passes_max_size_unclamped(monkeypatch):
    calls = []

    def refined(max_n):
        calls.append(max_n)
        return verify.SuiteReport("refined")

    monkeypatch.setitem(verify.SUITES, "refined", refined)
    monkeypatch.setitem(verify.SUITES, "kernels", lambda: verify.SuiteReport("kernels"))
    reports = verify.run_suites(["refined", "kernels"], max_size=13)
    assert calls == [13]
    assert [r.suite for r in reports] == ["refined", "kernels"]


def test_run_suites_checks_gentree_cap_before_any_suite(monkeypatch):
    def identities(*args, **kwargs):
        raise AssertionError("identities suite ran")

    monkeypatch.setitem(verify.SUITES, "identities", identities)
    with pytest.raises(ValueError, match=f"capped at max size {gentree.CONSTRUCT_CAP}"):
        verify.run_suites(["identities", "gentree"], max_size=gentree.CONSTRUCT_CAP + 1)
    with pytest.raises(ValueError, match=">= 2"):
        verify.run_suites(["identities"], max_size=1)
