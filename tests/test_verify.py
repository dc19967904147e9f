"""Suite runner behaviour: determinism, witnesses, fixtures."""

from __future__ import annotations

import contextlib
import functools
import json

import pytest

from zcx import classify, gentree, verify
from zcx.core import decode


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


def test_refined_suite_refuses_sizes_below_2():
    # Size 1 has no shape, so no check would look at anything.
    with pytest.raises(ValueError, match=">= 2"):
        verify.suite_refined_gf(max_n=1)


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
    rep = verify.suite_fixtures(verify.load_fixtures(str(good)))
    assert rep.passed, rep.to_text()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A005436": {"start": 2, "values": [1, 2, 8]}}))
    rep = verify.suite_fixtures(verify.load_fixtures(str(bad)))
    assert not rep.passed
    assert rep.checks[0].witness == "(4, 8, 7)"

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"A000001": {"start": 0, "values": [1]}}))
    rep = verify.suite_fixtures(verify.load_fixtures(str(unknown)))
    assert not rep.passed


def test_run_suites_unknown_name():
    with pytest.raises(KeyError):
        verify.run_suites(["nope"])


def test_run_suites_refuses_an_empty_list():
    with pytest.raises(ValueError, match="no suite"):
        verify.run_suites([])


def test_run_suites_takes_one_name_as_a_string():
    assert [r.suite for r in verify.run_suites("kernels")] == ["kernels"]


def test_run_suites_shares_one_pool_and_one_census_per_size(monkeypatch):
    # Sizes from 2 use the pool, so every census of the run goes through it.
    monkeypatch.setattr(classify, "POOL_MIN_SIZE", 2)
    pools, sizes = [], []
    real_pool, real_census = classify.census_pool, classify.census

    @contextlib.contextmanager
    def census_pool(workers):
        pools.append(workers)
        with real_pool(workers) as pool:
            yield pool

    def census(n, pool=None):
        sizes.append(n)
        return real_census(n, pool)

    monkeypatch.setattr(classify, "census_pool", census_pool)
    monkeypatch.setattr(classify, "census", census)
    # The label DP to its default of 100 levels reads no census; keep it short.
    monkeypatch.setitem(verify.SUITES, "gentree",
                        functools.partial(verify.suite_gentree, max_labels=12))
    names = ["identities", "structure", "gentree"]
    reports = {}
    for workers in (1, 2):
        pools.clear(), sizes.clear()
        reports[workers] = [r.to_dict() for r in
                            verify.run_suites(names, max_size=7, workers=workers)]
        assert pools == [workers]
        assert sorted(sizes) == list(range(2, 8))
    for report in reports[1] + reports[2]:
        assert report["passed"]
        report.pop("elapsed_seconds")
    assert reports[1] == reports[2]


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

    def stub(name):
        def run(max_size, census=None):
            calls.append((name, max_size))
            return verify.SuiteReport(name)
        return run

    for name in ("refined", "gentree"):
        monkeypatch.setitem(verify.SUITES, name, stub(name))
    monkeypatch.setitem(verify.SUITES, "kernels", lambda: verify.SuiteReport("kernels"))
    reports = verify.run_suites(["refined", "gentree", "kernels"], max_size=12)
    assert calls == [("refined", 12), ("gentree", 12)]
    assert [r.suite for r in reports] == ["refined", "gentree", "kernels"]


def test_run_suites_checks_max_size_before_any_suite(monkeypatch):
    def identities(*args, **kwargs):
        raise AssertionError("identities suite ran")

    monkeypatch.setitem(verify.SUITES, "identities", identities)
    with pytest.raises(ValueError, match=">= 2"):
        verify.run_suites(["identities", "gentree"], max_size=1)


@pytest.mark.parametrize("content, error", [
    (None, FileNotFoundError),
    ("[1, 2]", ValueError),
    ('{"A005436": {"start": 2}}', ValueError),
])
def test_run_suites_checks_fixtures_before_any_suite(monkeypatch, tmp_path,
                                                     content, error):
    def identities(*args, **kwargs):
        raise AssertionError("identities suite ran")

    monkeypatch.setitem(verify.SUITES, "identities", identities)
    path = tmp_path / "fixtures.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(error):
        verify.run_suites(["identities"], max_size=6, fixtures=str(path))


def _failed(rep):
    return [c.description for c in rep.checks if not c.passed]


def test_gentree_suite_catches_a_wrong_parent(monkeypatch):
    # The suite checks each edge with the parent step on the child's rows.
    victim = decode("0-3")
    real = gentree._parent_rows

    def parent_rows(rows, *info):
        op, par = real(rows, *info)
        return (gentree.OP_ROW, par) if rows == victim.rows else (op, par)

    monkeypatch.setattr(gentree, "_parent_rows", parent_rows)
    rep = verify.suite_gentree(max_construct=7, max_labels=10)
    assert _failed(rep) == ["n=5: unique parent reconstruction"]


def test_gentree_suite_catches_a_dropped_child(monkeypatch):
    # The walk grows each shape through ``_kids``, which calls ``_grow``.
    victim = decode("0-2")
    real = gentree._grow

    def grow(rows, *info):
        kids = real(rows, *info)
        return kids[:-1] if rows == victim.rows else kids

    monkeypatch.setattr(gentree, "_grow", grow)
    rep = verify.suite_gentree(max_construct=6, max_labels=10)
    assert _failed(rep) == [
        "n=5: constructive level = ascending polyominoes",
        "n=6: constructive level = ascending polyominoes",
        "children labels match succ(label) for 35 polyominoes up to n=5",
        "n=5: DP label multiset = constructive label multiset",
        "n=6: DP label multiset = constructive label multiset",
    ]


def test_refined_suite_catches_a_dropped_child(monkeypatch):
    # The refined suite counts the labels of the shapes the walk makes.
    victim = decode("0-2")
    real = gentree._grow

    def grow(rows, *info):
        kids = real(rows, *info)
        return kids[:-1] if rows == victim.rows else kids

    monkeypatch.setattr(gentree, "_grow", grow)
    rep = verify.suite_refined_gf(max_n=6)
    assert _failed(rep) == [
        "rectangular class C0: statistic = C0p(x=2/3, y=3/5), n <= 6",
        "rectangular class L0: statistic = L0p(x=2/3, y=3/5), n <= 6",
        "rectangular class S0: statistic = S0p(x=2/3, y=3/5), n <= 6",
        "rectangular class L: statistic = Lp(x=2/3, y=3/5, z=5/7), n <= 6",
        "non-rectangular class R: count = R1, n <= 6",
    ]
