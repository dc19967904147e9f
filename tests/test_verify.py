"""Suite runner behaviour: determinism, witnesses, fixtures."""

from __future__ import annotations

import contextlib
import functools
import json

import pytest

from zcx import classify, gentree, series, verify
from zcx.core import decode


def test_refined_suite_refuses_sizes_below_2():
    # Size 1 has no shape, so no check would look at anything.
    with pytest.raises(ValueError, match=">= 2"):
        verify.suite_refined_gf(max_n=1)


def test_a_degree_3_2_shape_fails_only_its_structure_row():
    # A shape of degrees (3, 2), with its (2, 3) mirror so that the
    # histogram stays symmetric: only the law "ne > 2 and nw < ne give
    # nw <= 1" is broken, at its size, with the pair as witness.
    real = classify.census

    def census(n):
        row = real(n)
        if n == 7:
            row = classify.CensusRow(n, row.counts.copy())
            for ne, nw in ((3, 2), (2, 3)):
                row.counts[classify.Signature(ne, nw, *[False] * 6)] += 1
        return row

    rep = verify.suite_structure(max_n=8, census=census)
    assert [(c.description, c.witness) for c in rep.checks if not c.passed] == [
        ("n=7: degrees with ne > 2 and nw < ne have nw <= 1", "[(3, 2)]"),
    ]


def test_suites_expand_each_series_once_per_call(monkeypatch):
    # No expansion outlives its call: a second call expands every series
    # again, each at one order.
    calls = []
    real = series.gf

    def gf(name, terms, **params):
        calls.append((name, terms))
        return real(name, terms, **params)

    monkeypatch.setattr(series, "gf", gf)
    names = ["Lgf", "Egf", "Zgf", "S4gf", "Cgf", "Hgf", "RectGf", "Agf",
             "C22gf", "C21gf"]
    for _ in range(2):
        calls.clear()
        assert verify.suite_identities(max_n=8).passed
        assert calls == [(name, 300) for name in names]
    calls.clear()
    assert verify.suite_structure(max_n=8).passed
    assert calls == []


def test_failing_checks_carry_witnesses():
    rep = verify.SuiteReport("demo")
    rep.record("a check", False, (3, 10, 11))
    rep.record("another", True)
    assert not rep.passed
    assert rep.checks[0].witness == "(3, 10, 11)"
    assert rep.checks[1].witness is None
    text = rep.to_text()
    assert "FAIL" in text and "(3, 10, 11)" in text


def test_identities_witnesses_read_n_expected_got(monkeypatch):
    # One extra shape of degree (3, 3) in no other class: only the total is
    # off by one, and each failing check names (n, expected, got).
    real = classify.census
    extra = classify.Signature(3, 3, False, False, False, False, False, False)

    def census(n, pool=None):
        row = real(n, pool)
        if n == 6:
            row.counts[extra] += 1
        return row

    monkeypatch.setattr(classify, "census", census)
    rep = verify.suite_identities(max_n=6)
    assert [(c.description, c.witness) for c in rep.checks if not c.passed] == [
        ("n=6: c(n) = 2a(n) + k(n) - l(n)", "(6, 120, 121)"),
        ("n=6: census total = [t^6] Cgf", "(6, 120, 121)"),
    ]


@pytest.mark.parametrize("name, run, first", [
    ("C22gf", lambda: verify.suite_identities(max_n=6),
     ("n=4: census c22 = [t^4] C22gf", "(4, -1/2, 0)")),
    ("Agf", lambda: verify.suite_gentree(max_construct=5, max_labels=10),
     ("DP totals match A(t), H(t), Rect(t) and the non-centered parts"
      " for n <= 10", "A: (2, 1/2, 1)")),
    ("Cgf", lambda: verify.suite_fixtures({"A005436": (2, [1, 2, 7, 28]),
                                           "A097613": (2, [1, 2, 7, 25, 91])}),
     ("A005436 prefix matches Cgf (4 terms from n=2)", "(2, 1, 1/2)")),
], ids=["identities", "gentree", "fixtures"])
def test_a_fractional_closed_form_fails_into_the_report(halve_first_term,
                                                        name, run, first):
    # The coefficient is compared as an exact Fraction: the suite records
    # FAIL rows with witnesses and runs its other rows.
    halve_first_term(name)
    rep = run()
    failed = [(c.description, c.witness) for c in rep.checks if not c.passed]
    assert failed[0] == first
    assert all(witness for _, witness in failed)
    assert len(failed) < len(rep.checks)


def test_a_wrong_column_rule_fails_its_generating_function_row(monkeypatch):
    # A COLUMNS rule edited the wrong way shows in the column's own row
    # against its generating function.
    place, _ = classify.COLUMNS["c21"]
    monkeypatch.setitem(classify.COLUMNS, "c21",
                        (place, lambda s: s.ne == 2 and s.nw < 1))
    rep = verify.suite_identities(max_n=8)
    assert _failed(rep) == [f"n={n}: census c21 = [t^{n}] C21gf"
                            for n in (6, 7, 8)]


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


def test_run_suites_checks_every_name_before_expanding_all(monkeypatch):
    def identities(*args, **kwargs):
        raise RuntimeError("identities suite ran")

    monkeypatch.setitem(verify.SUITES, "identities", identities)
    with pytest.raises(KeyError, match="unknown suite 'bogus'"):
        verify.run_suites(["all", "bogus"])


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


@pytest.mark.parametrize("names", [["kernels"], ["kernels", "asymptotics"]])
def test_run_suites_refuses_a_size_no_selected_suite_takes(monkeypatch, names):
    def kernels():
        raise AssertionError("kernels suite ran")

    monkeypatch.setitem(verify.SUITES, "kernels", kernels)
    with pytest.raises(ValueError, match=f"; {','.join(names)} take no size$"):
        verify.run_suites(names, max_size=5)
    # A size below 2 is named first.
    with pytest.raises(ValueError, match=">= 2"):
        verify.run_suites(names, max_size=1)


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


@pytest.mark.parametrize("bit", ["centered", "top_rect"])
def test_a_census_bit_off_fails_only_its_constructive_level_row(bit):
    # One ascending shape of size 7 moved out of the centered class, or out
    # of the rectangular one: the total stays, and the walked level's
    # (all, centered, rectangular) counts differ from the census in one place.
    real = classify.census

    def census(n):
        row = real(n)
        if n == 7:
            row = classify.CensusRow(n, row.counts.copy())
            sig = next(s for s in sorted(row.counts) if s.ascending and getattr(s, bit))
            row.counts[sig] -= 1
            row.counts[sig._replace(**{bit: False})] += 1
        return row

    rep = verify.suite_gentree(max_construct=8, max_labels=10, census=census)
    walked = (404, 336, 252)
    expected = list(walked)
    expected[1 if bit == "centered" else 2] -= 1
    assert [(c.description, c.witness) for c in rep.checks if not c.passed] == [
        ("n=7: constructive level = ascending polyominoes (all, centered, rectangular)",
         f"(7, {tuple(expected)}, {walked})"),
    ]


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
        "n=5: constructive level = ascending polyominoes (all, centered, rectangular)",
        "n=6: constructive level = ascending polyominoes (all, centered, rectangular)",
        "children labels match succ(label) for 35 polyominoes up to n=5",
        "n=5: DP label multiset = constructive label multiset",
        "n=6: DP label multiset = constructive label multiset",
    ]


def test_a_dropped_dp_label_fails_the_refined_rows_and_the_walk_tie(monkeypatch):
    # The refined suite reads the label DP; the gentree suite ties each DP
    # level to the labels of the walked shapes.  The DP's history holds one
    # entry per level past 2, so depth 3 is level 5.
    real = gentree._labels

    def labels(state, history, depth):
        for label, m in real(state, history, depth):
            if depth != 3 or label != ("C", 2, 1, 1, True):
                yield label, m

    monkeypatch.setattr(gentree, "_labels", labels)
    assert _failed(verify.suite_refined_gf(max_n=6)) == [
        "rectangular class C: statistic = Cp(x=2/3, y=3/5, z=5/7), n <= 6",
    ]
    assert _failed(verify.suite_gentree(max_construct=6, max_labels=10)) == [
        "n=5: DP label multiset = constructive label multiset",
    ]


def test_the_refined_witness_is_the_dropped_weight_at_the_largest_exponent(monkeypatch):
    # At level 20 (history depth 18) the rectangular C0 label with b = 19
    # has the largest exponent a label can have, one below the level: a
    # power table one entry short cannot weigh it, and a power or
    # denominator exponent off by one fails more rows or another witness.
    label, (x, y, _) = ("C0", 19, 1, 0, True), verify._REFINED_PARAMS
    real = gentree._labels
    dropped = []

    def labels(state, history, depth):
        for pair in real(state, history, depth):
            if depth == 18 and pair[0] == label:
                dropped.append(pair[1])
            else:
                yield pair

    monkeypatch.setattr(gentree, "_labels", labels)
    rep = verify.suite_refined_gf(max_n=20)
    assert dropped == [1]
    expected = series.gf("C0p", 21, x=x, y=y).coefficient(20)
    got = expected - dropped[0] * x ** 19 * y ** 1
    assert [(c.description, c.witness) for c in rep.checks if not c.passed] == [
        ("rectangular class C0: statistic = C0p(x=2/3, y=3/5), n <= 20",
         str((20, str(expected), str(got)))),
    ]


def test_one_tree_walk_per_run_and_none_for_refined(monkeypatch):
    calls = []
    real = gentree.walk

    def walk(max_size):
        calls.append(max_size)
        return real(max_size)

    monkeypatch.setattr(gentree, "walk", walk)
    assert all(r.passed for r in verify.run_suites(["gentree", "refined"], max_size=8))
    assert calls == [8]
    calls.clear()
    assert verify.run_suites(["refined"], max_size=8)[0].passed
    assert calls == []


def test_series_size_identities_read_the_catalog(halve_first_term):
    halve_first_term("C22gf")
    failed = _failed(verify.suite_identities(max_n=8))
    assert "series: C = 2A + C22 - L to order 300" in failed
    assert "series: Z = L + 2*C21 + C22 to order 300" in failed


@pytest.mark.parametrize("name, failing", [
    ("Cp", [f"{eq} at (x,y,z)=({point}) to order 60"
            for point in ("2/3,3/5,5/7", "1/2,1/3,2/5")
            for eq in ("C' = tx C' + tx L' + tx S'",
                       "L' = txy C'(1,y,z) + divided differences + ty L' + ty S'",
                       "N' = tz/(1-z)[C'+L'+S' differences] + tz/(1-z)[N'(1) - z N'(z)]")]),
    ("dCat", ["t z0 = d(t) + t"]),
])
def test_kernels_suite_reads_the_catalog(halve_first_term, name, failing):
    halve_first_term(name)
    assert _failed(verify.suite_kernels()) == failing


def test_a_fault_inside_a_suite_is_one_fail_row(rewrite_children):
    # The next suite still runs.
    rewrite_children("0-1", lambda kids: kids + [("nc", decode("1-2;0-1").rows)])
    gentree_rep, refined_rep = verify.run_suites(["gentree", "refined"], max_size=6)
    assert [(c.description, c.witness) for c in gentree_rep.checks] == [
        ("gentree suite ran to its end", "NotAscending: 1-2;0-1"),
    ]
    assert not gentree_rep.passed and gentree_rep.elapsed > 0
    assert refined_rep.passed

