"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The full-census sweep (sizes 2..12) is built once and shared
by the criteria that need it; its build time is part of the timed
budgets.  Criteria 3 and 4 run the identities and structure suites of
``zcx verify`` on the shared census, criteria 2, 5 and 6 read their rows
of one gentree suite report on it (the tree walked to size 11, the label
DP to 100), criterion 7 runs the refined suite to 60 and criterion 8 the
kernels suite.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import time

import pytest

from zcx import classify, series, verify

MAX_CENSUS = 12
MAX_TREE = 11


@pytest.fixture(scope="module")
def census_rows():
    """Census for sizes 2..12 with per-phase timings."""
    rows = {}
    t0 = time.perf_counter()
    for n in range(2, MAX_CENSUS):
        rows[n] = classify.census(n)
    t_through_11 = time.perf_counter() - t0
    rows[MAX_CENSUS] = classify.census(MAX_CENSUS)
    t_total = time.perf_counter() - t0
    return rows, t_through_11, t_total


@pytest.fixture(scope="module")
def gentree_report(census_rows):
    """The gentree suite on the shared census: the tree walked to size 11
    once, and the label DP against the series to 100."""
    rows, _, _ = census_rows
    return verify.suite_gentree(MAX_TREE, 100, census=rows.__getitem__)


def _assert_rows(rep, marker, want):
    """The rows of ``rep`` whose descriptions hold ``marker`` are exactly
    ``want``, in order, and all pass."""
    got = [c for c in rep.checks if marker in c.description]
    assert [c.description for c in got] == want, rep.to_text()
    assert all(c.passed for c in got), rep.to_text()


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_series_catalog_reference_values():
    t0 = time.perf_counter()
    a = series.gf("Agf", 15)
    h = series.gf("Hgf", 15)
    r = series.gf("RectGf", 15)
    c22 = series.gf("C22gf", 15)
    c21 = series.gf("C21gf", 15)
    assert [a.integer_coefficient(n) for n in range(2, 11)] == [
        1, 2, 7, 26, 101, 404, 1649, 6824, 28498,
    ]
    assert [h.integer_coefficient(n) for n in range(2, 11)] == [
        1, 2, 7, 25, 91, 336, 1254, 4719, 17875,
    ]
    assert [r.integer_coefficient(n) for n in range(2, 11)] == [
        1, 2, 6, 20, 70, 252, 924, 3432, 12870,
    ]
    assert [c22.integer_coefficient(n) for n in range(8, 15)] == [
        2, 32, 308, 2320, 15094, 89104, 491012,
    ]
    assert [c22.integer_coefficient(n) for n in range(2, 8)] == [0] * 6
    assert [c21.integer_coefficient(n) for n in range(5, 14)] == [
        2, 17, 102, 532, 2576, 11919, 53504, 235115, 1017218,
    ]
    assert [c21.integer_coefficient(n) for n in range(2, 5)] == [0] * 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 must finish in under 1s, took {elapsed:.2f}s"
    _report(1, f"A/H/Rect/C22/C21 match every reference value ({elapsed:.3f}s)")


def test_criterion_2_triple_cross_check(gentree_report):
    """Census = constructive tree = label DP = series.  The gentree suite
    ties each walked level's total, centered and rectangular counts to the
    census's ascending shapes, the walk to the DP's label multisets, and
    the DP totals to A, H and Rect."""
    t0 = time.perf_counter()
    rep = gentree_report
    sizes = range(2, MAX_TREE + 1)
    _assert_rows(rep, "constructive level", [
        f"n={n}: constructive level = ascending polyominoes"
        " (all, centered, rectangular)" for n in sizes])
    _assert_rows(rep, "DP label multiset", [
        f"n={n}: DP label multiset = constructive label multiset" for n in sizes])
    _assert_rows(rep, "DP totals", [
        "DP totals match A(t), H(t), Rect(t) and the non-centered parts"
        " for n <= 100"])
    elapsed = time.perf_counter() - t0 + rep.elapsed
    assert elapsed < 120.0, f"criterion 2 exceeded 2 minutes: {elapsed:.1f}s"
    _report(
        2,
        "census = constructive tree = label DP = series for "
        f"ascending/centered/rectangular, n<={MAX_TREE} ({elapsed:.1f}s)",
    )


def test_criterion_3_counting_identity(census_rows):
    rows, _, _ = census_rows
    rep = verify.suite_identities(MAX_CENSUS, census=rows.__getitem__)
    assert rep.passed, rep.to_text()
    # Equal sizes give equal reports, apart from the run time.
    again = verify.suite_identities(MAX_CENSUS, census=rows.__getitem__)
    first, second = rep.to_dict(), again.to_dict()
    first.pop("elapsed_seconds"), second.pop("elapsed_seconds")
    assert first == second
    _report(3, "c(n) = 2a(n) + k(n) - l(n) and every census column equals its"
               " series for n<=12, and the series identities hold to order 300")


def test_criterion_4_degree_22_is_four_stack_and_census(census_rows):
    rows, t_through_11, t_total = census_rows
    rep = verify.suite_structure(MAX_CENSUS, census=rows.__getitem__)
    assert rep.passed, rep.to_text()
    assert t_through_11 < 60.0, f"census through n=11 took {t_through_11:.1f}s"
    assert t_total < 600.0, f"census through n=12 took {t_total:.1f}s"
    _report(
        4,
        "all (2,2)-polyominoes are 4-stacks, degrees with ne > 2 and nw < ne"
        " have nw <= 1, the degree histogram is mirror-symmetric, ascending ="
        " (nw <= 1) and rectangular-ascending = directed-convex ="
        f" binom(2n-4, n-2), n<=12 (n<=11: {t_through_11:.1f}s,"
        f" total: {t_total:.1f}s)",
    )


# SHA-256 over the full signature histogram of each frontier size: one line
# "ne|nw|centered|four_stack|ascending|descending|directed_convex|top_rect|
# count" per signature, bits as 0/1, in sorted signature order.  The
# suites of criteria 3 and 4 check sizes 11 and 12 one marginal at a time;
# these pin every joint count.  Size 13 was frozen from the walk before its
# enumerator, row check and degree kernel were rewritten; run
# ``python tests/test_acceptance.py 13`` to check it, with the identities,
# structure and gentree suites to size 13.
CENSUS_SHA256 = {
    11: "52c2818098d9e00aae5a9a4d6409776e903383716ca5b2ef434be4c7d535cdf1",
    12: "db7c94a517569fa55e435e02f2519d2f2f650bb7be66defee007adf857492ed9",
    13: "45eca3089f8a8f7b245479a6fe28d1cd09822d28e88573af8af213c7ba8f5c34",
}


def _histogram_sha256(row):
    lines = "".join(
        "|".join(str(int(v)) for v in (*sig, count)) + "\n"
        for sig, count in sorted(row.counts.items())
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def test_census_histograms_frozen_at_the_frontier(census_rows):
    rows, _, _ = census_rows
    for n in (11, MAX_CENSUS):
        assert _histogram_sha256(rows[n]) == CENSUS_SHA256[n], n
    print("PASS census histograms at sizes 11/12 equal the frozen ones")


def test_criterion_5_unique_parentage(gentree_report):
    """The walk grows each ascending shape once, and each edge is the one
    ``parent`` names for the child."""
    _assert_rows(gentree_report, "unique parent", [
        f"n={n}: unique parent reconstruction" for n in range(3, MAX_TREE + 1)])
    _report(5, f"every ascending polyomino of size 3..{MAX_TREE} is grown once,"
               " from its parent")


def test_criterion_6_tree_geometry_consistency(census_rows, gentree_report):
    rows, _, _ = census_rows
    expanded = sum(rows[n].ascending for n in range(2, MAX_TREE))
    _assert_rows(gentree_report, "children labels", [
        f"children labels match succ(label) for {expanded} polyominoes"
        f" up to n={MAX_TREE - 1}"])
    _report(6, f"children labels equal succ(label) for {expanded} polyominoes,"
               f" n<={MAX_TREE - 1}")


def test_criterion_7_refined_generating_functions():
    # To 60, past the frozen label hash's 40: the refined rows read every
    # label the DP yields at each level.
    rep = verify.suite_refined_gf(max_n=60)
    assert rep.passed, rep.to_text()
    _report(
        7,
        "rectangular class GFs match (b,w,r)-statistics at (2/3,3/5,5/7) and "
        "scalar class evaluations match class totals, n<=60",
    )


def test_criterion_8_functional_equations_and_kernels():
    rep = verify.suite_kernels()
    assert rep.passed, rep.to_text()
    assert len(rep.checks) == 19
    _report(
        8,
        "all seven rectangular-case equations hold to order 60 at two points"
        " and the kernel identities hold (order 100 / exact)",
    )


def test_criterion_9_closed_formulas_to_500():
    t0 = time.perf_counter()
    h = series.gf("Hgf", 501)
    r = series.gf("RectGf", 501)
    for n in range(2, 501):
        assert series.h_formula(n) == h.integer_coefficient(n), n
        assert series.rect_formula(n) == r.integer_coefficient(n), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 9 exceeded 30s: {elapsed:.1f}s"
    _report(9, f"h(n) and rect(n) match their series for n<=500 ({elapsed:.1f}s)")


def _extrapolated_ratio(name, k, e):
    """The float oracle of the law [t^n] F ~ n^e 4^n / K (sqrt(pi) beside K
    for a half-integer e): the ratio of the coefficient to the law at
    n = 1024 and 2048, Richardson-extrapolated for an error term of order
    n^(-1/2), the order of the subleading corrections of these functions."""
    g = series.gf(name, 2049)
    r_n, r_2n = (float(g.coefficient(n) * k / 4**n) / n**e
                 * (math.sqrt(math.pi) if e % 1 else 1) for n in (1024, 2048))
    s = math.sqrt(2)
    return (s * r_2n - r_n) / (s - 1)


def test_criterion_10_asymptotic_constants():
    for law, name, k, e in series._LAWS:
        derived = series.growth_law(series._CATALOG[name][0]())
        assert derived == (k, e), law
        tolerance = 0.05 if name == "C22gf" else 0.02
        assert abs(_extrapolated_ratio(name, *derived) - 1) <= tolerance, law
    assert verify.suite_asymptotics().passed
    _report(
        10,
        f"{len(series._LAWS)} growth laws read off the closed forms exactly, and"
        " the Richardson-extrapolated ratios at n=1024 within 2% of them"
        " (C22 sqrt-law within 5%)",
    )


if __name__ == "__main__":
    # The census of one size against its frozen hash, and the identities,
    # structure and gentree suites to that size (the label DP to 200), over
    # one census memo on a pool of 2.  A file, not stdin: the spawned
    # workers import the main script.
    n = int(sys.argv[1])
    with classify.census_pool(2) as pool:
        census = functools.cache(functools.partial(classify.census, pool=pool))
        got = _histogram_sha256(census(n))
        reports = [verify.suite_identities(n, census=census),
                   verify.suite_structure(n, census=census),
                   verify.suite_gentree(n, 200, census=census)]
    print(f"size {n}: {census(n).total_convex} shapes, sha256 {got}")
    bounds = {"gentree": f", walk to {n} and label DP to 200"}
    for rep in reports:
        text = rep.to_text()
        print(text if not rep.passed
              else text.splitlines()[0] + bounds.get(rep.suite, ""))
    ok = got == CENSUS_SHA256[n] and all(rep.passed for rep in reports)
    raise SystemExit(0 if ok else 1)
