"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The full-census sweep (sizes 2..12), the label multisets of the
constructive tree levels and the enumerator's ascending shapes (sizes
2..11) are built once and shared by the criteria that need them; their
build times are part of the timed budgets.
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction

import pytest

from zcx import classify, gentree, series, verify
from zcx.enumerate import all_convex

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
def tree_levels():
    t0 = time.perf_counter()
    levels = gentree.constructive_levels(MAX_TREE)
    return levels, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ascending_by_size():
    """Ascending polyominoes per size, straight from the enumerator."""
    t0 = time.perf_counter()
    out = {}
    for n in range(2, MAX_TREE + 1):
        out[n] = [p for p in all_convex(n) if classify.is_ascending(p)]
    return out, time.perf_counter() - t0


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
    assert [c21.integer_coefficient(n) for n in range(5, 14)] == [
        2, 17, 102, 532, 2576, 11919, 53504, 235115, 1017218,
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 must finish in under 1s, took {elapsed:.2f}s"
    _report(1, f"A/H/Rect/C22/C21 match every reference value ({elapsed:.3f}s)")


def test_criterion_2_triple_cross_check(tree_levels, ascending_by_size):
    t0 = time.perf_counter()
    levels, t_tree = tree_levels
    brute_by_size, t_brute = ascending_by_size
    dp = gentree.count_levels(MAX_TREE)
    a = series.gf("Agf", MAX_TREE + 1)
    h = series.gf("Hgf", MAX_TREE + 1)
    r = series.gf("RectGf", MAX_TREE + 1)
    assert [lv.level for lv in levels] == list(range(2, MAX_TREE + 1))
    for level, dp_level in zip(levels, dp):
        n = level.level
        brute = brute_by_size[n]
        counts = (
            len(brute),
            level.total,
            dp_level.total,
            a.integer_coefficient(n),
        )
        assert len(set(counts)) == 1, (n, "ascending", counts)

        brute_centered = sum(classify.is_centered(p) for p in brute)
        counts = (
            brute_centered,
            level.centered_total,
            dp_level.centered_total,
            h.integer_coefficient(n),
        )
        assert len(set(counts)) == 1, (n, "centered", counts)

        brute_rect = sum(p.rows[-1][1] == p.width - 1 for p in brute)
        counts = (
            brute_rect,
            level.rectangular_total,
            dp_level.rectangular_total,
            r.integer_coefficient(n),
        )
        assert len(set(counts)) == 1, (n, "rectangular", counts)
        assert level.counts == dp_level.counts, (n, "label multiset")
    elapsed = time.perf_counter() - t0 + t_tree + t_brute
    assert elapsed < 120.0, f"criterion 2 exceeded 2 minutes: {elapsed:.1f}s"
    _report(
        2,
        "brute force = constructive tree = label DP = series for "
        f"ascending/centered/rectangular, n<=11 ({elapsed:.1f}s)",
    )


def test_criterion_3_counting_identity(census_rows):
    rows, _, _ = census_rows
    for n in range(2, MAX_CENSUS + 1):
        row = rows[n]
        assert row.total_convex == 2 * row.ascending + row.c22 - row.l_convex, n
    order = 300
    delta = (
        series.gf("Cgf", order)
        - series.gf("Agf", order).scale(2)
        - series.gf("C22gf", order)
        + series.gf("Lgf", order)
    )
    assert delta.is_zero()
    _report(3, "c(n) = 2a(n) + k(n) - l(n) for n<=12 and as series to order 300")


def test_criterion_4_degree_22_is_four_stack_and_census(census_rows):
    rows, t_through_11, t_total = census_rows
    s4 = series.gf("S4gf", MAX_CENSUS + 1)
    for n in range(2, MAX_CENSUS + 1):
        row = rows[n]
        assert row.c22_four_stack == row.c22, (
            n, "a degree-(2,2) polyomino is not a 4-stack",
        )
        assert row.four_stack == s4.integer_coefficient(n), n
    assert t_through_11 < 60.0, f"census through n=11 took {t_through_11:.1f}s"
    assert t_total < 600.0, f"census through n=12 took {t_total:.1f}s"
    _report(
        4,
        "all (2,2)-polyominoes are 4-stacks and the 4-stack census matches "
        f"its generating function, n<=12 (n<=11: {t_through_11:.1f}s, "
        f"total: {t_total:.1f}s)",
    )


# SHA-256 over the full signature histogram of each frontier size: one line
# "ne|nw|centered|four_stack|ascending|descending|directed_convex|top_rect|
# count" per signature, bits as 0/1, in sorted signature order.  The
# columns above check sizes 11 and 12 one marginal at a time; these pin
# every joint count.
CENSUS_SHA256 = {
    11: "52c2818098d9e00aae5a9a4d6409776e903383716ca5b2ef434be4c7d535cdf1",
    12: "db7c94a517569fa55e435e02f2519d2f2f650bb7be66defee007adf857492ed9",
}


def test_census_histograms_frozen_at_the_frontier(census_rows):
    rows, _, _ = census_rows
    for n, want in CENSUS_SHA256.items():
        lines = "".join(
            "|".join(str(int(v)) for v in (*sig, count)) + "\n"
            for sig, count in sorted(rows[n].counts.items())
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == want, n
    print("PASS census histograms at sizes 11/12 equal the frozen ones")


def test_criterion_5_unique_parentage(ascending_by_size):
    """Grow every ascending shape of size 2..10 once: each shape of the
    next size appears exactly once among all the children, under the
    (operation, parent) that ``parent`` names."""
    brute, _ = ascending_by_size
    for n in range(2, MAX_TREE):
        grown = {}
        for p in brute[n]:
            for op, child in gentree.children(p):
                enc = child.encode()
                assert enc not in grown, (enc, "grown twice")
                grown[enc] = (op, p)
        assert len(grown) == len(brute[n + 1]), n + 1
        for q in brute[n + 1]:
            assert grown.get(q.encode()) == gentree.parent(q), q.encode()
    _report(5, "every ascending polyomino of size 3..11 is grown once, from its parent")


def test_criterion_6_tree_geometry_consistency(ascending_by_size):
    brute, _ = ascending_by_size
    checked = 0
    for n in range(2, 11):
        for p in brute[n]:
            got: dict = {}
            for _, child in gentree.children(p):
                lab = gentree.label_of(child)
                got[lab] = got.get(lab, 0) + 1
            want: dict = {}
            for lab, mult in gentree.succ(gentree.label_of(p)):
                want[lab] = want.get(lab, 0) + mult
            assert got == want, p.encode()
            checked += 1
    _report(6, f"children labels equal succ(label) for {checked} polyominoes, n<=10")


def test_criterion_7_refined_generating_functions():
    rep = verify.suite_refined_gf(max_n=10)
    assert rep.passed, rep.to_text()
    _report(
        7,
        "rectangular class GFs match (b,w,r)-statistics at (2/3,3/5,5/7) and "
        "scalar class evaluations match class totals, n<=10",
    )


def test_criterion_8_functional_equations_and_kernels():
    eq = series.functional_equation_checks(
        Fraction(2, 3), Fraction(3, 5), Fraction(5, 7), 60
    )
    assert len(eq) == 7
    for desc, ok, fail in eq:
        assert ok, (desc, fail)
    for desc, ok, fail in series.kernel_checks(100):
        assert ok, (desc, fail)
    _report(
        8,
        "all seven rectangular-case equations hold to order 60 and the "
        "kernel identities hold (order 100 / exact)",
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


def test_remaining_module_invariants_at_full_size(census_rows, ascending_by_size):
    """Module invariants stated at sizes 11/12 that share the criteria's
    fixtures: directed-convex counts, the C21 spec value, degree-histogram
    structure, the ascending characterization, and set-level bijection."""
    rows, _, _ = census_rows
    c21 = series.gf("C21gf", MAX_CENSUS + 1)
    for n in range(2, MAX_CENSUS + 1):
        row = rows[n]
        assert row.directed_convex == series.rect_formula(n) == row.rect_ascending
        assert row.c21 == c21.integer_coefficient(n) == row.c12
        assert row.z_convex == row.l_convex + row.c12 + row.c21 + row.c22
        assert all(
            row.by_degree_pair.get((b, a), 0) == v
            for (a, b), v in row.by_degree_pair.items()
        )
        assert not any(
            nw > 1 and nw < ne and ne > 2 for ne, nw in row.by_degree_pair
        )
        assert row.prop4_mismatch == 0
    assert rows[10].c21 == 11919

    brute, _ = ascending_by_size
    tree = {n: [] for n in range(2, MAX_TREE + 1)}
    for n, rows, _, _ in gentree.walk(MAX_TREE):
        tree[n].append(rows)
    for n, shapes in tree.items():
        assert sorted(shapes) == sorted(p.rows for p in brute[n])
    print("PASS module invariants at sizes 11/12 (shared fixtures)")


def test_criterion_10_asymptotic_constants():
    report = series.asymptotic_report(1024)
    for entry in report:
        assert entry["ok"], entry
    c22 = next(e for e in report if e["law"].startswith("C(2,2)"))
    assert abs(c22["extrapolated"] - 1.0) <= 0.05
    for entry in report:
        if entry is not c22:
            assert abs(entry["extrapolated"] - 1.0) <= 0.02
    _report(
        10,
        "Richardson-extrapolated growth ratios at n=1024 within 2% "
        "(C22 sqrt-law within 5%)",
    )
