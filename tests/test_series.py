"""Exact series ring, frozen catalog reference values,
and the closed-form/kernel cross-checks."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zcx import series as S
from zcx.series import (
    BadConstantTerm,
    DegenerateParam,
    MissingParam,
    NonUnitDivisor,
    Series,
    gf,
    h_formula,
    one,
    rect_formula,
    t,
    tpoly,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
series_strategy = st.lists(rationals, min_size=1, max_size=12).map(Series)


# ---- ring operations -------------------------------------------------------

def test_mul_identity():
    s = tpoly(16, [3, Fraction(1, 2), -7, 5])
    assert (one(16) * s).coeffs == s.coeffs


def test_t_times_t():
    sq = t(8) * t(8)
    assert sq.coefficient(2) == 1
    assert all(sq.coefficient(i) == 0 for i in range(8) if i != 2)


def test_inverse_cancels():
    m4 = tpoly(40, [1, -4])
    assert (m4 * m4.inverse()).coeffs == one(40).coeffs


def test_geometric_series():
    inv = tpoly(12, [1, -4]).inverse()
    assert [inv.integer_coefficient(n) for n in range(12)] == [4**n for n in range(12)]


def test_linear_recurrence_inverse():
    # 1/(1 - 4t + 2t^2): a_n = 4 a_{n-1} - 2 a_{n-2}
    inv = tpoly(12, [1, -4, 2]).inverse()
    seq = [inv.integer_coefficient(n) for n in range(12)]
    assert seq[:5] == [1, 4, 14, 48, 164]
    for n in range(2, 12):
        assert seq[n] == 4 * seq[n - 1] - 2 * seq[n - 2]


def test_lconvex_expansion_matches_recurrence_oracle():
    # expected values computed from the same recurrence, applied to the
    # polynomial numerator t^2 - 2t^3 + t^4 term by term
    inv = [1, 4, 14]
    for n in range(3, 12):
        inv.append(4 * inv[-1] - 2 * inv[-2])
    expected = [
        inv[n - 2] - 2 * inv[n - 3] + inv[n - 4] if n >= 4 else (1, 2)[n - 2]
        for n in range(2, 10)
    ]
    g = gf("Lgf", 10)
    assert [g.integer_coefficient(n) for n in range(2, 10)] == expected
    assert expected == [1, 2, 7, 24, 82, 280, 956, 3264]


def test_sqrt_of_one():
    assert tpoly(10, [1]).sqrt().coeffs == one(10).coeffs


def test_sqrt_1m4t_is_catalan():
    s = tpoly(12, [1, -4]).sqrt()
    cat = [math.comb(2 * k, k) // (k + 1) for k in range(12)]
    assert s.integer_coefficient(0) == 1
    for n in range(1, 12):
        assert s.integer_coefficient(n) == -2 * cat[n - 1]


def test_dcat_is_catalan_shifted():
    d = gf("dCat", 12)
    cat = [math.comb(2 * k, k) // (k + 1) for k in range(12)]
    assert d.coefficient(0) == 0 and d.coefficient(1) == 0
    for n in range(2, 12):
        assert d.integer_coefficient(n) == cat[n - 1]


def test_sqrt_requires_unit_constant():
    with pytest.raises(BadConstantTerm):
        tpoly(8, [2, 1]).sqrt()


def test_division_by_nonunit():
    with pytest.raises(NonUnitDivisor):
        one(8) / tpoly(8, [0, 1])
    # but exact cancellation of t powers is allowed
    q = tpoly(8, [0, 0, 1]) / tpoly(8, [0, 1])
    assert q.coefficient(1) == 1 and q.order == 7


@settings(max_examples=200, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_ring_laws(a, b, c):
    n = min(a.order, b.order, c.order)
    a, b, c = a.truncate(n), b.truncate(n), c.truncate(n)
    assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a - a).is_zero()


@settings(max_examples=100, deadline=None)
@given(series_strategy)
def test_division_roundtrip(a):
    if a.coeffs[0] == 0:
        a = a + one(a.order)
    q = one(a.order) / a
    assert (q * a).coeffs == one(a.order).coeffs


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=10))
def test_sqrt_squares_back(coeffs):
    coeffs[0] = Fraction(1)
    a = Series(coeffs)
    s = a.sqrt()
    assert (s * s).coeffs == a.coeffs


def test_pow():
    p = tpoly(10, [1, 1])
    assert (p**4).coeffs == tpoly(10, [1, 4, 6, 4, 1]).coeffs
    assert (p**0).coeffs == one(10).coeffs


# ---- catalog expansion against the ring ------------------------------------

UNPARAMETERIZED = [name for name, (_, params) in S._CATALOG.items() if not params]


# The parameter sets of the order-200 hashes below, the second with x < 0.
_XY1 = {"x": Fraction(2, 3), "y": Fraction(3, 5)}
_XYZ1 = {**_XY1, "z": Fraction(5, 7)}
_XY2 = {"x": Fraction(-1, 2), "y": Fraction(2, 7)}
_XYZ2 = {**_XY2, "z": Fraction(3, 4)}

_RING_CASES = [(name, {}) for name in UNPARAMETERIZED] + [
    (name, xyz if S.parameters(name) == ("x", "y", "z") else xy)
    for xy, xyz in ((_XY1, _XYZ1), (_XY2, _XYZ2))
    for name in ("C0p", "L0p", "S0p", "Sp", "Cp", "Lp")
] + [("Np", {"z": Fraction(z)}) for z in (1, Fraction(2, 3), Fraction(-1, 2))]


@pytest.mark.parametrize("name,params", [
    pytest.param(name, params, id="-".join(
        [name] + [f"{k}={v}" for k, v in params.items()]))
    for name, params in _RING_CASES
])
def test_expansion_matches_ring_oracle(name, params):
    # the same (c, P, Q, e) terms, evaluated as c P B^e / Q with the ring's
    # Fraction division and square root, B = 1/sqrt(1-4t); at rational
    # parameters the expansion runs an integer recurrence instead
    n = 120
    builder = S._CATALOG[name][0]
    b = one(n) / tpoly(n, [1, -4]).sqrt()
    ring = S.zero(n)
    for c, p, q, e in builder(*params.values()):
        ring = ring + (tpoly(n, p) * b**e / tpoly(n, q)).scale(c)
    assert gf(name, n, **params) == ring


def test_catalog_term_with_pole_at_zero_rejected():
    with pytest.raises(NonUnitDivisor):
        S._term(1, [(1, 1)], [(0, 1)])


# ---- frozen catalog reference values ---------------------------------------

A_PREFIX = [1, 2, 7, 26, 101, 404, 1649, 6824, 28498]
H_PREFIX = [1, 2, 7, 25, 91, 336, 1254, 4719, 17875]
RECT_PREFIX = [1, 2, 6, 20, 70, 252, 924, 3432, 12870]
C22_PREFIX = [2, 32, 308, 2320, 15094, 89104, 491012]       # from t^8
C21_PREFIX = [2, 17, 102, 532, 2576, 11919, 53504, 235115, 1017218]  # from t^5


def _ints(name, lo, hi):
    g = gf(name, hi + 1)
    return [g.integer_coefficient(n) for n in range(lo, hi + 1)]


def test_ascending_series_prefix():
    assert _ints("Agf", 2, 10) == A_PREFIX


def test_centered_ascending_series_prefix():
    assert _ints("Hgf", 2, 10) == H_PREFIX


def test_rectangular_series_prefix():
    assert _ints("RectGf", 2, 10) == RECT_PREFIX


def test_c22_series_prefix():
    assert _ints("C22gf", 2, 7) == [0] * 6
    assert _ints("C22gf", 8, 14) == C22_PREFIX


def test_c21_series_prefix():
    assert _ints("C21gf", 2, 4) == [0] * 3
    assert _ints("C21gf", 5, 13) == C21_PREFIX


def test_convex_series_prefix():
    assert _ints("Cgf", 2, 9) == [1, 2, 7, 28, 120, 528, 2344, 10416]


# Polynomial hashes sum(c_k * R^k) mod 2^61 - 1 of every coefficient, with a
# rational c_k read as numerator * denominator^-1 mod the prime.  Frozen
# from an independent expansion of the same closed forms (Newton square
# root and inverse of the composed series), so the recurrences are held to
# it at high order.
HASH_PRIME = (1 << 61) - 1
HASH_R = 1_000_003

FROZEN_1025 = {
    "Lgf": 666955174238933906,
    "Egf": 1080782784407913203,
    "Zgf": 1543980809644824833,
    "S4gf": 1738161337983118992,
    "Cgf": 2005241701235382369,
    "dCat": 2187329603732539834,
    "Hgf": 1986034856558061574,
    "RectGf": 594786177709913363,
    "Agf": 1589223069801428653,
    "C22gf": 1799593745085152920,
    "C21gf": 691637449767215979,
    "S111": 1547262203876503891,
    "R1": 1401860011238487930,
    "C1at1": 792738914156119994,
    "C111": 1181324700726473073,
    "L111": 2092013228231133430,
    "N1": 896766861503878825,
}

FROZEN_200 = [
    ("C0p", _XY1, 666848944129601864),
    ("L0p", _XY1, 1691282620122980579),
    ("S0p", _XY1, 1456995839362498438),
    ("Sp", _XYZ1, 733044049691022979),
    ("Cp", _XYZ1, 1855462883410570549),
    ("Lp", _XYZ1, 4942605483499568),
    ("C0p", _XY2, 180750395061818326),
    ("L0p", _XY2, 1453855878144515462),
    ("S0p", _XY2, 2113951617811983579),
    ("Sp", _XYZ2, 691929745189486201),
    ("Cp", _XYZ2, 1498210683349115122),
    ("Lp", _XYZ2, 1121478666504574075),
    ("Np", {"z": Fraction(1)}, 122032392730423952),
    ("Np", {"z": Fraction(2, 3)}, 436399905377479827),
]


def _hash(s):
    acc = 0
    for c in reversed(s.coeffs):
        acc = (acc * HASH_R + c.numerator * pow(c.denominator, -1, HASH_PRIME)) % HASH_PRIME
    return acc


@pytest.mark.parametrize("name", sorted(FROZEN_1025))
def test_frozen_hash_order_1025(name):
    g = gf(name, 1025)
    assert g.order == 1025
    assert _hash(g) == FROZEN_1025[name]


@pytest.mark.parametrize("name,params,expected", FROZEN_200)
def test_frozen_hash_refined_order_200(name, params, expected):
    g = gf(name, 200, **params)
    assert g.order == 200
    assert _hash(g) == expected


def test_h_formula_values():
    assert h_formula(2) == 1
    assert h_formula(5) == 25
    assert [h_formula(n) for n in range(2, 11)] == H_PREFIX


def test_rect_formula_values():
    assert rect_formula(6) == 70
    assert [rect_formula(n) for n in range(2, 11)] == RECT_PREFIX


def test_formulas_match_series_to_100():
    h = gf("Hgf", 101)
    r = gf("RectGf", 101)
    for n in range(2, 101):
        assert h_formula(n) == h.integer_coefficient(n)
        assert rect_formula(n) == r.integer_coefficient(n)


def test_c22_identity_order_300():
    order = 300
    delta = gf("Cgf", order) - gf("Agf", order).scale(2) + gf("Lgf", order) - gf("C22gf", order)
    assert delta.is_zero()


def test_c21_identity_order_300():
    order = 300
    delta = gf("C21gf", order).scale(2) + gf("C22gf", order) + gf("Lgf", order) - gf("Zgf", order)
    assert delta.is_zero()


def test_counting_gfs_have_nonneg_integer_coefficients():
    for name in ("Lgf", "Egf", "Zgf", "S4gf", "Cgf", "Hgf", "RectGf",
                 "Agf", "C22gf", "C21gf"):
        g = gf(name, 300)
        for i in range(300):
            c = g.coefficient(i)
            assert c.denominator == 1 and c >= 0, (name, i, c)


def test_class_sum_identities():
    n = 200
    rect_classes = (
        gf("C0p", n, x=1, y=1) + gf("L0p", n, x=1, y=1) + gf("S0p", n, x=1, y=1)
        + gf("Cp", n, x=1, y=1, z=1) + gf("Lp", n, x=1, y=1, z=1)
        + gf("Sp", n, x=1, y=1, z=1)
    )
    scalars = (
        gf("C111", n) + gf("L111", n) + gf("S111", n) + gf("R1", n)
        + gf("C1at1", n)
    )
    np1 = gf("Np", n, z=1)
    assert (gf("Hgf", n) - rect_classes - scalars).is_zero()
    assert (gf("RectGf", n) - rect_classes - np1).is_zero()
    assert (gf("Agf", n) - gf("Hgf", n) - gf("N1", n) - np1).is_zero()


def test_missing_param():
    with pytest.raises(MissingParam):
        gf("Cp", 10, x=1, y=1)
    with pytest.raises(MissingParam):
        gf("Np", 10)


def test_parameters():
    assert S.parameters("Cp") == ("x", "y", "z")
    assert S.parameters("Np") == ("z",)
    assert S.parameters("A") == S.parameters("N1") == ()
    with pytest.raises(KeyError):
        S.parameters("nope")


def test_unknown_name():
    with pytest.raises(KeyError):
        gf("nope", 10)


def test_aliases():
    assert gf("A", 12).coeffs == gf("Agf", 12).coeffs
    assert gf("Rect", 12).coeffs == gf("RectGf", 12).coeffs


def test_kernel_checks_pass():
    for desc, ok, fail in S.kernel_checks(100):
        assert ok, (desc, fail)


def test_functional_equations_hold_at_several_parameter_sets():
    for params in (
        (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7)),
        (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)),
        (Fraction(-1, 2), Fraction(2, 7), Fraction(3, 4)),
    ):
        for desc, ok, fail in S.functional_equation_checks(*params, 40):
            assert ok, (params, desc, fail)


def test_functional_equations_expand_each_class_function_once(monkeypatch):
    # The seven equations read seven class functions at 21 distinct
    # (function, parameters) pairs; each is expanded once per call.
    calls = []
    real = S._expand

    def expand(terms, n):
        calls.append(n)
        return real(terms, n)

    monkeypatch.setattr(S, "_expand", expand)
    for params in (
        (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7)),
        (Fraction(-1, 2), Fraction(2, 7), Fraction(3, 4)),
    ):
        calls.clear()
        results = S.functional_equation_checks(*params, 20)
        assert [ok for _, ok, _ in results] == [True] * 7
        assert calls == [20] * 21


def test_degenerate_params_rejected():
    with pytest.raises(DegenerateParam):
        S.functional_equation_checks(1, 1, Fraction(1, 2), 20)
    with pytest.raises(DegenerateParam):
        S.functional_equation_checks(1, Fraction(1, 2), 1, 20)


def test_np_at_z_equal_1_is_well_defined():
    np1 = gf("Np", 50, z=1)
    assert np1.order == 50
    # N'(1) counts rectangular non-centered ascending polyominoes
    expected = gf("RectGf", 50) - (
        gf("C0p", 50, x=1, y=1) + gf("L0p", 50, x=1, y=1) + gf("S0p", 50, x=1, y=1)
        + gf("Cp", 50, x=1, y=1, z=1) + gf("Lp", 50, x=1, y=1, z=1)
        + gf("Sp", 50, x=1, y=1, z=1)
    )
    assert (np1 - expected).is_zero()


def test_asymptotic_report_small():
    # structural smoke test at modest n; the acceptance run uses n=1024
    rep = S.asymptotic_report(128)
    assert len(rep) == 6
    laws = {r["law"] for r in rep}
    assert any("256" in law for law in laws)
    for r in rep:
        assert 0.5 < r["extrapolated"] < 1.5
