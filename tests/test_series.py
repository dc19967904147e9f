"""Exact series ring, frozen catalog reference values,
and the closed-form/kernel cross-checks."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from zcx import series as S
from zcx import verify
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
    tpoly,
)


def _rational(rng):
    """A rational in [-4, 4] with denominator at most 6, drawn with ``rng``."""
    d = rng.randint(1, 6)
    return Fraction(rng.randint(-4 * d, 4 * d), d)


def _coefficient_draws(seed, count, max_order):
    """``count`` coefficient lists drawn from ``seed``, each of 1 to
    ``max_order`` rationals from ``_rational``."""
    rng = random.Random(seed)
    return [[_rational(rng) for _ in range(rng.randint(1, max_order))]
            for _ in range(count)]


def _assert_reaches_edge_cases(draws):
    # The cases a ring operation is likeliest to get wrong: a series of
    # order 1, a zero coefficient and a non-integer one.
    coeffs = [c for cs in draws for c in cs]
    assert any(len(cs) == 1 for cs in draws)
    assert 0 in coeffs and any(c.denominator > 1 for c in coeffs)


def _draw_text(i, *coeff_lists):
    """Draw ``i`` and its coefficients, for an assertion message."""
    return f"draw {i}: " + " | ".join(", ".join(map(str, cs)) for cs in coeff_lists)


# ---- ring operations -------------------------------------------------------

def test_mul_identity():
    s = tpoly(16, [3, Fraction(1, 2), -7, 5])
    assert (one(16) * s).coeffs == s.coeffs


def test_t_times_t():
    sq = tpoly(8, [0, 1]) * tpoly(8, [0, 1])
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


def test_ring_laws(draws=600):
    cases = _coefficient_draws(1, 3 * draws, 12)
    for i in range(draws):
        triple = cases[3 * i:3 * i + 3]
        n = min(map(len, triple))
        a, b, c = (Series(cs).truncate(n) for cs in triple)
        why = _draw_text(i, *triple)
        assert ((a + b) * c).coeffs == (a * c + b * c).coeffs, why
        assert (a * b).coeffs == (b * a).coeffs, why
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs, why
        assert (a - a).is_zero(), why
    _assert_reaches_edge_cases(cases)


def test_division_roundtrip(draws=500):
    cases = _coefficient_draws(2, draws, 12)
    for i, coeffs in enumerate(cases):
        a = Series(coeffs)
        if a.coeffs[0] == 0:
            a = a + one(a.order)
        q = one(a.order) / a
        assert (q * a).coeffs == one(a.order).coeffs, _draw_text(i, coeffs)
    _assert_reaches_edge_cases(cases)
    assert any(cs[0] == 0 for cs in cases)


def test_sqrt_squares_back(draws=500):
    cases = _coefficient_draws(3, draws, 10)
    for i, coeffs in enumerate(cases):
        coeffs[0] = Fraction(1)
        a = Series(coeffs)
        s = a.sqrt()
        assert (s * s).coeffs == a.coeffs, _draw_text(i, coeffs)
    _assert_reaches_edge_cases(cases)


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
    ring = Series([0] * n)
    for c, p, q, e in builder(*params.values()):
        ring = ring + (tpoly(n, p) * b**e / tpoly(n, q)).scale(c)
    assert gf(name, n, **params) == ring


@pytest.mark.parametrize("left, right", [
    (("dCat", {}), ("dCat", {})),
    (("RectGf", {}), ("C22gf", {})),
    (("Np", {"z": Fraction(2, 3)}), ("Lgf", {})),
], ids=["dCat-dCat", "RectGf-C22gf", "Np-Lgf"])
def test_times_matches_ring_product(left, right):
    # The term-by-term product, B B folded into Q as 1/(1-4t), expands to
    # the ring product of the two expansions; each pair has two B terms.
    n = 120
    a, b = (S._CATALOG[name][0](*params.values()) for name, params in (left, right))
    assert S._expand(S._times(a, b), n) == S._expand(a, n) * S._expand(b, n)


def test_catalog_term_with_pole_at_zero_rejected():
    with pytest.raises(NonUnitDivisor):
        S._term(1, [(1, 1)], [(0, 1)])


# ---- frozen catalog reference values ---------------------------------------

H_PREFIX = [1, 2, 7, 25, 91, 336, 1254, 4719, 17875]
RECT_PREFIX = [1, 2, 6, 20, 70, 252, 924, 3432, 12870]


def test_convex_series_prefix():
    g = gf("Cgf", 10)
    assert [g.integer_coefficient(n) for n in range(2, 10)] == [
        1, 2, 7, 28, 120, 528, 2344, 10416]


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


def test_kernel_checks_use_no_ring_operation(monkeypatch):
    def refuse(*args):
        raise AssertionError("a kernel check used the Series ring")

    for op in ("__mul__", "sqrt", "inverse", "__truediv__"):
        monkeypatch.setattr(Series, op, refuse)
    assert [ok for _, ok, _ in S.kernel_checks()] == [True] * 5


def _failing_kernel_checks():
    return [desc for desc, ok, _ in S.kernel_checks() if not ok]


def test_kernel_checks_read_dcat(monkeypatch):
    # A wrong Catalan series breaks only the identity that reads it.
    _perturb_entry(monkeypatch, "_gf_dcat")
    assert _failing_kernel_checks() == ["t z0 = d(t) + t"]


def test_kernel_checks_need_the_fold_of_b_squared(monkeypatch):
    # Without B B = 1/(1-4t) the product half * half is wrong, and only the
    # z0 row multiplies two B terms.
    def times_unfolded(a, b):
        return [(c1 * c2, S._pmul(p1, p2), S._pmul(q1, q2), e1 ^ e2)
                for c1, p1, q1, e1 in a for c2, p2, q2, e2 in b]

    monkeypatch.setattr(S, "_times", times_unfolded)
    assert _failing_kernel_checks() == [
        "1 - z + t z^2 vanishes at z0 = (1-sqrt(1-4t))/(2t)"]


def test_functional_equations_hold_at_several_parameter_sets(order=40):
    for params in (
        (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7)),
        (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)),
        (Fraction(-1, 2), Fraction(2, 7), Fraction(3, 4)),
    ):
        for desc, ok, fail in S.functional_equation_checks(*params, order):
            assert ok, (params, desc, fail)


def test_size_identities_hold(order=300):
    for desc, ok, fail in S.size_identity_checks(order):
        assert ok, (desc, fail)


def test_linear_checks_expand_each_row_once(monkeypatch):
    # Every row of linear terms is one expansion: seven per call of the
    # functional equations, two per call of the size identities, and five
    # kernel checks, the rows in s = sqrt(t) to order 200.
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
        assert calls == [20] * 7
    calls.clear()
    assert [ok for _, ok, _ in S.size_identity_checks(300)] == [True] * 2
    assert calls == [300] * 2
    calls.clear()
    assert [ok for _, ok, _ in S.kernel_checks()] == [True] * 5
    assert calls == [102, 200, 200, 102, 102]


def _sum_expanded_terms(rows, terms):
    # The reference: expand each entry F of a row on its own and sum the
    # row's k t^s F in Fractions.
    sums = []
    for _, row in rows:
        delta = [0] * terms
        for k, s, f in row:
            delta[s:] = [d + k * a for d, a in zip(delta[s:], S._expand(f, terms).coeffs)]
        sums.append(tuple(delta))
    return sums


@pytest.mark.parametrize("terms", [60, 200])
@pytest.mark.parametrize("params", [
    (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)),
    (Fraction(-1, 2), Fraction(2, 7), Fraction(3, 4)),
    (Fraction(2), Fraction(2, 5), Fraction(1, 2)),
    (Fraction(5, 2), Fraction(5, 4), Fraction(1, 5)),
])
def test_each_equation_row_expands_to_the_sum_of_its_terms(monkeypatch, params, terms):
    # One expansion of a row's joined terms equals, coefficient by
    # coefficient, the sum of its terms' separate expansions.
    rows, joined = [], []
    real_checks, real_expand = S.linear_checks, S._expand

    def linear_checks(table, n):
        rows.extend(table)
        return real_checks(table, n)

    def expand(term_list, n):
        joined.append(real_expand(term_list, n))
        return joined[-1]

    monkeypatch.setattr(S, "linear_checks", linear_checks)
    monkeypatch.setattr(S, "_expand", expand)
    S.functional_equation_checks(*params, terms)
    monkeypatch.undo()
    assert len(rows) == len(joined) == 7
    assert [g.coeffs for g in joined] == _sum_expanded_terms(rows, terms)


def _first_term_perturbed(builder):
    # The builder with its first term's scalar multiplied by 1 + 10^-6.
    def perturbed(*params):
        (c, p, q, e), *rest = builder(*params)
        return [(c * (1 + Fraction(1, 10**6)), p, q, e), *rest]
    return perturbed


def _perturb_entry(monkeypatch, builder):
    # The catalog entry that ``builder`` builds, its first term perturbed:
    # the entry that ``gf`` and every check read.
    (name, params), = [(k, p) for k, (b, p) in S._CATALOG.items()
                       if b is getattr(S, builder)]
    monkeypatch.setitem(S._CATALOG, name,
                        (_first_term_perturbed(getattr(S, builder)), params))


def _failing_equations(x, y, z, terms):
    return {desc.split(" = ")[0]
            for desc, ok, _ in S.functional_equation_checks(x, y, z, terms) if not ok}


@pytest.mark.parametrize("builder, failing", [
    ("_gf_c0p", {"C'0", "L'0", "S'0", "L'"}),
    ("_gf_s0p", {"C'0", "L'0", "S'0", "S'"}),
    ("_gf_lp", {"C'", "L'", "N'"}),
])
def test_functional_equations_read_their_class_functions(monkeypatch, builder, failing):
    # A wrong class function breaks exactly the equations that read it.
    _perturb_entry(monkeypatch, builder)
    params = (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7))
    assert _failing_equations(*params, 60) == failing


@pytest.mark.parametrize("builder, failing", [
    ("_gf_c22", {"C", "Z"}),
    ("_gf_c21", {"Z"}),
    ("_gf_ascending", {"C"}),
])
def test_size_identities_read_their_class_functions(monkeypatch, builder, failing):
    # A wrong class function breaks exactly the size identities that read it,
    # through the catalog entry that ``gf`` and the census rows read too.
    _perturb_entry(monkeypatch, builder)
    assert {desc.split(" = ")[0]
            for desc, ok, _ in S.size_identity_checks(60) if not ok} == failing


def test_np_is_pinned_by_the_label_statistics_not_the_equations(monkeypatch):
    # Np's first term t^3 z/(sqrt(1-4t) K), K = 1 - z + t z^2, solves the
    # homogeneous equation K T(z) = tz T(1): the N' equation cannot see it.
    _perturb_entry(monkeypatch, "_gf_np")
    assert _failing_equations(Fraction(2, 3), Fraction(3, 5), Fraction(5, 7), 60) == set()
    failed = [c for c in verify.suite_refined_gf(8).checks if not c.passed]
    assert [c.description for c in failed] == [
        f"rectangular non-centered: statistic = Np(z={z}), n <= 8" for z in ("5/7", "2/3")]
    assert all(c.witness.startswith("(3, ") for c in failed)


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
    # structural smoke test: one passing row per law, and at n = 1024 each
    # coefficient within a factor 1.5 of its law
    rep = verify.suite_asymptotics()
    assert rep.passed and len(rep.checks) == len(S._LAWS)
    assert any("256" in c.description for c in rep.checks)
    n = 1024
    for _, name, k, e in S._LAWS:
        ratio = (float(S.gf(name, n + 1).coefficient(n) * k / 4**n) / n**e
                 * (math.sqrt(math.pi) if e % 1 else 1))
        assert 0.5 < ratio < 1.5, name


def _failing_laws():
    return [c for c in verify.suite_asymptotics().checks if not c.passed]


@pytest.mark.parametrize("row", range(len(S._LAWS)))
def test_each_law_constant_is_read_by_its_own_check(monkeypatch, row):
    # A growth constant 5 percent too large fails its own law, and only it.
    laws = list(S._LAWS)
    law, name, k, e = laws[row]
    laws[row] = (law, name, k * Fraction(21, 20), e)
    monkeypatch.setattr(S, "_LAWS", tuple(laws))
    failed = _failing_laws()
    assert len(failed) == 1 and failed[0].description.startswith(f"{law}: ")
    assert failed[0].witness == f"(K, e) = ({k}, {e})"


@pytest.mark.parametrize("row", range(len(S._LAWS)))
def test_each_law_exponent_is_read_by_its_own_check(monkeypatch, row):
    laws = list(S._LAWS)
    law, name, k, e = laws[row]
    laws[row] = (law, name, k, e + Fraction(1, 2))
    monkeypatch.setattr(S, "_LAWS", tuple(laws))
    assert [c.description.split(": ")[0] for c in _failing_laws()] == [law]


@pytest.mark.parametrize("terms", [
    [S._term(1, [], [(1, -5)], 2)],    # 1/((1-5t)(1-4t)): a pole inside
    [S._term(1, [], [(1, 4)], 2)],     # 1/((1+4t)(1-4t)): a co-dominant pole
], ids=["inner-pole", "co-dominant-pole"])
def test_a_pole_in_the_disc_gives_no_law(monkeypatch, terms):
    assert S.growth_law(terms) is None
    monkeypatch.setitem(S._CATALOG, "Egf", (lambda: terms, ()))
    failed = _failing_laws()
    assert [c.description for c in failed] == [
        "centered ~ 3 * 4^n / 128: K and e read off Egf exactly"]
    assert failed[0].witness.startswith("no law: a pole in |t| <= 1/4")


def test_cancelling_leading_terms_give_no_other_law():
    # 1/(1-4t)^2 - 4t/(1-4t)^2 = 1/(1-4t): the alpha = 2 parts cancel.
    terms = [S._term(1, [], [], 4), S._term(-1, [(0, 4)], [], 4)]
    assert S.growth_law(terms) in ((1, 0), None)


@pytest.mark.parametrize("name, law", [
    # rect(n) = binom(2n-4, n-2) ~ 4^(n-2) / sqrt(pi n)
    ("RectGf", (16, Fraction(-1, 2))),
    # h(n) = (3n-5)/(n-1) binom(2n-5, n-2), and binom(2m-1, m) ~ 4^m / (2 sqrt(pi m))
    ("Hgf", (Fraction(32, 3), Fraction(-1, 2))),
    # [t^n] d = Catalan(n-1) ~ 4^(n-1) / (sqrt(pi) n^(3/2))
    ("dCat", (4, Fraction(-3, 2))),
])
def test_growth_law_of_closed_counts_worked_by_hand(name, law):
    assert S.growth_law(S._CATALOG[name][0]()) == law
