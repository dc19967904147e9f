"""Exact truncated formal power series and the generating-function catalog.

Series hold exact rational coefficients for exponents 0..order-1 and every
ring operation truncates at the shorter operand.  Multiplication, division
and square root are the plain coefficient recurrences.  The kernel checks
use them, and the tests compare the catalog expansion with them.

The catalog section collects the closed generating functions this package
is built to verify: the size generating functions of
L-convex, centered, Z-convex, 4-stack and convex polyominoes, the refined
class functions C'0, L'0, S'0, S', C', L', N' with their scalar evaluations,
the centered/rectangular/ascending series H, Rect, A, and the difference
classes C22, C21.  Each one is R0(t) + R1(t) (1-4t)^(-1/2) with R0 and R1
rational, written as a short list of terms c P(t)/Q(t) (1-4t)^(-j/2) and
expanded by integer recurrences: the central binomials binom(2k, k) for
(1-4t)^(-1/2), a sparse multiply by P and the linear recurrence of 1/Q.
Rational parameters stay in integers too: P and Q are scaled to integer
polynomials and each coefficient is divided out once, at the end.
Floating point appears only in the asymptotic-ratio report at the very
bottom.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

DEFAULT_ORDER = 300


class SeriesError(ValueError):
    """Base class for series-domain errors."""


class NonUnitDivisor(SeriesError):
    """Division by a series whose valuation exceeds the dividend's."""


class BadConstantTerm(SeriesError):
    """sqrt requires constant term 1."""


class MissingParam(SeriesError):
    """A parameterized catalog entry was requested without its parameters."""


class DegenerateParam(SeriesError):
    """A parameter value hits a divided difference's pole."""


class Series:
    """Truncated power series in t with exact Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "Series":
        # Internal fast path: coeffs already a tuple of Fractions.
        s = object.__new__(cls)
        s.coeffs = coeffs
        return s

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"Series([{head}{', ...' if self.order > 6 else ''}], order={self.order})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def integer_coefficient(self, n: int) -> int:
        c = self.coefficient(n)
        if c.denominator != 1:
            raise ValueError(f"coefficient of t^{n} is not an integer: {c}")
        return c.numerator

    def truncate(self, n: int) -> "Series":
        if n >= self.order:
            return self
        return Series._raw(self.coeffs[:n])

    def valuation(self) -> int | None:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series._raw(
            tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n]))
        )

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series._raw(
            tuple(a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n]))
        )

    def __neg__(self) -> "Series":
        return Series._raw(tuple(-c for c in self.coeffs))

    def scale(self, k) -> "Series":
        k = Fraction(k)
        return Series._raw(tuple(k * c for c in self.coeffs))

    def shift(self, k: int) -> "Series":
        """Multiply by t**k (k >= 0) or divide by t**k (k < 0, exact)."""
        if k >= 0:
            return Series._raw((Fraction(0),) * k + self.coeffs[: self.order - k])
        if any(self.coeffs[:-k]):
            raise NonUnitDivisor(f"series has valuation below {-k}")
        return Series._raw(self.coeffs[-k:])

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        da = math.lcm(*(c.denominator for c in self.coeffs[:n])) if n else 1
        db = math.lcm(*(c.denominator for c in other.coeffs[:n])) if n else 1
        ib = [int(c * db) for c in other.coeffs[:n]]
        out = [0] * n
        for i, c in enumerate(self.coeffs[:n]):
            if c:
                ai = int(c * da)
                for j, bj in enumerate(ib[: n - i]):
                    if bj:
                        out[i + j] += ai * bj
        d = da * db
        return Series._raw(tuple(Fraction(c, d) for c in out))

    def square(self) -> "Series":
        return self * self

    def __pow__(self, k: int) -> "Series":
        if k < 0 or int(k) != k:
            raise ValueError("only non-negative integer powers")
        result = one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> "Series":
        """Multiplicative inverse; needs a unit constant."""
        if self.order == 0 or self.coeffs[0] == 0:
            raise NonUnitDivisor("constant term is zero")
        return one(self.order) / self

    def __truediv__(self, other: "Series") -> "Series":
        """Exact division; a common power of t is cancelled first.

        When the divisor's constant term vanishes, both operands must be
        divisible by the divisor's leading power of t, and the result loses
        that many terms of truncation order.  The quotient q solves
        sum_j b_j q_{k-j} = a_k term by term, in O(n deg b) steps.
        """
        n = min(self.order, other.order)
        a, b = self.truncate(n), other.truncate(n)
        if b.coeffs and b.coeffs[0] == 0:
            v = b.valuation()
            if v is None:
                raise NonUnitDivisor("division by zero series")
            a = a.shift(-v)
            b = b.shift(-v)
        if b.order == 0:
            raise NonUnitDivisor("constant term is zero")
        taps = [(j, c) for j, c in enumerate(b.coeffs) if j and c]
        inv0 = 1 / b.coeffs[0]
        q = []
        for k, ak in enumerate(a.coeffs):
            q.append((ak - sum(c * q[k - j] for j, c in taps if j <= k)) * inv0)
        return Series._raw(tuple(q))

    def sqrt(self) -> "Series":
        """Square root with constant term 1, from r^2 = a term by term:
        2 r_k = a_k - sum_{0<i<k} r_i r_{k-i}."""
        if self.order == 0 or self.coeffs[0] != 1:
            raise BadConstantTerm("sqrt requires constant term 1")
        a = self.coeffs
        r = [Fraction(1)]
        for k in range(1, self.order):
            r.append((a[k] - sum(r[i] * r[k - i] for i in range(1, k))) / 2)
        return Series._raw(tuple(r))


def zero(n: int) -> Series:
    return Series([0] * n)


def one(n: int) -> Series:
    return tpoly(n, [1])


def t(n: int) -> Series:
    return tpoly(n, [0, 1])


def tpoly(n: int, coeffs) -> Series:
    """Polynomial Sum coeffs[i] * t**i as a Series of order n."""
    cs = [Fraction(c) for c in coeffs[:n]]
    cs += [Fraction(0)] * (n - len(cs))
    return Series(cs)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _pmul(*polys) -> list:
    """Product of polynomials given as coefficient sequences."""
    out = [1]
    for p in polys:
        prod = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


def _tp(k: int, c=1) -> tuple:
    """The monomial c t^k."""
    return (0,) * k + (c,)


_M1, _M2, _M3, _M4 = (1, -1), (1, -2), (1, -3), (1, -4)   # 1 - kt
_L = (1, -4, 2)                                           # 1 - 4t + 2t^2
_W = (1, -5, 6, -1)                                       # 1 - 5t + 6t^2 - t^3
_H = Fraction(1, 2)


def _term(c, num, den=(), j=0):
    """The term c * prod(num) / prod(den) * (1-4t)^(-j/2) as (c, P, Q, e).

    It equals c * P/Q * B^e with B = (1-4t)^(-1/2) and e = j mod 2: the
    even part of j becomes whole powers of 1-4t in P (j < 0) or Q (j > 0).
    A power of t dividing Q is cancelled against P, and Q is made to start
    with 1, so that 1/Q is a linear recurrence with no division.
    """
    e = j % 2
    half = (j - e) // 2
    p = _pmul(*num, *[_M4] * -half)   # a list times a negative count is []
    q = _pmul(*den, *[_M4] * half)
    v = next(i for i, a in enumerate(q) if a)
    if any(p[:v]):
        raise NonUnitDivisor("the term has a pole at t = 0")
    p, q = p[v:], q[v:]
    if q[0] != 1:
        c, q = Fraction(c) / q[0], [Fraction(a) / q[0] for a in q]
    return c, p, q, e


def _central_binomials(n: int) -> list[int]:
    """binom(2k, k) for k < n, the coefficients of (1-4t)^(-1/2)."""
    out = [1] * n
    for k in range(1, n):
        out[k] = out[k - 1] * 2 * (2 * k - 1) // k
    return out


def _expand(terms, n: int) -> Series:
    """The first n coefficients of a sum of terms (c, P, Q, e).

    Every term costs O(n (len P + len Q)) steps, all in Python ints.  Each
    P is scaled to integers, its scale moving into c, and each Q is
    multiplied by d, the lcm of the denominators of all the Q's, which
    leaves integer Q's with constant term d (``_term`` makes Q start with
    1).  For such P and Q, U_k = d^(k+1) [t^k] P B^e / Q satisfies
    U_k = d^k [t^k] P B^e - sum_j Q_j d^(j-1) U_(k-j) in integers, and
    each coefficient of the sum is one Fraction: the c-weighted sum of
    the U_k over the common denominator of the c's times d^(k+1).
    Without rational parameters d = 1 and U_k is the coefficient itself.
    """
    d = math.lcm(*(a.denominator for _, _, q, _ in terms for a in q))
    scaled = []
    for c, p, q, e in terms:
        sp = math.lcm(*(a.denominator for a in p))
        scaled.append((Fraction(c) * d / sp, [int(a * sp) for a in p],
                       [int(a * d) for a in q], e))
    den = math.lcm(*(c.denominator for c, _, _, _ in scaled))
    central = _central_binomials(n) if any(e for *_, e in terms) else None
    total = [0] * n
    for c, p, q, e in scaled:
        if e:
            y = [0] * n
            for i, a in enumerate(p[:n]):
                if a:
                    y[i:] = [s + a * b for s, b in zip(y[i:], central)]
        else:
            y = p[:n] + [0] * (n - len(p))
        if d != 1:
            dk = 1
            for k in range(1, n):
                dk *= d
                y[k] *= dk
        taps = [(j, -b * d ** (j - 1)) for j, b in enumerate(q) if j and b]
        for k in range(1, n):
            y[k] += sum(b * y[k - j] for j, b in taps if j <= k)
        m = int(c * den)
        total = [s + m * a for s, a in zip(total, y)]
    out = []
    for s in total:
        den *= d
        out.append(Fraction(s, den))
    return Series._raw(tuple(out))


def _gf_lconvex():
    # t^2 (t^2 - 2t + 1) / (2t^2 - 4t + 1)
    return [_term(1, [_tp(2), (1, -2, 1)], [_L])]


def _gf_centered():
    # t^2 (1-t)(1-3t) / ((1-2t)(1-4t))
    return [_term(1, [_tp(2), _M1, _M3], [_M2], 2)]


def _gf_dcat():
    # d(t) = (1 - 2t - sqrt(1-4t)) / 2
    return [_term(_H, [_M2]), _term(-_H, [], [], -1)]


def _gf_zconvex():
    # 2 t^4 (1-2t)^2 d(t) / ((1-4t)^2 (1-3t)(1-t))
    #   + t^2 (1 - 6t + 10t^2 - 2t^3 - t^4) / ((1-4t)(1-3t)(1-t)),
    # with 2 d(t) = 1 - 2t - sqrt(1-4t)
    return [
        _term(1, [_tp(4), _M2, _M2, _M2], [_M3, _M1], 4),
        _term(-1, [_tp(4), _M2, _M2], [_M3, _M1], 3),
        _term(1, [_tp(2), (1, -6, 10, -2, -1)], [_M3, _M1], 2),
    ]


def _gf_fourstack():
    # t^2 (1-3t)^2 / ((1-4t)^{3/2} (1-2t))
    return [_term(1, [_tp(2), _M3, _M3], [_M2], 3)]


def _gf_convex():
    # t^2 (1 - 6t + 11t^2 - 4t^3)/(1-4t)^2 - 4 t^4/(1-4t)^{3/2}
    return [_term(1, [_tp(2), (1, -6, 11, -4)], [], 4), _term(-4, [_tp(4)], [], 3)]


def _gf_h():
    # H(t) = t(1-t)/(2 sqrt(1-4t)) - t(1-t)/2
    return [_term(_H, [_tp(1), _M1], [], 1), _term(-_H, [_tp(1), _M1])]


def _gf_rect():
    # t^2 / sqrt(1-4t)
    return [_term(1, [_tp(2)], [], 1)]


def _gf_ascending():
    # t^2 (2 - 12t + 19t^2 - 4t^3)/(2(1-4t)^2)
    #   - t^4 (5 - 8t)/(2(1-2t)(1-4t)^{3/2})
    return [
        _term(_H, [_tp(2), (2, -12, 19, -4)], [], 4),
        _term(-_H, [_tp(4), (5, -8)], [_M2], 3),
    ]


def _gf_c22():
    # t^4/((1-2t)(1-4t)^{3/2}) - t^4/((1-4t)(2t^2 - 4t + 1))
    return [_term(1, [_tp(4)], [_M2], 3), _term(-1, [_tp(4)], [_L], 2)]


def _gf_c21():
    # (8t^3 - 15t^2 + 10t - 2) t^4 / (2(1-t)(1-3t)(1-4t)^{3/2}(1-2t))
    #   - t^4 (8t^5 - 6t^4 + 4t^3 - 25t^2 + 14t - 2)
    #       / (2(2t^2-4t+1)(1-4t)^2 (1-3t)(1-t))
    return [
        _term(_H, [_tp(4), (-2, 10, -15, 8)], [_M1, _M3, _M2], 3),
        _term(-_H, [_tp(4), (-2, 14, -25, 4, -6, 8)], [_L, _M3, _M1], 4),
    ]


def _dy(y):
    # 1 - t - 2ty + t^2 y^2, the stack-family kernel polynomial
    return (1, -1 - 2 * y, y * y)


def _dz(z):
    # 1 - 3t + t^2 - 2tz + 4t^2 z + t^2 z^2 - t^3 z^2
    return (1, -3 - 2 * z, 1 + 4 * z + z * z, -(z * z))


def _gf_c0p(x, y):
    return [_term(1, [_tp(3, x * x * y), _M1, (1, -y)], [(1, -x), _dy(y)])]


def _gf_l0p(x, y):
    return [_term(1, [_tp(2, x * y), (1, -y - 1)], [_dy(y)])]


def _gf_s0p(x, y):
    return [_term(1, [_tp(4, x * y * y)], [_dy(y)])]


def _gf_sp(x, y, z):
    return [_term(1, [_tp(5, x * y * z), (1, -1 - z, -y + z)], [_dy(y), _dz(z)])]


def _gf_cp(x, y, z):
    num = [_tp(5, x * x * y * z), _M1, (1, -y - z, y - z + y * z)]
    return [_term(1, num, [(1, -x), _dy(y), _dz(z)])]


def _gf_lp(x, y, z):
    num = [_tp(4, x * y * z), (1, -2 - y - z, 1 + 2 * y + z + y * z, -y * z)]
    return [_term(1, num, [_dy(y), _dz(z)])]


def _gf_np(z):
    # t^3 z / (sqrt(1-4t) K) - t^3 z (1-zt)(1-(1+z)t) / (K dz), where the
    # kernel K = 1 - z + t z^2 is t at z = 1 and cancels against t^3
    kernel = (1 - z, z * z)
    return [
        _term(1, [_tp(3, z)], [kernel], 1),
        _term(-1, [_tp(3, z), (1, -z), (1, -1 - z)], [kernel, _dz(z)]),
    ]


def _scalar_s111():
    return [
        _term(_H, [(0, 1, -5, 6, -1)], [_M2], 1),
        _term(-_H, [(0, 1, -8, 23, -28, 14, -4, 1)], [_M2, _W]),
    ]


def _scalar_r1():
    num = (0, 0, 0, 1, -1)
    return [_term(_H, [num], [_M2], 1), _term(-_H, [num], [_M2])]


def _scalar_c1at1():
    return [_term(_H, [_tp(4)], [_M2], 1), _term(-_H, [_tp(4)], [_M2])]


def _scalar_c111():
    return [
        _term(_H, [(0, 0, 1, -3, 1)], [_M2], 1),
        _term(-_H, [(0, 0, 1, -6, 12, -8, 1, -1)], [_M2, _W]),
    ]


def _scalar_l111():
    return [_term(_H, [_tp(2)], [], 1), _term(-_H, [(0, 0, 1, -3, 2, -1)], [_W])]


def _scalar_n1():
    return [
        _term(_H, [(0, 1, -10, 31, -16, -68, 90, -27, 4)], [_W], 4),
        _term(-_H, [(0, 1, -5, 2, 13, -8)], [_M2], 3),
    ]


# (builder, required parameter names); a builder returns the entry's terms
_CATALOG = {
    "Lgf": (_gf_lconvex, ()),
    "Egf": (_gf_centered, ()),
    "Zgf": (_gf_zconvex, ()),
    "S4gf": (_gf_fourstack, ()),
    "Cgf": (_gf_convex, ()),
    "dCat": (_gf_dcat, ()),
    "Hgf": (_gf_h, ()),
    "RectGf": (_gf_rect, ()),
    "Agf": (_gf_ascending, ()),
    "C22gf": (_gf_c22, ()),
    "C21gf": (_gf_c21, ()),
    "C0p": (_gf_c0p, ("x", "y")),
    "L0p": (_gf_l0p, ("x", "y")),
    "S0p": (_gf_s0p, ("x", "y")),
    "Sp": (_gf_sp, ("x", "y", "z")),
    "Cp": (_gf_cp, ("x", "y", "z")),
    "Lp": (_gf_lp, ("x", "y", "z")),
    "Np": (_gf_np, ("z",)),
    # The scalar class evaluations (the classes at x = y = z = 1).
    "S111": (_scalar_s111, ()),
    "R1": (_scalar_r1, ()),
    "C1at1": (_scalar_c1at1, ()),
    "C111": (_scalar_c111, ()),
    "L111": (_scalar_l111, ()),
    "N1": (_scalar_n1, ()),
}

_ALIASES = {
    "L": "Lgf",
    "E": "Egf",
    "Z": "Zgf",
    "S4": "S4gf",
    "C": "Cgf",
    "d": "dCat",
    "H": "Hgf",
    "Rect": "RectGf",
    "A": "Agf",
    "C22": "C22gf",
    "C21": "C21gf",
}

GF_NAMES = tuple(_CATALOG)


def resolve_name(name: str) -> str:
    canon = _ALIASES.get(name, name)
    if canon not in _CATALOG:
        raise KeyError(f"unknown generating function {name!r}")
    return canon


def parameters(name: str) -> tuple[str, ...]:
    """The rational parameters (of x, y, z) a catalog entry takes, in order."""
    return _CATALOG[resolve_name(name)][1]


def gf(name: str, terms: int = DEFAULT_ORDER, x=None, y=None, z=None) -> Series:
    """Expand a catalog generating function to ``terms`` coefficients.

    Parameterized entries (the refined class functions) require their
    rational parameters; all arithmetic is exact.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    canon = resolve_name(name)
    builder, wanted = _CATALOG[canon]
    supplied = {"x": x, "y": y, "z": z}
    params = []
    for p in wanted:
        if supplied[p] is None:
            raise MissingParam(f"{canon} requires parameter {p}")
        params.append(Fraction(supplied[p]))
    return _expand(builder(*params), terms)


def h_formula(n: int) -> int:
    """Closed form for the number of centered ascending polyominoes:
    (3n-5)/(n-1) * binom(2n-5, n-2), with the n=2 value 1 by convention."""
    if n < 2:
        raise ValueError("size must be >= 2")
    if n == 2:
        return 1
    num = (3 * n - 5) * math.comb(2 * n - 5, n - 2)
    q, rem = divmod(num, n - 1)
    if rem:
        raise ArithmeticError(f"h({n}) is not an integer")
    return q


def rect_formula(n: int) -> int:
    """Closed form for the number of rectangular ascending polyominoes."""
    if n < 2:
        raise ValueError("size must be >= 2")
    return math.comb(2 * n - 4, n - 2)


# ---------------------------------------------------------------------------
# Kernel and functional-equation checks
# ---------------------------------------------------------------------------

def _check(description: str, delta: Series):
    return (description, delta.is_zero(), delta.valuation())


def kernel_checks(terms: int = 100) -> list[tuple[str, bool, int | None]]:
    """Verify the kernel roots used to solve the functional equations.

    (i)  z0 = (1 - sqrt(1-4t))/(2t) annihilates 1 - z + t z^2;
    (ii) in s with t = s^2, Z = (1 +/- s)/(1 - s^2) annihilates
         (1-z)^2 - t z^2 (the Puiseux roots of the non-centered kernel);
    plus the y-root 1/(1-tz) of 1 - y + tyz and the identity
    t z0 = d(t) + t relating z0 to the Catalan series.
    """
    if terms < 4:
        raise ValueError("terms must be >= 4")
    n = terms + 2
    results = []

    half = (one(n) - tpoly(n, [1, -4]).sqrt()).scale(Fraction(1, 2))  # valuation 1
    z0 = half.shift(-1)
    results.append(
        _check("1 - z + t z^2 vanishes at z0 = (1-sqrt(1-4t))/(2t)",
               one(n - 1) - z0 + t(n - 1) * z0 * z0)
    )

    m = 2 * terms
    s = tpoly(m, [0, 1])
    inv_1ms2 = tpoly(m, [1, 0, -1]).inverse()
    for sign, tag in ((1, "+"), (-1, "-")):
        zroot = tpoly(m, [1, sign]) * inv_1ms2
        delta = (one(m) - zroot).square() - s * s * zroot * zroot
        results.append(
            _check(f"(1-Z)^2 - t Z^2 vanishes at Z{tag} = (1{tag}sqrt t)/(1-t)",
                   delta)
        )

    zr = Fraction(1, 3)
    y0 = tpoly(n, [1, -zr]).inverse()
    results.append(
        _check("1 - y + t y z vanishes at y0 = 1/(1-tz), z = 1/3",
               one(n) - y0 + t(n).scale(zr) * y0)
    )

    results.append(
        _check("t z0 = d(t) + t", half - (_expand(_gf_dcat(), n) + t(n)))
    )
    return results


def functional_equation_checks(
    x, y, z, terms: int = 60
) -> list[tuple[str, bool, int | None]]:
    """Substitute the closed class functions into the seven rectangular-case
    equations and report the first order (if any) where a side differs."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    if z == 1 or y == 1:
        raise DegenerateParam("divided differences need y != 1 and z != 1")
    if terms < 4:
        raise ValueError("terms must be >= 4")

    # Each (class function, parameters) pair is expanded once per call.
    expanded: dict[tuple, Series] = {}

    def expand(builder, *params) -> Series:
        key = (builder, *params)
        if key not in expanded:
            expanded[key] = _expand(builder(*params), terms)
        return expanded[key]

    c0p = partial(expand, _gf_c0p)
    l0p = partial(expand, _gf_l0p)
    s0p = partial(expand, _gf_s0p)
    cp = partial(expand, _gf_cp)
    lp = partial(expand, _gf_lp)
    sp = partial(expand, _gf_sp)
    np_ = partial(expand, _gf_np)

    results = []

    lhs = c0p(x, y)
    rhs = (c0p(x, y) + l0p(x, y) + s0p(x, y)).shift(1).scale(x)
    results.append(_check("C'0 = tx C'0 + tx L'0 + tx S'0", lhs - rhs))

    lhs = l0p(x, y)
    rhs = (
        tpoly(terms, [0, 0, x * y])
        + c0p(1, y).shift(1).scale(x * y)
        + (l0p(x, y) + s0p(x, y)).shift(1).scale(y)
    )
    results.append(
        _check("L'0 = t^2xy + txy C'0(1,y) + ty L'0 + ty S'0", lhs - rhs)
    )

    lhs = s0p(x, y)
    rhs = c0p(1, y).shift(1).scale(x * y) + s0p(x, y).shift(1).scale(y)
    results.append(_check("S'0 = txy C'0(1,y) + ty S'0", lhs - rhs))

    lhs = cp(x, y, z)
    rhs = (cp(x, y, z) + lp(x, y, z) + sp(x, y, z)).shift(1).scale(x)
    results.append(_check("C' = tx C' + tx L' + tx S'", lhs - rhs))

    lhs = lp(x, y, z)
    bracket_c = (cp(1, 1, z).scale(z) - cp(z, 1, z)).scale(Fraction(1, 1 - z))
    bracket_c0 = (c0p(1, 1).scale(z) - c0p(z, 1)).scale(Fraction(1, 1 - z))
    rhs = (
        cp(1, y, z).shift(1).scale(x * y)
        + bracket_c.shift(1).scale(x * y)
        + bracket_c0.shift(1).scale(x * y)
        + (lp(x, y, z) + sp(x, y, z)).shift(1).scale(y)
    )
    results.append(
        _check("L' = txy C'(1,y,z) + divided differences + ty L' + ty S'",
               lhs - rhs)
    )

    lhs = sp(x, y, z)
    b1 = (s0p(x, 1).scale(y) - s0p(x, y)).scale(Fraction(1, 1 - y))
    b2 = (sp(x, 1, z) - sp(x, y, z)).scale(Fraction(1, 1 - y))
    rhs = b1.shift(1).scale(z) + b2.shift(1).scale(y * z)
    results.append(
        _check("S' = tz/(1-y)[y S'0(x,1) - S'0(x,y)] + tyz/(1-y)[S'(x,1,z) - S'(x,y,z)]",
               lhs - rhs)
    )

    lhs = np_(z)
    scale_zz = Fraction(1, 1 - z)
    rhs = (
        (cp(1, 1, 1) - cp(1, 1, z)).shift(1).scale(z * scale_zz)
        + (lp(1, 1, 1) - lp(1, 1, z)).shift(1).scale(z * scale_zz)
        + (sp(1, 1, 1) - sp(1, 1, z)).shift(1).scale(z * scale_zz)
        + (np_(1) - np_(z).scale(z)).shift(1).scale(z * scale_zz)
    )
    results.append(
        _check("N' = tz/(1-z)[C'+L'+S' differences] + tz/(1-z)[N'(1) - z N'(z)]",
               lhs - rhs)
    )
    return results


# ---------------------------------------------------------------------------
# Asymptotic ratio report (the only floating-point corner of the package)
# ---------------------------------------------------------------------------

def _richardson_half(r_n: float, r_2n: float) -> float:
    # First-order Richardson extrapolation for an error term ~ n^(-1/2).
    s = math.sqrt(2.0)
    return (s * r_2n - r_n) / (s - 1.0)

def asymptotic_report(n: int = 1024) -> list[dict]:
    """Check the growth constants: coefficient ratios against the stated
    asymptotic laws, extrapolated from n and 2n.

    The n*4^n classes (ascending 1/256, C21 1/768, Z 1/384, convex 1/128)
    and centered (3/128 * 4^n) are required within 2 percent after
    extrapolation; the sqrt(n)-law class C22 (4^n sqrt(n)/(64 sqrt(pi)))
    within 5 percent.  The subleading corrections of the mixed
    rational/algebraic functions are of order n^(-1/2), which fixes the
    extrapolation exponent.
    """
    order = 2 * n + 1
    coeffs = {
        name: gf(name, order) for name in ("Agf", "C21gf", "Zgf", "Cgf", "Egf", "C22gf")
    }

    def ratio_linear(name, const_den, m):
        return float(coeffs[name].coefficient(m) * const_den / (m * 4**m))

    def ratio_centered(m):
        return float(coeffs["Egf"].coefficient(m) * 128 / (3 * 4**m))

    def ratio_c22(m):
        c = coeffs["C22gf"].coefficient(m)
        return float(c * 64 / 4**m) * math.sqrt(math.pi / m)

    cases = [
        ("ascending ~ n 4^n / 256",
         lambda m: ratio_linear("Agf", 256, m), 0.02),
        ("C(2,1) ~ n 4^n / 768",
         lambda m: ratio_linear("C21gf", 768, m), 0.02),
        ("Z-convex ~ n 4^n / 384",
         lambda m: ratio_linear("Zgf", 384, m), 0.02),
        ("convex ~ n 4^n / 128",
         lambda m: ratio_linear("Cgf", 128, m), 0.02),
        ("centered ~ 3 * 4^n / 128", ratio_centered, 0.02),
        ("C(2,2) ~ sqrt(n) 4^n / (64 sqrt(pi))", ratio_c22, 0.05),
    ]

    report = []
    for label, fn, tol in cases:
        r_n, r_2n = fn(n), fn(2 * n)
        extrap = _richardson_half(r_n, r_2n)
        report.append(
            {
                "law": label,
                "ratio_n": r_n,
                "ratio_2n": r_2n,
                "extrapolated": extrap,
                "tolerance": tol,
                "ok": abs(extrap - 1.0) <= tol,
            }
        )
    return report
