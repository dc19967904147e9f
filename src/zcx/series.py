"""Exact truncated formal power series and the generating-function catalog.

Series hold exact rational coefficients for exponents 0..order-1 and every
ring operation truncates at the shorter operand.  Multiplication, division
and square root are the plain coefficient recurrences.  The ring is only
the tests' oracle of the integer expansion below: no check here uses it.

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
Floating point appears nowhere: the growth laws too are exact, read off
the terms by the transfer theorem.

Every check is a table read by one function.  The functional equations,
the size identities and the kernel roots are rows of linear terms c t^s F
over term lists F, each row checked by one expansion; the growth laws are
the rows of ``_LAWS``.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def one(n: int) -> Series:
    return tpoly(n, [1])


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


def linear_checks(rows, terms: int) -> list[tuple[str, bool, int | None]]:
    """Check rows (description, [(k, s, F)]) of sum k t^s F = 0 to
    ``terms``, each F a term list (c, P, Q, e), by one expansion of the
    row's joined terms (k c, t^s P, Q, e).  A failing row reports the
    first order of t where its sum is nonzero; for the kernel's z0 row,
    taken times t, that is an order of t (1 - z0 + t z0^2)."""
    return [
        _check(description, _expand(
            [(k * c, [0] * s + p, q, e)
             for k, s, f in row for c, p, q, e in f], terms))
        for description, row in rows
    ]


def _times(a, b):
    """The product of two term lists, term by term: B B = 1/(1-4t) moves
    into Q, so every product term is again (c, P, Q, e) with e in {0, 1}."""
    return [(c1 * c2, _pmul(p1, p2), _pmul(q1, q2, *[_M4] * (e1 & e2)), e1 ^ e2)
            for c1, p1, q1, e1 in a for c2, p2, q2, e2 in b]


def kernel_checks() -> list[tuple[str, bool, int | None]]:
    """Verify the kernel roots of the functional equations, to order 100.

    (i)  z0 = (1 - sqrt(1-4t))/(2t) annihilates 1 - z + t z^2;
    (ii) in s with t = s^2, Z = (1 +/- s)/(1 - s^2) annihilates
         (1-z)^2 - t z^2 (the Puiseux roots of the non-centered kernel);
    plus the y-root 1/(1-tz) of 1 - y + tyz and the identity
    t z0 = d(t) + t relating z0 to the Catalan series, the catalog's dCat.

    Each is a row of ``linear_checks``, with sqrt(1-4t) = (1-4t) B.  Row (i)
    is taken times t, on half = t z0: its failure order counts orders of
    t (1 - z0 + t z0^2).  The rows in s expand to order 200.
    """
    terms = 100
    n = terms + 2
    unit = [_term(1, [])]
    half = [_term(_H, []), _term(-_H, [], [], -1)]   # t z0, valuation 1
    zr = Fraction(1, 3)
    y0 = [_term(1, [], [(1, -zr)])]
    puiseux = []
    for sign, tag in ((1, "+"), (-1, "-")):
        root = [_term(1, [(1, sign)], [(1, 0, -1)])]
        w = unit + [(-c, p, q, e) for c, p, q, e in root]   # 1 - Z
        puiseux.append((f"(1-Z)^2 - t Z^2 vanishes at Z{tag} = (1{tag}sqrt t)/(1-t)",
                     [(1, 0, _times(w, w)), (-1, 2, _times(root, root))]))
    return (
        linear_checks([("1 - z + t z^2 vanishes at z0 = (1-sqrt(1-4t))/(2t)",
                        [(1, 1, unit), (-1, 0, half), (1, 0, _times(half, half))])], n)
        + linear_checks(puiseux, 2 * terms)
        + linear_checks([
            ("1 - y + t y z vanishes at y0 = 1/(1-tz), z = 1/3",
             [(1, 0, unit), (-1, 0, y0), (zr, 1, y0)]),
            ("t z0 = d(t) + t",
             [(1, 0, half), (-1, 0, _CATALOG["dCat"][0]()), (-1, 1, unit)]),
        ], n)
    )


def functional_equation_checks(
    x, y, z, terms: int = 60
) -> list[tuple[str, bool, int | None]]:
    """Substitute the closed class functions, the ``_CATALOG`` entries that
    ``gf`` expands, into the seven rectangular-case equations and report
    the first order (if any) where a side differs.

    Each equation is a row of ``linear_checks``, the terms of lhs - rhs.
    The equations do not pin N': its first term t^3 z/(sqrt(1-4t) K), with
    K = 1 - z + t z^2, solves K T(z) = tz T(1), the kernel method's free
    solution.  The label statistics of the refined suite pin N'.
    """
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    if z == 1 or y == 1:
        raise DegenerateParam("divided differences need y != 1 and z != 1")
    if terms < 4:
        raise ValueError("terms must be >= 4")

    c0p, l0p, s0p, cp, lp, sp, np_ = (
        _CATALOG[name][0] for name in ("C0p", "L0p", "S0p", "Cp", "Lp", "Sp", "Np"))
    c0, l0, s0 = c0p(x, y), l0p(x, y), s0p(x, y)
    c, l, s = cp(x, y, z), lp(x, y, z), sp(x, y, z)
    u, v, w = z / (1 - y), z / (1 - z), x * y / (1 - z)   # divided differences
    return linear_checks([
        ("C'0 = tx C'0 + tx L'0 + tx S'0",
         [(1, 0, c0), (-x, 1, c0), (-x, 1, l0), (-x, 1, s0)]),
        ("L'0 = t^2xy + txy C'0(1,y) + ty L'0 + ty S'0",
         [(1, 0, l0), (-x * y, 2, [_term(1, [])]), (-x * y, 1, c0p(1, y)),
          (-y, 1, l0), (-y, 1, s0)]),
        ("S'0 = txy C'0(1,y) + ty S'0",
         [(1, 0, s0), (-x * y, 1, c0p(1, y)), (-y, 1, s0)]),
        ("C' = tx C' + tx L' + tx S'",
         [(1, 0, c), (-x, 1, c), (-x, 1, l), (-x, 1, s)]),
        ("L' = txy C'(1,y,z) + divided differences + ty L' + ty S'",
         [(1, 0, l), (-x * y, 1, cp(1, y, z)), (-w * z, 1, cp(1, 1, z)),
          (w, 1, cp(z, 1, z)), (-w * z, 1, c0p(1, 1)), (w, 1, c0p(z, 1)),
          (-y, 1, l), (-y, 1, s)]),
        ("S' = tz/(1-y)[y S'0(x,1) - S'0(x,y)] + tyz/(1-y)[S'(x,1,z) - S'(x,y,z)]",
         [(1, 0, s), (-u * y, 1, s0p(x, 1)), (u, 1, s0),
          (-u * y, 1, sp(x, 1, z)), (u * y, 1, s)]),
        ("N' = tz/(1-z)[C'+L'+S' differences] + tz/(1-z)[N'(1) - z N'(z)]",
         [(1, 0, np_(z)), (-v, 1, cp(1, 1, 1)), (v, 1, cp(1, 1, z)),
          (-v, 1, lp(1, 1, 1)), (v, 1, lp(1, 1, z)), (-v, 1, sp(1, 1, 1)),
          (v, 1, sp(1, 1, z)), (-v, 1, np_(1)), (v * z, 1, np_(z))]),
    ], terms)


def size_identity_checks(terms: int) -> list[tuple[str, bool, int | None]]:
    """C = 2A + C22 - L and Z = L + 2*C21 + C22 over the ``_CATALOG`` entries
    that ``gf`` expands, as rows of ``linear_checks``."""
    c, a, k, l, z, c21 = (_CATALOG[name][0]()
                          for name in ("Cgf", "Agf", "C22gf", "Lgf", "Zgf", "C21gf"))
    return linear_checks([
        ("C = 2A + C22 - L", [(1, 0, c), (-2, 0, a), (-1, 0, k), (1, 0, l)]),
        ("Z = L + 2*C21 + C22", [(1, 0, z), (-1, 0, l), (-2, 0, c21), (-1, 0, k)]),
    ], terms)


# ---------------------------------------------------------------------------
# Growth laws
# ---------------------------------------------------------------------------

def _at_quarter(p) -> Fraction:
    """The polynomial p at t = 1/4."""
    return sum(Fraction(a) / 4**k for k, a in enumerate(p))


def _strip_quarter(p) -> tuple[list, int]:
    """(p0, m) with p = (1-4t)^m p0 and p0(1/4) != 0, by synthetic division
    at 1/4: p = (1-4t) r gives r_k = p_k + 4 r_(k-1)."""
    m = 0
    while any(p) and _at_quarter(p) == 0:
        r = [p[0]]
        for a in p[1:-1]:
            r.append(a + 4 * r[-1])
        p, m = r, m + 1
    return p, m


def _outside_quarter_disc(q) -> bool:
    """Whether every root of q has |t| > 1/4: the Schur-Cohn recursion on
    a(z) = 4^d z^d q(1/(4z)), whose roots z = 1/(4t) must all lie in
    |z| < 1.  Each step needs |a_0| < |a_d| and goes on with
    (a_d a(z) - a_0 z^d a(1/z)) / z, which has one root fewer in the disc."""
    a = [b * 4**k for k, b in enumerate(reversed(q))]
    while len(a) > 1:
        if abs(a[0]) >= abs(a[-1]):
            return False
        a = [a[-1] * x - a[0] * y for x, y in zip(a, reversed(a))][1:]
    return True


def _gamma(alpha: Fraction) -> Fraction:
    """Gamma(alpha) for an integer alpha >= 1, and Gamma(alpha) / sqrt(pi)
    for a half-integer, from Gamma(1/2) = sqrt(pi) and Gamma(a+1) = a Gamma(a)."""
    g, a = Fraction(1), Fraction(1) if alpha.denominator == 1 else _H
    while a < alpha:
        g, a = g * a, a + 1
    while a > alpha:
        a -= 1
        g /= a
    return g


def growth_law(terms) -> tuple[Fraction, Fraction] | None:
    """The law [t^n] F ~ n^e 4^n / K of a term list F, as (K, e), with
    sqrt(pi) beside K for a half-integer e.

    A term (c, P, Q, j) is c P/Q (1-4t)^(-j/2) = c P0/Q0 (1-4t)^(-alpha),
    where P = (1-4t)^m P0 and Q = (1-4t)^h Q0 with P0(1/4), Q0(1/4) != 0
    and alpha = h - m + j/2.  Terms with alpha a non-positive integer are
    analytic at 1/4.  Those of the largest alpha among the others sum to
    v (1-4t)^(-alpha) + O((1-4t)^(1-alpha)), v the sum of their
    c P0(1/4)/Q0(1/4), and the transfer theorem (Flajolet and Odlyzko
    1990) gives K = Gamma(alpha) / v and e = alpha - 1.  None when some Q0
    has a root in |t| <= 1/4, which would take part in the law, or when
    v = 0 and the leading terms cancel.
    """
    leading, alpha = Fraction(0), None
    for c, p, q, j in terms:
        p0, m = _strip_quarter(p)
        q0, h = _strip_quarter(q)
        if not _outside_quarter_disc(q0):
            return None
        a = h - m + Fraction(j, 2)
        if a <= 0 and a.denominator == 1:
            continue
        v = c * _at_quarter(p0) / _at_quarter(q0)
        if alpha is None or a > alpha:
            leading, alpha = v, a
        elif a == alpha:
            leading += v
    if not leading:
        return None
    return _gamma(alpha) / leading, alpha - 1


# (law, catalog entry, K, e): [t^n] F ~ n^e 4^n / K, as ``growth_law`` reads
# it off the entry.  A half-integer e has sqrt(pi) beside K.
_LAWS = (
    ("ascending ~ n 4^n / 256", "Agf", 256, 1),
    ("C(2,1) ~ n 4^n / 768", "C21gf", 768, 1),
    ("Z-convex ~ n 4^n / 384", "Zgf", 384, 1),
    ("convex ~ n 4^n / 128", "Cgf", 128, 1),
    ("centered ~ 3 * 4^n / 128", "Egf", Fraction(128, 3), 0),
    ("C(2,2) ~ sqrt(n) 4^n / (64 sqrt(pi))", "C22gf", 64, _H),
    ("4-stack ~ sqrt(n) 4^n / (64 sqrt(pi))", "S4gf", 64, _H),
)
