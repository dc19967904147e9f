"""Cross-check suites tying enumeration, classification, generating tree,
and generating functions together.

Each suite runs a fixed list of checks, never aborts on a failure, and
returns a :class:`SuiteReport` whose failing entries carry a witness (a
canonical encoding or an (n, expected, got) triple).  Identical inputs give
byte-identical reports.  The suites that read censuses take them from a
``census`` argument; :func:`run_suites` passes one memo over one process
pool to all of them, so a command computes each size once.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import NamedTuple

from . import classify, gentree, series
from .core import Polyomino
from .enumerate import all_convex


class CheckResult(NamedTuple):
    description: str
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"description": self.description, "status": "pass" if self.passed else "fail"}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class SuiteReport:
    """The checks of one suite in the order they ran, and its run time.
    Reports are equal when their suites, checks and times are."""

    __slots__ = ("suite", "checks", "elapsed")
    __hash__ = None     # mutable

    def __init__(self, suite: str, checks: list[CheckResult] | None = None,
                 elapsed: float = 0.0):
        self.suite = suite
        self.checks = [] if checks is None else checks
        self.elapsed = elapsed

    def __eq__(self, other):
        if other.__class__ is not SuiteReport:
            return NotImplemented
        return ((self.suite, self.checks, self.elapsed)
                == (other.suite, other.checks, other.elapsed))

    def __repr__(self) -> str:
        return (f"SuiteReport(suite={self.suite!r}, checks={self.checks!r},"
                f" elapsed={self.elapsed!r})")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, description: str, ok: bool, witness=None) -> None:
        if not ok and witness is None:
            witness = "(no witness)"
        self.checks.append(
            CheckResult(description, bool(ok), None if ok else str(witness))
        )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"
                 f" ({self.elapsed:.2f}s)"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            line = f"  [{mark}] {c.description}"
            if c.witness:
                line += f"  <- {c.witness}"
            lines.append(line)
        return "\n".join(lines)


@lru_cache(maxsize=32)
def _gf(name: str, order: int) -> series.Series:
    return series.gf(name, order)


def _coeff(name: str, n: int) -> int:
    return _gf(name, 32 if n < 32 else n + 1).integer_coefficient(n)


def suite_identities(max_n: int = 12, series_order: int = 300,
                     census=None) -> SuiteReport:
    """The counting identity, the partition claims, and their series forms."""
    census = census or classify.census
    rep = SuiteReport("identities")
    t0 = time.perf_counter()
    for n in range(2, max_n + 1):
        row = census(n)
        a, k, l = row.ascending, row.c22, row.l_convex
        rep.record(
            f"n={n}: c(n) = 2a(n) + k(n) - l(n)",
            row.total_convex == 2 * a + k - l,
            (n, 2 * a + k - l, row.total_convex),
        )
        rep.record(
            f"n={n}: degree histogram sums to the total",
            sum(row.by_degree_pair.values()) == row.total_convex,
            (n, row.total_convex, sum(row.by_degree_pair.values())),
        )
        z_parts = l + row.c12 + row.c21 + row.c22
        rep.record(
            f"n={n}: z(n) = l(n) + c12 + c21 + c22",
            row.z_convex == z_parts,
            (n, z_parts, row.z_convex),
        )
        for label, got, gf_name in (
            ("total", row.total_convex, "Cgf"),
            ("l_convex", row.l_convex, "Lgf"),
            ("centered", row.centered, "Egf"),
            ("z_convex", row.z_convex, "Zgf"),
            ("four_stack", row.four_stack, "S4gf"),
            ("ascending", row.ascending, "Agf"),
            ("c22", row.c22, "C22gf"),
            ("c21", row.c21, "C21gf"),
            ("c12", row.c12, "C21gf"),
        ):
            exp = _coeff(gf_name, n)
            rep.record(
                f"n={n}: census {label} = [t^{n}] {gf_name}",
                got == exp,
                (n, exp, got),
            )
        rep.record(
            f"n={n}: ascending count = descending count",
            row.ascending == row.descending,
            (n, row.ascending, row.descending),
        )
        rep.record(
            f"n={n}: ascending-and-descending = L-convex",
            row.ascending_and_descending == row.l_convex,
            (n, row.l_convex, row.ascending_and_descending),
        )

    order = series_order
    c = _gf("Cgf", order)
    a = _gf("Agf", order)
    l = _gf("Lgf", order)
    z = _gf("Zgf", order)
    c22 = _gf("C22gf", order)
    c21 = _gf("C21gf", order)
    delta = c - a.scale(2) - c22 + l
    rep.record(
        f"series: C = 2A + C22 - L to order {order}",
        delta.is_zero(), f"first difference at order {delta.valuation()}",
    )
    delta = c21.scale(2) + c22 + l - z
    rep.record(
        f"series: Z = L + 2*C21 + C22 to order {order}",
        delta.is_zero(), f"first difference at order {delta.valuation()}",
    )
    for name in ("Lgf", "Egf", "Zgf", "S4gf", "Cgf", "Hgf", "RectGf",
                 "Agf", "C22gf", "C21gf"):
        g = _gf(name, order)
        bad = None
        for i in range(order):
            coeff = g.coefficient(i)
            if coeff.denominator != 1 or coeff < 0:
                bad = (i, str(coeff))
                break
        rep.record(
            f"series: {name} has nonnegative integer coefficients to {order}",
            bad is None, bad,
        )
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_gentree(max_construct: int = 11, max_labels: int = 100,
                  census=None) -> SuiteReport:
    """Bijection, unique parentage, label consistency and the label DP,
    checked over one depth-first walk of the tree.

    The walk visits and labels each shape once: it rejects duplicate
    children and shapes outside the ascending class, so a level as large
    as the ascending count of ``census(n)`` (a walk with its own test) is
    that class.  Every edge is checked to be the one ``parent`` names, by
    its parent step on the label, top row and last column the walk
    carries for the child.  The label DP is read one level at a time: its
    multisets are compared with the walk's up to ``max_construct``, its
    totals with the series up to ``max_labels``.
    """
    census = census or classify.census
    rep = SuiteReport("gentree")
    t0 = time.perf_counter()

    tree = [Counter() for _ in range(max_construct - 1)]
    bad_parent: dict[int, str] = {}
    bad_succ = None
    expanded = 0
    for n, rows, lab, kids in gentree.walk(max_construct):
        tree[n - 2][lab] += 1
        if n == max_construct:
            continue
        for op, child, *info in kids:
            if gentree._parent_rows(child, *info) != (op, rows):
                bad_parent.setdefault(
                    n + 1, f"{Polyomino(child).encode()} grown by {op}"
                    f" from {Polyomino(rows).encode()}"
                )
        expanded += 1
        want = Counter()
        for child_lab, m in gentree.succ(lab):
            want[child_lab] += m
        if Counter(child_lab for _, _, child_lab, _, _ in kids) != want:
            bad_succ = bad_succ or Polyomino(rows).encode()

    for n, counts in enumerate(tree, 2):
        ascending, built = census(n).ascending, sum(counts.values())
        rep.record(f"n={n}: constructive level = ascending polyominoes",
                   built == ascending, (n, ascending, built))
    for n in range(3, max_construct + 1):
        rep.record(f"n={n}: unique parent reconstruction",
                   n not in bad_parent, bad_parent.get(n))
    rep.record(
        f"children labels match succ(label) for {expanded} polyominoes"
        f" up to n={max_construct - 1}",
        bad_succ is None, bad_succ,
    )

    order = max_labels + 1
    a_gf = series.gf("Agf", order)
    h_gf = series.gf("Hgf", order)
    r_gf = series.gf("RectGf", order)
    n1_gf = series.gf("N1", order)
    np1_gf = series.gf("Np", order, z=1)
    bad = None
    for lv in gentree.levels(max_labels):
        n = lv.level
        if n <= max_construct:
            counts = tree[n - 2]
            rep.record(
                f"n={n}: DP label multiset = constructive label multiset",
                lv.counts == counts,
                f"n={n}: tree has {sorted(counts.items() - lv.counts.items())[:3]}"
                f" where the DP has {sorted(lv.counts.items() - counts.items())[:3]}",
            )
        if bad:
            continue
        nc_rect = lv.non_centered_rectangular_total
        for tag, got, g in (
            ("A", lv.total, a_gf),
            ("H", lv.centered_total, h_gf),
            ("Rect", lv.rectangular_total, r_gf),
            ("N'(1)", nc_rect, np1_gf),
            ("N(1)", lv.non_centered_total - nc_rect, n1_gf),
        ):
            if got != g.integer_coefficient(n):
                bad = (tag, n, g.integer_coefficient(n), got)
                break
    rep.record(
        f"DP totals match A(t), H(t), Rect(t) and the non-centered parts"
        f" for n <= {max_labels}",
        bad is None, bad,
    )
    rep.elapsed = time.perf_counter() - t0
    return rep


_REFINED_PARAMS = (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7))


def suite_refined_gf(max_n: int = 10, params=_REFINED_PARAMS) -> SuiteReport:
    """Refined (b, w, r)-statistics against the closed class functions.

    The labels are those the tree walk carries, counted per size by
    ``gentree.constructive_levels``.  The walk makes each ascending shape
    once from real rows: it checks every child's rows, tests each shape
    ascending and its label valid, and rejects duplicate children; the
    gentree suite ties each level's size to the census.  Each check sums a
    weight over the labels of one (family, rectangular) class: x^b y^w z^r
    against the class function at the rational parameters, z^r against
    Np, and 1 against the scalar evaluation at x = y = z = 1 for the
    non-rectangular classes.  Raises ValueError below 2.
    """
    x, y, z = (Fraction(v) for v in params)
    rep = SuiteReport("refined")
    t0 = time.perf_counter()
    labels = {lv.level: lv.counts for lv in gentree.constructive_levels(max_n)}

    order = max_n + 1
    xy, xyz = {"x": x, "y": y}, {"x": x, "y": y, "z": z}
    checks = []
    for family, name, kw in (("C0", "C0p", xy), ("L0", "L0p", xy),
                             ("S0", "S0p", xy), ("C", "Cp", xyz),
                             ("L", "Lp", xyz), ("S", "Sp", xyz)):
        checks.append((
            f"rectangular class {family}: statistic = {name}"
            f"({', '.join(f'{k}={v}' for k, v in kw.items())}), n <= {max_n}",
            series.gf(name, order, **kw), (family, True),
            lambda lab: x ** lab.b * y ** lab.w * z ** lab.r,
        ))
    for zz in dict.fromkeys((z, Fraction(2, 3))):
        checks.append((
            f"rectangular non-centered: statistic = Np(z={zz}), n <= {max_n}",
            series.gf("Np", order, z=zz), ("NC", True),
            lambda lab, zz=zz: zz ** lab.r,
        ))
    for family, name in (("C", "C111"), ("L", "L111"), ("S", "S111"),
                         ("R", "R1"), ("C1", "C1at1"), ("NC", "N1")):
        checks.append((
            f"non-rectangular class {family}: count = {name}, n <= {max_n}",
            series.gf(name, order), (family, False), lambda lab: 1,
        ))

    for description, g, cls, weight in checks:
        bad = None
        for n in range(2, max_n + 1):
            got = sum(
                weight(lab) * m for lab, m in labels[n].items()
                if (lab.family, lab.rect) == cls
            )
            if g.coefficient(n) != got:
                bad = (n, str(g.coefficient(n)), str(got))
                break
        rep.record(description, bad is None, bad)
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_structure(max_n: int = 12, oracle_max_n: int = 7,
                    census=None) -> SuiteReport:
    """Structural laws of the degree classes over the census, plus
    small-size oracle comparisons."""
    census = census or classify.census
    rep = SuiteReport("structure")
    t0 = time.perf_counter()
    for n in range(2, max_n + 1):
        row = census(n)
        rep.record(
            f"n={n}: every degree-(2,2) polyomino is a 4-stack",
            row.c22_four_stack == row.c22,
            (n, row.c22, row.c22_four_stack),
        )
        rep.record(
            f"n={n}: 4-stack count matches its generating function",
            row.four_stack == _coeff("S4gf", n),
            (n, _coeff("S4gf", n), row.four_stack),
        )
        bad = [
            pair for pair in row.by_degree_pair
            if pair[1] < pair[0] and pair[0] > 2 and pair[1] > 1
        ]
        rep.record(
            f"n={n}: degrees with ne > 2 and nw < ne have nw <= 1",
            not bad, bad,
        )
        rep.record(
            f"n={n}: degree histogram symmetric under mirror",
            all(
                row.by_degree_pair.get((b, a), 0) == v
                for (a, b), v in row.by_degree_pair.items()
            ),
            sorted(row.by_degree_pair.items()),
        )
        rep.record(
            f"n={n}: ascending row characterization = (nw <= 1)",
            row.prop4_mismatch == 0, (n, row.prop4_mismatch),
        )
        rep.record(
            f"n={n}: rectangular-ascending = directed-convex = binom(2n-4, n-2)",
            row.rect_ascending == row.directed_convex == series.rect_formula(n),
            (n, series.rect_formula(n), row.rect_ascending, row.directed_convex),
        )

    bad = None
    for n in range(2, oracle_max_n + 1):
        for p in all_convex(n):
            fast = classify.degree_pair(p)
            slow = classify.degree_pair_bruteforce(p)
            if fast != slow:
                bad = f"{p.encode()}: fast {fast} oracle {slow}"
                break
            if classify.is_four_stack(p) != classify.is_four_stack_bruteforce(p):
                bad = f"{p.encode()}: four-stack tests disagree"
                break
        if bad:
            break
    rep.record(
        f"degree and 4-stack tests agree with brute-force oracles, n <= {oracle_max_n}",
        bad is None, bad,
    )
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_kernels(terms: int = 100, eq_terms: int = 60) -> SuiteReport:
    """Kernel-root identities and functional-equation substitution."""
    rep = SuiteReport("kernels")
    t0 = time.perf_counter()
    for desc, ok, fail in series.kernel_checks(terms):
        rep.record(desc, ok, f"first failure at order {fail}")
    x, y, z = _REFINED_PARAMS
    for desc, ok, fail in series.functional_equation_checks(x, y, z, eq_terms):
        rep.record(
            f"{desc} at (x,y,z)=({x},{y},{z}) to order {eq_terms}",
            ok, f"first failure at order {fail}",
        )
    for desc, ok, fail in series.functional_equation_checks(
        Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), eq_terms
    ):
        rep.record(
            f"{desc} at (x,y,z)=(1/2,1/3,2/5) to order {eq_terms}",
            ok, f"first failure at order {fail}",
        )
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_asymptotics(n: int = 1024) -> SuiteReport:
    """Growth-constant ratios, Richardson-extrapolated from n and 2n."""
    rep = SuiteReport("asymptotics")
    t0 = time.perf_counter()
    for entry in series.asymptotic_report(n):
        rep.record(
            f"{entry['law']}: extrapolated ratio within {entry['tolerance']:.0%}",
            entry["ok"],
            f"ratio({n})={entry['ratio_n']:.5f}"
            f" ratio({2*n})={entry['ratio_2n']:.5f}"
            f" extrapolated={entry['extrapolated']:.5f}",
        )
    rep.elapsed = time.perf_counter() - t0
    return rep


_FIXTURE_MAP = {
    "A003480": "Lgf",
    "A049775": "Egf",
    "A393099": "S4gf",
    "A128611": "Zgf",
    "A005436": "Cgf",
    "A097613": "Hgf",
}


def load_fixtures(path: str) -> dict[str, tuple[int, list[int]] | None]:
    """Read and check a fixture file, before any check runs.

    The file is JSON: {"<OEIS id>": {"start": <size of the first value>,
    "values": [..]}, ...}.  Returns each id, in sorted order, with its
    (start, values), or None for an id outside the catalog.  Raises OSError
    for an unreadable file and ValueError for a malformed one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: fixtures must be a JSON object")
    table: dict[str, tuple[int, list[int]] | None] = {}
    for seq_id, spec in sorted(data.items()):
        if seq_id not in _FIXTURE_MAP:
            table[seq_id] = None
            continue
        try:
            table[seq_id] = int(spec["start"]), [int(v) for v in spec["values"]]
        except (KeyError, TypeError, ValueError):
            raise ValueError(f'{path}: fixture {seq_id} is not '
                             '{"start": <int>, "values": [<int>, ...]}') from None
    return table


def suite_fixtures(
    table: dict[str, tuple[int, list[int]] | None]
) -> SuiteReport:
    """Compare catalog series against reference prefixes read by
    ``load_fixtures``.  Unknown ids are reported as failures so typos do
    not silently pass."""
    rep = SuiteReport("fixtures")
    t0 = time.perf_counter()
    for seq_id, entry in table.items():
        if entry is None:
            rep.record(f"{seq_id}: known sequence id", False,
                       f"expected one of {sorted(_FIXTURE_MAP)}")
            continue
        start, values = entry
        name = _FIXTURE_MAP[seq_id]
        g = series.gf(name, start + len(values))
        bad = None
        for i, v in enumerate(values):
            if g.integer_coefficient(start + i) != v:
                bad = (start + i, v, g.integer_coefficient(start + i))
                break
        rep.record(
            f"{seq_id} prefix matches {name} ({len(values)} terms from n={start})",
            bad is None, bad,
        )
    rep.elapsed = time.perf_counter() - t0
    return rep


SUITES = {
    "identities": suite_identities,
    "gentree": suite_gentree,
    "refined": suite_refined_gf,
    "structure": suite_structure,
    "kernels": suite_kernels,
    "asymptotics": suite_asymptotics,
}

# Suites whose first parameter is the largest size they check.
_SIZE_BOUNDED = ("identities", "gentree", "refined", "structure")
# Suites that take a ``census`` argument.
_CENSUS_READERS = ("identities", "gentree", "structure")


def run_suites(
    names, max_size: int | None = None, fixtures: str | None = None,
    workers: int = 1,
) -> list[SuiteReport]:
    """Run the named suites (or all) in deterministic order.

    ``max_size`` goes unchanged to the size-bounded suites; the others run
    at their defaults.  The census readers share one memo over one
    ``census_pool(workers)``, so each size is computed once per call.  No
    names, unknown names and sizes no suite can run raise before any suite
    starts, and so does an unreadable or malformed fixture file.
    """
    names = [names] if isinstance(names, str) else names
    if "all" in names:
        names = list(SUITES)
    choices = f"choose from all,{','.join(SUITES)}"
    if not names:
        raise ValueError(f"no suite named; {choices}")
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; {choices}")
    if max_size is not None and max_size < 2:
        raise ValueError("max size must be >= 2")
    table = load_fixtures(fixtures) if fixtures is not None else None
    reports = []
    with classify.census_pool(workers) as pool:
        census = cache(partial(classify.census, pool=pool))
        for name in names:
            args = (max_size,) if max_size is not None and name in _SIZE_BOUNDED else ()
            kwargs = {"census": census} if name in _CENSUS_READERS else {}
            reports.append(SUITES[name](*args, **kwargs))
    if table is not None:
        reports.append(suite_fixtures(table))
    return reports
