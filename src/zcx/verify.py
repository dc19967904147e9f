"""Cross-check suites tying enumeration, classification, generating tree,
and generating functions together.

Each suite runs a fixed list of checks, never aborts on a failure, and
returns a :class:`SuiteReport` whose failing entries carry a witness (a
canonical encoding or an (n, expected, got) triple).  Catalog
coefficients are compared as exact Fractions, so a closed form with a
fractional coefficient fails its rows like any other wrong value.  A
suite's bounds follow from its size argument alone, so equal sizes give
byte-identical reports.  The census readers take a ``census`` argument;
:func:`run_suites` passes them one memo over one process pool, computing
each size once.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from typing import NamedTuple

from . import classify, gentree, series
from .core import Polyomino, PolyominoError


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
    """The checks of one suite in the order they ran, and its run time:
    the clock starts when the report is made and stops at :meth:`finish`."""

    __slots__ = ("suite", "checks", "elapsed", "started")

    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[CheckResult] = []
        self.elapsed = 0.0
        self.started = time.perf_counter()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, description: str, ok: bool, witness=None) -> None:
        self.checks.append(
            CheckResult(description, bool(ok), None if ok else str(witness))
        )

    def check(self, description: str, n: int, expected, got) -> None:
        """Record ``got == expected``, with the witness (n, expected, got)."""
        self.record(description, got == expected, f"({n}, {expected}, {got})")

    def finish(self) -> "SuiteReport":
        """Stop the clock and return the report."""
        self.elapsed = time.perf_counter() - self.started
        return self

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


def suite_identities(max_n: int = 12, census=None) -> SuiteReport:
    """The identity c = 2a + k - l and the ascending and descending counts
    for sizes 2..max_n, each census column against its series, and the
    series identities to order 300, reading each series from one expansion."""
    census = census or classify.census
    rep = SuiteReport("identities")
    order = 300
    # Checked before the ten series are held, so the rows add no memory peak.
    size_rows = series.size_identity_checks(order)
    gfs = {name: series.gf(name, max(order, max_n + 1))
           for name in ("Lgf", "Egf", "Zgf", "S4gf", "Cgf", "Hgf", "RectGf",
                        "Agf", "C22gf", "C21gf")}
    for n in range(2, max_n + 1):
        row = census(n)
        a, k, l = row.ascending, row.c22, row.l_convex
        rep.check(f"n={n}: c(n) = 2a(n) + k(n) - l(n)",
                  n, 2 * a + k - l, row.total_convex)
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
            rep.check(f"n={n}: census {label} = [t^{n}] {gf_name}",
                      n, gfs[gf_name].coefficient(n), got)
        rep.check(f"n={n}: ascending count = descending count",
                  n, row.ascending, row.descending)
        rep.check(f"n={n}: ascending-and-descending = L-convex",
                  n, row.l_convex, row.ascending_and_descending)

    for description, ok, first in size_rows:
        rep.record(f"series: {description} to order {order}", ok,
                   f"first difference at order {first}")
    for name, g in gfs.items():
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
    return rep.finish()


def suite_gentree(max_construct: int = 11, max_labels: int = 100,
                  census=None) -> SuiteReport:
    """Bijection, unique parentage, label consistency and the label DP,
    checked over one depth-first walk of the tree.

    The walk visits and labels each shape once: it rejects duplicate
    children and shapes outside the ascending class, so a level as large
    as the ascending count of ``census(n)`` (a walk with its own test) is
    that class; the same row checks its centered (not NC) and rectangular
    labels against the census.  Every edge is checked to be the one
    ``parent`` names, by its parent step on the label, top row and last
    column the walk carries for the child.  The label DP is read one level
    at a time: its multisets are compared with the walk's up to
    ``max_construct``, its totals with the series up to ``max_labels``.
    """
    census = census or classify.census
    rep = SuiteReport("gentree")

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
        row = census(n)
        total, centered, _, rect, _ = gentree._totals(counts.items())
        rep.check(f"n={n}: constructive level = ascending polyominoes"
                  " (all, centered, rectangular)", n,
                  (row.ascending, sum(v for s, v in row.counts.items()
                                      if s.ascending and s.centered),
                   row.rect_ascending), (total, centered, rect))
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
            counts, got = tree[n - 2], dict(lv)
            rep.record(
                f"n={n}: DP label multiset = constructive label multiset",
                got == counts,
                f"n={n}: tree has {sorted(counts.items() - got.items())[:3]}"
                f" where the DP has {sorted(got.items() - counts.items())[:3]}",
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
            if got != g.coefficient(n):
                bad = f"{tag}: ({n}, {g.coefficient(n)}, {got})"
                break
    rep.record(
        f"DP totals match A(t), H(t), Rect(t) and the non-centered parts"
        f" for n <= {max_labels}",
        bad is None, bad,
    )
    return rep.finish()


_REFINED_PARAMS = (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7))


def suite_refined_gf(max_n: int = 10) -> SuiteReport:
    """Refined (b, w, r)-statistics against the closed class functions.

    Each check is one row (family, rectangular flag, catalog entry,
    parameter values) and sums x^b y^w z^r over the labels of that class,
    with 1 for a parameter the entry does not take (``series.parameters``),
    so the scalar evaluations at x = y = z = 1 count the labels.  The
    labels are the label DP's, ``gentree.levels(max_n)``, each level read
    in one pass that adds each label's weight to the rows of its class;
    each row keeps its first failure.  The gentree suite at the same size
    ties each DP level to the labels of the shapes the tree walk makes.

    The sums are integers: with v = p/q for each of x, y, z, a label of
    count m at level n weighs m p_x^b q_x^(n-b) p_y^w q_y^(n-w) p_z^r
    q_z^(n-r), over (q_x q_y q_z)^n.  A shape of size n has rows + columns
    = n, b <= rows, w < columns and r <= rows, so every exponent is below
    n and each power table has n entries.  Raises ValueError below 2.
    """
    x, y, z = _REFINED_PARAMS
    table = (
        ("C0", True, "C0p", (x, y)), ("L0", True, "L0p", (x, y)),
        ("S0", True, "S0p", (x, y)), ("C", True, "Cp", (x, y, z)),
        ("L", True, "Lp", (x, y, z)), ("S", True, "Sp", (x, y, z)),
        ("NC", True, "Np", (z,)), ("NC", True, "Np", (Fraction(2, 3),)),
        ("C", False, "C111", ()), ("L", False, "L111", ()),
        ("S", False, "S111", ()), ("R", False, "R1", ()),
        ("C1", False, "C1at1", ()), ("NC", False, "N1", ()),
    )
    rep = SuiteReport("refined")
    rows, by_class = [], {}
    for i, (family, rect, name, values) in enumerate(table):
        params = dict(zip(series.parameters(name), values))
        xyz = [params.get(p, 1) for p in "xyz"]
        rows.append((params, series.gf(name, max_n + 1, **params), xyz))
        by_class.setdefault((family, rect), []).append(i)
    first_bad = [None] * len(rows)
    for lv in gentree.levels(max_n):
        n = lv.level
        powers = [[[v.numerator ** k * v.denominator ** (n - k) for k in range(n)]
                   for v in xyz] for _, _, xyz in rows]
        totals = [0] * len(rows)
        for (family, b, w, r, rect), m in lv:
            for i in by_class.get((family, rect), ()):
                px, py, pz = powers[i]
                totals[i] += m * px[b] * py[w] * pz[r]
        for i, (_, g, xyz) in enumerate(rows):
            got = Fraction(totals[i], math.prod(v.denominator for v in xyz) ** n)
            if first_bad[i] is None and g.coefficient(n) != got:
                first_bad[i] = (n, str(g.coefficient(n)), str(got))

    for (family, rect, name, _), (params, *_), bad in zip(table, rows, first_bad):
        cls = "non-centered" if (family, rect) == ("NC", True) else f"class {family}"
        args = ", ".join(f"{p}={v}" for p, v in params.items())
        stat = f"statistic = {name}({args})" if params else f"count = {name}"
        rep.record(f"{'' if rect else 'non-'}rectangular {cls}: {stat}, n <= {max_n}",
                   bad is None, bad)
    return rep.finish()


def suite_structure(max_n: int = 12, census=None) -> SuiteReport:
    """Structural laws of the degree classes over the census for sizes
    2..max_n."""
    census = census or classify.census
    rep = SuiteReport("structure")
    for n in range(2, max_n + 1):
        row = census(n)
        rep.check(f"n={n}: every degree-(2,2) polyomino is a 4-stack",
                  n, row.c22, row.c22_four_stack)
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
    return rep.finish()


def suite_kernels() -> SuiteReport:
    """The kernel-root identities, and the seven functional equations to
    order 60 at two parameter points."""
    rep = SuiteReport("kernels")
    terms = 60
    for desc, ok, fail in series.kernel_checks():
        rep.record(desc, ok, f"first failure at order {fail}")
    for x, y, z in (_REFINED_PARAMS,
                    (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))):
        for desc, ok, fail in series.functional_equation_checks(x, y, z, terms):
            rep.record(
                f"{desc} at (x,y,z)=({x},{y},{z}) to order {terms}",
                ok, f"first failure at order {fail}",
            )
    return rep.finish()


def suite_asymptotics() -> SuiteReport:
    """Each growth law of ``series._LAWS``, [t^n] F ~ n^e 4^n / K, against
    the (K, e) that ``series.growth_law`` reads off the closed form of its
    catalog entry, the terms ``gf`` expands."""
    rep = SuiteReport("asymptotics")
    for law, name, k, e in series._LAWS:
        got = series.growth_law(series._CATALOG[name][0]())
        rep.record(f"{law}: K and e read off {name} exactly", got == (k, e),
                   "no law: a pole in |t| <= 1/4 besides 1/4, or the leading"
                   " terms cancel" if got is None else f"(K, e) = ({got[0]}, {got[1]})")
    return rep.finish()


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
    for an unreadable file and ValueError for a malformed one, including a
    negative start and an empty list or one with a non-integer value.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:   # not UTF-8, or not JSON
            raise ValueError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: fixtures must be a JSON object")
    table: dict[str, tuple[int, list[int]] | None] = {}
    for seq_id, spec in sorted(data.items()):
        if seq_id not in _FIXTURE_MAP:
            table[seq_id] = None
            continue
        try:
            start, values = spec["start"], spec["values"]
        except (KeyError, TypeError):
            start = values = None
        # type() is int, not isinstance: json.load reads true as a bool.
        if (type(start) is not int or start < 0 or type(values) is not list
                or not values or any(type(v) is not int for v in values)):
            raise ValueError(f'{path}: fixture {seq_id} is not '
                             '{"start": <int>, "values": [<int>, ...]}')
        table[seq_id] = start, values
    return table


def suite_fixtures(
    table: dict[str, tuple[int, list[int]] | None]
) -> SuiteReport:
    """Compare catalog series against reference prefixes read by
    ``load_fixtures``.  Unknown ids are reported as failures so typos do
    not silently pass."""
    rep = SuiteReport("fixtures")
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
            if g.coefficient(start + i) != v:
                bad = f"({start + i}, {v}, {g.coefficient(start + i)})"
                break
        rep.record(
            f"{seq_id} prefix matches {name} ({len(values)} terms from n={start})",
            bad is None, bad,
        )
    return rep.finish()


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

    ``max_size`` goes unchanged to the size-bounded suites; the others
    take no size.  The census readers share one memo over one
    ``census_pool(workers)``, so each size is computed once per call.  No
    names, unknown names, sizes no suite can run and a size for suites
    that take none raise before any suite starts, and so does an
    unreadable or malformed fixture file.  A suite stopped by a fault of
    the program (a shape not convex or not ascending, an invalid label, a
    failed assertion) is one FAIL row, its witness the fault, and the next
    suite runs.
    """
    names = [names] if isinstance(names, str) else names
    choices = f"choose from all,{','.join(SUITES)}"
    if not names:
        raise ValueError(f"no suite named; {choices}")
    for name in names:
        if name != "all" and name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; {choices}")
    if "all" in names:
        names = list(SUITES)
    if max_size is not None and max_size < 2:
        raise ValueError("max size must be >= 2")
    if max_size is not None and not set(names) & set(_SIZE_BOUNDED):
        raise ValueError(f"max size bounds only {','.join(_SIZE_BOUNDED)};"
                         f" {','.join(names)} take no size")
    table = load_fixtures(fixtures) if fixtures is not None else None
    reports = []
    with classify.census_pool(workers) as pool:
        census = cache(partial(classify.census, pool=pool))
        for name in names:
            args = (max_size,) if max_size is not None and name in _SIZE_BOUNDED else ()
            kwargs = {"census": census} if name in _CENSUS_READERS else {}
            rep = SuiteReport(name)
            try:
                rep = SUITES[name](*args, **kwargs)
            except (PolyominoError, gentree.NotAscending, gentree.InvalidLabel,
                    AssertionError) as exc:
                rep.record(f"{name} suite ran to its end", False,
                           f"{type(exc).__name__}: {exc}")
                rep.finish()
            reports.append(rep)
    if table is not None:
        reports.append(suite_fixtures(table))
    return reports
