"""Seeded operations for each benchmark workload, and the checks of their output.

An operation is one zcx command run in a fresh interpreter (see op.py).  A
round is one pass over a workload's operations; the seed fixes the
operations and their order, so the same seed gives the same rounds.  Every
CLI operation passes ``--threads 1``: the CLI's default of one worker per
core would start a process pool and measure the scheduler.

Workloads (why each exists; the layer metrics each should move are listed
in ``metrics.PER_LAYER``):

* census -- ``census --max-size 9``: enumerate, core and classify do almost
  all the work (13 446 shapes at size 9); series and gentree do none.  The
  seed draws nothing here: the command has no input to vary.
* series-deep -- three ``series --name N --terms 513`` with N drawn from
  seven catalog names: Newton sqrt/inverse and the Kronecker multiply do
  the work; classify and gentree do none.
* labels -- ``gentree --mode labels --max-size 36 --dump-level K``: succ
  and the level merge in count_levels do the work, and it has the largest
  peak RSS; classify and series do none.
* mixed -- the small-size cross-check: verify suites at max size 8
  (censuses to size 8 and catalog series to order 300), the constructive
  tree to size 10, the gentree suite at small bounds (the only caller of
  gentree.parent), functional-equation checks and refined generating
  functions at seeded rationals.  The same layers as the other workloads,
  used differently: low-order Fraction-heavy series, cached small
  censuses, and the constructive tree, which labels never touches.

So each planned optimization has a workload that runs it and one that
bypasses it: the census walk runs in census (and mixed), the series
expansion in series-deep (and mixed), the label DP in labels only.

Checks compare against outputs frozen from the program in ``refs/`` (see
make_refs.py), or the program's own verify and functional-equation
verdicts, or, for generating functions at seeded rationals, an identity
the coefficients must satisfy.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("census", "series-deep", "labels", "mixed")

REFS = Path(__file__).resolve().parent / "refs"

# Coefficient identities are checked modulo this prime (2^61 - 1).
PRIME = (1 << 61) - 1

CENSUS_MAX = 9
SERIES_NAMES = ("A", "C", "Z", "C21", "C22", "S4", "H")
SERIES_OPS = 3
SERIES_TERMS = 513
LABELS_MAX = 36
LABELS_DUMP = (30, 36)
MIXED_VERIFY = ["verify", "--suite", "identities,structure,refined,kernels",
                "--max-size", "8", "--format", "json"]
MIXED_CONSTRUCT_MAX = 10
# The gentree verify suite is the only caller of gentree.parent; the CLI
# runs it with the label DP to size 60, so it is called as a library
# function with small bounds instead.
MIXED_GENTREE_SUITE = {"max_construct": 8, "max_labels": 12}
MIXED_FE_TERMS = 60
MIXED_GF_TERMS = 200
MIXED_FE_OPS = 4
MIXED_GF_NAMES = ("Cp", "Lp", "Sp", "Np")

# Seconds one round took on the commit the benchmark was defined on, at the
# slower of the speeds its machine switches between, with the round's share
# of the set-up probes.  They fix how many rounds a run makes, the same on
# every commit, so that a faster program is not measured over more rounds.
ROUND_SECONDS = {"census": 2.3, "series-deep": 3.6, "labels": 5.0, "mixed": 9.0}


def _cli(kind: str, argv: list[str], **params) -> dict:
    return {"kind": kind, "spec": {"argv": ["--threads", "1"] + argv}, **params}


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 5), rng.randint(1, 5))


def _params(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """(x, y, z) of small height.  y = 1 or z = 1 makes the divided
    differences of the functional equations raise DegenerateParam, so
    those draws are rejected here, before anything is timed."""
    while True:
        x, y, z = _rational(rng), _rational(rng), _rational(rng)
        if y != 1 and z != 1:
            return x, y, z


def generate(workload: str, seed: int) -> list[dict]:
    """The operations of one round, in order; identical for identical seeds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return [_cli("census", ["census", "--max-size", str(CENSUS_MAX), "--format", "json"])]
    if workload == "series-deep":
        return [_cli("series", ["series", "--name", name, "--terms", str(SERIES_TERMS)],
                     name=name)
                for name in rng.sample(SERIES_NAMES, SERIES_OPS)]
    if workload == "labels":
        k = rng.randint(*LABELS_DUMP)
        return [_cli("labels", ["gentree", "--mode", "labels", "--max-size",
                                str(LABELS_MAX), "--dump-level", str(k),
                                "--format", "json"], dump_level=k)]
    if workload == "mixed":
        ops = [
            _cli("verify", MIXED_VERIFY),
            _cli("construct", ["gentree", "--mode", "construct", "--max-size",
                               str(MIXED_CONSTRUCT_MAX), "--format", "json"]),
            {"kind": "gentree_suite", "spec": {"call": "verify.suite_gentree",
                                               "kwargs": MIXED_GENTREE_SUITE}},
        ]
        for _ in range(MIXED_FE_OPS):
            x, y, z = (str(v) for v in _params(rng))
            ops.append({"kind": "fe", "spec": {
                "call": "series.functional_equation_checks",
                "args": [x, y, z, MIXED_FE_TERMS]}})
        for name in MIXED_GF_NAMES:
            x, y, z = (str(v) for v in _params(rng))
            flags = ["--z", z] if name == "Np" else ["--x", x, "--y", y, "--z", z]
            ops.append(_cli("gf", ["series", "--name", name, "--terms",
                                   str(MIXED_GF_TERMS)] + flags,
                            name=name, x=x, y=y, z=z))
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload: str, seconds: int) -> int:
    """The number of rounds a run of ``seconds`` makes."""
    return max(1, int(seconds / ROUND_SECONDS[workload]))


def load_refs() -> dict:
    return {name: json.loads((REFS / f"{name}.json").read_text())
            for name in ("census", "series", "labels")}


def canonical(op: dict, out: bytes) -> bytes:
    """Output with run-dependent fields removed: verify reports carry their
    elapsed seconds.  Everything else is compared byte for byte."""
    if op["kind"] not in ("verify", "gentree_suite"):
        return out
    payload = json.loads(out)
    for report in payload.get("reports", [payload]):
        report.pop("elapsed_seconds", None)
    return json.dumps(payload, sort_keys=True).encode()


def check(op: dict, code: int, out: bytes, refs: dict) -> str | None:
    """None when the operation's exit status and output are correct, else
    the reason it failed."""
    if code != 0:
        return f"exit status {code}"
    try:
        payload = json.loads(out)
        return _CHECKS[op["kind"]](op, payload, refs)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"


def _level_rows(payload):
    return [{k: lv[k] for k in ("level", "total", "centered", "non_centered",
                                "rectangular")} for lv in payload["levels"]]


def _check_census(op, payload, refs):
    if payload["rows"] != refs["census"]["rows"][: CENSUS_MAX - 1]:
        return "census rows differ from the reference"
    return None


def _check_series(op, payload, refs):
    want = refs["series"]["residues"][op["name"]][:SERIES_TERMS]
    coeffs = [Fraction(c) for c in payload["coeffs"]]
    if len(coeffs) != SERIES_TERMS:
        return f"{len(coeffs)} coefficients, expected {SERIES_TERMS}"
    if [_modp(c) for c in coeffs] != want:
        return f"{op['name']} coefficients differ from the reference residues"
    return None


def _check_labels(op, payload, refs):
    levels = refs["labels"]["levels"][: LABELS_MAX - 1]
    if payload["mode"] != "labels" or _level_rows(payload) != levels:
        return "label level totals differ from the reference"
    k = op["dump_level"]
    if payload["dump_level"] != k:
        return f"dumped level {payload['dump_level']}, expected {k}"
    want = levels[k - 2]
    total = rect = centered = 0
    seen = set()
    for line in payload["labels"]:
        family, b, w, r, is_rect, count = line.split(",")
        seen.add((family, b, w, r, is_rect))
        total += int(count)
        rect += int(count) if is_rect == "true" else 0
        centered += int(count) if family != "NC" else 0
    if len(seen) != len(payload["labels"]):
        return f"level {k} dump repeats a label"
    if (str(total), str(rect), str(centered)) != (
            want["total"], want["rectangular"], want["centered"]):
        return f"level {k} dump does not add up to the level totals"
    return None


def _check_construct(op, payload, refs):
    want = refs["labels"]["levels"][: MIXED_CONSTRUCT_MAX - 1]
    if payload["mode"] != "construct" or _level_rows(payload) != want:
        return "constructive level totals differ from the label reference"
    return None


def _check_reports(reports, suites, passed):
    run = [r["suite"] for r in reports]
    if run != suites:
        return f"suites run: {run}"
    failed = [c["description"] for r in reports for c in r["checks"]
              if c["status"] != "pass"]
    if failed or not passed:
        return f"verify checks failed: {failed[:3]}"
    return None


def _check_verify(op, payload, refs):
    return _check_reports(payload["reports"], ["identities", "structure", "refined",
                                               "kernels"], payload["passed"])


def _check_gentree_suite(op, payload, refs):
    return _check_reports([payload], ["gentree"], payload["passed"])


def _check_fe(op, payload, refs):
    if len(payload) != 7 or not all(ok for _, ok, _ in payload):
        return "functional-equation checks failed"
    return None


def _check_gf(op, payload, refs):
    coeffs = [Fraction(c) for c in payload["coeffs"]]
    if payload["name"] != op["name"] or len(coeffs) != MIXED_GF_TERMS:
        return f"{payload['name']} with {len(coeffs)} coefficients"
    x, y, z = (_modp(Fraction(op[k])) for k in ("x", "y", "z"))
    g = [_modp(c) for c in coeffs]
    n = len(g)
    if not _rational_identity(op["name"], x, y, z, g, n):
        return f"{op['name']} at x={op['x']} y={op['y']} z={op['z']} fails its identity"
    return None


_CHECKS = {
    "census": _check_census,
    "series": _check_series,
    "labels": _check_labels,
    "construct": _check_construct,
    "verify": _check_verify,
    "gentree_suite": _check_gentree_suite,
    "fe": _check_fe,
    "gf": _check_gf,
}


# ---------------------------------------------------------------------------
# Identities of the refined class functions, checked modulo PRIME.
# Polynomials are coefficient lists in t, lowest power first.
# ---------------------------------------------------------------------------

def _modp(q: Fraction) -> int:
    return q.numerator % PRIME * pow(q.denominator, -1, PRIME) % PRIME


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two series mod PRIME, truncated to n terms; the factors
    may hold any integers, the product is reduced."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                out[i + j] += ai * bj
    return [c % PRIME for c in out]


def _poly(*factors: list[int]) -> list[int]:
    out = [1]
    for f in factors:
        out = _mul(out, f, len(out) + len(f) - 1)
    return out


def _div(a: list[int], d: list[int], n: int) -> list[int]:
    """a / d mod PRIME to n terms, for d with constant term 1."""
    q = []
    for k in range(n):
        c = a[k] if k < len(a) else 0
        for j in range(1, min(k, len(d) - 1) + 1):
            c -= d[j] * q[k - j]
        q.append(c % PRIME)
    return q


def _rational_identity(name, x, y, z, g, n) -> bool:
    """Check g against its closed form: den * g = num for the rational class
    functions, and for N'(z), which carries sqrt(1-4t), the squared form
    (K g + Q)^2 (1-4t) = z^2 t^6 with K = 1-z+z^2 t and
    Q = z t^3 (1-zt)(1-(1+z)t) / Dz."""
    dy = [1, -1 - 2 * y, y * y]
    dz = [1, -3 - 2 * z, 1 + 4 * z + z * z, -z * z]
    t3, t4, t5 = [0, 0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1]
    if name == "Cp":
        num = _poly(t5, [x * x * y * z], [1, -1], [1, -y - z, y - z + y * z])
        den = _poly([1, -x], dy, dz)
    elif name == "Lp":
        num = _poly(t4, [x * y * z],
                    [1, -2 - y - z, 1 + 2 * y + z + y * z, -y * z])
        den = _poly(dy, dz)
    elif name == "Sp":
        num = _poly(t5, [x * y * z], [1, -1 - z, z - y])
        den = _poly(dy, dz)
    else:
        q = _div(_poly(t3, [z], [1, -z], [1, -1 - z]), dz, n)
        s = [(a + b) % PRIME for a, b in zip(_mul([1 - z, z * z], g, n), q)]
        lhs = _mul(_mul(s, s, n), [1, -4], n)
        return lhs == _poly(t3, t3, [z * z])[:n] + [0] * (n - 7)
    return _mul(den, g, n) == (num + [0] * n)[:n]
