"""Command-line interface: enumerate, census, series, gentree, verify, render.

All machine-readable output is deterministic: counts are serialized as
decimal strings (they outgrow 64-bit integers), CSV is plain UTF-8 with no
locale formatting, and ordering never depends on the worker count.
Each subcommand's parser binds its handler, which takes the parsed
arguments and returns (text, exit code).  Only ``census`` and ``verify``
start workers, so only their handlers read ``--threads`` (default: all
cores).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

RENDER_CELLS = 10**6    # the largest picture, rows times width, render draws


def _fraction(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zcx",
        description="Exact census and generating-function cross-checks for "
        "convex polyominoes classified by NE/NW convexity degree.",
    )
    parser.add_argument("--out", metavar="FILE", help="write output to FILE")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="K",
        help="worker count for census sweeps (default: all cores)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream convex polyominoes of one size")
    p.add_argument("--size", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print the count only (default)")
    group.add_argument("--list", action="store_true", help="list every polyomino")
    p.add_argument("--format", choices=("lines", "json", "ascii"), default="lines")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("census", help="classification counts for sizes 2..N")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("series", help="expand a catalog generating function")
    p.add_argument("--name", required=True,
                   help="catalog name, e.g. A, H, Rect, C22, C21, Cp, Np, S111")
    p.add_argument("--terms", type=int, default=None)
    for stat in ("x", "y", "z"):
        p.add_argument(f"--{stat}", type=_fraction, default=None,
                       help=f"rational {stat}, e.g. 2/3; write a negative "
                       f"value as --{stat}=-1/2")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("gentree", help="generating-tree levels for ascending polyominoes")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--mode", choices=("labels", "construct"), default="labels")
    p.add_argument("--dump-level", type=int, default=None, metavar="K",
                   help="also dump the label multiset at size K")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_gentree)

    p = sub.add_parser("verify", help="run the cross-check suites")
    p.add_argument(
        "--suite",
        default="all",
        help="comma-separated suite names, or all",
    )
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--fixtures", metavar="PATH", default=None,
                   help="JSON file with reference sequence prefixes")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("render", help="ASCII picture of one encoded polyomino")
    p.add_argument("--encoding", required=True)
    p.set_defaults(handler=_cmd_render)
    return parser


def _cmd_enumerate(args) -> tuple[str, int]:
    from .enumerate import all_convex, count_convex

    n = args.size
    if args.list:
        polys = list(all_convex(n))
        if args.format == "json":
            payload = {
                "size": n,
                "count": str(len(polys)),
                "polyominoes": [p.encode() for p in polys],
            }
            return json.dumps(payload, indent=2) + "\n", 0
        if args.format == "ascii":
            return "\n\n".join(p.render() for p in polys) + "\n", 0
        return "\n".join(p.encode() for p in polys) + "\n", 0
    count = count_convex(n)
    if args.format == "json":
        return json.dumps({"size": n, "count": str(count)}, indent=2) + "\n", 0
    return f"{count}\n", 0


def _cmd_census(args) -> tuple[str, int]:
    from . import classify
    from .core import PolyominoError

    if args.max_size < 2:
        raise PolyominoError("max size must be >= 2")
    with classify.census_pool(args.threads or os.cpu_count() or 1) as pool:
        rows = [classify.census(n, pool) for n in range(2, args.max_size + 1)]
    if args.format == "json":
        return json.dumps({"rows": [r.to_dict() for r in rows]}, indent=2) + "\n", 0
    return classify.census_csv(rows), 0


def _cmd_series(args) -> tuple[str, int]:
    from . import series

    terms = series.DEFAULT_ORDER if args.terms is None else args.terms
    canon = series.resolve_name(args.name)
    for k in ("x", "y", "z"):
        if getattr(args, k) is not None and k not in series.parameters(canon):
            raise series.SeriesError(f"{canon} does not take parameter {k}")
    g = series.gf(args.name, terms, x=args.x, y=args.y, z=args.z)
    params = {
        k: (str(v) if v is not None else None)
        for k, v in (("x", args.x), ("y", args.y), ("z", args.z))
    }
    if args.format == "csv":
        lines = ["n,coefficient"]
        lines += [f"{i},{c}" for i, c in enumerate(g.coeffs)]
        return "\n".join(lines) + "\n", 0
    payload = {
        "name": canon,
        "params": params,
        "terms": g.order,
        "coeffs": [str(c) for c in g.coeffs],
    }
    return json.dumps(payload, indent=2) + "\n", 0


def _label_lines(level) -> list[str]:
    return sorted(
        f"{f},{b},{w},{r},{str(rect).lower()},{cnt}"
        for (f, b, w, r, rect), cnt in level
    )


def _cmd_gentree(args) -> tuple[str, int]:
    from . import gentree
    from .core import PolyominoError

    if args.dump_level is not None and not 2 <= args.dump_level <= args.max_size:
        raise PolyominoError(
            f"--dump-level {args.dump_level} outside 2..{args.max_size}"
        )
    if args.mode == "labels":
        levels = gentree.levels(args.max_size)
    else:
        levels = gentree.constructive_levels(args.max_size)
    summary = []
    dump = None
    for lv in levels:
        summary.append({
            "level": lv.level,
            "total": str(lv.total),
            "centered": str(lv.centered_total),
            "non_centered": str(lv.non_centered_total),
            "rectangular": str(lv.rectangular_total),
        })
        if lv.level == args.dump_level:
            dump = _label_lines(lv)
    if args.format == "json":
        payload = {"mode": args.mode, "max_size": args.max_size, "levels": summary}
        if dump is not None:
            payload["dump_level"] = args.dump_level
            payload["labels"] = dump
        return json.dumps(payload, indent=2) + "\n", 0
    lines = ["level,total,centered,non_centered,rectangular"]
    lines += [
        f"{s['level']},{s['total']},{s['centered']},{s['non_centered']},{s['rectangular']}"
        for s in summary
    ]
    if dump is not None:
        lines.append(f"labels at level {args.dump_level}:")
        lines += dump
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args) -> tuple[str, int]:
    from . import verify

    names = [s.strip() for s in args.suite.split(",") if s.strip()]
    reports = verify.run_suites(names, max_size=args.max_size,
                                fixtures=args.fixtures,
                                workers=args.threads or os.cpu_count() or 1)
    all_pass = all(r.passed for r in reports)
    if args.format == "json":
        text = json.dumps(
            {"passed": all_pass, "reports": [r.to_dict() for r in reports]},
            indent=2,
        ) + "\n"
    else:
        text = "\n".join(r.to_text() for r in reports) + "\n"
        text += f"overall: {'PASS' if all_pass else 'FAIL'}\n"
    return text, 0 if all_pass else 1


def _cmd_render(args) -> tuple[str, int]:
    from .core import decode

    p = decode(args.encoding)
    if p.n_rows * p.width > RENDER_CELLS:
        raise ValueError(f"rows x width = {p.n_rows} x {p.width} is over the "
                         f"bound of {RENDER_CELLS} cells for a picture")
    return p.render() + "\n", 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    target = None   # the --out file, once the command has run
    try:
        # Open --out first: a path that cannot be written fails before the
        # command spends its time.
        with (open(args.out, "w", encoding="utf-8") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            text, code = args.handler(args)
            target = args.out
            fh.write(text)
    except (KeyError, ValueError, OSError) as exc:
        # Every zcx error class is a ValueError.  str() of a KeyError quotes
        # its message and str() of an OSError leads with its errno, so print
        # the message itself, after the file name: --out's for a failed write.
        if isinstance(exc, OSError) and exc.strerror:
            name = exc.filename or target
            msg = f"{name}: {exc.strerror}" if name else exc.strerror
        else:
            msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"zcx: error: {msg}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
