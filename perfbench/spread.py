"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--sets 1]

Runs ``run.py`` with tracing off and BENCHMARK.json's run_seconds once per
(seed, workload), with all the workloads interleaved inside each seed so
that a slow spell of a shared machine spreads over all of them.  For every
end-to-end metric it prints the median and the quartile spread,
(Q3 - Q1) / median from ``statistics.quantiles(values, n=4)``, next to the
metric's bound in BENCHMARK.json; a spread counts as steady below a third
of the bound.  With ``--sets 2``
the whole sequence runs twice and the second set's median is compared with
the first's against the bound.  Exits 1 if any run fails or any check
does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    medians: dict[tuple[str, str], list[float]] = {}
    for s in range(args.sets):
        values: dict[tuple[str, str], list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for w in names:
                res = run_once(w, seed, bench["run_seconds"])
                if not res["correct"] or res["failed"]:
                    print(f"set {s} seed {seed} {w}: {res['failed']} of "
                          f"{res['attempted']} operations failed")
                    ok = False
                for m, v in res["metrics"].items():
                    values.setdefault((w, m), []).append(v["value"])
                print(f"set {s} seed {seed} {w}: " + " ".join(
                    f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                    flush=True)
        print(f"\nset {s}: {args.seeds} seeds from {args.first_seed}")
        print(f"{'workload':12s} {'metric':32s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for (w, m), vs in values.items():
            med = statistics.median(vs)
            sp = spread(vs) if len(vs) >= 2 and med else 0.0
            mark = ""
            if sp >= bounds[m] / 3:
                mark = "  <- spread above a third of the bound"
                ok = False
            print(f"{w:12s} {m:32s} {med:12.5g} {sp:8.3f} {bounds[m]:>6}{mark}")
            medians.setdefault((w, m), []).append(med)
    if args.sets > 1:
        print("\nmedian drift between sets (second over first, minus 1)")
        for (w, m), meds in medians.items():
            drift = meds[1] / meds[0] - 1 if meds[0] else 0.0
            mark = ""
            if drift > bounds[m]:
                mark = "  <- worse than the bound"
                ok = False
            print(f"{w:12s} {m:32s} {drift:+8.3f}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
