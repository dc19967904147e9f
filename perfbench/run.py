"""zcx benchmark: one workload, one seed, rounds sized to a measuring time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a zcx checkout (the package is taken from ``src/``).
Each operation is one zcx command in a fresh interpreter, issued one after
another by this single process (a closed loop with one client), so the
in-process caches start cold as they do for a command-line user.  A round
is one pass over the workload's operations (workloads.py).  A run makes a
fixed number of rounds, set by the workload and S alone (see
workloads.rounds), so that every commit is measured over the same count.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:
the wall and CPU time of the run's slowest round, the upper decile of the
set-up times of interpreters spawned between rounds, and the largest peak
RSS of any operation.  The slowest round is the longest a user waited for
the workload in the run.  It is reported instead of a mean or median
because the machine the benchmark was defined on, a shared 2-core VM,
switches between speeds about 1.45x apart, each held for seconds to
minutes: a mean moves with the share of the run each speed held, and a
median flips between them, while the slower speed shows up in most runs,
so the slowest round of a fixed count moves least from run to run.  The
set-up probes are short enough that one may land on a stray pause, so
their upper decile stands in for their maximum.  The run's median and mean
round times are recorded beside them.

With ``--trace 1`` untraced and traced rounds alternate; the traced ones
wrap the zcx functions with spans (spans.py) and the line reports the
per-layer metrics (metrics.py), including the tracing overhead.

Every operation's exit status and output are checked outside the timed
window; a wrong output, a nonzero exit, an exception or a timeout counts
as a failed operation.  The line before the last records the inputs, the
environment and a fixed calibration loop timed in the run, so that a slow
machine can be told apart from a slow change; the loop never rescales a
metric.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import metrics
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OP = HERE / "op.py"

OP_TIMEOUT_S = 90.0
LAST_ROUND_START_S = 120.0   # no round starts later, so a run exits in time
SETUP_SAMPLES = 20
CALIBRATION_N = 1_000_000


class OpResult(NamedTuple):
    wall_s: float
    cpu_s: float
    code: int | None
    out: bytes
    span_file: Path | None
    error: str | None = None


class Runner:
    """Spawns operation processes and measures each from spawn to exit."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.env["ZCX_THREADS"] = "1"
        self.env["PYTHONHASHSEED"] = "0"
        self.count = 0

    def spawn(self, spec: dict, traced: bool = False) -> OpResult:
        """Run one operation; its CPU time is the rusage of this process's
        reaped children before and after it."""
        self.count += 1
        span_file = self.tmp / f"spans{self.count}" if traced else None
        cmd = [sys.executable, str(OP), json.dumps(spec)]
        if span_file:
            cmd.append(str(span_file))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  env=self.env, cwd=ROOT, timeout=OP_TIMEOUT_S)
            code, out, error = proc.returncode, proc.stdout, None
        except subprocess.TimeoutExpired:
            code, out, error = None, b"", f"timed out after {OP_TIMEOUT_S:.0f} s"
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        return OpResult(wall, cpu, code, out, span_file, error)

    def setup_sample(self) -> float:
        res = self.spawn({})
        if res.code != 0:
            raise RuntimeError(f"zcx.cli does not import (exit status {res.code})")
        return res.wall_s


def peak_rss_mib() -> float:
    """Largest peak RSS of any operation process this process has reaped."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_round(runner: Runner, ops: list[dict], refs: dict, traced: bool) -> dict:
    """Run the round's operations in order; checks happen after each
    operation has exited, outside its timed window."""
    rnd = {"wall_s": 0.0, "cpu_s": 0.0, "failures": [], "outputs": [], "aggs": [],
           "cli_bytes": 0}
    for i, op in enumerate(ops):
        res = runner.spawn(op["spec"], traced)
        rnd["wall_s"] += res.wall_s
        rnd["cpu_s"] += res.cpu_s
        error = res.error or workloads.check(op, res.code, res.out, refs)
        if error is None and traced:
            try:
                rnd["aggs"].append(spans.aggregate(spans.load(res.span_file)))
            except (OSError, ValueError, EOFError) as exc:
                error = f"unreadable span file: {exc!r}"
        if res.span_file is not None and res.span_file.exists():
            res.span_file.unlink()
        if "argv" in op["spec"]:
            rnd["cli_bytes"] += len(res.out)
        rnd["outputs"].append(workloads.canonical(op, res.out) if error is None else None)
        if error is not None:
            rnd["failures"].append({"op": i, "kind": op["kind"], "error": error})
    return rnd


def calibrate() -> float:
    """A fixed pure-Python loop, timed; reported, never used to rescale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    gmpy2 = importlib.util.find_spec("gmpy2") is not None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "gmpy2": gmpy2,
        "kronecker_multiply": "gmpy2" if gmpy2 else "python int",
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def upper_decile(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


def measure(workload: str, seed: int, seconds: int, trace: bool, tmp: Path) -> tuple[dict, dict]:
    start = time.monotonic()
    runner = Runner(tmp)
    ops = workloads.generate(workload, seed)
    refs = workloads.load_refs()
    # A traced round runs the operations twice, untraced and traced.
    rounds = workloads.rounds(workload, seconds)
    if trace:
        rounds = max(1, rounds // 2)
    calibration = [calibrate()]
    runner.setup_sample()   # warm-up: bytecode caches exist before timing
    setup, plain, traced, failures = [], [], [], []
    layer_share = None
    attempted = 0
    for r in range(rounds):
        # A program far slower than the one the counts were sized on gets
        # fewer rounds rather than a run that does not end in time.
        if r and time.monotonic() - start > LAST_ROUND_START_S:
            break
        if not trace:
            share = (r + 1) * SETUP_SAMPLES // rounds - r * SETUP_SAMPLES // rounds
            setup += [runner.setup_sample() for _ in range(share)]
        rnd = run_round(runner, ops, refs, traced=False)
        plain.append(rnd)
        attempted += len(ops)
        failures += rnd["failures"]
        if trace:
            trnd = run_round(runner, ops, refs, traced=True)
            for i, (a, b) in enumerate(zip(rnd["outputs"], trnd["outputs"])):
                if a is not None and b is not None and a != b:
                    trnd["failures"].append({"op": i, "kind": ops[i]["kind"],
                                             "error": "traced output differs from untraced"})
            traced.append(trnd)
            attempted += len(ops)
            failures += trnd["failures"]
    calibration.append(calibrate())

    if trace:
        per_round = [
            metrics.layer_metrics(metrics.merge(r["aggs"]), r["wall_s"], r["cli_bytes"])
            for r in traced
        ]
        values = {name: statistics.median(r[name] for r in per_round)
                  for name in per_round[0]}
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
        values["trace.overhead_ratio"] = (
            values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1.0)
        table = [(n, u) for n, u, _, _ in metrics.PER_LAYER]
        layer_share = metrics.self_share_by_layer(
            metrics.merge([a for r in traced for a in r["aggs"]]))
    else:
        values = {
            "wall_s": max(r["wall_s"] for r in plain),
            "cpu_s": max(r["cpu_s"] for r in plain),
            "setup_s": upper_decile(setup),
            "peak_rss_mib": peak_rss_mib(),
        }
        table = [(n, u) for n, u, _ in metrics.END_TO_END]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in table},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "rounds": len(plain),
        "rounds_planned": rounds,
        "operations": [op["spec"] for op in ops],
        "ops_total": attempted,
        "failed_ops_ratio": len(failures) / attempted,
        "round_wall_s": [r["wall_s"] for r in plain],
        "round_cpu_s": [r["cpu_s"] for r in plain],
        "round_wall_median_s": statistics.median(r["wall_s"] for r in plain),
        "round_wall_mean_s": statistics.fmean(r["wall_s"] for r in plain),
        "traced_round_wall_s": [r["wall_s"] for r in traced],
        "setup_samples_s": setup,
        "self_s_share_by_layer": layer_share,
        "calibration_s": calibration,
        "env": environment(),
        "failures": failures,
    }
    return info, result


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def _terminate(signum, frame):
    # Unwind through the finally blocks: kill and reap the running
    # operation, remove the temporary directory.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "zcx" / "cli.py").is_file():
        print(f"perfbench: no zcx package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        info, result = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), tmp)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for failure in info["failures"]:
        print(f"perfbench: failed operation {failure}", file=sys.stderr)
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
