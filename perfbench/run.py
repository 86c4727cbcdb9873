#!/usr/bin/env python3
"""Benchmark of decrement: three workloads, end-to-end and per layer.

Run from the root of a checkout (the program is imported from ``src``):

    python3 perfbench/run.py --workload ops3 --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  matrix2  the full two-atom conformance matrix through the CLI
  ops3     the operator API on seeded three-atom states
  sat3     ``decrement sat`` probes on seeded three-atom state files

Every pass runs in a fresh interpreter, so the program's caches start cold
as they do for each CLI call.  With --trace 0 the run repeats passes until
--seconds is spent (at least one) and reports the end-to-end metrics as
medians over passes.  With --trace 1 it makes one untraced and one traced
pass and reports the per-layer metrics of the traced one, plus
trace.overhead_ratio, the traced over the untraced wall time.  Either way
it first times SETUP_RUNS set-ups on their own.

Prints one line per metric with its unit, then one JSON line
{"correct", "attempted", "failed", "metrics"}, and writes the full result
(git sha, kernel backend, Python, CPUs, seed, sizes, cache_info, passes)
to perfbench/out/.  Exits 0 when it printed a result, 1 when a pass could
not run, 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("matrix2", "ops3", "sat3")
SETUP_RUNS = 7
# Not used while the benchmark was written; check a claimed gain on it too.
HOLDOUT_SEED = 9001
DEADLINE_S = 170  # per workload: children still running then are killed

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class PassError(RuntimeError):
    pass


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest of p50/p90/p99/p99.9 with at
    least ten values above it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    best = (100.0, ordered[-1])
    for pct in (50.0, 90.0, 99.0, 99.9):
        if n * (1 - pct / 100) >= 10:
            best = (pct, ordered[math.ceil(pct / 100 * n) - 1])
    return best


def run_child(workload: str, seed: int, mode: str, workdir: Path, deadline: float) -> dict:
    spec = {"workload": workload, "seed": seed, "mode": mode, "workdir": str(workdir)}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("out of time before the pass started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} {mode} pass killed after {timeout:.0f} s") from None
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        pass
    raise PassError(f"{workload} {mode} pass failed:\n{proc.stderr[-3000:]}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [run_child(workload, seed, "setup", workdir, deadline)["setup_s"] for _ in range(SETUP_RUNS)]
        if trace:
            passes = [run_child(workload, seed, mode, workdir, deadline) for mode in ("pass", "traced")]
        else:
            passes = []
            start = time.monotonic()
            while True:
                t0 = time.monotonic()
                passes.append(run_child(workload, seed, "pass", workdir, deadline))
                now = time.monotonic()
                if (now - start) + (now - t0) > seconds:  # the next pass would overrun
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups += [p["setup_s"] for p in passes]
    return summarize(workload, seed, trace, setups, passes)


def summarize(workload: str, seed: int, trace: bool, setups: list, passes: list) -> dict:
    items = [ms for p in passes for ms in p["items_ms"]]
    tail_pct, tail_ms = tail(items)
    digests = {p["digest"] for p in passes}
    failed = sum(p["failed"] for p in passes)
    if trace:
        untraced, traced = passes
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = {"value": traced["wall_s"] / untraced["wall_s"], "unit": "ratio"}
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "items_per_s": statistics.median(p["work"] / p["wall_s"] for p in passes),
            "item_p50_ms": statistics.median(items),
            "item_tail_ms": tail_ms,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return {
        "workload": workload,
        "seed": seed,
        "holdout": seed == HOLDOUT_SEED,
        "trace": int(trace),
        "correct": failed == 0 and len(digests) == 1,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "fail_share": failed / max(1, sum(p["attempted"] for p in passes)),
        "errors": [e for p in passes for e in p["errors"]][:10],
        "metrics": metrics,
        "item_tail_pct": tail_pct,
        "items": len(items),
        "setup_samples_s": setups,
        **passes[-1]["program"],
        "sizes": passes[-1]["sizes"],
        "cache_info": passes[-1]["cache_info"],
        "passes": [
            {k: p[k] for k in ("wall_s", "work", "attempted", "failed", "peak_rss_mb", "digest")}
            for p in passes
        ],
    }


def _terminate(signum, frame):
    # An exception unwinds subprocess.run, which kills and reaps the pass
    # in flight, and run_workload's finally removes the work directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "decrement" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'decrement'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(parents=True, exist_ok=True)
    for res in results:
        path = OUT / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        for name, m in res["metrics"].items():
            value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
            print(f"{res['workload']:8} {name:40} {value:>14} {m['unit']}")
        print(f"{res['workload']:8} {'fail_share':40} {res['fail_share']:>14.6g} ratio"
              f"  ({res['failed']} of {res['attempted']})")
        for err in res["errors"]:
            print(f"{res['workload']:8} failed: {err}")
        print(f"{res['workload']:8} backend {res['kernel_backend']}, result in {path.relative_to(ROOT)}")

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): v for r in results for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
