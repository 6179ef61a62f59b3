"""Benchmark of the twospring toolkit: one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout (pure Python: there is nothing to build).  Each run prints the
metrics by name with their units, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, measured untraced;
with ``--trace 1`` they are its per-layer metrics, from a traced run.

The workload runs in a process of its own, whose peak resident memory is
``peak_rss_mb``.  Set-up time (import plus input generation) is the fastest
of ``SETUP_PROBES`` fresh processes that the workload process starts at even
intervals over the run, between requests.  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.

``--smoke`` runs every workload at tiny sizes, traced and untraced, and fails
unless every named metric is present and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "verify", "point-queries")
SETUP_PROBES = 32
SMOKE_SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150

# Workload-specific names of the end-to-end metrics, printed in their place.
ALIASES = {
    "sweep": {"items_per_s": "cells_per_s"},
    "verify": {"items_per_s": "checks_per_s"},
    "point-queries": {"items_per_s": "queries_per_s", "request_p50_us": "query_p50_us"},
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` with ``args``; return the JSON object it prints last.

    twospring makes no BLAS calls, yet importing numpy starts a BLAS worker
    thread per extra core, and whether that thread finds a free core halved
    or doubled the import time from probe to probe.  One caller, one thread.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        raise BenchError(f"worker {' '.join(args)} ran over {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Measure one workload; returns the result object of the output contract."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    args += ["--smoke", "--setup-probes", str(SMOKE_SETUP_PROBES)] if smoke else ["--setup-probes", str(SETUP_PROBES)]
    out = child(args, CHILD_TIMEOUT_S)
    values = out["metrics"]
    specs = bench_spec()["end_to_end" if trace == 0 else "per_layer"]
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    aliases = ALIASES[workload] if trace == 0 else {}
    for name, metric in metrics.items():
        print(f"{workload:14} {aliases.get(name, name):26} {metric['value']:<22.10g} {metric['unit']}")
    for name, value in out["report"].items():
        print(f"{workload:14} {name:26} {value:<22.10g}" if isinstance(value, (int, float)) else f"{workload:14} {name:26} {value}")
    attempted, failed = out["attempted"], out["failed"]
    print(f"{workload:14} {'error_rate':26} {failed / attempted:<22.10g} share  ({failed} of {attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; 0 only if all pass."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                passed = run_one(workload, seed=1, seconds=1.0, trace=trace, smoke=True)["correct"]
            except BenchError as exc:
                print(f"{workload}: {exc}", file=sys.stderr)
                passed = False
            print(f"smoke {workload} trace={trace}: {'PASS' if passed else 'FAIL'}")
            ok = ok and passed
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="twospring benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny sizes and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twospring" / "__init__.py").is_file():
        print(f"error: no twospring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    seconds = bench_spec()["run_seconds"] if args.seconds is None else args.seconds
    try:
        result = run_one(args.workload, args.seed, seconds, args.trace, smoke=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
