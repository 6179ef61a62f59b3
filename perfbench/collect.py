"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` on every workload of ``BENCHMARK.json`` for its
``run_seconds``: once per seed with ``--trace 0``, then once with
``--trace 1`` on the first seed.  For every
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the bound
``BENCHMARK.json`` fixes for it, and the medians of the unscaled ``raw_*``
values the runs print.  The summary records the Python and numpy versions
and the processor count of the machine that made it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result object, plus the unscaled ``raw_*`` values it printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = [line.split() for line in lines[:-1]]
    result["raw"] = {f[1]: float(f[2]) for f in printed if len(f) >= 3 and f[1].startswith("raw_")}
    return result


def environment() -> dict:
    import numpy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"environment": environment(), "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {"attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bound,
                "values": values,
            }
            print(f"{workload:14} {name:16} median {median:<14.6g} spread {spread:7.4f} (bound {bound})", flush=True)
        entry["raw"] = {name: statistics.median(r["raw"][name] for r in runs) for name in runs[0]["raw"]}
        traced = bench(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
