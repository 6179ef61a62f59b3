"""One workload of the twospring benchmark, run in a process of its own.

``run.py`` starts this script; it prints one JSON object on stdout.  Set-up
(importing twospring and generating the seeded inputs) is timed from before
the import, so ``--setup-only`` runs measure exactly what a user pays before
the first request.  Every request is timed on its own with
``time.perf_counter_ns`` and its output is checked outside the timed region.

An untraced run also reports ``setup_s``: it starts ``--setup-probes`` fresh
``--setup-only`` processes at even intervals over its ``--seconds``, outside
the timed requests and with the deadline moved on by their time, and takes
the fastest.  Co-tenant load on a shared host slows imports by up to 1.9x
for tens of seconds at a time, so a run's median probe follows the load;
the fastest probe is the set-up cost with the least load on it, and extra
set-up work raises it just the same.

With ``--trace 1`` the workload runs untraced for half of ``--seconds`` and
then a fixed number of requests traced: every public twospring name a request
reaches is wrapped where its caller looks it up (see ``LAYER_SITES``), and
per-layer self times and counts are derived from the recorded spans.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from timing import Histogram, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# (module, name looked up there, span name); a module here is the caller.
LAYER_SITES = [
    ("sweep_cli", "main", "sweep_cli.main"),
    ("sweep_cli", "build_parser", "sweep_cli.parse"),
    ("sweep_cli", "phase_cells", "sweep_cli.phase_cells"),
    ("sweep_cli", "sweep_lines", "sweep_cli.sweep_lines"),
    ("sweep_cli", "_emit", "sweep_cli.write"),
    ("sweep_cli", "winner", "regions.winner"),
    ("sweep_cli", "verify_reduction", "oracle.verify_reduction"),
    ("regions", "winner", "regions.winner"),
    ("regions", "classify", "regions.classify"),
    ("regions", "solve_reduced", "solver.solve_reduced"),
    ("solver", "solve_reduced", "solver.solve_reduced"),
    ("solver", "expand", "solver.expand"),
    ("oracle", "solve_reduced", "solver.solve_reduced"),
    ("oracle", "oracle_solve", "oracle.oracle_solve"),
    ("oracle", "multiperf_grid", "model.multiperf_grid"),
    ("oracle", "force_grid", "model.force_grid"),
]

REPEATED_COSTS = (1.0, 2.0, math.inf)

# point-queries draws its weights in chunks of this many, outside the timing
CHUNK = 4096
# the B1/B2 dividing segment b = 2 - 4a runs over these a
B2_A_MIN, B2_A_MAX = 1.0 / 3.0, 3.0 / 7.0


def load_twospring():
    """Import twospring from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "twospring" / "__init__.py").is_file():
        raise SystemExit(f"twospring sources not found under {src}")
    sys.path.insert(0, str(src))
    import twospring

    if Path(twospring.__file__).resolve().parent != (src / "twospring").resolve():
        raise SystemExit(f"imported twospring from {twospring.__file__}, not from {src}")
    return {name: importlib.import_module(f"twospring.{name}") for name in ("model", "solver", "regions", "oracle", "sweep_cli")}


class Sweep:
    """``twospring sweep`` over the default window with seed-jittered edges.

    Every request writes the same CSV; the first output is checked against
    the digest recorded for this seed (``expected.json``) or, for a seed
    without one, by re-deriving a seeded sample of rows from the frozen
    closed form in ``reference.py`` and ``repr``.  Later outputs must repeat
    its bytes.
    """

    def __init__(self, tw, seed: int, smoke: bool) -> None:
        import numpy as np

        from reference import design_answer

        rng = np.random.default_rng([seed, 1])
        j = rng.uniform(0.0, 1.0, 3)
        self.n = 21 if smoke else 101
        self.window = (0.0, 1.2 + 0.01 * float(j[0]), 0.001 * float(j[1]), 1.2 + 0.01 * float(j[2]))
        self.out = WORK / f"sweep-{os.getpid()}.csv"
        a_min, a_max, b_min, b_max = self.window
        self.argv = [
            "sweep", "--a-min", repr(a_min), "--a-max", repr(a_max), "--b-min", repr(b_min),
            "--b-max", repr(b_max), "--na", str(self.n), "--nb", str(self.n), "--out", str(self.out),
        ]  # fmt: skip
        recorded = json.loads((HERE / "expected.json").read_text())["sweep"]
        self.expected = recorded.get(f"{self.n}x{self.n}", {}).get(str(seed))
        self.sample = rng.choice(self.n * self.n, size=min(256, self.n * self.n), replace=False)
        self.tw = tw
        self.reference = design_answer
        self.items = self.n * self.n
        self.good = None
        self.kernel, self.requests_per_sample = "python", 1

    def prepare(self, i: int) -> tuple:
        return (self.argv,)

    def request(self, argv):
        return self.tw["sweep_cli"].main(argv)

    def check(self, i: int, args: tuple, result) -> int:
        """Number of rows of this request that failed."""
        if result != 0:
            return self.items
        data = self.out.read_bytes()
        self.out.unlink()
        digest = hashlib.sha256(data).hexdigest()
        if self.good is None:
            ok = digest == self.expected if self.expected else self._rows_match(data)
            if ok:
                self.good = digest
            return 0 if ok else self.items
        return 0 if digest == self.good else self.items

    def _rows_match(self, data: bytes) -> bool:
        import numpy as np

        lines = data.decode("ascii").split("\n")
        if lines[0] != self.tw["sweep_cli"].SWEEP_HEADER or lines[-1] != "" or len(lines) != self.items + 2:
            return False
        a_min, a_max, b_min, b_max = self.window
        a_values = np.linspace(a_min, a_max, self.n)
        b_values = np.linspace(b_min, b_max, self.n)
        for idx in (0, self.items - 1, *self.sample.tolist()):
            a, b = float(a_values[idx % self.n]), float(b_values[idx // self.n])
            region, best, cost_p, cost_s = self.reference(a, b)[:4]
            fields = (repr(a), repr(b), region, best, repr(cost_p), repr(cost_s))
            if lines[idx + 1] != ",".join(fields):
                return False
        return True

    def cleanup(self) -> None:
        self.out.unlink(missing_ok=True)


class Verify:
    """``twospring verify`` campaigns at the default oracle grid, one seed each."""

    def __init__(self, tw, seed: int, smoke: bool) -> None:
        import numpy as np

        self.samples = 1 if smoke else 2
        self.seeds = np.random.default_rng([seed, 2]).integers(0, 2**31 - 1, size=4096).tolist()
        self.out = WORK / f"verify-{os.getpid()}.json"
        self.tw = tw
        self.items = 2 * self.samples
        self.kernel, self.requests_per_sample = "numpy", 1

    def prepare(self, i: int) -> tuple:
        seed = self.seeds[i % len(self.seeds)]
        return (["verify", "--seed", str(seed), "--samples", str(self.samples), "--out", str(self.out)],)

    def request(self, argv):
        return self.tw["sweep_cli"].main(argv)

    def check(self, i: int, args: tuple, result) -> int:
        """Number of checks of this campaign that disagreed or did not run."""
        if result not in (0, 1):
            return self.items
        summary = json.loads(self.out.read_text())
        self.out.unlink()
        if summary["checks"] != self.items or summary["seed"] != self.seeds[i % len(self.seeds)]:
            return self.items
        if (result == 0) != (summary["disagreements"] == 0):
            return self.items
        return summary["disagreements"]

    def cleanup(self) -> None:
        self.out.unlink(missing_ok=True)


class PointQueries:
    """Closed loop of single design queries through the scalar library API.

    A query is ``winner(w)`` and then ``expand(solve_reduced(w, k), k)`` for
    the winning wiring ``k`` (parallel on a tie, nothing when both wirings
    are infeasible).  Timing the pair as one query keeps the latency
    distribution unimodal, so its median is steady.  Weights are drawn from
    the seed in chunks, never reused: 80% uniform on ``[0, 1.5]^2``, 5% on
    the ``a = 0`` axis, and 5% on each dividing line ``a + 2b = 1``,
    ``a + b = 1`` and ``b = 2 - 4a``.
    """

    def __init__(self, tw, seed: int, smoke: bool) -> None:
        import numpy as np

        from reference import design_answer

        self.rng = np.random.default_rng([seed, 3])
        self.chunk = self._weights(CHUNK)
        self.items = 1
        self.kernel, self.requests_per_sample = "python", 512
        self.reference = design_answer
        m = tw["model"]
        self.Weights = m.Weights
        self.regions, self.solver = tw["regions"], tw["solver"]
        self.infeasible = tw["regions"].Winner.BOTH_INFEASIBLE
        self.serial_wins = tw["regions"].Winner.SERIAL
        self.PARALLEL, self.SERIAL = m.Topology.PARALLEL, m.Topology.SERIAL

    def prepare(self, i: int) -> tuple:
        j = i % CHUNK
        if j == 0 and i > 0:
            self.chunk = self._weights(CHUNK)
        return self.chunk[j]

    def _weights(self, n: int) -> list[tuple[float, float]]:
        import numpy as np

        rng = self.rng
        kind = rng.choice(5, size=n, p=[0.80, 0.05, 0.05, 0.05, 0.05])
        a = rng.uniform(0.0, 1.5, n)
        b = rng.uniform(0.0, 1.5, n)
        t = rng.uniform(0.0, 1.0, n)
        seg = B2_A_MIN + t * (B2_A_MAX - B2_A_MIN)
        a = np.select([kind == 1, kind == 2, kind == 3, kind == 4], [0.0, t, t, seg], a)
        b = np.select([kind == 2, kind == 3, kind == 4], [(1.0 - t) / 2.0, 1.0 - t, 2.0 - 4.0 * seg], b)
        return list(zip(a.tolist(), b.tolist()))

    def request(self, a: float, b: float):
        w = self.Weights(a, b)
        report = self.regions.winner(w)
        if report.winner is self.infeasible:
            return report, None
        k = self.SERIAL if report.winner is self.serial_wins else self.PARALLEL
        return report, self.solver.expand(self.solver.solve_reduced(w, k), k)

    def check(self, i: int, args: tuple, result) -> int:
        report, design = result
        got = (report.label.value, report.winner.value, report.cost_parallel, report.cost_serial)
        if design is not None:
            got += (design.c1_star, design.c2_star, design.total_cost)
        else:
            got += (None, None, None)
        return 0 if got == self.reference(*args) else 1

    def cleanup(self) -> None:
        pass


WORKLOADS = {"sweep": Sweep, "verify": Verify, "point-queries": PointQueries}

# Requests in the traced part of a --trace 1 run: a fixed amount of work, so
# per-layer counts compare between commits.
TRACED_REQUESTS = {"sweep": 16, "verify": 16, "point-queries": 150_000}


def measure(workload, seconds: float | None = None, requests: int | None = None, probe=None, probes: int = 0) -> dict:
    """Run requests for ``seconds`` (at least one) or exactly ``requests`` of them.

    The host-speed kernel runs before the first request, after every
    ``workload.requests_per_sample`` requests and after the last one.  Each
    duration is counted as measured (``raw``) and scaled to the reference
    host speed (``scaled``).  ``probe()`` runs ``probes`` times between
    requests, at even intervals over ``seconds``; the time it takes is added
    to the deadline, so requests still fill ``seconds``.
    """
    clock = time.perf_counter_ns
    speed = HostSpeed(workload.kernel)
    raw, scaled = Histogram(), Histogram()
    pending: list[int] = []

    def flush() -> None:
        speed.sample()
        f = speed.factor()
        for d in pending:
            raw.add(d)
            scaled.add(d * f)
        pending.clear()

    items = failed = 0
    span = int((seconds or 0.0) * 1e9)
    deadline = clock() + span
    interval = span // (probes + 1)
    next_probe = deadline - span + interval
    probed: list[float] = []
    speed.sample()
    i = 0
    while (i < requests) if requests is not None else (i == 0 or clock() < deadline):
        if i and i % workload.requests_per_sample == 0:
            flush()
        if len(probed) < probes and clock() >= next_probe:
            t = clock()
            probed.append(probe())
            spent = clock() - t
            deadline += spent
            next_probe += interval + spent
        args = workload.prepare(i)
        t = clock()
        try:
            result = workload.request(*args)
        except Exception as exc:  # a raising request is a failed request, not a crash
            result = exc
        pending.append(clock() - t)
        items += workload.items
        failed += workload.items if isinstance(result, Exception) else checked(workload, i, args, result)
        i += 1
    flush()
    while len(probed) < probes:  # a request outlasted the probe interval
        probed.append(probe())
    return {"raw": raw, "scaled": scaled, "items": items, "failed": failed, "probes": probed}


def checked(workload, i: int, args: tuple, result) -> int:
    """Failed items of request ``i``; output too malformed to check fails all."""
    try:
        return workload.check(i, args, result)
    except Exception:  # e.g. a missing or truncated output file
        return workload.items


def end_to_end(run: dict) -> tuple[dict, dict]:
    """Gated metrics from host-speed-scaled times; raw ones are only reported."""
    raw, scaled = run["raw"], run["scaled"]
    report = {"requests": raw.n, "setup_probes": len(run["probes"]), "setup_median_s": statistics.median(run["probes"])}
    report["raw_request_p50_us"] = raw.quantile_us(50)
    if raw.n >= 1000:  # at least ten samples lie beyond p99
        report["request_p99_us"] = scaled.quantile_us(99)
        report["raw_request_p99_us"] = raw.quantile_us(99)
    report["raw_items_per_s"] = run["items"] / (raw.total_ns / 1e9)
    metrics = {
        "setup_s": min(run["probes"]),
        "items_per_s": run["items"] / (scaled.total_ns / 1e9),
        "request_p50_us": scaled.quantile_us(50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, report


def traced(tw, workload, name: str, seconds: float, requests: int) -> tuple[dict, dict, int, int]:
    """Per-layer metrics from an untraced and a traced pass of the same workload."""
    from spans import Tracer

    plain = measure(workload, seconds=seconds / 2.0)
    tracer = Tracer()
    labels = dict.fromkeys(("A", "B1", "B2", "C"), 0)
    solver_outcomes = {"root": 0, "infeasible": 0}
    state = {"cells": None, "emitted": [], "grid_bytes": 0, "grids": {}, "oracle_args": None, "main_args": None}
    root = tw["solver"].ActiveConstraint.PERFORMANCE_ROOT

    def on_winner(args, report):
        labels[report.label.value] += 1

    def on_solve(args, sol):
        if not sol.feasible:
            solver_outcomes["infeasible"] += 1
        elif sol.active_constraint is root:
            solver_outcomes["root"] += 1

    def on_main(args, _):
        state["main_args"] = state["main_args"] or args

    def on_cells(args, cells):
        state["cells"] = cells

    def on_emit(args, _):
        state["emitted"].append(args[0])

    def on_grid(args, result):
        state["grid_bytes"] += result.nbytes

    def on_oracle(args, result):
        state["oracle_args"] = state["oracle_args"] or args
        g = args[2]
        state["grids"][g] = state["grids"].get(g, 0) + 1

    hooks = {
        "regions.winner": on_winner,
        "solver.solve_reduced": on_solve,
        "sweep_cli.main": on_main,
        "sweep_cli.phase_cells": on_cells,
        "sweep_cli.write": on_emit,
        "model.multiperf_grid": on_grid,
        "model.force_grid": on_grid,
        "oracle.oracle_solve": on_oracle,
    }
    missing = [f"{m}.{a}" for m, a, _ in LAYER_SITES if not hasattr(tw[m], a)]
    for module, attr, span in LAYER_SITES:
        if hasattr(tw[module], attr):
            tracer.wrap(tw[module], attr, span, hooks.get(span))
    cli = tw["sweep_cli"]
    if hasattr(cli, "build_parser"):
        # parse_args is a method of the parser main builds, so wrap each one;
        # restore() puts the original build_parser back
        parser_factory = cli.build_parser

        def build_parser():
            parser = parser_factory()
            tracer.wrap(parser, "parse_args", "sweep_cli.parse")
            return parser

        cli.build_parser = build_parser
    try:
        run = measure(workload, requests=requests)
    finally:
        tracer.restore()
    tracer.save(WORK / f"spans-{name}.npz")
    spans = tracer.summary()

    def self_s(*names: str) -> float:
        return sum(spans[s]["self_s"] for s in names if s in spans)

    def calls(span: str) -> int:
        return spans[span]["count"] if span in spans else 0

    winners = calls("regions.winner")
    solves = calls("solver.solve_reduced")
    solve_parents = spans.get("solver.solve_reduced", {}).get("parents", {})
    oracle_calls = calls("oracle.oracle_solve")
    points = sum(int(g.axis().size) ** 2 * c for g, c in state["grids"].items())
    metrics = {
        "sweep_cli.self_s": self_s(*(s for s in spans if s.startswith("sweep_cli."))),
        "sweep_cli.parse_s": self_s("sweep_cli.parse"),
        "sweep_cli.cells_s": self_s("sweep_cli.phase_cells"),
        "sweep_cli.format_s": self_s("sweep_cli.sweep_lines"),
        "sweep_cli.write_s": self_s("sweep_cli.write"),
        "sweep_cli.bytes_out": sum(len(line) + 1 for lines in state["emitted"] for line in lines),
        "sweep_cli.repeat_share": repeat_share(state["cells"]),
        "sweep_cli.peak_bytes": peak_bytes(tw["sweep_cli"].main, state["main_args"]),
        "regions.winner_calls": winners,
        "regions.winner_self_s": self_s("regions.winner"),
        "regions.classify_self_s": self_s("regions.classify"),
        "regions.solves_per_winner": (
            (solve_parents.get("regions.winner", 0) + solve_parents.get("regions.classify", 0)) / winners
            if winners
            else 0.0
        ),
        **{f"regions.label_{k}": v for k, v in labels.items()},
        "solver.calls": solves,
        "solver.self_s": self_s("solver.solve_reduced", "solver.expand"),
        "solver.root_share": solver_outcomes["root"] / solves if solves else 0.0,
        "solver.infeasible": solver_outcomes["infeasible"],
        "oracle.calls": oracle_calls,
        "oracle.self_s": self_s("oracle.oracle_solve"),
        "oracle.verify_self_s": self_s("oracle.verify_reduction"),
        "oracle.points": points / oracle_calls if oracle_calls else 0.0,
        "oracle.peak_bytes": peak_bytes(tw["oracle"].oracle_solve, state["oracle_args"]),
        "model.grid_calls": calls("model.multiperf_grid") + calls("model.force_grid"),
        "model.grid_s": self_s("model.multiperf_grid", "model.force_grid"),
        "model.bytes_computed": state["grid_bytes"],
        "trace.overhead": run["scaled"].quantile_us(50) / plain["scaled"].quantile_us(50),
    }
    failed = plain["failed"] + run["failed"]
    report = {"requests": plain["raw"].n + run["raw"].n, "spans": len(tracer)}
    if missing:
        report["unwrapped"] = " ".join(missing)
    return metrics, report, plain["items"] + run["items"], failed


def repeat_share(cells) -> float:
    """Share of the cost fields of one sweep that are 1.0, 2.0 or inf."""
    if not cells:
        return 0.0
    costs = [c for cell in cells for c in (cell.cost_parallel, cell.cost_serial)]
    return sum(c in REPEATED_COSTS for c in costs) / len(costs)


def peak_bytes(fn, args) -> int:
    """``tracemalloc`` peak of one untraced call ``fn(*args)``; 0 if ``args`` is None."""
    if args is None:
        return 0
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def setup_probe(cmd: list[str]) -> float:
    """``setup_s`` of one fresh ``--setup-only`` process."""
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setup-probes", type=int, default=0, help="set-up probes spread over an untraced run")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick end-to-end check")
    args = parser.parse_args()

    t0 = time.perf_counter()
    tw = load_twospring()
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](tw, args.seed % 2**64, args.smoke)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        if args.seconds is None:
            parser.error("--seconds is required unless --setup-only")
        if args.trace:
            requests = 2 if args.smoke else TRACED_REQUESTS[args.workload]
            metrics, report, attempted, failed = traced(tw, workload, args.workload, args.seconds, requests)
        else:
            probe_cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
            probe_cmd += ["--smoke"] if args.smoke else []
            run = measure(workload, seconds=args.seconds, probe=lambda: setup_probe(probe_cmd), probes=args.setup_probes)
            metrics, report = end_to_end(run)
            attempted, failed = run["items"], run["failed"]
    finally:
        workload.cleanup()
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
