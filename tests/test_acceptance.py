"""Acceptance suite: the nine release criteria, each printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import json
import math
import time

import numpy as np
from performance_roots import roots

from twospring.model import SpringPair, Topology, Weights, cost, force, multiperf, resistance
from twospring.oracle import GridSpec, oracle_solve
from twospring.regions import B2_SEGMENT_A_MAX, B2_SEGMENT_A_MIN, winner
from twospring.solver import solve_reduced
from twospring.sweep_cli import main

P = Topology.PARALLEL
S = Topology.SERIAL


def report(num, name, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c1_closed_form_vs_oracle_agreement(tmp_path, capsys):
    """200-sample randomized campaign: grid oracle and closed form fully agree."""
    out = tmp_path / "verify.json"
    started = time.time()
    code = main(
        ["verify", "--samples", "200", "--seed", "42", "--step", "0.005",
         "--c-max", "6", "--tol", "0.01", "--out", str(out)]
    )
    elapsed = time.time() - started
    summary = json.loads(out.read_text())
    ok = (
        code == 0
        and summary["checks"] == 400
        and summary["agreements"] == 400
        and summary["disagreements"] == 0
        and summary["worst_cost_gap"] <= 0.01 + 2 * 0.005
    )
    report(
        1, "closed-form vs oracle", ok,
        f"{summary['agreements']}/{summary['checks']} agree, "
        f"worst gap {summary['worst_cost_gap']:.3e}, "
        f"{summary['truncated']} truncated, {elapsed:.1f}s",
    )


def test_c2_phase_diagram_reproduction(tmp_path):
    """201x201 sweep of [0,1]^2: serial wins exactly where the B2 predicate holds."""
    out = tmp_path / "phase.csv"
    code = main(
        ["sweep", "--a-min", "0", "--a-max", "1", "--b-min", "0", "--b-max", "1",
         "--na", "201", "--nb", "201", "--out", str(out)]
    )
    lines = out.read_text().splitlines()
    mismatches = 0
    serial_cells = 0
    for line in lines[1:]:
        a_text, b_text, _, who, cp_text, cs_text = line.split(",")
        a, b = float(a_text), float(b_text)
        cp, cs = float(cp_text), float(cs_text)
        predicate = a + 2 * b >= 1.0 and a + b < 1.0 and cp > 2.0
        if predicate:
            serial_cells += 1
            if who != "serial":
                mismatches += 1
        elif math.isfinite(cp) and math.isfinite(cs) and cp != cs:
            if who != "parallel":
                mismatches += 1
    ok = code == 0 and len(lines) == 1 + 201 * 201 and serial_cells > 0 and mismatches == 0
    report(
        2, "phase-diagram reproduction", ok,
        f"{len(lines) - 1} cells, {serial_cells} serial, {mismatches} mismatches",
    )


def test_c3_b2_boundary_geometry(tmp_path):
    """The emitted B1/B2 segment runs from (1/3, 2/3) to (3/7, 2/7) on the region lines."""
    out = tmp_path / "boundaries.csv"
    code = main(["boundaries", "--na", "33", "--out", str(out)])
    segment = []
    for line in out.read_text().splitlines()[1:]:
        curve, a_text, b_text = line.split(",")
        if curve == "b=2-4a":
            segment.append((float(a_text), float(b_text)))
    (a_lo, b_lo), (a_hi, b_hi) = segment[0], segment[-1]
    upper_root = lambda a, b: roots(Weights(a, b), P)[1]
    checks = [
        code == 0,
        abs(a_lo - 1.0 / 3.0) <= 1e-15 and abs(b_lo - 2.0 / 3.0) <= 1e-15,
        abs(a_hi - 3.0 / 7.0) <= 1e-15 and abs(b_hi - 2.0 / 7.0) <= 1e-15,
        abs(a_lo + b_lo - 1.0) <= 1e-12,          # endpoint on a+b=1
        abs(a_hi + 2.0 * b_hi - 1.0) <= 1e-12,    # endpoint on a+2b=1
        abs(upper_root(a_lo, b_lo) - 2.0) <= 1e-12,
        abs(upper_root(a_hi, b_hi) - 2.0) <= 1e-12,
    ]
    report(
        3, "divider segment geometry", all(checks),
        f"endpoints ({a_lo:.6f}, {b_lo:.6f}) and ({a_hi:.6f}, {b_hi:.6f}), "
        f"root offsets {abs(upper_root(a_lo, b_lo) - 2.0):.1e}/{abs(upper_root(a_hi, b_hi) - 2.0):.1e}",
    )


def test_c4_region_dominance():
    """Parallel strictly cheaper on 1000 A-points; C costs are exactly (1, 2)."""
    rng = np.random.default_rng(404)
    a_violations = 0
    count = 0
    while count < 1000:
        a, b = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
        if a + 2.0 * b - 1.0 >= 0.0:
            continue
        rep = winner(Weights(float(a), float(b)))
        if not rep.cost_parallel < rep.cost_serial:
            a_violations += 1
        count += 1
    c_violations = 0
    count = 0
    while count < 1000:
        a, b = rng.uniform(0.0, 1.5, size=2)
        if a + b - 1.0 < 0.0:
            continue
        rep = winner(Weights(float(a), float(b)))
        if (rep.cost_parallel, rep.cost_serial) != (1.0, 2.0):
            c_violations += 1
        count += 1
    ok = a_violations == 0 and c_violations == 0
    report(
        4, "region dominance", ok,
        f"A violations {a_violations}/1000, C violations {c_violations}/1000",
    )


def test_c5_serial_equal_coordinate_optimum():
    """The oracle argmin of 50 feasible serial instances sits on the diagonal."""
    rng = np.random.default_rng(505)
    grid = GridSpec(6.0, 0.01)
    found = 0
    worst = 0.0
    violations = 0
    while found < 50:
        a, b = rng.uniform(0.0, 1.5, size=2)
        res = oracle_solve(Weights(float(a), float(b)), S, grid)
        if not res.feasible:
            continue
        found += 1
        worst = max(worst, res.argmin_gap)
        if res.argmin_gap > grid.step:
            violations += 1
    report(
        5, "serial equal-coordinate optimum", violations == 0,
        f"{found} instances, worst |c1-c2| = {worst:.3e} (step {grid.step})",
    )


def test_c6_derived_value_regressions():
    """Frozen minimal costs at (0.2, 0.2), re-confirmed by a fine 1-D scan."""
    cost_p = solve_reduced(Weights(0.2, 0.2), P).total_cost
    cost_s = solve_reduced(Weights(0.2, 0.2), S).total_cost
    scans = {}
    for k in (P, S):
        xs = np.arange(1.0, 6.0, 1e-6)
        perf = 0.2 * xs + (k.k * 0.2) / xs
        scans[k] = k.k * float(xs[np.nonzero(perf >= 1.0)[0][0]])
    checks = [
        abs(cost_p - 4.791288) <= 1e-6,
        abs(cost_s - 9.123106) <= 1e-6,
        abs(scans[P] - cost_p) <= 2e-6,
        abs(scans[S] - cost_s) <= 4e-6,  # serial cost doubles the scan pitch
    ]
    report(
        6, "derived-value regressions", all(checks),
        f"cost_parallel={cost_p:.9f}, cost_serial={cost_s:.9f}, "
        f"scan gaps {abs(scans[P] - cost_p):.1e}/{abs(scans[S] - cost_s):.1e}",
    )


def test_c7_model_property_suite():
    """Dominance, ordering, symmetry, scaling, and the branch-condition equivalence."""
    rng = np.random.default_rng(707)
    violations = 0
    for _ in range(10000):
        c1, c2 = rng.uniform(0.0, 10.0, size=2)
        t = rng.uniform(0.1, 10.0)
        s, swapped = SpringPair(c1, c2), SpringPair(c2, c1)
        scaled = SpringPair(t * c1, t * c2)
        if not force(P, s) >= force(S, s):
            violations += 1
        if c1 > 0.0 and c2 > 0.0 and not resistance(S, s) >= resistance(P, s):
            violations += 1
        w = Weights(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        for k in (P, S):
            if force(k, s) != force(k, swapped) or resistance(k, s) != resistance(k, swapped):
                violations += 1
            if multiperf(w, k, s) != multiperf(w, k, swapped):
                violations += 1
            if abs(force(k, scaled) - t * force(k, s)) > 1e-12 * max(1.0, t * force(k, s)):
                violations += 1
        if cost(s) != cost(swapped):
            violations += 1
    equivalence_violations = 0
    for _ in range(10000):
        a = rng.uniform(0.0, 2.0)
        if a == 0.0:
            continue
        b = rng.uniform(0.0, 2.0)
        k = P if rng.integers(2) == 0 else S
        pair = roots(Weights(a, b), k)
        straddles = pair is not None and pair[0] < 1.0 < pair[1]
        if straddles != (a + k.k * b - 1.0 < 0.0):
            equivalence_violations += 1
    ok = violations == 0 and equivalence_violations == 0
    report(
        7, "model property suite", ok,
        f"{violations} model violations, {equivalence_violations} equivalence violations "
        f"over 10000 samples each",
    )


def test_c8_sweep_determinism(tmp_path):
    """Identical sweep invocations produce byte-identical CSV."""
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    argv = ["sweep", "--na", "101", "--nb", "101"]
    code_first = main(argv + ["--out", str(first)])
    code_second = main(argv + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    ok = code_first == 0 and code_second == 0 and identical
    report(8, "sweep determinism", ok, f"{first.stat().st_size} bytes, identical={identical}")


CURVE_GRID = GridSpec(6.0, 0.005)


@functools.cache
def oracle_b1_b2_divider(lines=25, steps=30):
    """``(a, b, width)`` per line of fixed ``a`` strictly inside (1/3, 3/7):
    the ``b`` where the oracle's serial wiring stops being strictly cheaper
    than its parallel one, bisected over band B, and the bisection's final
    bracket width.  Only ``oracle_solve`` is called."""

    def serial_cheaper(a, b):
        w = Weights(a, b)
        return oracle_solve(w, P, CURVE_GRID).best_cost > oracle_solve(w, S, CURVE_GRID).best_cost

    located = []
    for a in np.linspace(B2_SEGMENT_A_MIN, B2_SEGMENT_A_MAX, lines + 2)[1:-1].tolist():
        lo, hi = (1.0 - a) / 2.0, 1.0 - a  # band B: a + 2b >= 1 > a + b
        assert serial_cheaper(a, lo) and not serial_cheaper(a, hi)
        for _ in range(steps):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if serial_cheaper(a, mid) else (lo, mid)
        located.append((a, (lo + hi) / 2.0, hi - lo))
    return located


def divider_within_tolerance(curve):
    """Per line, whether the oracle's divider lies within the grid's
    resolution of ``curve(a)``, and its deviation.

    In band B the serial optimum is the grid point (1, 1), cost exactly 2.
    The parallel cost depends on ``c1 + c2`` alone and every multiple of
    ``step`` is a diagonal of the grid, so the scan overshoots it by less
    than one ``step``: the oracle's divider has a true parallel cost ``x`` in
    ``(2 - step, 2]``.  Along a line of fixed ``a`` the parallel cost falls
    with slope ``1 / sqrt(1 - 4ab) = 1 / (2ax - 1)``, at least ``1 / (4a - 1)``
    for ``x <= 2``, so the divider lies within ``step * (4a - 1)`` of the
    true curve, plus half the bisection's bracket.
    """
    return [
        (abs(b - curve(a)) <= CURVE_GRID.step * (4.0 * a - 1.0) + width / 2.0, abs(b - curve(a)))
        for a, b, width in oracle_b1_b2_divider()
    ]


def test_c9_b1_b2_curve_from_the_oracle_alone():
    """The oracle alone places the serial/parallel divider on b = 2 - 4a."""
    started = time.time()
    lines = divider_within_tolerance(lambda a: 2.0 - 4.0 * a)
    elapsed = time.time() - started
    ok = all(within for within, _ in lines)
    report(
        9, "B1/B2 curve from the oracle alone", ok,
        f"{sum(within for within, _ in lines)}/{len(lines)} lines within tolerance, "
        f"worst deviation {max(deviation for _, deviation in lines):.1e}, {elapsed:.2f}s",
    )


def test_c9_rejects_a_curve_shifted_by_one_step():
    lines = divider_within_tolerance(lambda a: 2.0 - 4.0 * a + CURVE_GRID.step)
    assert not any(within for within, _ in lines)
