"""Frozen answers for the point-queries workload.

These few lines restate, with the same floating-point evaluation order, the
closed form and region rules of the twospring release that this benchmark
was recorded against.  They produce bit-identical answers at that release
and never change with the library, so a later library change that alters a
single cost bit shows up as a failed query.
"""

from __future__ import annotations

import math


def _reduced_cost(a: float, b: float, k: float) -> tuple[float | None, float]:
    """``(x_star, total_cost)`` of the reduced problem; ``(None, inf)`` if infeasible."""
    if a == 0.0:
        return (1.0, k) if k * b >= 1.0 else (None, math.inf)
    if a + k * b - 1.0 < 0.0:
        x = (1.0 + math.sqrt(1.0 - 4.0 * k * a * b)) / (2.0 * a)
        return x, k * x
    return 1.0, k


def design_answer(a: float, b: float) -> tuple:
    """``(region, winner, cost_parallel, cost_serial, c1, c2, cost)`` at ``(a, b)``.

    The design is the winning wiring's optimum (parallel on a tie); the last
    three fields are ``None`` when both wirings are infeasible.
    """
    x_p, cost_p = _reduced_cost(a, b, 1.0)
    x_s, cost_s = _reduced_cost(a, b, 2.0)
    if a + 2.0 * b - 1.0 < 0.0:
        region = "A"
    elif a + b - 1.0 >= 0.0:
        region = "C"
    else:
        region = "B2" if cost_p > 2.0 else "B1"
    if math.isinf(cost_p) and math.isinf(cost_s):
        return region, "infeasible", cost_p, cost_s, None, None, None
    if cost_s < cost_p:
        return region, "serial", cost_p, cost_s, x_s, x_s, cost_s
    best = "parallel" if cost_p < cost_s else "tie"
    return region, best, cost_p, cost_s, x_p / 2.0, x_p / 2.0, cost_p
