"""Cross-check of the closed form against the grid oracle.

:func:`verify_reduction` solves one weight pair twice, with the closed form
of :mod:`twospring.solver` and with the brute-force scan of
:mod:`twospring.oracle`, and reports in a :class:`VerificationVerdict`
whether the two agree.  This is the one module that imports both: the
oracle imports only the model, so the check stays independent of what it
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Topology, Weights
from .oracle import GridSpec, oracle_solve
from .solver import solve_reduced

__all__ = ["VerificationVerdict", "verify_reduction"]


@dataclass(frozen=True)
class VerificationVerdict:
    """Comparison of the grid scan against the closed form for one instance.

    ``status`` is one of ``agree``, ``agree-infeasible``, ``agree-truncated``,
    ``cost-mismatch``, ``split-mismatch``, ``feasibility-mismatch``.
    """

    agree: bool
    status: str
    closed_cost: float
    oracle_cost: float
    cost_gap: float
    allowance: float
    argmin_gap: float | None
    beyond_grid: bool

    def __init__(
        self,
        agree: bool,
        status: str,
        closed_cost: float,
        oracle_cost: float,
        cost_gap: float,
        allowance: float,
        argmin_gap: float | None,
        beyond_grid: bool,
    ) -> None:
        d = self.__dict__
        d["agree"] = agree
        d["status"] = status
        d["closed_cost"] = closed_cost
        d["oracle_cost"] = oracle_cost
        d["cost_gap"] = cost_gap
        d["allowance"] = allowance
        d["argmin_gap"] = argmin_gap
        d["beyond_grid"] = beyond_grid


def verify_reduction(w: Weights, k: Topology, g: GridSpec, tol: float) -> VerificationVerdict:
    """Check that grid search and closed form agree for one weight pair.

    Agreement means matching infeasibility, or both feasible with costs
    within ``tol + 2*step`` (the scan overshoots by at most one step per
    coordinate).  Serial agreement additionally requires the scanned argmin
    to sit within one step of the diagonal.  When the closed-form optimum
    cannot be represented inside the search square at all, an empty scan is
    agreement too, reported as ``agree-truncated``.

    The costs and ``argmin_gap`` are always the two results' own (``inf`` and
    ``None`` where infeasible); ``cost_gap`` is ``inf`` when exactly one side
    is feasible and ``0.0`` when neither is.  ``tol`` must be positive and
    finite.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    closed = solve_reduced(w, k)
    scanned = oracle_solve(w, k, g)
    allowance = tol + 2.0 * g.step
    gap, beyond = math.inf, False
    if closed.feasible and scanned.feasible:
        gap = scanned.best_cost - closed.total_cost
        if abs(gap) > allowance:
            status = "cost-mismatch"
        elif k is Topology.SERIAL and scanned.argmin_gap > g.step + 1e-12:
            status = "split-mismatch"
        else:
            status = "agree"
    elif not (closed.feasible or scanned.feasible):
        status, gap = "agree-infeasible", 0.0
    elif scanned.feasible:
        status = "feasibility-mismatch"  # a witness where the closed form has none
    else:
        # empty scan: legitimate iff the optimal design exceeds the square
        top = (g.size - 1) * g.step  # == axis()[-1]
        beyond = closed.x_star > (2.0 * top if k is Topology.PARALLEL else top)
        status = "agree-truncated" if beyond else "feasibility-mismatch"
    agree = status.startswith("agree")
    return VerificationVerdict(
        agree, status, closed.total_cost, scanned.best_cost, gap, allowance, scanned.argmin_gap, beyond
    )
