"""Cross-check of the closed form against the grid oracle.

:func:`verify_reduction` solves one weight pair twice, with the closed form
of :mod:`twospring.solver` and with the brute-force scan of
:mod:`twospring.oracle`, and reports in a :class:`VerificationVerdict`
whether the two agree.  This is the one module that imports both: the
oracle imports only the model, so the check stays independent of what it
checks.

:func:`verify_campaign` runs the randomized campaign of ``twospring
verify``: it draws the weight pairs from a seed, checks each in both
wirings and counts the verdicts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import Topology, Weights, _direct_init
from .oracle import GridSpec, oracle_solve
from .solver import solve_reduced

__all__ = ["VerificationVerdict", "verify_reduction", "verify_campaign"]

# most pairs the campaign draws and converts at a time
_DRAW_PAIRS = 4_096


@_direct_init
@dataclass(frozen=True, slots=True)
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


def _uniform_pairs(samples: int, seed: int) -> Iterator[list[float]]:
    """``samples`` pairs uniform on ``[0, 1.5)^2``: the top 53 bits of each raw
    word of ``PCG64(seed)``, scaled, as ``default_rng(seed).uniform`` draws
    them.  numpy keeps only the bit generator's stream stable across
    releases (NEP 19), so the conversion is written here.

    The words are drawn ``_DRAW_PAIRS`` pairs at a time, so the draw's
    memory does not grow with ``samples``; successive ``random_raw`` calls
    continue one stream, so the pairs are those of a single draw."""
    bit_generator = np.random.PCG64(seed)
    for start in range(0, samples, _DRAW_PAIRS):
        words = bit_generator.random_raw(2 * min(_DRAW_PAIRS, samples - start))
        yield from ((words >> 11) * 2.0**-53 * 1.5).reshape(-1, 2).tolist()


def verify_campaign(samples: int, seed: int, g: GridSpec, tol: float) -> dict:
    """The fields the ``twospring verify`` summary computes, in its key order,
    for ``samples`` pairs drawn by :func:`_uniform_pairs`, each checked
    parallel then serial.

    ``failures`` holds the pair, wiring, status and costs of each
    disagreeing verdict, in check order; ``worst_cost_gap`` is the largest
    finite ``|cost_gap|`` of an agreeing one.  ``samples`` and ``seed`` are
    nonnegative, ``tol`` as for :func:`verify_reduction`.
    """
    truncated, worst_gap, failures = 0, 0.0, []
    for a, b in _uniform_pairs(samples, seed):
        w = Weights(a, b)
        for k in (Topology.PARALLEL, Topology.SERIAL):
            verdict = verify_reduction(w, k, g, tol)
            truncated += verdict.beyond_grid
            if not verdict.agree:
                failures.append(
                    {
                        "a": w.a,
                        "b": w.b,
                        "topology": k.name.lower(),
                        "status": verdict.status,
                        "closed_cost": verdict.closed_cost,
                        "oracle_cost": verdict.oracle_cost,
                    }
                )
            elif math.isfinite(verdict.cost_gap):
                worst_gap = max(worst_gap, abs(verdict.cost_gap))
    checks = 2 * samples
    return {
        "checks": checks,
        "agreements": checks - len(failures),
        "disagreements": len(failures),
        "truncated": truncated,
        "worst_cost_gap": worst_gap,
        "failures": failures,
    }
