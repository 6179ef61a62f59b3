"""Closed-form minimization of fabrication cost under performance constraints.

Both wirings reduce the two-variable design problem to one variable: for the
parallel pair ``x`` is the total elastic limit ``c1 + c2``, for the serial
pair it is the common limit shared by both springs.  The reduced problem asks
for the minimal ``x`` satisfying

    a*x + k*b/x >= 1      (performance)
    x >= 1                (strength)

where ``k`` is the topology tag (1 parallel, 2 serial), and the network cost
equals ``k*x``.  The performance constraint is a quadratic in disguise, so
the minimizer is either the strength bound ``x = 1`` or the upper root of
``a*x**2 - x + k*b = 0``, depending on which side of the line
``a + k*b = 1`` the weights fall.

:func:`solve_reduced` answers one weight pair and is the reference.
:func:`total_cost_grid` is its array twin for whole weight grids: it makes
the same branch tests in the same order and evaluates the root with the
same operations, so every cost it returns equals the scalar one bit for bit
(``math.sqrt`` and ``np.sqrt`` are both correctly rounded, and numpy does
not fuse multiply-adds).  A single query stays on the scalar path, which
costs microseconds where an array call costs about a hundred.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import Topology, Weights

__all__ = [
    "ActiveConstraint",
    "InfeasibleError",
    "ReducedSolution",
    "DesignSolution",
    "solve_reduced",
    "total_cost_grid",
    "expand",
    "roots",
]


class ActiveConstraint(enum.Enum):
    """Which inequality binds at the reduced optimum."""

    STRENGTH_BOUND = "strength_bound"
    PERFORMANCE_ROOT = "performance_root"


class InfeasibleError(ValueError):
    """No design satisfies the constraints for the given weights."""


@dataclass(frozen=True)
class ReducedSolution:
    """Outcome of the one-variable problem for a fixed topology.

    ``total_cost`` is ``k * x_star`` when feasible and ``+inf`` otherwise, so
    downstream cost comparisons need no feasibility special-casing.
    """

    feasible: bool
    x_star: float | None
    total_cost: float
    active_constraint: ActiveConstraint | None


@dataclass(frozen=True)
class DesignSolution:
    """Concrete optimal elastic limits for one topology."""

    c1_star: float
    c2_star: float
    total_cost: float
    topology: Topology


def solve_reduced(w: Weights, k: Topology) -> ReducedSolution:
    """Minimal-cost solution of the reduced problem for topology ``k``.

    For ``a = 0`` the performance constraint caps ``x`` from above
    (``x <= k*b``), so the instance is feasible only when ``k*b >= 1``; the
    strength bound then gives ``x = 1``.  A root whose cost ``k*x`` overflows
    to ``inf`` (``a`` below about 1e-308) is reported as infeasible, so
    ``feasible`` holds exactly when ``total_cost`` is finite.  Infeasibility
    is reported as a result (cost ``+inf``), never raised.
    """
    a, b = w.a, w.b
    kk = float(k.k)
    if a == 0.0:
        if kk * b >= 1.0:
            return ReducedSolution(True, 1.0, kk, ActiveConstraint.STRENGTH_BOUND)
        return ReducedSolution(False, None, math.inf, None)
    if a + kk * b - 1.0 < 0.0:
        # a + k*b < 1 forces 4*k*a*b < 1 (AM-GM), and left-to-right float
        # evaluation keeps the computed product below 1 as well
        x_star = (1.0 + math.sqrt(1.0 - 4.0 * kk * a * b)) / (2.0 * a)
        total = kk * x_star
        if not math.isfinite(total):
            # a below about 1e-308: the optimum is not representable
            return ReducedSolution(False, None, math.inf, None)
        return ReducedSolution(True, x_star, total, ActiveConstraint.PERFORMANCE_ROOT)
    # x = 1 already meets the performance constraint
    return ReducedSolution(True, 1.0, kk, ActiveConstraint.STRENGTH_BOUND)


def total_cost_grid(a: np.ndarray, b: np.ndarray, k: Topology) -> np.ndarray:
    """``solve_reduced(Weights(a, b), k).total_cost`` at every pair of two
    equal-shape float64 arrays of nonnegative weights.

    Branches exactly as :func:`solve_reduced`: ``a == 0`` first, then the
    sign of ``a + k*b - 1``; the root is computed only where that branch is
    taken, with the scalar expression's operation order.
    """
    kk = float(k.k)
    cost = np.full(a.shape, kk)
    # overflow to inf (huge b, subnormal a) is silent, as in Python floats
    with np.errstate(over="ignore"):
        zero = a == 0.0
        cost[zero & ~(kk * b >= 1.0)] = math.inf
        root = ~zero & (a + kk * b - 1.0 < 0.0)
        ar, br = a[root], b[root]
        cost[root] = kk * ((1.0 + np.sqrt(1.0 - 4.0 * kk * ar * br)) / (2.0 * ar))
    return cost


def expand(sol: ReducedSolution, k: Topology) -> DesignSolution:
    """Concrete elastic limits realizing a feasible reduced optimum.

    The serial optimum demands equal limits.  The parallel optimum admits any
    split of ``x_star`` between the two springs; the equal split is the
    canonical representative emitted here.
    """
    if not sol.feasible or sol.x_star is None:
        raise InfeasibleError("no feasible design exists for these weights")
    if k is Topology.SERIAL:
        return DesignSolution(sol.x_star, sol.x_star, sol.total_cost, k)
    half = sol.x_star / 2.0
    return DesignSolution(half, half, sol.total_cost, k)


def roots(w: Weights, k: Topology) -> tuple[float, float] | None:
    """Roots ``(x1, x2)`` of ``a*x**2 - x + k*b = 0`` with ``x1 <= x2``.

    Returns ``None`` when the discriminant is negative, i.e. when the
    performance constraint holds for every positive ``x``.  Requires
    ``a > 0``; the degenerate case ``a = 0`` raises ``ValueError``.
    """
    if w.a == 0.0:
        raise ValueError("roots are undefined for a == 0")
    disc = 1.0 - 4.0 * k.k * w.a * w.b
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    return (1.0 - sq) / (2.0 * w.a), (1.0 + sq) / (2.0 * w.a)
