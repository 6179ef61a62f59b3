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

One private scalar kernel, :func:`_reduced`, answers one weight pair on
plain floats and is the reference.  :func:`solve_reduced` wraps its result
in a :class:`ReducedSolution`; ``regions.winner`` calls it directly, so
comparing two costs builds no intermediate object, and reads the region
bands from the active constraints it returns.
Its array twin for whole weight grids,
:func:`~twospring.phase.total_cost_grid`, lives with the sweep that uses
it, so this module imports only the standard library and the model.  A
single query stays on the scalar path, which is much faster than an array
call on one pair (the README gives the measured ratio).

A query builds its value objects here: :func:`solve_reduced` its
:class:`ReducedSolution` and :func:`expand` its :class:`DesignSolution`.
Both classes write their fields directly from a hand-written ``__init__``
and stay frozen (see :mod:`twospring.model`).  The strength-bound answer
does not depend on the weights, so it is built once at import: wherever the
kernel takes the strength branch, :func:`solve_reduced` returns one shared
solution per wiring, and :func:`expand` of such a shared solution returns
one shared design per topology.  Every other input, including an equal
solution built by a caller, takes the general path.  Returned values are
equal to what the general path would build; whether two calls return the
same object is not part of the contract.  The enum members the
scalar path returns or compares against are module-level aliases
(``_STRENGTH``, ``_ROOT``, ``_PARALLEL``, ``_SERIAL``): looking a member up
on its class costs 0.1-0.2 us on Python 3.11, a sizable share of a solve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .model import Topology, Weights

__all__ = [
    "ActiveConstraint",
    "InfeasibleError",
    "ReducedSolution",
    "DesignSolution",
    "solve_reduced",
    "expand",
]


class ActiveConstraint(enum.Enum):
    """Which inequality binds at the reduced optimum."""

    STRENGTH_BOUND = "strength_bound"
    PERFORMANCE_ROOT = "performance_root"


# module-level aliases of the enum members the scalar path uses (see the module docstring)
_STRENGTH = ActiveConstraint.STRENGTH_BOUND
_ROOT = ActiveConstraint.PERFORMANCE_ROOT
_PARALLEL = Topology.PARALLEL
_SERIAL = Topology.SERIAL


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

    def __init__(
        self,
        feasible: bool,
        x_star: float | None,
        total_cost: float,
        active_constraint: ActiveConstraint | None,
    ) -> None:
        d = self.__dict__
        d["feasible"] = feasible
        d["x_star"] = x_star
        d["total_cost"] = total_cost
        d["active_constraint"] = active_constraint


@dataclass(frozen=True)
class DesignSolution:
    """Concrete optimal elastic limits for one topology."""

    c1_star: float
    c2_star: float
    total_cost: float
    topology: Topology

    def __init__(self, c1_star: float, c2_star: float, total_cost: float, topology: Topology) -> None:
        d = self.__dict__
        d["c1_star"] = c1_star
        d["c2_star"] = c2_star
        d["total_cost"] = total_cost
        d["topology"] = topology


def _reduced(a: float, b: float, kk: float) -> tuple[float | None, float, ActiveConstraint | None]:
    """``(x_star, total_cost, active_constraint)`` at weights ``(a, b)`` for
    the topology tag ``kk`` (1.0 or 2.0), as :func:`solve_reduced` reports
    them; ``x_star`` is ``None`` exactly when the cost is ``+inf``."""
    if a == 0.0:
        if kk * b >= 1.0:
            return 1.0, kk, _STRENGTH
        return None, math.inf, None
    if a + kk * b - 1.0 < 0.0:
        # a + k*b < 1 forces 4*k*a*b < 1 (AM-GM), and left-to-right float
        # evaluation keeps the computed product below 1 as well
        x_star = (1.0 + math.sqrt(1.0 - 4.0 * kk * a * b)) / (2.0 * a)
        total = kk * x_star
        if not math.isfinite(total):
            # a below about 1e-308: the optimum is not representable
            return None, math.inf, None
        return x_star, total, _ROOT
    # x = 1 already meets the performance constraint
    return 1.0, kk, _STRENGTH


def solve_reduced(w: Weights, k: Topology) -> ReducedSolution:
    """Minimal-cost solution of the reduced problem for topology ``k``.

    For ``a = 0`` the performance constraint caps ``x`` from above
    (``x <= k*b``), so the instance is feasible only when ``k*b >= 1``; the
    strength bound then gives ``x = 1``.  A root whose cost ``k*x`` overflows
    to ``inf`` (``a`` below about 1e-308) is reported as infeasible, so
    ``feasible`` holds exactly when ``total_cost`` is finite.  Infeasibility
    is reported as a result (cost ``+inf``), never raised.
    """
    x_star, total, active = _reduced(w.a, w.b, 1.0 if k is _PARALLEL else 2.0)
    if active is _STRENGTH:
        return _STRENGTH_PARALLEL if k is _PARALLEL else _STRENGTH_SERIAL
    return ReducedSolution(x_star is not None, x_star, total, active)


def expand(sol: ReducedSolution, k: Topology) -> DesignSolution:
    """Concrete elastic limits realizing a feasible reduced optimum.

    The serial optimum demands equal limits.  The parallel optimum admits any
    split of ``x_star`` between the two springs; the equal split is the
    canonical representative emitted here.
    """
    if sol is _STRENGTH_PARALLEL or sol is _STRENGTH_SERIAL:
        return _STRENGTH_DESIGNS[sol is _STRENGTH_SERIAL][k is _SERIAL]
    if not sol.feasible or sol.x_star is None:
        raise InfeasibleError("no feasible design exists for these weights")
    if k is _SERIAL:
        return DesignSolution(sol.x_star, sol.x_star, sol.total_cost, k)
    half = sol.x_star / 2.0
    return DesignSolution(half, half, sol.total_cost, k)


# The strength-bound answers, shared by every call that reaches them: one
# ReducedSolution per wiring, and one DesignSolution per solution and
# topology (``_STRENGTH_DESIGNS[sol is serial][k is serial]``).  Each is
# built once, here, through the general paths: the kernel's strength branch,
# which both wirings take at ``a = b = 1``, and ``expand`` of an equal copy.
_STRENGTH_PARALLEL, _STRENGTH_SERIAL = (
    ReducedSolution(x_star is not None, x_star, total, active)
    for x_star, total, active in (_reduced(1.0, 1.0, 1.0), _reduced(1.0, 1.0, 2.0))
)
_STRENGTH_DESIGNS = tuple(
    tuple(expand(replace(sol), k) for k in (_PARALLEL, _SERIAL)) for sol in (_STRENGTH_PARALLEL, _STRENGTH_SERIAL)
)

