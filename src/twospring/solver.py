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
in a :class:`ReducedSolution`, once it has answered the strength bound
itself; ``regions.winner`` calls the kernel directly, so
comparing two costs builds no intermediate object, and reads the region
bands from the active constraints it returns.
Its array twin for whole weight grids,
:func:`~twospring.phase.total_cost_grid`, lives with the sweep that uses
it, so this module imports only the standard library and the model.  A
single query stays on the scalar path, which is much faster than an array
call on one pair (the README gives the measured ratio).

Both kernels ask, in order: the strength bound ``a + kk*b - 1.0 >= 0.0``,
then ``a == 0`` (infeasible), then the root of :func:`_root`, the one root
formula, which the array twin calls with ``np.sqrt``.  At ``a = +-0.0`` the
sum is exactly ``kk*b``, and ``x - 1.0 >= 0.0`` holds exactly when ``x >=
1.0`` for any double but NaN, which ``Weights`` refuses; so the first test
decides the ``a = 0`` axis too.  :func:`solve_reduced` makes the same test
before it calls the kernel, and ``regions.winner``'s band-C shortcut makes
it with ``kk = 1``.  Each is written out, since a helper call costs: a
strength-bound :func:`solve_reduced` takes 70-76 ns inline and 93-99 ns
through a helper, a band-C ``winner`` 55-57 against 80-82 ns (Python
3.11.7, fastest of 7 runs of 200,000 calls, three runs).  An exact sign test
would cost far more than a call; that is where the test becomes one helper.

A query builds its value objects here: :func:`solve_reduced` its
:class:`ReducedSolution` and :func:`expand` its :class:`DesignSolution`.
Both are frozen and take the ``__init__`` that writes their fields
directly from :mod:`twospring.model`.  The strength-bound answer
does not depend on the weights, so it is built once at import: wherever the
kernel would take the strength branch, :func:`solve_reduced` returns one
shared solution per wiring without calling it, and :func:`expand` of such a
shared solution returns one shared design per topology.  Every other input,
including an equal solution built by a caller, takes the general path.
Returned values are equal to what the general path would build; whether two
calls return the same object is not part of the contract.  The enum members
the scalar path returns or compares against are module-level aliases
(``_STRENGTH``, ``_ROOT``, ``_PARALLEL``, ``_SERIAL``): looking a member up
on its class costs 0.1-0.2 us on Python 3.11, a sizable share of a solve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .model import Topology, Weights, _direct_init

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


@_direct_init
@dataclass(frozen=True, slots=True)
class ReducedSolution:
    """Outcome of the one-variable problem for a fixed topology.

    ``total_cost`` is ``k * x_star`` when feasible and ``+inf`` otherwise, so
    downstream cost comparisons need no feasibility special-casing.
    """

    feasible: bool
    x_star: float | None
    total_cost: float
    active_constraint: ActiveConstraint | None


@_direct_init
@dataclass(frozen=True, slots=True)
class DesignSolution:
    """Concrete optimal elastic limits for one topology."""

    c1_star: float
    c2_star: float
    total_cost: float
    topology: Topology


def _root(a, b, kk, sqrt):
    """Upper root of ``a*x**2 - x + kk*b = 0`` (``a > 0``, ``4*kk*a*b < 1``):
    on floats with ``math.sqrt``, or on arrays with ``np.sqrt``."""
    return (1.0 + sqrt(1.0 - 4.0 * kk * a * b)) / (2.0 * a)


def _reduced(a: float, b: float, kk: float) -> tuple[float | None, float, ActiveConstraint | None]:
    """``(x_star, total_cost, active_constraint)`` at weights ``(a, b)`` for
    the topology tag ``kk`` (1.0 or 2.0), as :func:`solve_reduced` reports
    them; ``x_star`` is ``None`` exactly when the cost is ``+inf``."""
    if a + kk * b - 1.0 >= 0.0:
        # x = 1 already meets the performance constraint
        return 1.0, kk, _STRENGTH
    if a == 0.0:
        # the performance constraint caps x at k*b < 1
        return None, math.inf, None
    # a + k*b < 1 forces 4*k*a*b < 1 (AM-GM), and left-to-right float
    # evaluation keeps the computed product below 1 as well
    x_star = _root(a, b, kk, math.sqrt)
    total = kk * x_star
    if not math.isfinite(total):
        # a below about 1e-308: the optimum is not representable
        return None, math.inf, None
    return x_star, total, _ROOT


def solve_reduced(w: Weights, k: Topology) -> ReducedSolution:
    """Minimal-cost solution of the reduced problem for topology ``k``.

    For ``a = 0`` the performance constraint caps ``x`` from above
    (``x <= k*b``), so the instance is feasible only when ``k*b >= 1``; the
    strength bound then gives ``x = 1``.  A root whose cost ``k*x`` overflows
    to ``inf`` (``a`` below about 1e-308) is reported as infeasible, so
    ``feasible`` holds exactly when ``total_cost`` is finite.  Infeasibility
    is reported as a result (cost ``+inf``), never raised.
    """
    a = w.a
    b = w.b
    kk = 1.0 if k is _PARALLEL else 2.0
    # the kernel's first line, before the call
    if a + kk * b - 1.0 >= 0.0:
        return _STRENGTH_PARALLEL if k is _PARALLEL else _STRENGTH_SERIAL
    x_star, total, active = _reduced(a, b, kk)
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

