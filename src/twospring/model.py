"""Physical quantities of a two-spring elastoplastic network.

Two springs with elastic limits ``(c1, c2)`` are wired either in parallel or
in series.  This module evaluates, for either wiring, the maximal force the
network withstands before deforming plastically, its electrical resistance,
the weighted force/resistance performance, and the fabrication cost.

All operations are pure functions of immutable values.  Resistance uses
extended arithmetic (a zero divisor yields ``+inf``) so every constraint can
be evaluated on the whole closed quadrant ``c1, c2 >= 0`` without special
cases.  The scalar functions operate on :class:`SpringPair`; the ``*_grid``
twins apply the same formulas to numpy arrays so that exhaustive scans stay
vectorized while reading off a single set of definitions.  On arrays,
overflow saturates to ``inf`` and underflow rounds toward zero without a
warning, as Python floats do, whatever numpy error state the caller set.
Each formula is defined once, as a private function that enters no
error-state scope; each public ``*_grid`` function is a thin wrapper that
enters one scope around it, and the grid oracle enters one scope per scan
and calls the private formulas directly.

:func:`feasible_grid` is the constraint kernel of the grid oracle: the mask
of points that are both strong (force ``>= 1``) and performant
(``a*force + b*resistance >= 1``).  It tests strength first and evaluates
the performance only when some point is strong, reusing the force it
already holds (in parallel the resistance is ``1 / force``).
:func:`box_may_be_feasible` bounds that kernel over a box of limits from
its corners.  It rests on a monotonicity contract of the formulas above:
force is non-decreasing and resistance non-increasing in each limit, for
both wirings, and every rounding step keeps that order.  The oracle rests
on a second contract too: the formulas are symmetric in the two limits,
bit for bit, because ``+``, ``min`` and ``1/c1 + 1/c2`` are commutative in
rounded arithmetic, so swapping ``c1`` and ``c2`` changes no force,
resistance, performance or feasibility, NaN included.
The bound is the composition of two private halves: a weight-free one,
the corner force, the corner resistance and the mask of strong boxes, and
a weighted one that tests the performance bound.  The oracle applies the
weight-free half to the column segments of its tiles once per grid layout,
for both wirings, keeps the largest terms over each tile, and only weighs
them on each scan.  :func:`multiperf_grid`, :func:`feasible_grid` and the
bound share one private helper for the ``a*F + b*R`` rule and its
``0 * inf == 0`` convention, so the three cannot drift apart; each passes it
the force and resistance arrays, and it adds the resistance only when
``b > 0``.

:class:`SpringPair` and :class:`Weights` are built once per query, so each
has a hand-written ``__init__`` that validates its arguments and writes the
fields straight into the instance ``__dict__``.  The ``__init__`` a frozen
dataclass generates sets every field through ``object.__setattr__``, which
costs more than a closed-form solve.  ``@dataclass(frozen=True)`` keeps an
``__init__`` the class defines and still generates equality, hashing,
``repr`` and the ``__setattr__`` that refuses assignment, so the values stay
frozen.  The value types of ``solver``, ``regions`` and ``oracle`` follow
the same pattern.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "SpringPair",
    "Weights",
    "force",
    "resistance",
    "multiperf",
    "cost",
    "force_grid",
    "resistance_grid",
    "multiperf_grid",
    "feasible_grid",
    "box_may_be_feasible",
]


class Topology(enum.Enum):
    """Wiring of the two springs; the numeric tag is the reduction factor k."""

    PARALLEL = 1
    SERIAL = 2

    @property
    def k(self) -> int:
        return self.value


@dataclass(frozen=True)
class SpringPair:
    """Elastic limits of the two springs, the design variables of the network."""

    c1: float
    c2: float

    def __init__(self, c1: float, c2: float) -> None:
        if not (c1 >= 0.0) or not (c2 >= 0.0):
            raise ValueError(f"elastic limits must be nonnegative, got ({c1!r}, {c2!r})")
        d = self.__dict__
        d["c1"] = c1
        d["c2"] = c2


@dataclass(frozen=True)
class Weights:
    """Nonnegative weights: ``a`` on force capacity, ``b`` on resistance."""

    a: float
    b: float

    def __init__(self, a: float, b: float) -> None:
        if not (a >= 0.0) or not (b >= 0.0):
            raise ValueError(f"weights must be nonnegative, got ({a!r}, {b!r})")
        d = self.__dict__
        d["a"] = a
        d["b"] = b


def force(k: Topology, s: SpringPair) -> float:
    """Maximal force before plastic flow: the sum of limits in parallel, the
    weaker limit in series (one yielded spring caps the serial chain)."""
    if k is Topology.PARALLEL:
        return s.c1 + s.c2
    return min(s.c1, s.c2)


def resistance(k: Topology, s: SpringPair) -> float:
    """Electrical resistance of the network, with per-spring resistance 1/c."""
    if k is Topology.PARALLEL:
        total = s.c1 + s.c2
        return 1.0 / total if total > 0.0 else math.inf
    if s.c1 > 0.0 and s.c2 > 0.0:
        return 1.0 / s.c1 + 1.0 / s.c2
    return math.inf


def multiperf(w: Weights, k: Topology, s: SpringPair) -> float:
    """Weighted performance ``a*force + b*resistance``.

    Follows the convention ``0 * inf == 0``: a zero resistance weight
    silences an infinite resistance, matching the limit ``b -> 0+``.
    """
    value = w.a * force(k, s)
    if w.b > 0.0:
        value += w.b * resistance(k, s)
    return value


def cost(s: SpringPair) -> float:
    """Fabrication cost ``c1 + c2``, independent of the wiring."""
    return s.c1 + s.c2


def _extended() -> np.errstate:
    """The error state of the array formulas: overflow saturates to ``inf``,
    underflow rounds to a subnormal or zero, ``1 / 0`` gives ``inf`` and
    ``0 * inf`` gives NaN, all without a warning or an error, whatever the
    caller's own error state."""
    return np.errstate(all="ignore")


# The private array formulas below enter no error-state scope of their own:
# each public ``*_grid`` function enters one :func:`_extended` scope around
# them, and the oracle one per scan.


def _force(k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    if k is Topology.PARALLEL:
        return c1 + c2
    return np.minimum(c1, c2)


def _resistance(k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """A zero or subnormal divisor gives ``inf``, as in :func:`resistance`."""
    if k is Topology.PARALLEL:
        return 1.0 / (c1 + c2)
    return 1.0 / c1 + 1.0 / c2


def _weigh(w: Weights, f: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The performance rule ``a*f + b*r``, given the force ``f`` and the resistance ``r``.

    ``f`` and ``r`` must be new float arrays: ``f`` is overwritten with the
    result and ``r`` may be.  ``r`` is added only when ``b > 0``, which is
    the ``0 * inf == 0`` convention of :func:`multiperf`.  Overflow
    saturates to ``inf``, and an infinite force under ``a = 0`` gives NaN,
    which fails ``>= 1`` as its limit ``b*r -> 0`` does.
    """
    f *= w.a
    if w.b > 0.0:
        r *= w.b
        f += r
    return f


def _feasible(w: Weights, k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Body of :func:`feasible_grid`, in the caller's error-state scope.  In
    parallel the resistance is ``1 / f``, as in :func:`_resistance`."""
    f = _force(k, c1, c2)
    ok = f >= 1.0
    if ok.any():
        r = 1.0 / f if k is Topology.PARALLEL else _resistance(k, c1, c2)
        ok &= _weigh(w, f, r) >= 1.0
    return ok


def _box_terms(
    k: Topology, lo1: np.ndarray, lo2: np.ndarray, hi1: np.ndarray, hi2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight-free half of :func:`box_may_be_feasible`: the force ``f_hi`` at
    the high corners, the resistance ``r_lo`` at the low corners, and the
    mask ``strong`` of the boxes that ``f_hi < 1`` does not rule out."""
    f_hi = _force(k, hi1, hi2)
    return f_hi, _resistance(k, lo1, lo2), ~(f_hi < 1.0)


def _box_keep(w: Weights, f_hi: np.ndarray, r_lo: np.ndarray, strong: np.ndarray) -> np.ndarray:
    """Weighted half of :func:`box_may_be_feasible`: ``strong`` without the
    boxes whose ``p_hi = a*f_hi + b*r_lo`` is below 1.  The terms are only
    read, so they may be cached and read-only."""
    keep = ~(_weigh(w, f_hi.copy(), r_lo.copy()) < 1.0)
    keep &= strong
    return keep


def force_grid(k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`force` over coordinate arrays."""
    with _extended():
        return _force(k, c1, c2)


def resistance_grid(k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`resistance`; 1/0 maps to ``inf``."""
    with _extended():
        return _resistance(k, c1, c2)


def multiperf_grid(w: Weights, k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`multiperf` over float coordinate arrays,
    same ``0 * inf == 0`` convention."""
    with _extended():
        return _weigh(w, _force(k, c1, c2), _resistance(k, c1, c2))


def feasible_grid(w: Weights, k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Mask of the points meeting both constraints, strength and performance.

    Equal, bit for bit, to ``(multiperf_grid(w, k, c1, c2) >= 1.0) &
    (force_grid(k, c1, c2) >= 1.0)``, but the force is computed once and
    the performance only when some point is strong: an input with no strong
    point returns its all-False strength mask at once.
    """
    with _extended():
        return _feasible(w, k, c1, c2)


def box_may_be_feasible(
    w: Weights, k: Topology, lo1: np.ndarray, lo2: np.ndarray, hi1: np.ndarray, hi2: np.ndarray
) -> np.ndarray:
    """Mask of the boxes ``[lo1, hi1] x [lo2, hi2]`` that may hold a point
    passing :func:`feasible_grid`; False proves that none does.

    Force is non-decreasing and resistance non-increasing in each limit, for
    both wirings, and rounding keeps that order.  So ``f_hi``, the force at
    the high corner, and ``p_hi = a*f_hi + b*r_lo``, with the resistance at
    the low corner, bound the force and the performance of every point of
    the box from above, computed as the kernel computes them.  A box is
    ruled out only when ``f_hi < 1`` or ``p_hi < 1``; a NaN bound (an
    infinite ``f_hi`` under ``a = 0``) keeps it.  The weight-free terms
    ``f_hi`` and ``r_lo`` come from :func:`_box_terms` and the test on
    ``p_hi`` from :func:`_box_keep`, so a caller that bounds the same boxes
    for many weights can compute the first half once.
    """
    with _extended():
        return _box_keep(w, *_box_terms(k, lo1, lo2, hi1, hi2))
