"""Physical quantities of a two-spring elastoplastic network.

Two springs with elastic limits ``(c1, c2)`` are wired either in parallel or
in series.  This module evaluates, for either wiring, the maximal force the
network withstands before deforming plastically, its electrical resistance,
the weighted force/resistance performance, and the fabrication cost.

All operations are pure functions of immutable values on Python floats, and
the module imports only the standard library: it is the scalar spec that
every other module reads.  Resistance uses extended arithmetic (a zero
divisor yields ``+inf``) so every constraint can be evaluated on the whole
closed quadrant ``c1, c2 >= 0`` without special cases.  The array twins of
these formulas live in :mod:`twospring.oracle`, their only caller, so that
loading the model loads no numpy.

The formulas carry two contracts the oracle rests on.  Force is
non-decreasing and resistance non-increasing in each limit, for both
wirings, and every rounding step keeps that order.  And they are symmetric
in the two limits, bit for bit, because ``+``, ``min`` and ``1/c1 + 1/c2``
are commutative in rounded arithmetic, so swapping ``c1`` and ``c2``
changes no force, resistance, performance or feasibility, NaN included.

:class:`SpringPair` and :class:`Weights` are built once per query, so each
has a hand-written ``__init__`` that validates its arguments and writes the
fields straight into the instance ``__dict__``.  The ``__init__`` a frozen
dataclass generates sets every field through ``object.__setattr__``, which
costs more than a closed-form solve.  ``@dataclass(frozen=True)`` keeps an
``__init__`` the class defines and still generates equality, hashing,
``repr`` and the ``__setattr__`` that refuses assignment, so the values stay
frozen.  The value types of ``solver``, ``regions``, ``oracle`` and
``verify`` follow the same pattern.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "Topology",
    "SpringPair",
    "Weights",
    "force",
    "resistance",
    "multiperf",
    "cost",
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
