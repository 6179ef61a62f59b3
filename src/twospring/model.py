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
overflow saturates to ``inf`` without a warning, as Python floats do.

:func:`feasible_grid` is the constraint kernel of the grid oracle: the mask
of points that are both strong (force ``>= 1``) and performant
(``a*force + b*resistance >= 1``).  It tests strength first and evaluates
the performance only when some point is strong, reusing the force it
already holds; an input with no strong point costs one force pass.
:func:`multiperf_grid` and :func:`feasible_grid` share one private helper
for the ``a*F + b*R`` rule, so the two cannot drift apart.
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

    def __post_init__(self) -> None:
        if not (self.c1 >= 0.0) or not (self.c2 >= 0.0):
            raise ValueError(
                f"elastic limits must be nonnegative, got ({self.c1!r}, {self.c2!r})"
            )


@dataclass(frozen=True)
class Weights:
    """Nonnegative weights: ``a`` on force capacity, ``b`` on resistance."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a >= 0.0) or not (self.b >= 0.0):
            raise ValueError(f"weights must be nonnegative, got ({self.a!r}, {self.b!r})")


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


def force_grid(k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`force` over coordinate arrays."""
    if k is Topology.PARALLEL:
        with np.errstate(over="ignore"):  # saturates to inf, as Python floats do
            return c1 + c2
    return np.minimum(c1, c2)


def _inverse(x: np.ndarray) -> np.ndarray:
    """``1 / x`` in extended arithmetic: a zero or subnormal ``x`` gives ``inf``."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / x


def resistance_grid(k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`resistance`; 1/0 maps to ``inf``."""
    if k is Topology.PARALLEL:
        return _inverse(force_grid(k, c1, c2))
    with np.errstate(over="ignore"):
        return _inverse(c1) + _inverse(c2)


def _weigh(w: Weights, k: Topology, c1: np.ndarray, c2: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The performance rule ``a*f + b*r`` at ``(c1, c2)``, given the force there.

    ``f`` must be a new float array: it is overwritten with the result.  The
    resistance is evaluated only when ``b > 0``, which is the
    ``0 * inf == 0`` convention of :func:`multiperf`; in parallel it is
    ``1 / f``, as in :func:`resistance_grid`.  Overflow saturates to
    ``inf``, and an infinite force under ``a = 0`` gives NaN, which fails
    ``>= 1`` as its limit ``b*r -> 0`` does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = None
        if w.b > 0.0:
            r = _inverse(f) if k is Topology.PARALLEL else resistance_grid(k, c1, c2)
            r *= w.b
        f *= w.a
        if r is not None:
            f += r
    return f


def multiperf_grid(w: Weights, k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`multiperf` over float coordinate arrays,
    same ``0 * inf == 0`` convention."""
    return _weigh(w, k, c1, c2, force_grid(k, c1, c2))


def feasible_grid(w: Weights, k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Mask of the points meeting both constraints, strength and performance.

    Equal, bit for bit, to ``(multiperf_grid(w, k, c1, c2) >= 1.0) &
    (force_grid(k, c1, c2) >= 1.0)``, but the force is computed once and
    the performance only when some point is strong: an input with no strong
    point returns its all-False strength mask at once.
    """
    f = force_grid(k, c1, c2)
    ok = f >= 1.0
    if ok.any():
        ok &= _weigh(w, k, c1, c2, f) >= 1.0
    return ok
