"""Weight-space classification: which wiring is cheaper where.

The quadrant of weight pairs ``(a, b)`` splits along the lines ``a + 2b = 1``
and ``a + b = 1`` into three bands A, B, C.  Band B splits further along the
locus where the minimal parallel cost equals the fixed serial cost of 2; the
serial wiring is strictly cheaper exactly on the sub-band B2, the parallel
wiring everywhere else (up to ties on the dividing locus itself).

:func:`winner` answers one weight pair and is the reference.  The bands come
from the first test of the solver's scalar kernel, ``solver._reduced``, the
strength bound ``a + k*b - 1 >= 0``: band A is where the serial wiring
fails it (``a + 2b - 1 >= 0`` does not hold), band C where the parallel
wiring passes it (``a + b - 1 >= 0``), and band B splits on the parallel
cost.  In band C both wirings sit at the strength bound (costs 1 and 2,
parallel wins) whatever the weights, so :func:`winner` tests that line
itself and returns one shared :class:`RegionReport` there, built once at
import through the kernel path; whether two calls return the same object is
not part of the contract.  A query builds no ``ReducedSolution``.  Its one
value object, the :class:`RegionReport`, is frozen and takes the
``__init__`` that writes its fields directly from :mod:`twospring.model`.
The labels and winners the scalar path returns are module-level aliases
(``_A`` ... ``_TIE``): looking an enum member up on its class costs
0.1-0.2 us on Python 3.11, a sizable share of a query.
Its array twin for whole weight grids,
:func:`~twospring.phase.winner_grid`, lives with the sweep that uses it,
so this module imports only the standard library, the model and the
solver.

It also holds what the commands draw of the plane: ``BOUNDARY_CURVES``,
the table of the three dividing curves, and :class:`SweepSpec`, the
window of a phase diagram, checked here without numpy so that a bad
window is refused before the array code loads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .model import Weights, _direct_init
from .solver import _STRENGTH, _reduced

__all__ = [
    "RegionLabel",
    "Winner",
    "RegionReport",
    "winner",
    "b2_boundary",
    "B2_SEGMENT_A_MIN",
    "B2_SEGMENT_A_MAX",
    "BOUNDARY_CURVES",
    "MAX_SWEEP_CELLS",
    "SweepSpec",
]


class RegionLabel(enum.Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"
    C = "C"


class Winner(enum.Enum):
    """Cheaper topology at a weight pair, with explicit tie and infeasible outcomes."""

    PARALLEL = "parallel"
    SERIAL = "serial"
    TIE = "tie"
    BOTH_INFEASIBLE = "infeasible"


@_direct_init
@dataclass(frozen=True, slots=True)
class RegionReport:
    """Label, winning topology, and both minimal costs at one weight pair."""

    label: RegionLabel
    winner: Winner
    cost_parallel: float
    cost_serial: float


# module-level aliases of the enum members the scalar path returns (see the module docstring)
_A, _B1, _B2, _C = RegionLabel.A, RegionLabel.B1, RegionLabel.B2, RegionLabel.C
_PARALLEL_WINS, _SERIAL_WINS = Winner.PARALLEL, Winner.SERIAL
_TIE, _BOTH_INFEASIBLE = Winner.TIE, Winner.BOTH_INFEASIBLE


# the parallel-cost-equals-2 locus b = 2 - 4a lies inside band B for these a
B2_SEGMENT_A_MIN = 1.0 / 3.0
B2_SEGMENT_A_MAX = 3.0 / 7.0


def _report(a: float, b: float) -> RegionReport:
    """:func:`winner` at ``(a, b)`` through the kernel, in any band.

    The label reads the kernel's active constraints.  Extended arithmetic
    puts the ``a = 0`` strip of band B (parallel infeasible, cost ``+inf``)
    in B2, matching the ``a -> 0+`` limit.
    """
    _, cost_p, active_p = _reduced(a, b, 1.0)
    _, cost_s, active_s = _reduced(a, b, 2.0)
    if math.isinf(cost_p) and math.isinf(cost_s):
        best = _BOTH_INFEASIBLE
    elif cost_p < cost_s:
        best = _PARALLEL_WINS
    elif cost_s < cost_p:
        best = _SERIAL_WINS
    else:
        best = _TIE
    if active_s is not _STRENGTH:
        label = _A
    elif active_p is _STRENGTH:
        label = _C
    elif cost_p > 2.0:
        label = _B2
    else:
        label = _B1
    return RegionReport(label, best, cost_p, cost_s)


# Band C's answer, built once through the kernel path: both wirings sit at
# the strength bound there (costs 1 and 2), whatever the weights.
_BAND_C = _report(1.0, 1.0)


def winner(w: Weights) -> RegionReport:
    """Report both minimal costs, the region label, and the strict-argmin winner."""
    a, b = w.a, w.b
    # the parallel kernel's first line, written out so that band C, about
    # two thirds of the benchmark's queries, needs no kernel call; asking
    # the parallel kernel first instead was slower per query
    if a + b - 1.0 >= 0.0:
        return _BAND_C
    return _report(a, b)


def b2_boundary(a: float) -> float | None:
    """b-coordinate of the B1/B2 dividing segment at abscissa ``a``.

    The locus where the minimal parallel cost equals 2 simplifies to the line
    ``b = 2 - 4a``; within band B that is the closed segment from
    ``(1/3, 2/3)`` (on ``a + b = 1``) to ``(3/7, 2/7)`` (on ``a + 2b = 1``).
    Returns ``None`` where the locus leaves band B.
    """
    if a < B2_SEGMENT_A_MIN or a > B2_SEGMENT_A_MAX:
        return None
    return 2.0 - 4.0 * a


# the dividing curves as (name, first a, last a, b at a): the A/B and B/C
# lines over a in [0, 1], then the B1/B2 segment between them
BOUNDARY_CURVES = (
    ("a+2b=1", 0.0, 1.0, lambda a: (1.0 - a) / 2.0),
    ("a+b=1", 0.0, 1.0, lambda a: 1.0 - a),
    ("b=2-4a", B2_SEGMENT_A_MIN, B2_SEGMENT_A_MAX, b2_boundary),
)

# largest sweep a SweepSpec may describe, na * nb
MAX_SWEEP_CELLS = 4_000_000


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Inclusive rectangular sampling of the weight plane: finite bounds
    and at most ``MAX_SWEEP_CELLS`` samples."""

    a_min: float
    a_max: float
    b_min: float
    b_max: float
    na: int
    nb: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.a_min <= self.a_max) or not (0.0 <= self.b_min <= self.b_max):
            raise ValueError("need 0 <= a_min <= a_max and 0 <= b_min <= b_max")
        if not (math.isfinite(self.a_max) and math.isfinite(self.b_max)):
            raise ValueError("window bounds must be finite")
        if self.na < 2 or self.nb < 2:
            raise ValueError("need at least 2 samples per axis")
        if self.na * self.nb > MAX_SWEEP_CELLS:
            raise ValueError(f"na * nb must not exceed {MAX_SWEEP_CELLS}")
