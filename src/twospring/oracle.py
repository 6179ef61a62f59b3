"""Brute-force grid verification of the closed-form designs.

``oracle_solve`` looks for the cheapest pair of grid elastic limits in the
square ``[0, c_max]^2`` that meets both the performance and the strength
constraint.  On a grid of pitch ``step`` the cost of point ``(i, j)`` is
``(i + j) * step``, so the scan walks the anti-diagonals ``i + j = s`` in
increasing ``s``, a block of ``BLOCK_DIAGONALS`` at a time, and stops at the
first block that holds a feasible point.  Every cheaper diagonal has been
evaluated in full by then, so the result is the exhaustive minimum; only
points that cost more than it are skipped.  A scan that finds nothing covers
the whole square.  Memory stays bounded by one block, at most
``BLOCK_DIAGONALS`` points per grid row, whatever ``c_max / step``.

Each block is tested with one call of the model kernel
:func:`~twospring.model.feasible_grid`.  It decides strength (force
``>= 1``) on every point of the block first and evaluates the performance
constraint only if some point is strong, so the early blocks below the
strength bound cost one force pass each.  The mask, and so the result, is
the same as evaluating both constraints everywhere.

Constraint evaluation is shared with the model module, but the scan knows
nothing about the one-variable reduction or the closed form: no start
point, bound or constant comes from the solver.  That is what makes it
usable as an independent check on the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import SpringPair, Topology, Weights, cost, feasible_grid
from .solver import solve_reduced

__all__ = [
    "BLOCK_DIAGONALS",
    "MAX_GRID_POINTS",
    "GridSpec",
    "OracleResult",
    "VerificationVerdict",
    "oracle_solve",
    "verify_reduction",
]


# anti-diagonals i + j evaluated per block of the cost-ordered scan
BLOCK_DIAGONALS = 32
# largest square a GridSpec may describe: 10**4 points per side
MAX_GRID_POINTS = 10**8


@dataclass(frozen=True)
class GridSpec:
    """Search square ``[0, c_max]^2`` scanned at pitch ``step``.

    ``size`` is the number of grid points per side.  Both numbers must be
    finite and the square may hold at most ``MAX_GRID_POINTS`` points.
    """

    c_max: float
    step: float
    size: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_max) and 0.0 < self.step <= self.c_max):
            raise ValueError(
                f"need finite 0 < step <= c_max, got step={self.step!r}, c_max={self.c_max!r}"
            )
        ratio = self.c_max / self.step  # inf when the quotient overflows
        size = math.floor(min(ratio, MAX_GRID_POINTS) + 1e-9) + 1
        if size * size > MAX_GRID_POINTS:
            raise ValueError(
                f"grid of c_max/step={ratio:.6g} exceeds {MAX_GRID_POINTS} points; use a larger step"
            )
        object.__setattr__(self, "size", size)

    def axis(self) -> np.ndarray:
        """Grid coordinates 0, step, 2*step, ... up to and including c_max."""
        return np.arange(self.size) * self.step


@dataclass(frozen=True)
class OracleResult:
    """Cheapest feasible grid point, if any.

    ``truncated`` flags an argmin on the boundary of the search square, where
    the true optimum may lie outside the scanned area.  ``points_scanned``
    counts the grid points of the scanned blocks: strength is decided at
    each of them, performance only in blocks that hold a strong point.
    """

    feasible: bool
    best_pair: SpringPair | None
    best_cost: float
    argmin_gap: float | None
    truncated: bool
    points_scanned: int = 0


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


def _points_below(t: int, size: int) -> int:
    """Number of points ``(i, j)`` of a ``size``-square with ``i + j < t``."""
    if t <= size:
        return t * (t + 1) // 2
    above = 2 * size - 1 - t  # points with i + j >= t, mirrored by (i, j) -> (last - i, last - j)
    return size * size - above * (above + 1) // 2


def oracle_solve(w: Weights, k: Topology, g: GridSpec) -> OracleResult:
    """Exhaustive minimum of ``c1 + c2`` over the grid, under both constraints.

    Anti-diagonals ``i + j = s`` are scanned in blocks of ``BLOCK_DIAGONALS``
    in increasing ``s``; the first block with a feasible point holds the
    cheapest one.  Cost ties on a diagonal are broken toward the smaller
    ``|c1 - c2|``, then the smaller ``c1``.  The reduction runs on integer
    grid indices, so ties and tie-breaks are exact and do not depend on the
    block size.
    """
    axis = g.axis()
    last = g.size - 1
    width = BLOCK_DIAGONALS
    # a block is a (width, rows) array: row d is the diagonal s0 + d and
    # column r the point i = i_hi - r, j = s0 + d - i_hi + r, so both c1 and
    # c2 are read from memory in order.  padded[p] = axis[p - width + 1] and
    # NaN elsewhere, which masks every j outside [0, last]: NaN fails both
    # constraints.  Row q of `runs` is padded[q : q + size].
    padded = np.full(2 * last + 2 * width, np.nan)
    padded[width - 1 : width + last] = axis
    runs = sliding_window_view(padded, g.size)
    descending = axis[::-1].copy()
    for s0 in range(0, 2 * last + 1, width):
        i_lo = max(0, s0 - last)
        i_hi = min(last, s0 + width - 1)
        c1 = descending[last - i_hi : last - i_lo + 1]
        q = s0 - i_hi + width - 1
        c2 = runs[q : q + width, : i_hi - i_lo + 1]
        feasible = feasible_grid(w, k, c1, c2)
        diagonals = feasible.any(axis=1)
        if diagonals.any():
            break
    else:
        return OracleResult(False, None, math.inf, None, False, g.size * g.size)
    d = int(diagonals.argmax())
    s = s0 + d
    ii = i_hi - np.flatnonzero(feasible[d])[::-1]  # ascending
    i = int(ii[np.abs(2 * ii - s).argmin()])  # first minimum: the smaller c1
    j = s - i
    pair = SpringPair(float(axis[i]), float(axis[j]))
    return OracleResult(
        feasible=True,
        best_pair=pair,
        best_cost=cost(pair),
        argmin_gap=abs(pair.c1 - pair.c2),
        truncated=(i == last or j == last),
        points_scanned=_points_below(min(s0 + width, 2 * last + 1), g.size),
    )


def verify_reduction(w: Weights, k: Topology, g: GridSpec, tol: float) -> VerificationVerdict:
    """Check that grid search and closed form agree for one weight pair.

    Agreement means matching infeasibility, or both feasible with costs
    within ``tol + 2*step`` (the scan overshoots by at most one step per
    coordinate).  Serial agreement additionally requires the scanned argmin
    to sit within one step of the diagonal.  When the closed-form optimum
    cannot be represented inside the search square at all, an empty scan is
    agreement too, reported as ``agree-truncated``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    closed = solve_reduced(w, k)
    scanned = oracle_solve(w, k, g)
    allowance = tol + 2.0 * g.step
    if closed.feasible and scanned.feasible:
        gap = scanned.best_cost - closed.total_cost
        if abs(gap) > allowance:
            status = "cost-mismatch"
        elif k is Topology.SERIAL and scanned.argmin_gap > g.step + 1e-12:
            status = "split-mismatch"
        else:
            status = "agree"
        return VerificationVerdict(
            agree=(status == "agree"),
            status=status,
            closed_cost=closed.total_cost,
            oracle_cost=scanned.best_cost,
            cost_gap=gap,
            allowance=allowance,
            argmin_gap=scanned.argmin_gap,
            beyond_grid=False,
        )
    if not closed.feasible and not scanned.feasible:
        return VerificationVerdict(
            agree=True,
            status="agree-infeasible",
            closed_cost=math.inf,
            oracle_cost=math.inf,
            cost_gap=0.0,
            allowance=allowance,
            argmin_gap=None,
            beyond_grid=False,
        )
    if closed.feasible:
        # empty scan: legitimate iff the optimal design exceeds the square
        top = (g.size - 1) * g.step  # == axis()[-1]
        reach = 2.0 * top if k is Topology.PARALLEL else top
        beyond = closed.x_star > reach
        return VerificationVerdict(
            agree=beyond,
            status="agree-truncated" if beyond else "feasibility-mismatch",
            closed_cost=closed.total_cost,
            oracle_cost=math.inf,
            cost_gap=math.inf,
            allowance=allowance,
            argmin_gap=None,
            beyond_grid=beyond,
        )
    return VerificationVerdict(
        agree=False,
        status="feasibility-mismatch",
        closed_cost=math.inf,
        oracle_cost=scanned.best_cost,
        cost_gap=math.inf,
        allowance=allowance,
        argmin_gap=scanned.argmin_gap,
        beyond_grid=False,
    )
