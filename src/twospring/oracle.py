"""Brute-force grid search for the cheapest feasible design.

``oracle_solve`` looks for the cheapest pair of grid elastic limits in the
square ``[0, c_max]^2`` that meets both the performance and the strength
constraint.  On a grid of pitch ``step`` the cost of point ``(i, j)`` is
``(i + j) * step``, so the scan walks the anti-diagonals ``i + j = s`` in
increasing ``s``, a block of ``BLOCK_DIAGONALS`` at a time, and stops at the
first block that holds a feasible point.  Every cheaper diagonal has been
decided in full by then, so the result is the exhaustive minimum; only
points that cost more than it are left undecided.

The constraints are evaluated on numpy arrays by the array twins of the
scalar formulas of :mod:`twospring.model`, defined here because the scan is
their only caller.  On arrays, overflow saturates to ``inf`` and underflow
rounds toward zero without a warning, as Python floats do, whatever numpy
error state the caller set.  Each formula is defined once, as a private
function that enters no error-state scope; a scan enters one scope and
calls them inside it.  One kernel, :func:`_feasible`, gives the mask of
points that are both strong (force ``>= 1``) and performant
(``a*force + b*resistance >= 1``), reusing the force for the performance
(in parallel the resistance is ``1 / force``).  The kernel and the tile
bound share one private helper for the ``a*F + b*R`` rule and its
``0 * inf == 0`` convention, so the two cannot drift apart; each passes it
the force and resistance arrays, and it adds the resistance only when
``b > 0``.  It returns a new array and only reads its inputs, so the bound
weighs the layout's cached, read-only terms without copying them.

A block is split into tiles of ``TILE_COLUMNS`` grid columns.  Force is
non-decreasing and resistance non-increasing in each limit, for both
wirings and in rounded arithmetic (the model's monotonicity contract).  In
each column of a tile the block's points form a segment of ``c2``, so the
force at its top and the resistance at its bottom bound the force and the
resistance of every point of the segment from above; the largest of each
over the tile's columns bound the whole tile, and the performance formed
from them bounds its performance (:func:`_box_keep`).
A tile whose bound is below 1 holds no feasible point and is not
evaluated; each block is tested with one call of the kernel over the
columns from its first to its last remaining tile, and a block with none
is not evaluated at all.  Force and resistance are also symmetric in the
two limits, in rounded arithmetic (the model's symmetry contract), so a
point is feasible exactly when its mirror ``(j, i)`` is.  The mirror lies
on the same diagonal, in the same block, and in a tile the bound keeps if
the point is feasible; so the scan evaluates only the columns
``i <= (s0 + width - 1) // 2`` of a block that starts at diagonal ``s0``,
and skips a block with none of them left.  Because the bound reads only
the tile's own points, and the parallel force is constant along a
diagonal, a scan seldom evaluates a block before the one that holds the
answer.  A scan that finds nothing has still decided the whole square,
mostly by the bound.  The tile layout depends on the grid alone and is
kept for the last grid scanned, together with the weight-free half of the
bound: the largest force and resistance of every tile, and its strength
mask, for both wirings.  A scan only weighs them.  Memory stays bounded by
one block, at most ``BLOCK_DIAGONALS`` points per grid row, plus per tile
and wiring two bound terms and a mask, whatever ``c_max / step``; the
layout builds the terms over a bounded number of grid columns at a time.

The scan knows nothing about the one-variable reduction or the closed form:
no start point, bound or constant comes from the solver, and the only
module of the package this one imports is :mod:`twospring.model`.  That is
what makes it usable as an independent check on the solver, which
:mod:`twospring.verify` performs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import SpringPair, Topology, Weights, cost

__all__ = [
    "BLOCK_DIAGONALS",
    "MAX_GRID_POINTS",
    "TILE_COLUMNS",
    "GridSpec",
    "OracleResult",
    "oracle_solve",
]


# anti-diagonals i + j evaluated per block of the cost-ordered scan
BLOCK_DIAGONALS = 32
# columns per tile, the unit the bound may rule out within a block
TILE_COLUMNS = 32
# largest square a GridSpec may describe: 10**4 points per side
MAX_GRID_POINTS = 10**8
# block columns whose bound terms a layout builds at a time, to bound its memory
_LAYOUT_CHUNK = 2**12


# The private array formulas below enter no error-state scope of their own:
# the oracle enters one ``np.errstate(all="ignore")`` scope per scan.


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

    Returns a new array and only reads ``f`` and ``r``, so they may be
    cached and read-only.  ``r`` is added only when ``b > 0``, which is the
    ``0 * inf == 0`` convention of :func:`multiperf`.  Overflow saturates
    to ``inf``, and an infinite force under ``a = 0`` gives NaN, which
    fails ``>= 1`` as its limit ``b*r -> 0`` does.
    """
    p = f * w.a
    if w.b > 0.0:
        p += r * w.b
    return p


def _feasible(w: Weights, k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Mask of the points meeting both constraints, strength and performance.

    At each point whose limits are not NaN the mask is the scalar spec of
    :mod:`twospring.model`, ``force(k, s) >= 1 and multiperf(w, k, s) >= 1``
    for ``s = SpringPair(c1, c2)``; a point with a NaN limit is False.  It
    runs in the caller's error-state scope.  In parallel the resistance is
    ``1 / f``, as in :func:`_resistance`."""
    f = _force(k, c1, c2)
    r = 1.0 / f if k is Topology.PARALLEL else _resistance(k, c1, c2)
    ok = f >= 1.0
    ok &= _weigh(w, f, r) >= 1.0
    return ok


def _box_keep(w: Weights, f_hi: np.ndarray, r_lo: np.ndarray, strong: np.ndarray) -> np.ndarray:
    """The tile bound: ``strong`` without the tiles whose ``a*f_hi + b*r_lo``
    is below 1.  False proves that no point of the tile passes
    :func:`_feasible`, and a NaN bound keeps the tile.  The terms are
    only read, so they may be cached and read-only."""
    keep = ~(_weigh(w, f_hi, r_lo) < 1.0)
    keep &= strong
    return keep


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
            # size is exact below the cap on the ratio, and only a lower bound above it
            per_side = size if ratio < MAX_GRID_POINTS else f"more than {MAX_GRID_POINTS}"
            raise ValueError(
                f"grid of {per_side} points per side exceeds the cap of {math.isqrt(MAX_GRID_POINTS)} per side"
                f" ({MAX_GRID_POINTS} points); use a larger step"
            )
        object.__setattr__(self, "size", size)

    def axis(self) -> np.ndarray:
        """Grid coordinates ``i * step`` for ``i`` in ``range(size)``.

        The last one is ``(size - 1) * step``, not always ``c_max``.  A
        quotient ``c_max / step`` within 1e-9 below a whole number counts
        as whole, so the product may round above ``c_max``:
        ``GridSpec(0.3, 0.1)`` ends at ``0.30000000000000004``.  A ratio
        that is not whole ends up to one step short: ``GridSpec(1.0,
        0.013)`` ends at ``0.988``.
        """
        return np.arange(self.size) * self.step


@dataclass(frozen=True)
class OracleResult:
    """Cheapest feasible grid point, if any.

    ``truncated`` flags an argmin on the boundary of the search square, where
    the true optimum may lie outside the scanned area.  ``points_scanned``
    counts the grid points the scan decided: every point of the blocks up to
    the one that holds the answer, whether evaluated, ruled out by the
    tile bound, or decided by its mirror ``(j, i)``, which is feasible
    exactly when the point is.
    """

    feasible: bool
    best_pair: SpringPair | None
    best_cost: float
    argmin_gap: float | None
    truncated: bool
    points_scanned: int = 0

    def __init__(
        self,
        feasible: bool,
        best_pair: SpringPair | None,
        best_cost: float,
        argmin_gap: float | None,
        truncated: bool,
        points_scanned: int = 0,
    ) -> None:
        d = self.__dict__
        d["feasible"] = feasible
        d["best_pair"] = best_pair
        d["best_cost"] = best_cost
        d["argmin_gap"] = argmin_gap
        d["truncated"] = truncated
        d["points_scanned"] = points_scanned


def _points_below(t: int, size: int) -> int:
    """Number of points ``(i, j)`` of a ``size``-square with ``i + j < t``."""
    if t <= size:
        return t * (t + 1) // 2
    above = 2 * size - 1 - t  # points with i + j >= t, mirrored by (i, j) -> (last - i, last - j)
    return size * size - above * (above + 1) // 2


class _Layout(NamedTuple):
    """Arrays of the scan that depend on the grid alone (see :func:`_layout`)."""

    axis: np.ndarray
    descending: np.ndarray
    runs: np.ndarray
    tiles: np.ndarray
    bounds: dict[Topology, tuple[np.ndarray, np.ndarray, np.ndarray]]


@functools.lru_cache(maxsize=1)
def _layout(g: GridSpec, width: int, tile: int) -> _Layout:
    """Lay out the scan of grid ``g`` in blocks of ``width`` diagonals and
    tiles of ``tile`` columns; the arrays are shared and read-only.

    A block is a ``(width, columns)`` array: row ``d`` is the diagonal
    ``s0 + d`` and column ``r`` the point ``i = i_hi - r``,
    ``j = s0 + d - i_hi + r``, so both c1 and c2 are read from memory in
    order.  Its c1 starts at ``descending[last - i_hi]`` and its c2 at row
    ``s0 - i_hi + width - 1`` of ``runs``: row ``q`` of ``runs`` is
    ``padded[q : q + size]``, where ``padded[p] = axis[p - width + 1]`` and
    NaN elsewhere, which masks every ``j`` outside ``[0, last]`` (NaN fails
    both constraints).

    Tile ``t`` of a block holds its columns ``[t * tile, (t + 1) * tile)``,
    and ``tiles`` marks the tiles a block has: a block near a corner of the
    square has fewer columns than ``size``.  In column ``i`` the block's
    points form the segment ``j_lo = max(s0 - i, 0)`` to
    ``j_hi = min(s0 + width - 1 - i, last)``.  ``bounds[k]`` holds the
    weight-free half of the tile bound for wiring ``k``: ``f_hi`` and
    ``r_lo``, the largest over a tile's columns of the force at
    the top of each column's segment and the resistance at its bottom, and
    ``strong``, the tiles ``f_hi < 1`` does not rule out.  By the
    monotonicity contract of the model the segment's terms are its largest
    force and resistance, so the tile's are the largest over its own
    points.  They are built for a bounded number of blocks at a time, and a
    scan only weighs them.
    """
    axis = g.axis()
    last = g.size - 1
    s0 = np.arange(0, 2 * last + 1, width)[:, None]
    i_hi = np.minimum(s0 + width - 1, last)
    i_lo = np.maximum(s0 - last, 0)
    start = np.arange(0, g.size, tile)
    tiles = start < i_hi - i_lo + 1
    padded = np.full(2 * last + 2 * width, np.nan)
    padded[width - 1 : width + last] = axis
    terms = {k: (np.empty(tiles.shape), np.empty(tiles.shape)) for k in Topology}
    rows = max(1, _LAYOUT_CHUNK // g.size)
    with np.errstate(all="ignore"):
        for b in range(0, len(s0), rows):
            blocks = slice(b, b + rows)
            # column r of each block; past a block's last column, repeat it,
            # which leaves the largest terms of its last tile as they are
            i = np.maximum(i_hi[blocks] - np.arange(g.size), i_lo[blocks])
            c1 = axis[i]
            lo2 = axis[np.maximum(s0[blocks] - i, 0)]
            hi2 = axis[np.minimum(s0[blocks] + width - 1 - i, last)]
            for k, (f_hi, r_lo) in terms.items():
                f, r = _force(k, c1, hi2), _resistance(k, c1, lo2)
                f_hi[blocks] = np.maximum.reduceat(f, start, axis=1)
                r_lo[blocks] = np.maximum.reduceat(r, start, axis=1)
    bounds = {k: (f_hi, r_lo, ~(f_hi < 1.0) & tiles) for k, (f_hi, r_lo) in terms.items()}
    layout = _Layout(
        axis=axis,
        descending=axis[::-1].copy(),
        runs=sliding_window_view(padded, g.size),
        tiles=tiles,
        bounds=bounds,
    )
    for array in (axis, layout.descending, tiles, *bounds[Topology.PARALLEL], *bounds[Topology.SERIAL]):
        array.flags.writeable = False
    return layout


def oracle_solve(w: Weights, k: Topology, g: GridSpec) -> OracleResult:
    """Exhaustive minimum of ``c1 + c2`` over the grid, under both constraints.

    Anti-diagonals ``i + j = s`` are scanned in blocks of ``BLOCK_DIAGONALS``
    in increasing ``s``; the first block with a feasible point holds the
    cheapest one.  Within a block only the columns from the first to the
    last tile that the bound of the tile's own points cannot rule out are
    evaluated, and of those only the ones with
    ``i <= (s0 + width - 1) // 2``, because a point and its mirror are
    feasible together: the scan weighs the weight-free bound terms cached
    with the layout, then runs the kernel :func:`_feasible` on each block,
    all inside one error-state scope.  Cost ties on a diagonal are broken
    toward the smaller ``|c1 - c2|``, then the smaller ``c1``: by the
    symmetry that is the largest feasible ``i`` with ``2 * i <= s``.  The
    reduction runs on integer grid indices, so ties and tie-breaks are
    exact and do not depend on the block or tile size.
    """
    width, tile = BLOCK_DIAGONALS, TILE_COLUMNS
    layout = _layout(g, width, tile)
    last = g.size - 1
    with np.errstate(all="ignore"):  # the one error-state scope of the scan
        keep = _box_keep(w, *layout.bounds[k])
        for block in keep.any(axis=1).nonzero()[0].tolist():
            s0 = block * width
            i_hi = min(last, s0 + width - 1)
            kept = keep[block].nonzero()[0]
            # evaluated columns [r0, r1): the kept tiles' span, at i <= (s0 + width - 1) // 2
            r0 = max(int(kept[0]) * tile, i_hi - (s0 + width - 1) // 2)
            r1 = min(int(kept[-1]) * tile + tile, i_hi - max(0, s0 - last) + 1)
            if r0 >= r1:
                continue
            c1 = layout.descending[last - i_hi + r0 : last - i_hi + r1]
            q = s0 - i_hi + width - 1
            feasible = _feasible(w, k, c1, layout.runs[q : q + width, r0:r1])
            diagonals = feasible.any(axis=1)
            if diagonals.any():
                break
        else:
            return OracleResult(False, None, math.inf, None, False, g.size * g.size)
    d = int(diagonals.argmax())
    s = s0 + d
    c = max(0, i_hi - s // 2 - r0)  # the column of i = s // 2, or the first one evaluated
    i = i_hi - r0 - c - int(feasible[d, c:].argmax())  # the largest feasible i <= s // 2
    j = s - i
    pair = SpringPair(float(layout.axis[i]), float(layout.axis[j]))
    return OracleResult(
        feasible=True,
        best_pair=pair,
        best_cost=cost(pair),
        argmin_gap=abs(pair.c1 - pair.c2),
        truncated=(i == last or j == last),
        points_scanned=_points_below(min(s0 + width, 2 * last + 1), g.size),
    )
