"""Brute-force grid search for the cheapest feasible design.

``oracle_solve`` looks for the cheapest pair of grid elastic limits in the
square ``[0, c_max]^2`` that meets both the performance and the strength
constraint.  On a grid of pitch ``step`` the cost of point ``(i, j)`` is
``(i + j) * step``, so the scan walks the anti-diagonals ``i + j = s`` in
increasing ``s``, a block of diagonals at a time, and stops at the first
block that holds a feasible point.  Every cheaper diagonal has been
decided in full by then, so the result is the exhaustive minimum; only
points that cost more than it are left undecided.

The constraints are evaluated on numpy arrays by the scalar spec's own
formulas, the private ``_force``, ``_resistance`` and ``_weigh`` of
:mod:`twospring.model`, which take floats and arrays alike.  On arrays,
overflow saturates to ``inf`` and underflow rounds toward zero without a
warning, as Python floats do, whatever numpy error state the caller set:
the formulas enter no error-state scope, and a scan enters one and calls
them inside it.  One kernel, :func:`_feasible`, gives the mask of points
that are both strong (force ``>= 1``) and performant (``a*force +
b*resistance >= 1``), reusing the force for the performance (in parallel
the resistance is ``1 / force``).  The kernel and the tile bound both
weigh with the model's ``a*F + b*R`` rule and its ``0 * inf == 0``
convention, so the two cannot drift apart; it returns a new array and
only reads its inputs, so the bound weighs the layout's cached, read-only
terms without copying them.

A block is split into tiles of grid columns.  Force is non-decreasing and
resistance non-increasing in each limit, for both wirings and in rounded
arithmetic (the model's monotonicity contract).  In each column of a tile
the block's points form a segment of ``c2``, so the force at its top and
the resistance at its bottom bound those of every point of the segment
from above; the largest of each over the tile's columns bound the whole
tile, and the performance formed from them bounds its performance.  A tile
whose bound is below 1 holds no feasible point and is not evaluated.  The
layout drops the weak tiles, whose force bound is below 1, once; a scan
weighs the strong tiles' terms in one call, finds the first kept tile and
its block's last one with one flat search each, and tests the columns
between them with one call of the kernel.  Force and resistance are also
symmetric in the two limits, in rounded arithmetic (the model's symmetry
contract), so a point is feasible exactly when its mirror ``(j, i)`` is.
The mirror lies on the same diagonal, in the same block, and in a tile the
bound keeps if the point is feasible; so the scan evaluates only the
columns ``i <= (s0 + width - 1) // 2`` of a block that starts at diagonal
``s0``, and skips a block with none of them left.  Because the bound reads
only the tile's own points, a scan seldom evaluates a block before the one
that holds the answer.  A scan that finds nothing has still decided the
whole square, mostly by the bound.

Each wiring has its own block shape, ``BLOCK_SHAPES[k]``: series scans
blocks of 32 diagonals in tiles of 32 columns, parallel blocks of 8
diagonals in one tile each.  The parallel force ``c1 + c2`` is constant
along a diagonal up to rounding, so every tile of a parallel block has
about the bound of the block's top and bottom diagonals, and narrower
tiles would rule out nothing more; the bound works per strip of 8
diagonals instead, and the block that holds the answer has about
``8 * s / 2`` points to evaluate rather than ``32 * s / 2``.  A layout
depends on the grid and the wiring alone; one layout per wiring is kept
for the last grid scanned, each with its wiring's weight-free half of the
bound: the largest force and resistance of every strong tile, with its
block, its first column and the end of its block's run.  A scan only
weighs them.  Memory stays bounded by one block, at most 32 points per
grid row, plus per strong tile two bound terms and three indices,
whatever ``c_max / step``; a layout builds its terms over a bounded
number of block points at a time.

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

from .model import SpringPair, Topology, Weights, _force, _resistance, _weigh, cost

__all__ = [
    "BLOCK_SHAPES",
    "MAX_GRID_POINTS",
    "GridSpec",
    "OracleResult",
    "oracle_solve",
]


# largest square a GridSpec may describe: 10**4 points per side
MAX_GRID_POINTS = 10**8
# (anti-diagonals i + j per block, grid columns per tile) of each wiring's
# scan, a tile being the unit the bound may rule out within a block; a
# parallel tile is as wide as the largest grid, so it spans its whole block
BLOCK_SHAPES = {
    Topology.PARALLEL: (8, math.isqrt(MAX_GRID_POINTS)),
    Topology.SERIAL: (32, 32),
}
# block points whose bound terms a layout builds at a time, to bound its memory
_LAYOUT_CHUNK = 2**13


def _feasible(w: Weights, k: Topology, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Mask of the points meeting both constraints, strength and performance.

    At each point whose limits are not NaN the mask is the scalar spec of
    :mod:`twospring.model`, ``force(k, s) >= 1 and multiperf(w, k, s) >= 1``
    for ``s = SpringPair(c1, c2)``; a point with a NaN limit is False.  It
    runs in the caller's error-state scope.  In parallel the resistance is
    ``1 / f``, as in the model's ``_resistance``."""
    f = _force(k, c1, c2, np.minimum)
    r = 1.0 / f if k is Topology.PARALLEL else _resistance(k, c1, c2)
    ok = f >= 1.0
    ok &= _weigh(w, f, r) >= 1.0
    return ok


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
    """Arrays of one wiring's scan that depend on the grid and its block shape alone (see :func:`_layout`)."""

    axis: np.ndarray
    descending: np.ndarray
    runs: np.ndarray
    f_hi: np.ndarray
    r_lo: np.ndarray
    blocks: np.ndarray
    columns: np.ndarray
    ends: np.ndarray


@functools.lru_cache(maxsize=2)  # one layout per wiring, for the last grid scanned
def _layout(g: GridSpec, k: Topology, width: int, tile: int) -> _Layout:
    """Lay out the scan of grid ``g`` in wiring ``k``, in blocks of ``width``
    diagonals and tiles of ``tile`` columns; the arrays are shared and read-only.

    A block is a ``(width, columns)`` array: row ``d`` is the diagonal
    ``s0 + d`` and column ``r`` the point ``i = i_hi - r``,
    ``j = s0 + d - i_hi + r``, so both c1 and c2 are read from memory in
    order.  Its c1 starts at ``descending[last - i_hi]`` and its c2 at row
    ``q = s0 - i_hi + width - 1`` of ``runs``: row ``q`` of ``runs`` is
    ``padded[q : q + size]``, where ``padded[p] = axis[p - width + 1]`` and
    NaN elsewhere, which masks every ``j`` outside ``[0, last]`` (NaN fails
    both constraints).

    Tile ``t`` of a block holds its columns ``[t * tile, (t + 1) * tile)``;
    a block near a corner of the square has fewer columns than ``size``, so
    fewer tiles.  In column ``i`` the block's points form the segment
    ``j_lo = max(s0 - i, 0)`` to ``j_hi = min(s0 + width - 1 - i, last)``.
    The weight-free half of the tile bound for wiring ``k`` is ``f_hi`` and
    ``r_lo``, the largest over a tile's columns of the force at the top of
    each column's segment and the resistance at its bottom.  By the
    monotonicity contract of the model the segment's terms are its largest
    force and resistance, so the tile's are the largest over its own
    points.  The tops and bottoms of a block's segments are the rows ``q +
    width - 1`` and ``q`` of ``runs`` with ``j`` clamped into ``[0, last]``,
    so the terms are built from slices, a bounded number of block points
    at a time.  Only the *strong* tiles, which ``f_hi < 1`` does not rule
    out, are kept, as flat arrays in scan order: their terms, their block,
    their first column, and ``ends``, the index one past the last strong
    tile of their block.  A scan only weighs the terms.
    """
    axis = g.axis()
    size, last = g.size, g.size - 1
    s0 = np.arange(0, 2 * last + 1, width)
    i_hi = np.minimum(s0 + width - 1, last)
    columns = i_hi - np.maximum(s0 - last, 0) + 1
    start = np.arange(0, size, tile)
    tiles = start < columns[:, None]
    descending = axis[::-1].copy()
    padded = np.full(2 * last + 2 * width, np.nan)
    padded[width - 1 : width + last] = axis
    # column r of a block: c1 in row last - i_hi of c1_rows, and the top and
    # bottom of its segment, j = q + r and j = q + r - width + 1 clamped
    # into [0, last], in row q of top_rows and bottom_rows.  Past a block's
    # last column, c1 or the bottom is NaN, which fmax passes over, or the
    # top is (i, last) for an i below the block's, whose force is at most
    # that of the block's own (i_lo, last)
    nan = np.full(size + width, np.nan)
    c1_rows = sliding_window_view(np.concatenate([descending, nan]), size)
    top_rows = sliding_window_view(np.concatenate([axis, np.full(size + width, axis[-1])]), size)
    bottom_rows = sliding_window_view(np.concatenate([np.full(width - 1, axis[0]), axis, nan]), size)
    q = s0 - i_hi + width - 1
    f_hi, r_lo = np.full(tiles.shape, np.nan), np.full(tiles.shape, np.nan)
    # blocks widest first, so that no block of a chunk is wider than its first
    order = np.argsort(-columns, kind="stable")
    b = 0
    with np.errstate(all="ignore"):
        while b < order.size:
            n = int(columns[order[b]])
            blocks = order[b : b + max(1, _LAYOUT_CHUNK // n)]
            b += blocks.size
            c1 = c1_rows[last - i_hi[blocks], :n]
            f = _force(k, c1, top_rows[q[blocks], :n], np.minimum)
            r = _resistance(k, c1, bottom_rows[q[blocks], :n])
            ends = start[start < n]
            f_hi[blocks, : ends.size] = np.fmax.reduceat(f, ends, axis=1)
            r_lo[blocks, : ends.size] = np.fmax.reduceat(r, ends, axis=1)
    strong = ~(f_hi < 1.0) & tiles
    block, t = strong.nonzero()  # the strong tiles, in scan order
    runs = sliding_window_view(padded, size)
    end = np.searchsorted(block, block, side="right")
    layout = _Layout(axis, descending, runs, f_hi[strong], r_lo[strong], block, t * tile, end)
    for array in layout:
        array.flags.writeable = False
    return layout


def oracle_solve(w: Weights, k: Topology, g: GridSpec) -> OracleResult:
    """Exhaustive minimum of ``c1 + c2`` over the grid, under both constraints.

    Anti-diagonals ``i + j = s`` are scanned in blocks of the wiring's
    shape, ``BLOCK_SHAPES[k]``, in increasing ``s``; the first block with a
    feasible point holds the cheapest one.  One weighing of the strong
    tiles' cached terms rules tiles out; a search over the flat tiles finds
    the next kept one, and one over its block's run the last.  The kernel
    :func:`_feasible` runs once on the columns between them with ``i <= (s0
    + width - 1) // 2``, a point and its mirror being feasible together,
    and one search over the flat block finds its first feasible diagonal
    at its largest feasible ``i``.  Cost ties are broken toward the smaller
    ``|c1 - c2|``, then the smaller ``c1``: by the symmetry, the largest
    feasible ``i`` with ``2 * i <= s``, searched for again only when that
    first one is above ``s // 2``.  All of it runs on integer grid indices
    in one error-state scope, so ties are exact and do not depend on the
    block or tile size.
    """
    width, tile = BLOCK_SHAPES[k]
    layout = _layout(g, k, width, tile)
    last = g.size - 1
    with np.errstate(all="ignore"):  # the one error-state scope of the scan
        ruled = _weigh(w, layout.f_hi, layout.r_lo) < 1.0  # a NaN bound keeps its tile
        t = 0
        while t < ruled.size:
            t += int(ruled[t:].argmin())  # the first kept tile from t on, if any is
            if ruled[t]:
                break
            end = int(layout.ends[t])
            e = end - 1 - int(ruled[t:end][::-1].argmin())  # the block's last kept tile
            s0 = int(layout.blocks[t]) * width
            i_hi = min(last, s0 + width - 1)
            # evaluated columns [r0, r1): the kept tiles' span, at i <= (s0 + width - 1) // 2
            r0 = max(int(layout.columns[t]), i_hi - (s0 + width - 1) // 2)
            r1 = min(int(layout.columns[e]) + tile, i_hi - max(0, s0 - last) + 1)
            t = end
            if r0 >= r1:
                continue
            c1 = layout.descending[last - i_hi + r0 : last - i_hi + r1]
            q = s0 - i_hi + width - 1
            feasible = _feasible(w, k, c1, layout.runs[q : q + width, r0:r1])
            d, c = divmod(int(feasible.argmax()), r1 - r0)  # the first feasible diagonal, at its largest i
            if not feasible[d, c]:
                continue
            s = s0 + d
            i = i_hi - r0 - c
            if i > s // 2:
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
    return OracleResult(False, None, math.inf, None, False, g.size * g.size)
