"""Brute-force grid search for the cheapest feasible design.

``oracle_solve`` looks for the cheapest pair of grid elastic limits in the
square ``[0, c_max]^2`` that meets both the performance and the strength
constraint.  On a grid of pitch ``step`` the cost of point ``(i, j)`` is
``(i + j) * step``, so the search visits the points in *scan order*: the
anti-diagonals ``i + j = s`` in increasing ``s``, each in decreasing
``i``.  Force and resistance are symmetric in the two limits, in rounded
arithmetic (the model's symmetry contract), so a point is feasible exactly
when its mirror ``(j, i)`` is, and the search keeps to the half square
``i <= j``.  There the first feasible point in scan order is the
exhaustive grid minimum, with cost ties broken toward the smaller
``|c1 - c2|``, then the smaller ``c1``.

A point *dominates* another when its force and its resistance are both at
least as large, and its force is finite unless both forces are infinite.
It then weighs at least as much under every pair of nonnegative weights,
because ``a*f + b*r`` rounds monotonically in each term; the exception,
which the guard rules out, is an infinite force, which weighs NaN under
``a = 0``.  The *frontier* of a grid and wiring is the list of strong points
(force ``>= 1``) of the half square that no earlier point dominates, in
scan order.  A strong point left out has an earlier frontier point that
dominates it, and so is feasible only if that point is: the first feasible
frontier point is the first feasible point of the half square.  A call
weighs the frontier with the model's ``_weigh`` and returns its first point
at or above 1.  It weighs the frontier's *head*, its first point, alone
and on Python floats; when the head is feasible it is the answer, and the
call returns the one result the build made for it, weighing no array.  Only
the other calls weigh the frontier's arrays.  Python's float ``*`` and ``+``
round as numpy's float64 ones do, so the two paths decide a point alike.
The head answers 154 of the default campaign's 200 parallel calls and 176
of its 200 serial ones.

A frontier depends on the grid and the wiring alone, so it is built once;
one per wiring is kept, for the last grid searched.  The build need not
find every dominated point, since one it keeps costs a call a little work,
not a wrong answer.  It drops each point that one of the ``_NEIGHBOURS``
points just before it in its run dominates, and then each point whose
force and resistance equal an earlier one's.  Force is non-decreasing and
resistance non-increasing in each limit, in rounded arithmetic (the model's
monotonicity contract), so a row whose force is equal at both ends has
constant force, and each of its points after ``(i, i)`` is dominated by
``(i, i)``; the build evaluates none of them.  Every serial row is such a
row, so a serial build evaluates a few points a row, and a parallel one
the whole half square in runs of whole diagonals of at most ``_CHUNK``
points, each point once: beyond the frontier, its memory is one run and a
few values a row.  The build compares no point with its column predecessor
``(i, j - 1)``: along a row of rising force, that point's force is the
smaller, so it dominates nothing there.

The constraints are evaluated on numpy arrays by the scalar spec's own
formulas, the private ``_force``, ``_resistance`` and ``_weigh`` of
:mod:`twospring.model`, which take floats and arrays alike.  On arrays,
overflow saturates to ``inf`` and underflow rounds toward zero without a
warning, as Python floats do, whatever numpy error state the caller set:
the formulas enter no error-state scope, and a build and a call each enter
one and call them inside it.

The search knows nothing about the one-variable reduction or the closed
form: no start point, bound or constant comes from the solver, and the
only module of the package this one imports is :mod:`twospring.model`.
That is what makes it usable as an independent check on the solver, which
:mod:`twospring.verify` performs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import SpringPair, Topology, Weights, _direct_init, _force, _resistance, _weigh, cost

__all__ = [
    "MAX_GRID_POINTS",
    "GridSpec",
    "OracleResult",
    "oracle_solve",
]


# read on every call: an enum member read off its class costs about 40 ns on Python 3.11
_SERIAL = Topology.SERIAL
# largest square a GridSpec may describe: 10**4 points per side
MAX_GRID_POINTS = 10**8
# most half-square points a frontier build evaluates at a time, to bound its memory
_CHUNK = 2**13
# points just before it in its run that a build compares each point with
_NEIGHBOURS = 2


def _dominates(f, r, f2, r2):
    """Where a point of force ``f`` and resistance ``r`` dominates one of
    force ``f2`` and resistance ``r2``: both terms at least as large, and
    the force finite unless both forces are infinite."""
    return (f >= f2) & (r >= r2) & ((f < math.inf) | (f2 == math.inf))


def _first_of_equal(f: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the points whose terms no earlier point has."""
    order = np.lexsort((r, f))  # a stable sort: equal terms stay in order
    f, r = f[order], r[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (f[1:] != f[:-1]) | (r[1:] != r[:-1])
    return np.sort(order[first])


def _merged(parts: list[tuple[np.ndarray, ...]]) -> list[tuple[np.ndarray, ...]]:
    """The parts of a frontier build, each column concatenated into one."""
    return [tuple(np.concatenate(column) for column in zip(*parts))]


@dataclass(frozen=True, slots=True)
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


@_direct_init
@dataclass(frozen=True, slots=True)
class OracleResult:
    """Cheapest feasible grid point, if any.

    ``truncated`` flags an argmin on the boundary of the search square, where
    the true optimum may lie outside the scanned area.
    """

    feasible: bool
    best_pair: SpringPair | None
    best_cost: float
    argmin_gap: float | None
    truncated: bool


class _Frontier(NamedTuple):
    """One wiring's frontier of a grid, in scan order (see :func:`_frontier`),
    and its head: the first point's force and resistance as floats, and its
    result.  An empty frontier's head weighs NaN, which fails ``>= 1``, and
    has no result."""

    axis: np.ndarray
    i: np.ndarray
    j: np.ndarray
    f: np.ndarray
    r: np.ndarray
    head_f: float
    head_r: float
    head: OracleResult | None


def _answer(axis: np.ndarray, i: int, j: int, last: int) -> OracleResult:
    """The result for grid point ``(i, j)``; ``last`` is the grid's last index."""
    pair = SpringPair(float(axis[i]), float(axis[j]))
    return OracleResult(
        feasible=True,
        best_pair=pair,
        best_cost=cost(pair),
        argmin_gap=abs(pair.c1 - pair.c2),
        truncated=j == last,
    )


@functools.lru_cache(maxsize=2)  # one frontier per wiring, for the last grid searched
def _frontier(c_max: float, step: float, serial: bool) -> _Frontier:
    """The frontier of the grid ``GridSpec(c_max, step)`` in the serial
    wiring, or else the parallel one: its points ``(i, j)``, their force
    ``f`` and resistance ``r``, and the grid's axis, in shared, read-only
    arrays, and the frontier's head.  The cache is keyed on two floats and
    a bool, which hash and compare in C, as a ``GridSpec`` and a
    ``Topology`` do not.

    The strong diagonal points ``(i, i)`` are built first.  Then the
    points with ``j > i`` of the rows whose force differs at their two
    ends, from the first such row's diagonals to the last one's, in runs
    of whole diagonals ``i + j = s`` of the half square, each as many as
    fit in ``_CHUNK`` points, one at least.  A run evaluates its points,
    each once, compares each with the ``_NEIGHBOURS`` before it in the
    run, and keeps the first of its survivors with equal terms.  The parts
    are merged in scan order, and again only the first point of equal
    terms is kept.  Beyond the frontier, the build holds one run and a few
    arrays of one value per row or diagonal.
    """
    g, k = GridSpec(c_max, step), Topology.SERIAL if serial else Topology.PARALLEL
    axis = g.axis()
    last = g.size - 1
    diagonal = np.arange(2 * last + 1)
    counts = diagonal // 2 - np.maximum(diagonal - last, 0) + 1  # half-square points per diagonal
    ends = np.cumsum(counts)  # laid out in scan order, diagonal s holds [starts[s], ends[s])
    starts = ends - counts
    with np.errstate(all="ignore"):  # the one error-state scope of a build
        f, r = _force(k, axis, axis, np.minimum), _resistance(k, axis, axis)
        (i,) = (f >= 1.0).nonzero()
        parts = [(i, i, f[i], r[i])]
        live = f != _force(k, axis, axis[last], np.minimum)  # rows whose force is not constant
        (rows,) = live.nonzero()
        # the diagonals from the first such row's first point with j > i to the last row's last point
        first, hi = (2 * rows[0] + 1, rows[-1] + last + 1) if rows.size else (0, 0)
        while first < hi:
            # a run of whole diagonals [first, stop): as many as fit in _CHUNK points, one at least
            stop = min(hi, max(first + 1, np.searchsorted(ends, starts[first] + _CHUNK, side="right")))
            s = np.repeat(diagonal[first:stop], counts[first:stop])
            i = s // 2 + starts[s] - np.arange(starts[first], ends[stop - 1])  # descending along each diagonal
            j = np.subtract(s, i, out=s)  # s is not needed again
            c1, c2 = axis[i], axis[j]
            f, r = _force(k, c1, c2, np.minimum), _resistance(k, c1, c2)
            keep = (f >= 1.0) & (j > i) & live[i]
            for d in range(1, _NEIGHBOURS + 1):  # the point d places earlier in scan order
                keep[d:] &= ~_dominates(f[:-d], r[:-d], f[d:], r[d:])
            (t,) = keep.nonzero()
            t = t[_first_of_equal(f[t], r[t])]
            parts.append((i[t], j[t], f[t], r[t]))
            if len(parts) == 64:  # a few arrays, not one a run
                parts = _merged(parts)
            first = stop
    ((i, j, f, r),) = _merged(parts)
    order = np.lexsort((-i, i + j))
    order = order[_first_of_equal(f[order], r[order])]
    i, j, f, r = i[order], j[order], f[order], r[order]
    for array in (axis, i, j, f, r):
        array.flags.writeable = False
    if not order.size:
        return _Frontier(axis, i, j, f, r, math.nan, math.nan, None)
    return _Frontier(axis, i, j, f, r, float(f[0]), float(r[0]), _answer(axis, int(i[0]), int(j[0]), last))


def oracle_solve(w: Weights, k: Topology, g: GridSpec) -> OracleResult:
    """Exhaustive minimum of ``c1 + c2`` over the grid, under both constraints.

    The first feasible point of the cached frontier of ``g`` in wiring
    ``k`` is the first feasible point of the half square ``i <= j`` in scan
    order.  The call weighs the frontier's head on floats first, and when
    it is feasible returns the head's result, one frozen result shared by
    every such call; otherwise one weighing of the frontier's arrays and one
    search (``argmax``) find the point.  Cost ties are so broken toward the
    smaller ``|c1 - c2|``, then the smaller ``c1``: the largest feasible
    ``i`` with ``2 * i <= s`` on the cheapest feasible diagonal ``s``,
    decided on integer grid indices.
    """
    axis, i, j, f, r, head_f, head_r, head = _frontier(g.c_max, g.step, k is _SERIAL)
    if _weigh(w, head_f, head_r) >= 1.0:
        return head
    with np.errstate(all="ignore"):  # the one error-state scope of a call
        ok = _weigh(w, f, r) >= 1.0
    n = int(ok.argmax()) if ok.size else 0
    if n == ok.size or not ok[n]:
        return OracleResult(False, None, math.inf, None, False)
    return _answer(axis, int(i[n]), int(j[n]), g.size - 1)
