"""Array twins of the closed form and the region rules, and the sweep's rows.

The scalar modules :mod:`twospring.solver` and :mod:`twospring.regions`
answer one weight pair on Python floats and are the reference; this module
answers whole weight grids with numpy, for ``twospring sweep``, its only
caller.  :func:`total_cost_grid` is the array twin of the scalar kernel
``solver._reduced``: it makes the same branch tests in the same order and
evaluates the root with the same operations, so every cost it returns
equals the scalar one bit for bit (``math.sqrt`` and ``np.sqrt`` are both
correctly rounded, and numpy does not fuse multiply-adds).
:func:`winner_grid`, built on it, is the array twin of
:func:`~twospring.regions.winner`, with the same predicates in the same
order, so it reports the same labels, winners and costs: its bands, like
the scalar ones, are read from the kernel's strength branches, which
:func:`total_cost_grid` returns with the costs.  The kernel silences
numpy's floating-point errors in one ``np.errstate(all="ignore")`` scope,
so overflow saturates to ``inf`` as in Python floats, whatever error state
the caller set.

:func:`sweep_rows` computes and formats the rows of a sweep a chunk at a
time: one :func:`winner_grid` call per chunk, and one ``"".join`` that
builds the chunk's text as a single string.  The costs 1.0, 2.0 and ``inf``
take their text from a table and every other cost is formatted with
``repr`` where it occurs; the ``a`` axis is formatted once per sweep when a
row fits in a chunk.  The window comes as a
:class:`~twospring.regions.SweepSpec`, checked without numpy before this
module loads.  ``sweep_cli`` imports this module only when a sweep runs, so
the commands that answer one weight pair, and ``boundaries``, never load
numpy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .model import Topology
from .regions import RegionLabel, SweepSpec, Winner

__all__ = ["total_cost_grid", "winner_grid", "sweep_rows"]

# "region,winner," text at index region * len(Winner) + best of winner_grid's codes
_PAIR_TEXT = np.array([f"{r.value},{w.value}," for r in RegionLabel for w in Winner], dtype=object)
# the text slots of one sweep cell: "a,", "b,", "region,winner,", the
# parallel cost, ",", the serial cost and the row's newline
_CELL = [None, None, None, None, ",", None, "\n"]
# about three quarters of the costs of the default sweep are one of these
_COST_TEXT = ((1.0, "1.0"), (2.0, "2.0"), (math.inf, "inf"))


def total_cost_grid(a: np.ndarray, b: np.ndarray, k: Topology) -> tuple[np.ndarray, np.ndarray]:
    """The scalar kernel's ``total_cost`` and strength branch
    (``_reduced(a, b, k)[1]`` and ``_reduced(a, b, k)[2] is STRENGTH_BOUND``)
    at every pair of two equal-shape float64 arrays of nonnegative weights.

    Returns ``(cost, strength)``.  Branches exactly as :func:`_reduced`, its
    scalar reference: ``a == 0`` first, then the sign of ``a + k*b - 1``;
    the root is computed only where that branch is taken, with the scalar
    expression's operation order.
    """
    kk = float(k.k)
    cost = np.full(a.shape, kk)
    # overflow to inf (huge b, subnormal a) and underflow are silent, as in Python floats
    with np.errstate(all="ignore"):
        zero = a == 0.0
        infeasible = zero & ~(kk * b >= 1.0)
        cost[infeasible] = math.inf
        root = ~zero & (a + kk * b - 1.0 < 0.0)
        ar, br = a[root], b[root]
        cost[root] = kk * ((1.0 + np.sqrt(1.0 - 4.0 * kk * ar * br)) / (2.0 * ar))
    return cost, ~(infeasible | root)


def winner_grid(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`winner` at every pair of two equal-shape float64 weight arrays.

    Returns ``(region, best, cost_parallel, cost_serial)``: ``region`` holds
    indices into ``tuple(RegionLabel)`` and ``best`` indices into
    ``tuple(Winner)``, so ``tuple(Winner)[best[i]]`` is ``winner(w).winner``
    at the ``i``-th pair.  The first condition that holds picks each code,
    in the order of the scalar tests; the bands come from the kernel's
    strength branches, as in :func:`winner`.
    """
    labels, winners = list(RegionLabel), list(Winner)
    cost_p, strength_p = total_cost_grid(a, b, Topology.PARALLEL)
    cost_s, strength_s = total_cost_grid(a, b, Topology.SERIAL)
    region = np.select(
        [~strength_s, strength_p, cost_p > 2.0],
        [labels.index(RegionLabel.A), labels.index(RegionLabel.C), labels.index(RegionLabel.B2)],
        labels.index(RegionLabel.B1),
    )
    best = np.select(
        [np.isinf(cost_p) & np.isinf(cost_s), cost_p < cost_s, cost_s < cost_p],
        [
            winners.index(Winner.BOTH_INFEASIBLE),
            winners.index(Winner.PARALLEL),
            winners.index(Winner.SERIAL),
        ],
        winners.index(Winner.TIE),
    )
    return region, best, cost_p, cost_s


def _texts(values: np.ndarray, end: str = "") -> list[str]:
    """``repr`` of each float of ``values``, followed by ``end``."""
    texts = list(map(repr, values.tolist()))
    return [text + end for text in texts] if end else texts


def _cost_texts(costs: np.ndarray) -> list[str]:
    """``repr`` of each cost; the common values 1.0, 2.0 and inf come from a table."""
    text = np.empty(costs.shape, dtype=object)
    other = np.ones(costs.shape, dtype=bool)
    for value, value_text in _COST_TEXT:
        is_value = costs == value
        text[is_value] = value_text
        other &= ~is_value
    text[other] = _texts(costs[other])
    return text.tolist()


def sweep_rows(spec: SweepSpec, chunk: int) -> Iterator[str]:
    """CSV rows of a sweep, without the header, in row-major order (b outer,
    a inner), in strings of at most ``chunk`` rows joined by newlines, with
    no newline after the last.

    Each chunk is one :func:`winner_grid` call on its own samples, taken from
    the two axes; every operation is elementwise, so any chunking gives the
    same bytes.  A chunk may begin and end inside a row of ``b``.  The ``a``
    axis is formatted once per sweep when a row fits in a chunk, and with
    each chunk otherwise, so memory stays bounded by the chunk.
    """
    na, cells = spec.na, spec.na * spec.nb
    a_axis = np.linspace(spec.a_min, spec.a_max, na)
    b_axis = np.linspace(spec.b_min, spec.b_max, spec.nb)
    # "a," texts from any column on, for a chunk of whole or partial rows
    a_run = _texts(a_axis, ",") * (chunk // na + 2) if na <= chunk else None
    for start in range(0, cells, chunk):
        yield _rows(a_axis, b_axis, a_run, start, min(start + chunk, cells))


def _rows(a_axis: np.ndarray, b_axis: np.ndarray, a_run: list[str] | None, start: int, stop: int) -> str:
    """Cells ``start`` to ``stop`` of a sweep as one string of rows.

    The string is one ``"".join`` over seven slots per cell (see ``_CELL``),
    each column put in place by one slice assignment.  The ``a`` texts come
    from ``a_run`` (the axis's texts, repeated) or, if it is ``None``, are
    formatted here; each ``b`` sample of the chunk is formatted once.  The
    chunk's arrays and lists are freed when this returns, before the string
    is written.
    """
    b_index, a_index = np.divmod(np.arange(start, stop), a_axis.size)
    a, b = a_axis[a_index], b_axis[b_index]
    region, best, cost_p, cost_s = winner_grid(a, b)
    first_b, offset = int(b_index[0]), int(a_index[0])
    b_texts = np.array(_texts(b_axis[first_b : int(b_index[-1]) + 1], ","), dtype=object)
    parts = _CELL * a.size
    parts[0::7] = _texts(a, ",") if a_run is None else a_run[offset : offset + a.size]
    parts[1::7] = b_texts[b_index - first_b].tolist()
    parts[2::7] = _PAIR_TEXT[region * len(Winner) + best].tolist()
    parts[3::7] = _cost_texts(cost_p)
    parts[5::7] = _cost_texts(cost_s)
    parts[-1] = ""  # no newline after the chunk's last row
    return "".join(parts)
