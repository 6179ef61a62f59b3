"""Tests for the brute-force grid oracle and the agreement checker."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_kernel import feasible
from value_contract import assert_value_contract

from twospring import oracle as oracle_module
from twospring import verify as verify_module
from twospring.model import SpringPair, Topology, Weights, cost
from twospring.oracle import GridSpec, OracleResult, oracle_solve
from twospring.solver import solve_reduced
from twospring.verify import VerificationVerdict, verify_reduction

P = Topology.PARALLEL
S = Topology.SERIAL
DEFAULT_GRID = GridSpec(6.0, 0.005)
# a grid whose parallel force overflows near its top corner: 1e308 + 1e308
OVERFLOW_GRID = GridSpec(1e308, 1e306)
EDGE_FLOATS = st.sampled_from([0.0, 5e-324, 1e308])


def full_square_scan(w, k, g):
    """Reference oracle: evaluate the whole square, keep the cheapest diagonal."""
    axis = g.axis()
    ii, jj = np.nonzero(feasible(w, k, axis[:, None], axis[None, :]))
    if ii.size == 0:
        return OracleResult(False, None, math.inf, None, False, axis.size**2)
    sums = ii + jj
    cheapest = sums.min()
    ii = ii[sums == cheapest]
    jj = jj[sums == cheapest]
    gaps = np.abs(ii - jj)
    i = int(ii[gaps == gaps.min()].min())
    j = int(cheapest) - i
    pair = SpringPair(float(axis[i]), float(axis[j]))
    last = axis.size - 1
    return OracleResult(
        feasible=True,
        best_pair=pair,
        best_cost=cost(pair),
        argmin_gap=abs(pair.c1 - pair.c2),
        truncated=(i == last or j == last),
        points_scanned=axis.size**2,
    )


def assert_same_as_full_scan(w, k, g, ref=None):
    got = oracle_solve(w, k, g)
    ref = ref or full_square_scan(w, k, g)
    assert (got.feasible, got.best_pair, got.best_cost, got.argmin_gap, got.truncated) == (
        ref.feasible,
        ref.best_pair,
        ref.best_cost,
        ref.argmin_gap,
        ref.truncated,
    )
    assert 0 < got.points_scanned <= ref.points_scanned
    if not got.feasible:
        assert got.points_scanned == ref.points_scanned
    return got


class TestGridSpec:
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0)
        with pytest.raises(ValueError):
            GridSpec(1.0, -0.1)
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0)

    @pytest.mark.parametrize(
        "c_max,step",
        [(math.inf, 0.005), (6.0, math.inf), (math.nan, 0.005), (6.0, math.nan), (math.inf, math.inf)],
    )
    def test_rejects_non_finite(self, c_max, step):
        with pytest.raises(ValueError):
            GridSpec(c_max, step)

    @pytest.mark.parametrize("step", [1e-4, 1e-5, 1e-320])
    def test_rejects_grids_above_point_cap(self, step):
        # 1.0 / 1e-4 gives 10001 points per side, one row over the cap
        with pytest.raises(ValueError, match="exceeds"):
            GridSpec(1.0, step)

    def test_size_is_axis_length(self):
        assert GridSpec(0.5, 1e-4).size == 5001
        for c_max, step in [(6.0, 0.005), (1.0, 0.3), (0.5, 0.5), (3.0, 0.07)]:
            g = GridSpec(c_max, step)
            assert g.size == g.axis().size
            assert g.size**2 <= oracle_module.MAX_GRID_POINTS

    def test_axis_covers_square_inclusively(self):
        axis = GridSpec(6.0, 0.005).axis()
        assert axis[0] == 0.0
        assert float(axis[-1]) == 6.0
        assert axis.size == 1201
        assert float(axis[200]) == 1.0  # the strength bound lands on the grid

    @pytest.mark.parametrize(
        "c_max,step,last",
        [(0.3, 0.1, 0.30000000000000004), (0.7, 0.1, 0.7000000000000001), (1.0, 0.013, 0.988)],
    )
    def test_last_point_is_size_minus_one_steps(self, c_max, step, last):
        """The axis ends at ``(size - 1) * step``: above ``c_max`` where the
        product rounds up, short of it where the ratio is not whole."""
        g = GridSpec(c_max, step)
        assert float(g.axis()[-1]) == (g.size - 1) * step == last


class TestOracleSolve:
    def test_parallel_equal_split_tiebreak(self):
        res = oracle_solve(Weights(1.0, 1.0), P, GridSpec(3.0, 0.01))
        assert res.feasible
        assert res.best_cost == 1.0
        assert (res.best_pair.c1, res.best_pair.c2) == (0.5, 0.5)
        assert res.argmin_gap == 0.0
        assert not res.truncated

    def test_serial_optimum_on_diagonal(self):
        res = oracle_solve(Weights(0.2, 0.2), S, GridSpec(6.0, 0.005))
        assert res.best_cost == pytest.approx(9.1231, abs=0.02)
        assert res.argmin_gap <= 0.005
        assert res.best_pair.c1 == pytest.approx(4.565, abs=1e-12)

    def test_infeasible_weights(self):
        res = oracle_solve(Weights(0.0, 0.3), P, GridSpec(6.0, 0.01))
        assert not res.feasible
        assert res.best_pair is None
        assert res.best_cost == math.inf
        assert res.argmin_gap is None

    def test_odd_diagonal_tiebreak(self):
        # parallel force is (i + j) * 0.125 exactly, so the whole cheapest
        # diagonal s = 25 is feasible; the closest split to c1 = c2 has
        # i = 12 and j = 13, one step apart, and the smaller c1 comes first
        w, g = Weights(0.3, 0.2), GridSpec(8.0, 0.125)
        res = assert_same_as_full_scan(w, P, g)
        assert res.best_cost == 25 * g.step
        assert res.best_pair == SpringPair(12 * g.step, 13 * g.step)
        assert res.argmin_gap == g.step
        assert res.best_pair.c1 < res.best_pair.c2

    def test_boundary_argmin_is_flagged_truncated(self):
        # closed-form optimum 3.1196... just inside the corner reach 3.2
        res = oracle_solve(Weights(0.3, 0.2), P, GridSpec(1.6, 0.1))
        assert res.feasible
        assert res.best_pair == oracle_module.SpringPair(1.6, 1.6)
        assert res.truncated

    def test_deterministic(self):
        first = oracle_solve(Weights(0.7, 0.4), P, GridSpec(3.0, 0.02))
        second = oracle_solve(Weights(0.7, 0.4), P, GridSpec(3.0, 0.02))
        assert first == second

    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(31)
        grid = GridSpec(6.0, 0.02)
        for a, b in rng.uniform(0.0, 1.5, size=(30, 2)):
            w = Weights(float(a), float(b))
            for k in (P, S):
                closed = solve_reduced(w, k)
                scanned = oracle_solve(w, k, grid)
                if closed.feasible and scanned.feasible:
                    assert scanned.best_cost >= closed.total_cost - 1e-9
                    slack = 2.0 * grid.step * (1.0 + w.a + k.k * w.b)
                    assert scanned.best_cost - closed.total_cost <= slack

    def test_serial_argmin_near_diagonal(self):
        rng = np.random.default_rng(32)
        grid = GridSpec(6.0, 0.02)
        for a, b in rng.uniform(0.0, 1.5, size=(20, 2)):
            res = oracle_solve(Weights(float(a), float(b)), S, grid)
            if res.feasible:
                assert res.argmin_gap <= grid.step + 1e-12


# (c_max, step): a 2x2 grid, ratios that do not divide evenly, and sizes
# around small block widths
PARITY_GRIDS = [(0.5, 0.5), (1.0, 0.3), (2.0, 0.07), (1.6, 0.1), (3.0, 0.1), (6.0, 0.05)]
PARITY_WIDTHS = [1, 2, 3, 7, 16, 31, 32, 33, 64]
# tile widths around the serial default and one wider than any row, as in parallel
PARITY_TILES = [1, 2, 3, 31, 32, 33, 63, 64, 65, 10**6]
# weights with an empty scan, a feasible corner, a truncated argmin, and an
# optimum at force and performance exactly 1 (serial (1, 1) under 0.5, 0.25)
TILE_WEIGHTS = [
    Weights(0.0, 0.3),
    Weights(0.1, 0.05),
    Weights(1.0, 1.0),
    Weights(0.3, 0.2),
    Weights(0.2, 0.2),
    Weights(0.5, 0.25),
    Weights(1.0, 0.0),
]


class TestFullScanParity:
    """The cost-ordered scan returns what the full-square scan returns, at
    each wiring's own block shape and at others patched into ``BLOCK_SHAPES``."""

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.one_of(st.floats(0.0, 1.5), EDGE_FLOATS),
        b=st.one_of(st.floats(0.0, 1.5), EDGE_FLOATS),
        k=st.sampled_from([P, S]),
        grid=st.sampled_from([OVERFLOW_GRID, *(GridSpec(*grid) for grid in PARITY_GRIDS)]),
    )
    def test_production_shapes_match_full_scan(self, a, b, k, grid):
        assert_same_as_full_scan(Weights(a, b), k, grid)

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(0.0, 1.5),
        b=st.floats(0.0, 1.5),
        k=st.sampled_from([P, S]),
        grid=st.sampled_from(PARITY_GRIDS),
        width=st.sampled_from(PARITY_WIDTHS),
        tile=st.sampled_from(PARITY_TILES),
    )
    def test_matches_full_scan(self, a, b, k, grid, width, tile):
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(oracle_module.BLOCK_SHAPES, k, (width, tile))
            assert_same_as_full_scan(Weights(a, b), k, GridSpec(*grid))

    @pytest.mark.parametrize("tile", PARITY_TILES)
    def test_every_tile_width_on_every_grid_and_block_width(self, tile, monkeypatch):
        for grid in PARITY_GRIDS:
            g = GridSpec(*grid)
            for w in TILE_WEIGHTS:
                for k in (P, S):
                    ref = full_square_scan(w, k, g)
                    for width in PARITY_WIDTHS:
                        monkeypatch.setitem(oracle_module.BLOCK_SHAPES, k, (width, tile))
                        assert_same_as_full_scan(w, k, g, ref)

    @pytest.mark.parametrize(
        "a,b",
        [
            (0.0, 0.7),  # a = 0
            (0.8, 0.0),  # b = 0
            (0.0, 0.0),
            (0.5, 0.25),  # a + 2b = 1
            (0.2, 0.4),  # a + 2b = 1
            (0.3, 0.7),  # a + b = 1
            (0.4, 0.4),  # b = 2 - 4a
            (0.35, 0.6),  # b = 2 - 4a
            (1.0, 1.0),
            (0.2, 0.2),
        ],
    )
    @pytest.mark.parametrize("k", [P, S])
    def test_fixed_cases_on_default_grid(self, a, b, k):
        assert_same_as_full_scan(Weights(a, b), k, DEFAULT_GRID)

    @pytest.mark.parametrize(
        "w,k,width",
        [
            # parallel points are strong from diagonal 200 (c1 + c2 >= 1) on,
            # serial ones from diagonal 400 (min(c1, c2) >= 1); each wiring
            # keeps its own tile width
            (Weights(1.0, 1.0), P, 32),  # 200 inside block [192, 224), feasible there
            (Weights(1.0, 1.0), P, 8),  # 200 opens a block, at the parallel shape
            (Weights(1.0, 1.0), P, 201),  # 200 closes block [0, 201)
            (Weights(0.2, 0.2), P, 40),  # 200 opens a block, feasible blocks later
            (Weights(1.0, 1.0), S, 32),  # 400 inside block [384, 416)
            (Weights(1.0, 1.0), S, 16),  # 400 opens a block
            (Weights(0.0, 0.7), S, 25),  # a = 0; 400 opens a block
            (Weights(0.2, 0.2), S, 401),  # 400 closes block [0, 401), feasible later
        ],
    )
    def test_first_strong_diagonal_inside_or_on_block_edge(self, w, k, width, monkeypatch):
        monkeypatch.setitem(oracle_module.BLOCK_SHAPES, k, (width, oracle_module.BLOCK_SHAPES[k][1]))
        assert_same_as_full_scan(w, k, DEFAULT_GRID)

    def test_truncated_argmin(self):
        res = assert_same_as_full_scan(Weights(0.3, 0.2), P, GridSpec(1.6, 0.1))
        assert res.truncated

    @pytest.mark.parametrize("w,k", [(Weights(0.0, 0.3), P), (Weights(0.1, 0.05), S)])
    def test_empty_scan(self, w, k):
        res = assert_same_as_full_scan(w, k, DEFAULT_GRID)
        assert not res.feasible


class TestPointsScanned:
    def test_cost_one_parallel_scans_a_corner(self):
        res = oracle_solve(Weights(1.0, 1.0), P, DEFAULT_GRID)
        assert res.best_cost == 1.0
        assert res.points_scanned < 0.05 * DEFAULT_GRID.size**2

    def test_empty_scan_covers_the_square(self):
        res = oracle_solve(Weights(0.0, 0.3), P, DEFAULT_GRID)
        assert not res.feasible
        assert res.points_scanned == 1201**2

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_points_below_counts_lower_triangles(self, size):
        for t in range(2 * size):
            expected = sum(1 for i in range(size) for j in range(size) if i + j < t)
            assert oracle_module._points_below(t, size) == expected

    def test_empty_scan_memory_is_bounded(self):
        w = Weights(0.0, 0.3)
        oracle_solve(w, P, DEFAULT_GRID)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            oracle_solve(w, P, DEFAULT_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTilePruning:
    @pytest.mark.parametrize(
        "w,k",
        [
            (Weights(0.0, 0.3), P),  # empty
            (Weights(0.1, 0.05), S),  # empty
            (Weights(0.2, 0.2), S),  # feasible past nine tenths of the square
        ],
    )
    def test_far_scans_evaluate_a_small_share(self, w, k, monkeypatch):
        evaluated = []
        kernel = oracle_module._feasible  # the name the scan calls

        def counting(w, k, c1, c2):
            evaluated.append(np.broadcast(c1, c2).size)
            return kernel(w, k, c1, c2)

        monkeypatch.setattr(oracle_module, "_feasible", counting)
        res = oracle_solve(w, k, DEFAULT_GRID)
        # the scan still decides the points it skips
        assert res.points_scanned > 0.85 * DEFAULT_GRID.size**2
        assert sum(evaluated) < 0.05 * DEFAULT_GRID.size**2
        # the patch sees the blocks a feasible scan evaluates; the empty
        # scans are decided by the bound alone
        assert (sum(evaluated) > 0) == res.feasible

    def test_scans_evaluate_about_one_block(self, monkeypatch):
        """Each tile is bounded by its own points, so a scan rarely evaluates
        a block before the one that holds the answer, and it evaluates only
        the half of each block at ``i <= (s0 + width - 1) // 2``.  On these
        pairs that gives 1.02 blocks and 1,075 points per parallel call, in
        one-tile blocks of 8 diagonals, and 0.99 blocks and 527 points per
        serial call, in 32 x 32 tiles.  Parallel blocks of 32 x 32 tiles
        gave 1.025 blocks and 4,528 points; whole serial diagonals give
        1,068 points, and a bound over each tile's bounding box 1.045 serial
        blocks.  A block with no column left to evaluate is skipped, not
        passed to the kernel empty."""
        blocks, points = [], []
        kernel = oracle_module._feasible

        def counting(w, k, c1, c2):
            size = np.broadcast(c1, c2).size
            assert size > 0
            blocks[-1] += 1
            points[-1] += size
            return kernel(w, k, c1, c2)

        monkeypatch.setattr(oracle_module, "_feasible", counting)
        pairs = np.random.default_rng(0).uniform(0.0, 1.5, (400, 2)).tolist()
        for k, max_blocks, max_points in [(P, 1.05, 1_200), (S, 1.05, 600)]:
            blocks.clear()
            points.clear()
            for a, b in pairs:
                blocks.append(0)
                points.append(0)
                oracle_solve(Weights(a, b), k, DEFAULT_GRID)
            assert np.mean(blocks) <= max_blocks
            assert np.mean(points) <= max_points

    def test_each_call_weighs_the_strong_terms_once(self, monkeypatch):
        """A call weighs the strong tiles' cached terms in one call of
        ``_weigh``, 276 parallel and 1,062 serial ones on the default grid,
        and makes no other call of it but the kernel's own, one a block.
        Over the pairs above the kernel's work is exactly that of the scan
        that weighed every tile slot: 408 blocks and 429,888 points in
        parallel, 1.02 and 1,075 a call, and 397 blocks and 210,656 points
        in series, 0.99 and 527 a call."""
        weigh, kernel = oracle_module._weigh, oracle_module._feasible
        weighed, evaluated = [], []

        def counting_weigh(w, f, r):
            weighed.append((f, r))
            return weigh(w, f, r)

        def counting_kernel(w, k, c1, c2):  # its own weighing reads the patched name
            evaluated.append(np.broadcast(c1, c2).size)
            return kernel(w, k, c1, c2)

        monkeypatch.setattr(oracle_module, "_weigh", counting_weigh)
        monkeypatch.setattr(oracle_module, "_feasible", counting_kernel)
        pairs = np.random.default_rng(0).uniform(0.0, 1.5, (400, 2)).tolist()
        for k, strong, blocks, points in [(P, 276, 408, 429_888), (S, 1_062, 397, 210_656)]:
            layout = scan_layout(DEFAULT_GRID, k)
            assert layout.f_hi.size == strong
            evaluated.clear()
            for a, b in pairs:
                weighed.clear()
                calls = len(evaluated)
                oracle_solve(Weights(a, b), k, DEFAULT_GRID)
                assert [(f is layout.f_hi, r is layout.r_lo) for f, r in weighed].count((True, True)) == 1
                assert len(weighed) == 1 + len(evaluated) - calls
            assert (len(evaluated), sum(evaluated)) == (blocks, points)



def scan_layout(g, k):
    """The layout a scan of ``g`` in wiring ``k`` reads, at the wiring's current block shape."""
    return oracle_module._layout(g, k, *oracle_module.BLOCK_SHAPES[k])


def slot_shape(g, width, tile):
    """Number of blocks, and of tile slots per block, in a scan of ``g``."""
    last = g.size - 1
    return 2 * last // width + 1, last // tile + 1


def tile_of(i, j, g, width, tile):
    """Block and tile of the grid points ``(i, j)`` in a scan of ``g``."""
    block = (i + j) // width
    column = np.minimum(block * width + width - 1, g.size - 1) - i
    return block, column // tile


def brute_force_terms(k, g, width, tile):
    """The largest force and resistance over each tile's own points, and the
    number of points per tile, by visiting every point of the square."""
    axis = g.axis()
    shape = slot_shape(g, width, tile)
    f_max, r_max, count = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=int)
    for lo in range(0, g.size, 64):  # 64 rows of the square at a time
        i, j = np.meshgrid(np.arange(lo, min(lo + 64, g.size)), np.arange(g.size), indexing="ij")
        where = tile_of(i, j, g, width, tile)
        # force and resistance are nonnegative, so the zeros are neutral
        with np.errstate(all="ignore"):  # the oracle's own scope
            np.maximum.at(f_max, where, oracle_module._force(k, axis[i], axis[j], np.minimum))
            np.maximum.at(r_max, where, oracle_module._resistance(k, axis[i], axis[j]))
        np.add.at(count, where, 1)
    return f_max, r_max, count


def grid_tiles(g, width, tile):
    """Mask of the (block, tile) slots that hold a point of the square ``g``."""
    tiles = np.zeros(slot_shape(g, width, tile), dtype=bool)
    i, j = np.meshgrid(np.arange(g.size), np.arange(g.size), indexing="ij")
    tiles[tile_of(i, j, g, width, tile)] = True
    return tiles


def scan_keep(w, k, g):
    """The tiles the scan of ``g`` keeps for ``w``, as a (block, tile) mask:
    the layout's strong tiles that its weighing of their cached terms does
    not rule out, in the scan's error-state scope."""
    layout = scan_layout(g, k)
    width, tile = oracle_module.BLOCK_SHAPES[k]
    with np.errstate(all="ignore"):
        kept = ~(oracle_module._weigh(w, layout.f_hi, layout.r_lo) < 1.0)
    keep = np.zeros(slot_shape(g, width, tile), dtype=bool)
    keep[layout.blocks[kept], layout.columns[kept] // tile] = True
    return keep


# each wiring's block shape, the parallel one-tile and the serial 32 x 32,
# and a narrow one of several tiles, each tried in both wirings
LAYOUT_SHAPES = [*dict.fromkeys(oracle_module.BLOCK_SHAPES.values()), (8, 5)]
BOUND_GRIDS = [DEFAULT_GRID, OVERFLOW_GRID, *(GridSpec(*grid) for grid in PARITY_GRIDS)]


class TestCachedBound:
    """The weight-free half of the tile bound, cached with the layout for
    the strong tiles alone."""

    @pytest.mark.parametrize("shape", LAYOUT_SHAPES)
    @pytest.mark.parametrize("k", [P, S])
    @pytest.mark.parametrize("g", BOUND_GRIDS, ids=lambda g: f"{g.c_max!r}-{g.step!r}")
    def test_terms_are_the_largest_over_each_tiles_own_points(self, g, k, shape, monkeypatch):
        monkeypatch.setitem(oracle_module.BLOCK_SHAPES, k, shape)
        layout = scan_layout(g, k)
        f_max, r_max, count = brute_force_terms(k, g, *shape)
        strong = ~(f_max < 1.0) & (count > 0)
        assert layout.f_hi.shape == layout.r_lo.shape == layout.blocks.shape == layout.columns.shape
        assert layout.ends.shape == layout.f_hi.shape
        # the strong tiles, in scan order, and the end of each block's run
        assert np.array_equal(layout.columns % shape[1], np.zeros_like(layout.columns))
        where = (layout.blocks, layout.columns // shape[1])
        assert np.array_equal(np.ravel_multi_index(where, strong.shape), np.flatnonzero(strong))
        assert np.array_equal(layout.ends, np.cumsum(strong.sum(axis=1))[layout.blocks])
        assert np.array_equal(layout.f_hi, f_max[where])
        assert np.array_equal(layout.r_lo, r_max[where])

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.one_of(st.floats(0.0, 1.5), EDGE_FLOATS),
        b=st.one_of(st.floats(0.0, 1.5), EDGE_FLOATS),
        k=st.sampled_from([P, S]),
        g=st.sampled_from(BOUND_GRIDS[1:]),  # the small ones
        shape=st.sampled_from([*LAYOUT_SHAPES, (1, 1), (3, 2), (7, 64)]),
    )
    def test_keeps_every_tile_with_a_feasible_point(self, a, b, k, g, shape):
        w = Weights(a, b)
        axis = g.axis()
        i, j = np.nonzero(feasible(w, k, axis[:, None], axis[None, :]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(oracle_module.BLOCK_SHAPES, k, shape)
            keep = scan_keep(w, k, g)
        assert not (keep & ~grid_tiles(g, *shape)).any()
        assert keep[tile_of(i, j, g, *shape)].all()

    @pytest.mark.parametrize("b", [0.0, 0.3, 1e308])
    def test_nan_bound_keeps_the_tile(self, b):
        layout = scan_layout(OVERFLOW_GRID, P)
        assert oracle_module.BLOCK_SHAPES[P][1] >= OVERFLOW_GRID.size  # one tile per block
        overflowed = np.isinf(layout.f_hi)
        assert overflowed.any()
        # a = 0 times an infinite force is NaN, which rules nothing out
        keep = scan_keep(Weights(0.0, b), P, OVERFLOW_GRID)
        assert keep[layout.blocks[overflowed], 0].all()

    @pytest.mark.parametrize("k", [P, S])
    @pytest.mark.parametrize("g", [DEFAULT_GRID, OVERFLOW_GRID])
    def test_cached_arrays_are_read_only(self, g, k):
        layout = scan_layout(g, k)
        for array in layout:
            assert not array.flags.writeable
        # each strong tile starts inside its block
        width, last = oracle_module.BLOCK_SHAPES[k][0], g.size - 1
        s0 = layout.blocks * width
        assert (layout.columns <= np.minimum(s0 + width - 1, last) - np.maximum(s0 - last, 0)).all()


class TestLayoutCache:
    def test_each_wiring_builds_its_layout_once(self):
        """A campaign alternates the wirings on one grid; both layouts stay cached."""
        oracle_module._layout.cache_clear()
        pairs = np.random.default_rng(7).uniform(0.0, 1.5, (25, 2)).tolist()
        for a, b in pairs:
            for k in (P, S):
                oracle_solve(Weights(a, b), k, DEFAULT_GRID)
        info = oracle_module._layout.cache_info()
        assert (info.misses, info.hits) == (2, 48)

    def test_default_parallel_scan_uses_narrow_blocks(self):
        # diagonal 200, the first strong one, opens the 8-wide block [200, 208)
        res = oracle_solve(Weights(1.0, 1.0), P, DEFAULT_GRID)
        assert res.best_cost == 1.0
        assert res.points_scanned == oracle_module._points_below(208, DEFAULT_GRID.size)


class TestErrorState:
    """A scan runs in its own error-state scope and leaves the caller's alone."""

    @pytest.mark.parametrize(
        "w,g",
        [
            (Weights(1e308, 1e308), DEFAULT_GRID),
            (Weights(5e-324, 0.2), DEFAULT_GRID),
            (Weights(0.0, 0.0), DEFAULT_GRID),
            (Weights(0.0, 0.3), OVERFLOW_GRID),
            (Weights(1e308, 1e308), OVERFLOW_GRID),
            (Weights(5e-324, 0.2), OVERFLOW_GRID),
        ],
    )
    @pytest.mark.parametrize("k", [P, S])
    def test_raising_caller_sees_no_floating_point_error(self, w, g, k):
        oracle_module._layout.cache_clear()  # the first scan builds the layout
        with np.errstate(all="raise"):
            state = np.geterr()
            scanned = oracle_solve(w, k, g)
            assert np.geterr() == state
            verdict = verify_reduction(w, k, g, 0.01)
            assert np.geterr() == state
        assert verdict.oracle_cost == scanned.best_cost


class TestVerifyReduction:
    def test_parallel_agreement(self):
        verdict = verify_reduction(Weights(0.2, 0.2), P, GridSpec(6.0, 0.005), 0.01)
        assert verdict.agree
        assert verdict.status == "agree"
        assert abs(verdict.cost_gap) <= verdict.allowance

    def test_serial_agreement_with_diagonal_argmin(self):
        verdict = verify_reduction(Weights(0.3, 0.5), S, GridSpec(6.0, 0.005), 0.01)
        assert verdict.agree
        assert verdict.closed_cost == 2.0
        assert verdict.argmin_gap <= 0.005

    def test_matching_infeasibility(self):
        verdict = verify_reduction(Weights(0.0, 0.3), P, GridSpec(6.0, 0.01), 0.01)
        assert verdict.agree
        assert verdict.status == "agree-infeasible"

    @pytest.mark.parametrize("k", [P, S])
    def test_overflowing_optimum_agrees_as_infeasible(self, k):
        # the closed-form root overflows to inf: no design, not one beyond the grid
        verdict = verify_reduction(Weights(5e-324, 0.1), k, GridSpec(6.0, 0.05), 0.01)
        assert verdict.agree
        assert verdict.status == "agree-infeasible"
        assert not verdict.beyond_grid

    def test_optimum_beyond_grid_counts_as_agreement(self):
        # serial optimum 6.46... exceeds the diagonal reach of the square
        verdict = verify_reduction(Weights(0.15, 0.1), S, GridSpec(6.0, 0.01), 0.01)
        assert verdict.agree
        assert verdict.status == "agree-truncated"
        assert verdict.beyond_grid

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            verify_reduction(Weights(0.5, 0.5), P, GridSpec(1.0, 0.1), 0.0)

    def test_cost_mismatch_detected(self, monkeypatch):
        doctored = OracleResult(
            feasible=True,
            best_pair=oracle_module.SpringPair(2.0, 2.0),
            best_cost=4.0,
            argmin_gap=0.0,
            truncated=False,
        )
        monkeypatch.setattr(verify_module, "oracle_solve", lambda w, k, g: doctored)
        verdict = verify_module.verify_reduction(Weights(1.0, 1.0), P, GridSpec(6.0, 0.01), 0.01)
        assert not verdict.agree
        assert verdict.status == "cost-mismatch"
        assert verdict.cost_gap == pytest.approx(3.0)

    def test_split_mismatch_detected(self, monkeypatch):
        doctored = OracleResult(
            feasible=True,
            best_pair=oracle_module.SpringPair(0.9, 1.1),
            best_cost=2.0,
            argmin_gap=0.2,
            truncated=False,
        )
        monkeypatch.setattr(verify_module, "oracle_solve", lambda w, k, g: doctored)
        verdict = verify_module.verify_reduction(Weights(1.0, 1.0), S, GridSpec(6.0, 0.01), 0.01)
        assert not verdict.agree
        assert verdict.status == "split-mismatch"

    def test_feasibility_mismatch_detected(self, monkeypatch):
        empty = OracleResult(False, None, math.inf, None, False)
        monkeypatch.setattr(verify_module, "oracle_solve", lambda w, k, g: empty)
        # closed form is feasible well inside the reach, so an empty scan is a defect
        verdict = verify_module.verify_reduction(Weights(1.0, 1.0), P, GridSpec(6.0, 0.01), 0.01)
        assert not verdict.agree
        assert verdict.status == "feasibility-mismatch"

    def test_unexpected_witness_detected(self, monkeypatch):
        witness = OracleResult(
            feasible=True,
            best_pair=oracle_module.SpringPair(1.0, 1.0),
            best_cost=2.0,
            argmin_gap=0.0,
            truncated=False,
        )
        monkeypatch.setattr(verify_module, "oracle_solve", lambda w, k, g: witness)
        verdict = verify_module.verify_reduction(Weights(0.0, 0.3), P, GridSpec(6.0, 0.01), 0.01)
        assert not verdict.agree
        assert verdict.status == "feasibility-mismatch"

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_reduction(Weights(0.5, 0.5), P, GridSpec(1.0, 0.1), tol)


_EMPTY = OracleResult(False, None, math.inf, None, False)


def _witness(c1, c2):
    return OracleResult(True, SpringPair(c1, c2), c1 + c2, abs(c1 - c2), False)


# status -> (weights, wiring, doctored scan, the eight fields of the verdict);
# grid (6.0, 0.01) and tol 0.01 give the allowance 0.01 + 2 * 0.01
_TRUNCATED_COST = solve_reduced(Weights(0.15, 0.1), S).total_cost  # 12.9..., beyond the reach 6.0
_VERDICT_TABLE = {
    "agree": (
        Weights(1.0, 1.0), P, _witness(0.5, 0.51),
        (True, "agree", 1.0, 1.01, 1.01 - 1.0, 0.03, 0.010000000000000009, False),
    ),
    "agree-infeasible": (
        Weights(0.0, 0.3), P, _EMPTY,
        (True, "agree-infeasible", math.inf, math.inf, 0.0, 0.03, None, False),
    ),
    "agree-truncated": (
        Weights(0.15, 0.1), S, _EMPTY,
        (True, "agree-truncated", _TRUNCATED_COST, math.inf, math.inf, 0.03, None, True),
    ),
    "cost-mismatch": (
        Weights(1.0, 1.0), P, _witness(2.0, 2.0),
        (False, "cost-mismatch", 1.0, 4.0, 3.0, 0.03, 0.0, False),
    ),
    "split-mismatch": (
        Weights(1.0, 1.0), S, _witness(0.9, 1.1),
        (False, "split-mismatch", 2.0, 2.0, 0.0, 0.03, 0.20000000000000007, False),
    ),
    "feasibility-mismatch, empty scan": (
        Weights(1.0, 1.0), P, _EMPTY,
        (False, "feasibility-mismatch", 1.0, math.inf, math.inf, 0.03, None, False),
    ),
    "feasibility-mismatch, unexpected witness": (
        Weights(0.0, 0.3), P, _witness(1.0, 1.0),
        (False, "feasibility-mismatch", math.inf, 2.0, math.inf, 0.03, 0.0, False),
    ),
}


@pytest.mark.parametrize("case", sorted(_VERDICT_TABLE))
def test_verdict_fields_per_status(case, monkeypatch):
    """Every field of the verdict, for each status and both kinds of feasibility mismatch."""
    w, k, scanned, expected = _VERDICT_TABLE[case]
    monkeypatch.setattr(verify_module, "oracle_solve", lambda w, k, g: scanned)
    verdict = verify_module.verify_reduction(w, k, GridSpec(6.0, 0.01), 0.01)
    got = dataclasses.astuple(verdict)
    assert len(got) == 8
    assert got == expected
    assert [type(value) for value in got] == [type(value) for value in expected]


@pytest.mark.parametrize("cls", [OracleResult, VerificationVerdict])
def test_value_contract(cls):
    assert_value_contract(cls)
