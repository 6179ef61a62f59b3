"""Tests for the brute-force grid oracle and the agreement checker."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twospring import oracle as oracle_module
from twospring.model import SpringPair, Topology, Weights, cost, force_grid, multiperf_grid
from twospring.oracle import GridSpec, OracleResult, oracle_solve, verify_reduction
from twospring.solver import solve_reduced

P = Topology.PARALLEL
S = Topology.SERIAL
DEFAULT_GRID = GridSpec(6.0, 0.005)


def full_square_scan(w, k, g):
    """Reference oracle: evaluate the whole square, keep the cheapest diagonal."""
    axis = g.axis()
    c1 = axis[:, None]
    c2 = axis[None, :]
    feasible = (multiperf_grid(w, k, c1, c2) >= 1.0) & (force_grid(k, c1, c2) >= 1.0)
    ii, jj = np.nonzero(feasible)
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


def assert_same_as_full_scan(w, k, g):
    got = oracle_solve(w, k, g)
    ref = full_square_scan(w, k, g)
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

    def test_boundary_argmin_is_flagged_truncated(self):
        # closed-form optimum 3.1196... just inside the corner reach 3.2
        res = oracle_solve(Weights(0.3, 0.2), P, GridSpec(1.6, 0.1))
        assert res.feasible
        assert res.best_pair == oracle_module.SpringPair(1.6, 1.6)
        assert res.truncated

    def test_independent_of_the_solver(self, monkeypatch):
        def no_solver(*args):
            raise AssertionError("oracle_solve called the closed form")

        monkeypatch.setattr(oracle_module, "solve_reduced", no_solver)
        for k in (P, S):
            assert oracle_solve(Weights(0.2, 0.2), k, GridSpec(6.0, 0.05)).feasible

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


class TestFullScanParity:
    """The cost-ordered scan returns what the full-square scan returns."""

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(0.0, 1.5),
        b=st.floats(0.0, 1.5),
        k=st.sampled_from([P, S]),
        grid=st.sampled_from(PARITY_GRIDS),
        width=st.sampled_from(PARITY_WIDTHS),
    )
    def test_matches_full_scan(self, a, b, k, grid, width):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "BLOCK_DIAGONALS", width)
            assert_same_as_full_scan(Weights(a, b), k, GridSpec(*grid))

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
            # serial ones from diagonal 400 (min(c1, c2) >= 1)
            (Weights(1.0, 1.0), P, 32),  # 200 inside block [192, 224), feasible there
            (Weights(1.0, 1.0), P, 8),  # 200 opens a block
            (Weights(1.0, 1.0), P, 201),  # 200 closes block [0, 201)
            (Weights(0.2, 0.2), P, 40),  # 200 opens a block, feasible blocks later
            (Weights(1.0, 1.0), S, 32),  # 400 inside block [384, 416)
            (Weights(1.0, 1.0), S, 16),  # 400 opens a block
            (Weights(0.0, 0.7), S, 25),  # a = 0; 400 opens a block
            (Weights(0.2, 0.2), S, 401),  # 400 closes block [0, 401), feasible later
        ],
    )
    def test_first_strong_diagonal_inside_or_on_block_edge(self, w, k, width, monkeypatch):
        monkeypatch.setattr(oracle_module, "BLOCK_DIAGONALS", width)
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
        monkeypatch.setattr(oracle_module, "oracle_solve", lambda w, k, g: doctored)
        verdict = oracle_module.verify_reduction(Weights(1.0, 1.0), P, GridSpec(6.0, 0.01), 0.01)
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
        monkeypatch.setattr(oracle_module, "oracle_solve", lambda w, k, g: doctored)
        verdict = oracle_module.verify_reduction(Weights(1.0, 1.0), S, GridSpec(6.0, 0.01), 0.01)
        assert not verdict.agree
        assert verdict.status == "split-mismatch"

    def test_feasibility_mismatch_detected(self, monkeypatch):
        empty = OracleResult(False, None, math.inf, None, False)
        monkeypatch.setattr(oracle_module, "oracle_solve", lambda w, k, g: empty)
        # closed form is feasible well inside the reach, so an empty scan is a defect
        verdict = oracle_module.verify_reduction(Weights(1.0, 1.0), P, GridSpec(6.0, 0.01), 0.01)
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
        monkeypatch.setattr(oracle_module, "oracle_solve", lambda w, k, g: witness)
        verdict = oracle_module.verify_reduction(Weights(0.0, 0.3), P, GridSpec(6.0, 0.01), 0.01)
        assert not verdict.agree
        assert verdict.status == "feasibility-mismatch"
