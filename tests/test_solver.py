"""Tests for the closed-form reduced solver.

Golden values were derived from the quadratic-root expression and confirmed
against the independent 1-D scan oracle below before being frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from performance_roots import roots
from value_contract import assert_value_contract

from twospring.model import Topology, Weights
from twospring.phase import total_cost_grid
from twospring.solver import (
    ActiveConstraint,
    DesignSolution,
    InfeasibleError,
    ReducedSolution,
    expand,
    solve_reduced,
)

P = Topology.PARALLEL
S = Topology.SERIAL

# frozen after cross-checking with scan_min_feasible at step 1e-6
X_STAR_PARALLEL_02_02 = 4.7912878474779195
X_STAR_SERIAL_02_02 = 4.56155281280883
COST_SERIAL_02_02 = 9.12310562561766


# the scan oracle's grid, built once: step 1e-5 over [0, 20]
SCAN_XS = np.arange(0.0, 20.0 + 1e-5 / 2, 1e-5)
# the grid points that meet the strength bound x >= 1
SCAN_STRONG = SCAN_XS[np.searchsorted(SCAN_XS, 1.0) :]
SCAN_STRIDE = 1000


def scan_min_feasible(a, b, k):
    """Independent oracle: smallest grid x in [0, 20] meeting both inequalities.

    If the first strong point fails the performance constraint, it lies
    between the two roots of the convex ``a*x + k*b/x`` (or ``a = 0`` and
    the performance only falls), so the passing points form one ray.  A
    strided scan then finds the first stride that reaches the ray and a fine
    scan of that stride finds its first point, which is the first passing
    point of the whole grid.
    """
    xs, kb = SCAN_STRONG, k.k * b

    def passing(view):
        return np.nonzero(a * view + kb / view >= 1.0)[0]

    strided = xs[::SCAN_STRIDE]
    coarse = passing(strided)
    if coarse.size and coarse[0] == 0:
        return float(xs[0])
    # the ray starts after the last strided point before the first hit
    hit = coarse[0] if coarse.size else strided.size
    lo = (hit - 1) * SCAN_STRIDE + 1
    fine = passing(xs[lo : hit * SCAN_STRIDE + 1])
    return None if fine.size == 0 else float(xs[lo + fine[0]])


class TestSolveReduced:
    def test_boundary_of_performance_branch(self):
        # a + b - 1 == 0: the strength bound already meets the performance constraint
        sol = solve_reduced(Weights(0.5, 0.5), P)
        assert sol.feasible
        assert sol.x_star == 1.0
        assert sol.total_cost == 1.0
        assert sol.active_constraint is ActiveConstraint.STRENGTH_BOUND

    def test_parallel_root_branch(self):
        sol = solve_reduced(Weights(0.2, 0.2), P)
        assert sol.feasible
        assert sol.active_constraint is ActiveConstraint.PERFORMANCE_ROOT
        assert sol.x_star == pytest.approx(X_STAR_PARALLEL_02_02, abs=1e-12)
        assert sol.total_cost == pytest.approx(4.791288, abs=1e-6)

    def test_serial_root_branch(self):
        sol = solve_reduced(Weights(0.2, 0.2), S)
        assert sol.x_star == pytest.approx(X_STAR_SERIAL_02_02, abs=1e-12)
        assert sol.total_cost == pytest.approx(9.123106, abs=1e-6)

    def test_zero_force_weight_infeasible(self):
        # constraints demand x <= k*b and x >= 1 simultaneously
        sol = solve_reduced(Weights(0.0, 0.3), P)
        assert not sol.feasible
        assert sol.x_star is None
        assert sol.total_cost == math.inf
        assert sol.active_constraint is None

    def test_zero_force_weight_feasible_when_resistance_strong(self):
        sol = solve_reduced(Weights(0.0, 0.7), S)
        assert sol.feasible
        assert sol.x_star == 1.0
        assert sol.total_cost == 2.0

    def test_strength_branch_cost_is_topology_tag(self):
        assert solve_reduced(Weights(1.0, 1.0), P).total_cost == 1.0
        assert solve_reduced(Weights(1.0, 1.0), S).total_cost == 2.0

    @pytest.mark.parametrize("a", [5e-324, 1e-308, 2e-308])
    @pytest.mark.parametrize("k", [P, S])
    def test_feasible_exactly_when_cost_is_finite(self, a, k):
        # the root (1 + sqrt(...)) / (2a) or its cost k*x overflows for a tiny a
        sol = solve_reduced(Weights(a, 0.1), k)
        assert sol.feasible == math.isfinite(sol.total_cost)
        if sol.feasible:
            assert sol.total_cost == k.k * sol.x_star
        else:
            assert (sol.x_star, sol.total_cost, sol.active_constraint) == (None, math.inf, None)
        assert sol.feasible == (a == 2e-308 or (a == 1e-308 and k is P))
        assert total_cost_grid(np.array([a]), np.array([0.1]), k)[0][0] == sol.total_cost


class TestExpand:
    def test_parallel_equal_split(self):
        design = expand(ReducedSolution(True, 1.0, 1.0, ActiveConstraint.STRENGTH_BOUND), P)
        assert (design.c1_star, design.c2_star) == (0.5, 0.5)
        assert design.total_cost == 1.0
        assert design.topology is P

    def test_serial_duplicates_limit(self):
        design = expand(ReducedSolution(True, 1.0, 2.0, ActiveConstraint.STRENGTH_BOUND), S)
        assert (design.c1_star, design.c2_star) == (1.0, 1.0)
        assert design.total_cost == 2.0

    def test_serial_root_design(self):
        design = expand(solve_reduced(Weights(0.2, 0.2), S), S)
        assert design.c1_star == pytest.approx(X_STAR_SERIAL_02_02, abs=1e-12)
        assert design.c1_star == design.c2_star
        assert design.total_cost == pytest.approx(COST_SERIAL_02_02, abs=1e-12)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleError):
            expand(solve_reduced(Weights(0.0, 0.3), P), P)


def assert_grid_matches_scalar(a, b, k):
    """total_cost_grid equals solve_reduced's total_cost bit for bit, and its
    strength mask solve_reduced's strength branch, at every pair."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    got, strength = total_cost_grid(a, b, k)
    sols = [solve_reduced(Weights(x, y), k) for x, y in zip(a.tolist(), b.tolist())]
    want = np.array([sol.total_cost for sol in sols])
    assert got.shape == want.shape == strength.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert strength.tolist() == [sol.active_constraint is ActiveConstraint.STRENGTH_BOUND for sol in sols]


class TestTotalCostGrid:
    @pytest.mark.parametrize("k", [P, S])
    def test_branch_edges(self, k):
        kk = k.k
        edges = [
            (0.0, 0.0), (0.0, 1.0 / kk), (0.0, np.nextafter(1.0 / kk, 0.0)), (0.0, 2.0),  # a = 0
            (0.5, 0.5 / kk), (0.2, 0.8 / kk), (1.0 / 3.0, (2.0 / 3.0) / kk),  # on a + k*b = 1
            (0.4, 2.0 - 4.0 * 0.4), (1.0 / 3.0, 2.0 / 3.0), (3.0 / 7.0, 2.0 / 7.0),  # b = 2 - 4a
            (5e-324, 0.1), (1e-300, 0.0), (1.7e308, 1.7e308), (1.0, 0.0), (0.2, 0.2),
        ]
        a, b = zip(*edges)
        assert_grid_matches_scalar(a, b, k)

    def test_random_square(self):
        ab = np.random.default_rng(13).uniform(0.0, 1.5, size=(2, 5000))
        for k in (P, S):
            assert_grid_matches_scalar(ab[0], ab[1], k)

    @given(
        pairs=st.lists(
            st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
            min_size=1,
            max_size=40,
        ),
        k=st.sampled_from([P, S]),
    )
    def test_property(self, pairs, k):
        a, b = zip(*pairs)
        assert_grid_matches_scalar(a, b, k)


@given(
    a=st.floats(min_value=1e-6, max_value=2.0),
    b=st.floats(min_value=0.0, max_value=2.0),
    k=st.sampled_from([P, S]),
)
def test_branch_condition_equivalence(a, b, k):
    """1 strictly between the roots (with a real discriminant) iff a + k*b < 1."""
    assume(abs(a + k.k * b - 1.0) > 1e-9)  # stay off the knife edge
    pair = roots(Weights(a, b), k)
    straddles = pair is not None and pair[0] < 1.0 < pair[1]
    assert straddles == (a + k.k * b - 1.0 < 0.0)


@given(
    a=st.floats(min_value=1e-6, max_value=3.0),
    b=st.floats(min_value=0.0, max_value=3.0),
    k=st.sampled_from([P, S]),
)
def test_feasible_solutions_satisfy_constraints(a, b, k):
    sol = solve_reduced(Weights(a, b), k)
    assert sol.feasible
    assert sol.x_star >= 1.0
    assert a * sol.x_star + k.k * b / sol.x_star >= 1.0 - 1e-12
    if sol.active_constraint is ActiveConstraint.PERFORMANCE_ROOT:
        assert sol.x_star > 1.0


@given(
    a=st.floats(min_value=1e-3, max_value=0.99),
    b=st.floats(min_value=0.0, max_value=0.99),
    k=st.sampled_from([P, S]),
)
def test_root_optimum_is_minimal(a, b, k):
    """Shrinking a root-branch optimum violates one of the two constraints."""
    sol = solve_reduced(Weights(a, b), k)
    if sol.active_constraint is not ActiveConstraint.PERFORMANCE_ROOT:
        return
    for eps in (1e-3, 1e-2, 1e-1):
        x = sol.x_star * (1.0 - eps)
        assert not (x >= 1.0 and a * x + k.k * b / x >= 1.0)


def test_scan_oracle_agreement():
    """The 1-D scan reproduces the closed form on a seeded sample."""
    rng = np.random.default_rng(2024)
    for a, b in rng.uniform(0.0, 1.5, size=(100, 2)):
        for k in (P, S):
            sol = solve_reduced(Weights(float(a), float(b)), k)
            scan = scan_min_feasible(float(a), float(b), k)
            if not sol.feasible:
                assert scan is None
            elif sol.x_star > 20.0:
                assert scan is None  # beyond the scan window
            else:
                assert scan == pytest.approx(sol.x_star, abs=2e-5)


def test_cost_monotone_in_weights():
    """More weight never makes the optimum costlier (infeasible counts as +inf)."""
    grid = np.linspace(0.0, 1.5, 31)
    for k in (P, S):
        costs = [[solve_reduced(Weights(float(a), float(b)), k).total_cost for a in grid] for b in grid]
        for row in costs:
            assert all(row[i + 1] <= row[i] + 1e-12 for i in range(len(row) - 1))
        for col in zip(*costs):
            assert all(col[i + 1] <= col[i] + 1e-12 for i in range(len(col) - 1))


@pytest.mark.parametrize("cls", [ReducedSolution, DesignSolution])
def test_value_contract(cls):
    assert_value_contract(cls)
