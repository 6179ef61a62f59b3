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
from twospring.model import SpringPair, Topology, Weights, _force, _resistance, cost
from twospring.model import _weigh as model_weigh
from twospring.oracle import GridSpec, OracleResult, oracle_solve
from twospring.solver import solve_reduced
from twospring.verify import VerificationVerdict, verify_reduction

P = Topology.PARALLEL
S = Topology.SERIAL
DEFAULT_GRID = GridSpec(6.0, 0.005)
# a grid whose parallel force overflows near its top corner: 1e308 + 1e308
OVERFLOW_GRID = GridSpec(1e308, 1e306)
# edge weights, infinity included
EDGE_WEIGHTS = st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, 1e308, math.inf])


def frontier_of(g, k):
    """The cached frontier of grid ``g`` in wiring ``k``, by the oracle's cache key."""
    return oracle_module._frontier(g.c_max, g.step, k is S)


def bits(x):
    """The bits of a float array, so that NaN compares equal to itself."""
    return np.asarray(x).view(np.uint64)


def full_square_scan(w, k, g):
    """Reference oracle: evaluate the whole square, keep the cheapest diagonal."""
    axis = g.axis()
    ii, jj = np.nonzero(feasible(w, k, axis[:, None], axis[None, :]))
    if ii.size == 0:
        return OracleResult(False, None, math.inf, None, False)
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
    )


def assert_same_as_full_scan(w, k, g):
    got = oracle_solve(w, k, g)
    assert got == full_square_scan(w, k, g)
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


# (c_max, step): a 2x2 grid, ratios that do not divide evenly, and a
# coarse copy of the default grid
PARITY_GRIDS = [(0.5, 0.5), (1.0, 0.3), (2.0, 0.07), (1.6, 0.1), (3.0, 0.1), (6.0, 0.05)]
SMALL_GRIDS = [OVERFLOW_GRID, GridSpec(1.0, 0.013), *(GridSpec(*grid) for grid in PARITY_GRIDS)]
# weights with an empty scan, a feasible corner, a truncated argmin, and an
# optimum at force and performance exactly 1 (serial (1, 1) under 0.5, 0.25)
FIXED_WEIGHTS = [
    Weights(0.0, 0.3),
    Weights(0.1, 0.05),
    Weights(1.0, 1.0),
    Weights(0.3, 0.2),
    Weights(0.2, 0.2),
    Weights(0.5, 0.25),
    Weights(1.0, 0.0),
]


class TestFullScanParity:
    """The frontier search returns what the full-square scan returns."""

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.one_of(st.floats(0.0, 1.5), EDGE_WEIGHTS),
        b=st.one_of(st.floats(0.0, 1.5), EDGE_WEIGHTS),
        k=st.sampled_from([P, S]),
        grid=st.sampled_from(SMALL_GRIDS),
    )
    def test_matches_full_scan(self, a, b, k, grid):
        assert_same_as_full_scan(Weights(a, b), k, grid)

    @pytest.mark.parametrize("w", FIXED_WEIGHTS)
    @pytest.mark.parametrize("k", [P, S])
    @pytest.mark.parametrize("grid", PARITY_GRIDS)
    def test_fixed_weights_on_every_grid(self, grid, k, w):
        assert_same_as_full_scan(w, k, GridSpec(*grid))

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

    def test_truncated_argmin(self):
        res = assert_same_as_full_scan(Weights(0.3, 0.2), P, GridSpec(1.6, 0.1))
        assert res.truncated

    @pytest.mark.parametrize("w,k", [(Weights(0.0, 0.3), P), (Weights(0.1, 0.05), S)])
    def test_empty_scan(self, w, k):
        res = assert_same_as_full_scan(w, k, DEFAULT_GRID)
        assert not res.feasible


class TestScanExtremes:
    def test_cost_one_parallel_scans_a_corner(self):
        # diagonal 200, the first strong one, holds the answer
        res = oracle_solve(Weights(1.0, 1.0), P, DEFAULT_GRID)
        assert res.best_cost == 1.0

    def test_empty_scan_is_infeasible(self):
        res = oracle_solve(Weights(0.0, 0.3), P, DEFAULT_GRID)
        assert not res.feasible

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


def counting_weigh(monkeypatch):
    """Record the ``(f, r)`` of each ``_weigh`` call the oracle makes, in a
    list that the caller may clear."""
    weighed = []

    def counting(w, f, r):
        weighed.append((f, r))
        return model_weigh(w, f, r)

    monkeypatch.setattr(oracle_module, "_weigh", counting)
    return weighed


class TestHead:
    """The head, the frontier's first point, answers a call on floats at
    and above 1 and leaves the call to the arrays below it."""

    @pytest.mark.parametrize(
        "w,k,at_head",
        [
            # the parallel head (0.5, 0.5): force 1, resistance 1
            (Weights(1.0, 0.0), P, True),
            (Weights(math.nextafter(1.0, 0.0), 0.0), P, False),
            # the serial head (1.0, 1.0): force 1, resistance 2
            (Weights(0.0, 0.5), S, True),
            (Weights(0.0, math.nextafter(0.5, 0.0)), S, False),
            (Weights(math.inf, 0.0), P, True),
            (Weights(math.inf, 0.0), S, True),
            (Weights(0.0, math.inf), P, True),
            (Weights(0.0, math.inf), S, True),
        ],
    )
    def test_boundary_on_default_grid(self, w, k, at_head, monkeypatch):
        frontier = frontier_of(DEFAULT_GRID, k)
        assert (frontier.head_f, frontier.head_r) == (1.0, 1.0 if k is P else 2.0)
        weighed = counting_weigh(monkeypatch)
        got = assert_same_as_full_scan(w, k, DEFAULT_GRID)
        assert (got == frontier.head) == at_head
        arrays = [f for f, _ in weighed if isinstance(f, np.ndarray)]
        assert [f is frontier.f for f in arrays] == ([] if at_head else [True])

    def test_empty_frontier_has_no_head(self, monkeypatch):
        g = GridSpec(0.4, 0.1)  # the parallel force reaches 0.8
        frontier = frontier_of(g, P)
        assert frontier.f.size == 0 and frontier.head is None
        weighed = counting_weigh(monkeypatch)
        res = assert_same_as_full_scan(Weights(math.inf, math.inf), P, g)
        assert not res.feasible
        assert len([f for f, _ in weighed if isinstance(f, np.ndarray)]) == 1


def dominates(f, r, f2, r2):
    """The dominance rule, written out: both terms at least as large, and
    an infinite force only over an infinite force."""
    return (f >= f2) & (r >= r2) & (np.isfinite(f) | np.isinf(f2))


def half_square(g, k):
    """Every point ``(i, j)`` of the half square ``i <= j``, in scan order
    (``i + j`` ascending, then ``i`` descending), with its force and
    resistance, by the model's formulas in the oracle's error-state scope."""
    i, j = np.nonzero(np.less_equal.outer(np.arange(g.size), np.arange(g.size)))
    order = np.lexsort((-i, i + j))
    i, j = i[order], j[order]
    axis = g.axis()
    with np.errstate(all="ignore"):
        f = _force(k, axis[i], axis[j], np.minimum)
        r = _resistance(k, axis[i], axis[j])
    return i, j, f, r


def assert_frontier_is_complete(g, k):
    """The frontier of ``g`` in wiring ``k`` holds strong half-square points
    with the model's terms, in scan order, and each strong point it leaves
    out is dominated by an earlier frontier point."""
    i, j, f, r = half_square(g, k)
    frontier = frontier_of(g, k)
    # each frontier point, by its rank in scan order: strong, in the
    # half square, with the model's terms, and in scan order
    rank = np.full((g.size, g.size), -1)
    rank[i, j] = np.arange(i.size)
    kept = rank[frontier.i, frontier.j]
    assert (kept >= 0).all()
    assert (np.diff(kept) > 0).all()
    assert np.array_equal(bits(frontier.f), bits(f[kept])) and np.array_equal(bits(frontier.r), bits(r[kept]))
    assert (frontier.f >= 1.0).all()
    # each strong point left out is dominated by an earlier frontier point
    dropped = np.setdiff1d(np.flatnonzero(f >= 1.0), kept)
    earlier = kept[None, :] < dropped[:, None]
    covered = earlier & dominates(frontier.f[None, :], frontier.r[None, :], f[dropped, None], r[dropped, None])
    assert covered.any(axis=1).all()


@st.composite
def small_grids(draw):
    """Grids of 2 to 60 points a side at random steps, and the fixed small ones."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SMALL_GRIDS))
    step = draw(st.floats(1e-3, 10.0))
    return GridSpec(step * (draw(st.integers(2, 60)) - 1), step)


class TestFrontier:
    """The cached frontier: what it keeps, what it drops, and what a call reads of it."""

    @settings(max_examples=150, deadline=None)
    @given(
        g=small_grids(),
        k=st.sampled_from([P, S]),
        a=st.one_of(st.floats(0.0, 1.5), EDGE_WEIGHTS),
        b=st.one_of(st.floats(0.0, 1.5), EDGE_WEIGHTS),
    )
    def test_property_every_dropped_point_is_dominated_earlier(self, g, k, a, b):
        assert_frontier_is_complete(g, k)
        assert_same_as_full_scan(Weights(a, b), k, g)

    @pytest.mark.parametrize("k", [P, S])
    @pytest.mark.parametrize("g", SMALL_GRIDS, ids=lambda g: f"{g.c_max!r}-{g.step!r}")
    def test_every_dropped_point_is_dominated_earlier_on_fixed_grids(self, g, k):
        assert_frontier_is_complete(g, k)

    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(st.one_of(st.floats(0.0), st.sampled_from([0.0, 5e-324, 1.0, 1e308, math.inf])), min_size=4, max_size=4),
        a=st.one_of(st.floats(0.0), EDGE_WEIGHTS),
        b=st.one_of(st.floats(0.0), EDGE_WEIGHTS),
    )
    def test_property_a_dominating_point_weighs_at_least_as_much(self, terms, a, b):
        f, r, f2, r2 = (np.array([x]) for x in terms)
        w = Weights(a, b)
        assert oracle_module._dominates(f, r, f2, r2)[0] == dominates(f, r, f2, r2)[0]
        with np.errstate(all="ignore"):
            if dominates(f, r, f2, r2)[0] and oracle_module._weigh(w, f2, r2)[0] >= 1.0:
                assert oracle_module._weigh(w, f, r)[0] >= 1.0

    @pytest.mark.parametrize("b", [0.3, 1.0, math.inf])
    def test_an_infinite_force_dominates_only_an_infinite_one(self, b):
        # under a = 0 the infinite force weighs NaN, the finite one b * r
        f, r = np.array([math.inf, 2.0]), np.array([4.0, 4.0])
        assert not oracle_module._dominates(f[:1], r[:1], f[1:], r[1:])[0]
        assert oracle_module._dominates(f[:1], r[:1], f[:1], r[:1])[0]
        with np.errstate(all="ignore"):
            assert list(oracle_module._weigh(Weights(0.0, b), f, r) >= 1.0) == [False, True]

    def test_default_grid_frontier_sizes(self):
        """A serial frontier is the strong diagonal points ``(i, i)``; a
        parallel one keeps about two points a strong diagonal, of the
        distinct rounded forces ``c1 + c2`` along it."""
        parallel, serial = (frontier_of(DEFAULT_GRID, k) for k in (P, S))
        assert (parallel.f.size, serial.f.size) == (4_038, 1_001)
        assert np.array_equal(serial.i, np.arange(200, 1201)) and np.array_equal(serial.j, serial.i)

    def test_each_call_weighs_the_frontier_once(self, monkeypatch):
        """A call whose head, the first frontier point, is feasible weighs
        no array; every other call weighs the cached arrays once."""
        weighed = counting_weigh(monkeypatch)
        pairs = np.random.default_rng(0).uniform(0.0, 1.5, (50, 2)).tolist()
        for k in (P, S):
            frontier = frontier_of(DEFAULT_GRID, k)
            paths = set()
            for a, b in [*pairs, (0.0, 0.3), (0.1, 0.05)]:
                w = Weights(a, b)
                head = model_weigh(w, float(frontier.f[0]), float(frontier.r[0])) >= 1.0
                weighed.clear()
                oracle_solve(w, k, DEFAULT_GRID)
                arrays = [(f, r) for f, r in weighed if isinstance(f, np.ndarray)]
                if head:
                    assert arrays == []
                else:
                    assert len(arrays) == 1
                    assert arrays[0][0] is frontier.f and arrays[0][1] is frontier.r
                paths.add(head)
            assert paths == {True, False}

    def test_build_memory_is_bounded(self):
        """Both default-grid builds stay within 1.5 MB traced: one chunk of
        temporaries, and the frontier itself."""
        oracle_solve(Weights(1.0, 1.0), P, GridSpec(1.0, 0.1))  # warm up lazy imports
        oracle_module._frontier.cache_clear()
        tracemalloc.start()
        try:
            for k in (P, S):
                frontier_of(DEFAULT_GRID, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("k", [P, S])
    def test_build_evaluates_each_point_once(self, monkeypatch, k):
        """A default-grid build passes ``_force`` at most the half square's
        points once each, the ``_NEIGHBOURS`` each chunk reads again, and
        two passes of one value a row; a serial build skips every row and
        makes the two passes alone."""
        evaluated = []

        def counting(wiring, c1, c2, minimum):
            evaluated.append(np.broadcast(c1, c2).size)
            return _force(wiring, c1, c2, minimum)

        monkeypatch.setattr(oracle_module, "_force", counting)
        oracle_module._frontier.cache_clear()
        frontier_of(DEFAULT_GRID, k)
        size = DEFAULT_GRID.size
        half = size * (size + 1) // 2
        chunks = -(-half // oracle_module._CHUNK)
        rows = half + oracle_module._NEIGHBOURS * chunks if k is P else 0
        assert sum(evaluated) <= rows + 2 * size

    @pytest.mark.parametrize("k", [P, S])
    @pytest.mark.parametrize("g", [DEFAULT_GRID, OVERFLOW_GRID])
    def test_cached_arrays_are_read_only(self, g, k):
        frontier = frontier_of(g, k)._asdict()
        arrays = {name: value for name, value in frontier.items() if isinstance(value, np.ndarray)}
        assert set(arrays) == {"axis", "i", "j", "f", "r"}
        for array in arrays.values():
            assert not array.flags.writeable
        assert isinstance(frontier["head"], OracleResult)

    def test_each_wiring_builds_its_frontier_once(self):
        """A campaign alternates the wirings on one grid; both frontiers stay cached."""
        oracle_module._frontier.cache_clear()
        pairs = np.random.default_rng(7).uniform(0.0, 1.5, (25, 2)).tolist()
        for a, b in pairs:
            for k in (P, S):
                oracle_solve(Weights(a, b), k, DEFAULT_GRID)
        info = oracle_module._frontier.cache_info()
        assert (info.misses, info.hits) == (2, 48)


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
        oracle_module._frontier.cache_clear()  # the first call builds the frontier
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


def test_campaign_pairs_come_from_the_raw_pcg64_stream():
    """The campaign's pairs are the top 53 bits of ``PCG64(seed)``'s raw
    words, scaled to ``[0, 1.5)``.  The words and the pairs are written out
    here, so that a change of numpy's stream or of the conversion shows."""
    words = [14276969152011380360, 8095878257575067585, 15838336090824644132, 12864169557245331597]
    assert np.random.PCG64(42).random_raw(4).tolist() == words
    pairs = [[1.160934072833945, 0.6583176596280784], [1.2878968798670738, 1.046052043589046]]
    assert list(verify_module._uniform_pairs(2, 42)) == pairs
    assert [[(u >> 11) * 2.0**-53 * 1.5, (v >> 11) * 2.0**-53 * 1.5] for u, v in zip(words[::2], words[1::2])] == pairs
    assert list(verify_module._uniform_pairs(0, 42)) == []


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_campaign_draw_is_one_stream_at_any_chunk_size(chunk, monkeypatch):
    """Drawn in chunks, the pairs are those of one draw of all the words."""
    words = np.random.PCG64(7).random_raw(2 * 10_000)
    expected = ((words >> 11) * 2.0**-53 * 1.5).reshape(10_000, 2).tolist()
    monkeypatch.setattr(verify_module, "_DRAW_PAIRS", chunk)
    assert list(verify_module._uniform_pairs(10_000, 7)) == expected


def test_campaign_draw_memory_is_bounded():
    """The draw holds one chunk of pairs at a time, about 1.4 MB traced;
    these 60,000 pairs as one list take about 9 MB."""
    tracemalloc.start()
    try:
        drawn = sum(1 for _ in verify_module._uniform_pairs(60_000, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn == 60_000
    assert peak < 2 * 2**20
