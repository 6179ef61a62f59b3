"""Unit and property tests for the network quantity evaluations."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from twospring import model as model_module
from twospring.model import (
    SpringPair,
    Topology,
    Weights,
    cost,
    feasible_grid,
    force,
    force_grid,
    multiperf,
    multiperf_grid,
    resistance,
    resistance_grid,
)

P = Topology.PARALLEL
S = Topology.SERIAL

limits = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
positive_limits = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)
weight_values = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


class TestValidation:
    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            SpringPair(-0.1, 1.0)
        with pytest.raises(ValueError):
            SpringPair(1.0, -1e-12)

    def test_nan_limit_rejected(self):
        with pytest.raises(ValueError):
            SpringPair(math.nan, 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Weights(-0.5, 0.5)
        with pytest.raises(ValueError):
            Weights(0.5, -0.5)

    def test_topology_tags(self):
        assert P.k == 1
        assert S.k == 2


class TestForce:
    def test_parallel_sums_limits(self):
        assert force(P, SpringPair(0.3, 0.7)) == pytest.approx(1.0)

    def test_serial_takes_weaker_limit(self):
        assert force(S, SpringPair(0.3, 0.7)) == 0.3
        assert force(S, SpringPair(0.7, 0.3)) == 0.3

    def test_serial_tie(self):
        assert force(S, SpringPair(0.5, 0.5)) == 0.5


class TestResistance:
    def test_parallel(self):
        assert resistance(P, SpringPair(0.5, 0.5)) == 1.0

    def test_serial(self):
        assert resistance(S, SpringPair(0.5, 0.5)) == 4.0

    def test_zero_limit_gives_infinity(self):
        assert resistance(S, SpringPair(0.0, 1.0)) == math.inf
        assert resistance(S, SpringPair(1.0, 0.0)) == math.inf
        assert resistance(P, SpringPair(0.0, 0.0)) == math.inf

    def test_parallel_with_one_zero_is_finite(self):
        assert resistance(P, SpringPair(0.0, 2.0)) == 0.5


class TestMultiperf:
    def test_reduces_to_force(self):
        assert multiperf(Weights(1.0, 0.0), P, SpringPair(0.3, 0.7)) == pytest.approx(1.0)

    def test_reduces_to_resistance(self):
        assert multiperf(Weights(0.0, 1.0), S, SpringPair(0.5, 0.5)) == 4.0

    def test_combined(self):
        # 0.5*2 + 0.5*0.5, checked against a direct constraint evaluation
        assert multiperf(Weights(0.5, 0.5), P, SpringPair(1.0, 1.0)) == pytest.approx(1.25)

    def test_zero_weight_silences_infinite_resistance(self):
        assert multiperf(Weights(1.0, 0.0), S, SpringPair(0.0, 1.0)) == 0.0

    def test_positive_weight_keeps_infinite_resistance(self):
        assert multiperf(Weights(1.0, 0.5), S, SpringPair(0.0, 1.0)) == math.inf


class TestCost:
    def test_sum(self):
        assert cost(SpringPair(0.3, 0.7)) == pytest.approx(1.0)

    def test_zero(self):
        assert cost(SpringPair(0.0, 0.0)) == 0.0

    def test_serial_optimal_pair_coordinate_sum(self):
        assert cost(SpringPair(2.28078, 2.28078)) == pytest.approx(4.56155, abs=1e-5)


@given(c1=limits, c2=limits)
def test_force_dominance(c1, c2):
    """Parallel wiring never withstands less force than serial."""
    s = SpringPair(c1, c2)
    assert force(P, s) >= force(S, s)


@given(c1=positive_limits, c2=positive_limits)
def test_resistance_ordering(c1, c2):
    """Serial resistance dominates parallel resistance on positive limits."""
    s = SpringPair(c1, c2)
    assert resistance(S, s) >= resistance(P, s)


@given(c1=limits, c2=limits, a=weight_values, b=weight_values)
def test_swap_symmetry(c1, c2, a, b):
    s, swapped = SpringPair(c1, c2), SpringPair(c2, c1)
    w = Weights(a, b)
    for k in (P, S):
        assert force(k, s) == force(k, swapped)
        assert resistance(k, s) == resistance(k, swapped)
        assert multiperf(w, k, s) == multiperf(w, k, swapped)
    assert cost(s) == cost(swapped)


@given(
    c1=st.floats(min_value=1e-3, max_value=1e3),
    c2=st.floats(min_value=1e-3, max_value=1e3),
    t=st.floats(min_value=1e-3, max_value=1e3),
)
def test_scaling(c1, c2, t):
    """Force and cost scale linearly with the limits, resistance inversely."""
    s, scaled = SpringPair(c1, c2), SpringPair(t * c1, t * c2)
    for k in (P, S):
        assert force(k, scaled) == pytest.approx(t * force(k, s), rel=1e-12)
        assert resistance(k, scaled) == pytest.approx(resistance(k, s) / t, rel=1e-12)
    assert cost(scaled) == pytest.approx(t * cost(s), rel=1e-12)


def test_grid_twins_match_scalar_functions():
    """The vectorized kernels agree pointwise with the scalar definitions."""
    rng = np.random.default_rng(123)
    c1 = rng.uniform(0.0, 10.0, size=200)
    c2 = rng.uniform(0.0, 10.0, size=200)
    c1[:5] = 0.0  # exercise the extended-arithmetic branch
    for w in (Weights(0.7, 0.3), Weights(0.0, 1.0), Weights(1.0, 0.0)):
        for k in (P, S):
            f = force_grid(k, c1, c2)
            r = resistance_grid(k, c1, c2)
            m = multiperf_grid(w, k, c1, c2)
            for idx in range(c1.size):
                s = SpringPair(float(c1[idx]), float(c2[idx]))
                assert f[idx] == force(k, s)
                assert r[idx] == resistance(k, s)
                assert m[idx] == multiperf(w, k, s)


def test_grid_twins_broadcast():
    axis = np.array([0.0, 0.5, 1.0])
    r = resistance_grid(P, axis[:, None], axis[None, :])
    assert r.shape == (3, 3)
    assert r[0, 0] == math.inf
    assert r[1, 1] == 1.0


def assert_feasible_grid_matches_reference(w, k, c1, c2):
    """``feasible_grid`` equals both constraints evaluated everywhere, bit for bit."""
    ref = (multiperf_grid(w, k, c1, c2) >= 1.0) & (force_grid(k, c1, c2) >= 1.0)
    got = feasible_grid(w, k, c1, c2)
    assert got.shape == ref.shape
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)
    return got


FEASIBLE_WEIGHTS = [
    Weights(0.7, 0.3),
    Weights(0.2, 0.2),
    Weights(1.0, 1.0),
    Weights(0.0, 0.7),  # a = 0
    Weights(0.8, 0.0),  # b = 0: an infinite resistance is silenced
    Weights(0.0, 0.0),
    Weights(1e308, 1e308),  # a*f and b*r overflow
]


class TestFeasibleGrid:
    @pytest.mark.parametrize("w", FEASIBLE_WEIGHTS)
    @pytest.mark.parametrize("k", [P, S])
    def test_oracle_shaped_blocks(self, w, k):
        # c1 of shape (n,) against a (32, n) window of a NaN-padded axis,
        # laid out as the grid oracle lays out its blocks
        width, axis = 32, np.arange(121) * 0.05
        n = axis.size
        padded = np.full(2 * n + 2 * width, np.nan)
        padded[width - 1 : width - 1 + n] = axis
        runs = sliding_window_view(padded, n)
        for q in range(0, runs.shape[0] - width + 1, 7):
            assert_feasible_grid_matches_reference(w, k, axis[::-1], runs[q : q + width])

    @pytest.mark.parametrize("w", FEASIBLE_WEIGHTS)
    @pytest.mark.parametrize("k", [P, S])
    def test_zero_row_and_column(self, w, k):
        axis = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
        got = assert_feasible_grid_matches_reference(w, k, axis[:, None], axis[None, :])
        if k is S:
            # a zero limit caps the serial force at 0, whatever 1/0 gives
            assert not got[0].any() and not got[:, 0].any()

    @pytest.mark.parametrize("w", FEASIBLE_WEIGHTS)
    @pytest.mark.parametrize("k", [P, S])
    def test_extreme_magnitudes(self, w, k):
        axis = np.array([0.0, 5e-324, 1e-310, 2.2e-308, 1e-300, 1.0, 1e300, 1e308, 1.7e308, np.nan])
        assert_feasible_grid_matches_reference(w, k, axis[:, None], axis[None, :])

    @pytest.mark.parametrize("k", [P, S])
    def test_all_weak_block_short_circuits(self, k, monkeypatch):
        def no_performance(*args):
            raise AssertionError("performance evaluated on a block with no strong point")

        monkeypatch.setattr(model_module, "_weigh", no_performance)
        axis = np.arange(60) * 0.005  # every limit below 0.3: weak in both wirings
        assert not feasible_grid(Weights(1.0, 1.0), k, axis[:, None], axis[None, :]).any()
        monkeypatch.undo()
        assert_feasible_grid_matches_reference(Weights(1.0, 1.0), k, axis[:, None], axis[None, :])

    @given(
        a=st.floats(0.0, 1e6),
        b=st.floats(0.0, 1e6),
        k=st.sampled_from([P, S]),
        data=st.data(),
    )
    def test_property_matches_reference(self, a, b, k, data):
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=5))
        limits = st.floats(min_value=0.0, allow_infinity=False) | st.just(math.nan)
        c1, c2 = (data.draw(hnp.arrays(np.float64, shape, elements=limits)) for shape in shapes.input_shapes)
        assert_feasible_grid_matches_reference(Weights(a, b), k, c1, c2)
