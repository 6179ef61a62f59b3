"""Unit and property tests for the network quantity evaluations."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view
from oracle_kernel import feasible
from value_contract import assert_value_contract

from twospring.model import (
    SpringPair,
    Topology,
    Weights,
    _direct_init,
    _force,
    _resistance,
    _weigh,
    cost,
    force,
    multiperf,
    resistance,
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

    @pytest.mark.parametrize(
        "cls, good, bad, message",
        [
            (SpringPair, (0.5, 2.0), (-0.1, 1.0), "elastic limits must be nonnegative, got (-0.1, 1.0)"),
            (SpringPair, (0.5, 2.0), (1.0, math.nan), "elastic limits must be nonnegative, got (1.0, nan)"),
            (Weights, (0.3, 0.5), (0.5, -0.5), "weights must be nonnegative, got (0.5, -0.5)"),
            (Weights, (0.3, 0.5), (math.nan, 0.5), "weights must be nonnegative, got (nan, 0.5)"),
        ],
    )
    def test_messages_directly_and_through_replace(self, cls, good, bad, message):
        with pytest.raises(ValueError) as direct:
            cls(*bad)
        assert str(direct.value) == message
        names = [f.name for f in dataclasses.fields(cls)]
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(cls(*good), **dict(zip(names, bad)))
        assert str(replaced.value) == message


@pytest.mark.parametrize("cls", [SpringPair, Weights])
def test_value_contract(cls):
    assert_value_contract(cls)


@dataclasses.dataclass(frozen=True, slots=True)
class HandWritten:
    """The slot-setter ``__init__`` written by hand, as ``SpringPair`` and ``Weights`` write theirs."""

    x: float
    y: object
    z: bool

    def __init__(self, x: float, y: object, z: bool) -> None:
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)


_set_x, _set_y, _set_z = HandWritten.x.__set__, HandWritten.y.__set__, HandWritten.z.__set__


@_direct_init
@dataclasses.dataclass(frozen=True, slots=True)
class Generated:
    x: float
    y: object
    z: bool


class TestDirectInit:
    def test_code_matches_the_hand_written_init(self):
        """The generated method compiles to the same code as the hand-written
        one, so a value costs what it costs written by hand."""
        hand, made = HandWritten.__init__.__code__, Generated.__init__.__code__
        for attr in ("co_code", "co_consts", "co_names", "co_varnames", "co_argcount"):
            assert getattr(made, attr) == getattr(hand, attr), attr

    def test_each_field_is_stored_in_field_order(self):
        by_position = Generated(1.5, None, True)
        by_keyword = Generated(z=True, y=None, x=1.5)
        for v in (by_position, by_keyword):
            assert [getattr(v, name) for name in Generated.__slots__] == [1.5, None, True]
            assert not hasattr(v, "__dict__")
        assert by_position == by_keyword

    @pytest.mark.parametrize(
        "args, kwargs",
        [((1.0, 2), {}), ((1.0, 2, True, 4), {}), ((1.0, 2, True), {"x": 1.0}), ((), {"x": 1.0, "y": 2, "w": True})],
    )
    def test_wrong_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Generated(*args, **kwargs)

    def test_dataclass_methods_are_kept(self):
        """Equality, hashing, ``repr`` and the refusal of assignment still come
        from ``@dataclass(frozen=True, slots=True)``."""
        v = Generated(0.5, "a", False)
        assert v == Generated(0.5, "a", False) != Generated(0.5, "a", True)
        assert hash(v) == hash(Generated(0.5, "a", False))
        assert repr(v) == "Generated(x=0.5, y='a', z=False)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.x = 1.0
        assert dataclasses.replace(v, z=True) == Generated(0.5, "a", True)

    def test_a_class_without_slots_is_refused(self):
        class Plain:
            x: float

        with pytest.raises(TypeError, match="Plain has no __slots__"):
            _direct_init(dataclasses.dataclass(frozen=True)(Plain))


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


# limits and weights at the edges of the float range: zero, the smallest
# subnormal, and 1e308, where 1e308 + 1e308 and 1e308 * 1e308 overflow
edge_values = st.sampled_from([0.0, 5e-324, 1e308])


def bits(x):
    """The bytes of a grid result, so NaN compares equal to itself."""
    x = np.asarray(x)
    return x.view(np.uint64) if x.dtype == np.float64 else x


@given(
    a=st.floats(0.0, 1e6) | edge_values,
    b=st.floats(0.0, 1e6) | edge_values,
    k=st.sampled_from([P, S]),
    data=st.data(),
)
def test_grids_swap_symmetry(a, b, k, data):
    """Swapping c1 and c2 changes no bit of any array formula, NaN included:
    the symmetry the oracle's half-square search rests on."""
    shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=5))
    limits = st.floats(min_value=0.0, allow_infinity=False) | edge_values | st.just(math.nan)
    c1, c2 = (data.draw(hnp.arrays(np.float64, shape, elements=limits)) for shape in shapes.input_shapes)
    w = Weights(a, b)
    for grid in (
        lambda x, y: _force(k, x, y, np.minimum),
        lambda x, y: _resistance(k, x, y),
        lambda x, y: _weigh(w, _force(k, x, y, np.minimum), _resistance(k, x, y)),
        lambda x, y: feasible(w, k, x, y),
    ):
        with np.errstate(all="ignore"):  # the oracle's own scope
            straight, swapped = bits(grid(c1, c2)), bits(grid(c2, c1))
        assert straight.shape == swapped.shape
        assert np.array_equal(straight, swapped)


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


# limits over the whole extended range: zero, subnormals, near the largest
# float, and infinity
extended_limits = st.floats(min_value=0.0) | st.sampled_from(
    [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, math.inf]
)


def written_out(w, k, c1, c2):
    """Force, resistance and performance at one point, written out on
    Python floats, with ``inf`` at a zero divisor."""

    def inverse(c):
        return 1.0 / c if c != 0.0 else math.inf

    if k is P:
        f, r = c1 + c2, inverse(c1 + c2)
    else:
        f, r = min(c1, c2), inverse(c1) + inverse(c2)
    return f, r, f * w.a + r * w.b if w.b > 0.0 else f * w.a


@given(
    a=extended_limits,
    b=extended_limits,
    k=st.sampled_from([P, S]),
    pairs=st.lists(st.tuples(extended_limits, extended_limits), min_size=1, max_size=8),
)
def test_formulas_match_written_out_reference(a, b, k, pairs):
    """``force``, ``resistance`` and ``multiperf`` on floats, and the model's
    private formulas on arrays in the oracle's error-state scope, give the
    expressions written out above, bit for bit, NaN included."""
    w = Weights(a, b)
    expected = bits(np.array([written_out(w, k, c1, c2) for c1, c2 in pairs]))
    springs = [SpringPair(c1, c2) for c1, c2 in pairs]
    scalar = np.array([(force(k, s), resistance(k, s), multiperf(w, k, s)) for s in springs])
    c1, c2 = np.array(pairs).T
    with np.errstate(all="ignore"):
        f, r = _force(k, c1, c2, np.minimum), _resistance(k, c1, c2)
        array = np.stack([f, r, _weigh(w, f, r)], axis=1)
    assert np.array_equal(bits(scalar), expected)
    assert np.array_equal(bits(array), expected)


def test_grid_twins_match_scalar_functions():
    """The model's formulas on arrays, in the oracle's error-state scope,
    agree pointwise with the public functions on floats."""
    rng = np.random.default_rng(123)
    c1 = rng.uniform(0.0, 10.0, size=200)
    c2 = rng.uniform(0.0, 10.0, size=200)
    c1[:5] = 0.0  # exercise the extended-arithmetic branch
    for w in (Weights(0.7, 0.3), Weights(0.0, 1.0), Weights(1.0, 0.0)):
        for k in (P, S):
            with np.errstate(all="ignore"):
                f = _force(k, c1, c2, np.minimum)
                r = _resistance(k, c1, c2)
                m = _weigh(w, _force(k, c1, c2, np.minimum), _resistance(k, c1, c2))
            for idx in range(c1.size):
                s = SpringPair(float(c1[idx]), float(c2[idx]))
                assert f[idx] == force(k, s)
                assert r[idx] == resistance(k, s)
                assert m[idx] == multiperf(w, k, s)


def test_grid_twins_broadcast():
    axis = np.array([0.0, 0.5, 1.0])
    with np.errstate(all="ignore"):
        r = _resistance(P, axis[:, None], axis[None, :])
    assert r.shape == (3, 3)
    assert r[0, 0] == math.inf
    assert r[1, 1] == 1.0


@pytest.mark.parametrize(
    "w", [Weights(0.7, 0.3), Weights(1.0, 0.0), Weights(0.0, 1.0), Weights(0.0, 0.0), Weights(1e308, 1e308)]
)
def test_weigh_reads_its_inputs_and_returns_a_new_array(w):
    """``_weigh`` leaves read-only inputs as they were, byte for byte, and
    returns ``f*a (+ r*b)`` as Python floats compute it, bit for bit: the
    resistance is added only when ``b > 0``, so ``r = inf`` under ``b = 0``
    adds nothing."""
    f = np.array([0.0, 5e-324, 0.5, 1.0, 2.0, 1e308, math.inf, 0.3])
    r = np.array([math.inf, 1e308, 2.0, 1.0, 0.5, 1e-308, 0.0, math.inf])
    before = f.tobytes(), r.tobytes()
    f.flags.writeable = r.flags.writeable = False
    with np.errstate(all="ignore"):  # the oracle's own scope
        got = _weigh(w, f, r)
    assert (f.tobytes(), r.tobytes()) == before
    assert not np.shares_memory(got, f) and not np.shares_memory(got, r)
    expected = [fi * w.a + ri * w.b if w.b > 0.0 else fi * w.a for fi, ri in zip(f.tolist(), r.tolist())]
    assert np.array_equal(bits(got), bits(np.array(expected)))


def feasible_point(w, k, c1, c2):
    """The scalar spec of feasibility at one point."""
    s = SpringPair(float(c1), float(c2))
    return force(k, s) >= 1.0 and multiperf(w, k, s) >= 1.0


def assert_kernel_matches_scalar(w, k, c1, c2):
    """Each point of the kernel's mask is the scalar spec ``force >= 1 and
    multiperf >= 1``, and a point with a NaN limit, which ``SpringPair``
    rejects, is False."""
    got = feasible(w, k, c1, c2)
    assert got.shape == np.broadcast(c1, c2).shape
    assert got.dtype == bool
    for x1, x2, ok in np.nditer(np.broadcast_arrays(c1, c2, got)):
        if np.isnan(x1) or np.isnan(x2):
            assert not ok, (w, k, x1, x2)
        else:
            assert bool(ok) == feasible_point(w, k, x1, x2), (w, k, x1, x2)
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
    def test_nan_padded_windows(self, w, k):
        # c1 of shape (n,) against a (32, n) window of a NaN-padded axis;
        # each point's expected mask is gathered from the scalar spec over
        # the square
        width, axis = 32, np.arange(121) * 0.05
        n = axis.size
        square = np.array([[feasible_point(w, k, x1, x2) for x2 in axis] for x1 in axis])
        padded = np.full(2 * n + 2 * width, np.nan)
        padded[width - 1 : width - 1 + n] = axis
        runs = sliding_window_view(padded, n)
        i = np.broadcast_to(n - 1 - np.arange(n), (width, n))  # c1 = axis[::-1]
        for q in range(0, runs.shape[0] - width + 1, 7):
            j = q + np.arange(width)[:, None] + np.arange(n) - (width - 1)
            inside = (0 <= j) & (j < n)  # the rest is NaN padding
            expected = np.zeros((width, n), dtype=bool)
            expected[inside] = square[i[inside], j[inside]]
            assert np.array_equal(feasible(w, k, axis[::-1], runs[q : q + width]), expected)

    @pytest.mark.parametrize("w", FEASIBLE_WEIGHTS)
    @pytest.mark.parametrize("k", [P, S])
    def test_zero_row_and_column(self, w, k):
        axis = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
        got = assert_kernel_matches_scalar(w, k, axis[:, None], axis[None, :])
        if k is S:
            # a zero limit caps the serial force at 0, whatever 1/0 gives
            assert not got[0].any() and not got[:, 0].any()

    @pytest.mark.parametrize("w", FEASIBLE_WEIGHTS)
    @pytest.mark.parametrize("k", [P, S])
    def test_extreme_magnitudes(self, w, k):
        axis = np.array([0.0, 5e-324, 1e-310, 2.2e-308, 1e-300, 1.0, 1e300, 1e308, 1.7e308, np.nan])
        assert_kernel_matches_scalar(w, k, axis[:, None], axis[None, :])

    @pytest.mark.parametrize("k", [P, S])
    def test_all_weak_block_is_infeasible(self, k):
        axis = np.arange(60) * 0.005  # every limit below 0.3: weak in both wirings
        got = assert_kernel_matches_scalar(Weights(1.0, 1.0), k, axis[:, None], axis[None, :])
        assert not got.any()

    @pytest.mark.parametrize("k", [P, S])
    def test_nan_limit_is_infeasible(self, k):
        """A point with a NaN limit is False under every weight, the edge
        values included."""
        axis = np.array([0.0, 5e-324, 0.5, 1.0, 2.0, 1e300, 1e308, math.nan])
        nan = np.isnan(axis[:, None]) | np.isnan(axis[None, :])
        edges = [0.0, 5e-324, 0.3, 1.0, 1e6, 1e308]
        for w in FEASIBLE_WEIGHTS + [Weights(a, b) for a in edges for b in edges]:
            got = feasible(w, k, axis[:, None], axis[None, :])
            assert not got[nan].any(), w

    @given(
        a=st.floats(0.0, 1e6) | edge_values,
        b=st.floats(0.0, 1e6) | edge_values,
        k=st.sampled_from([P, S]),
        data=st.data(),
    )
    def test_property_matches_reference(self, a, b, k, data):
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=5))
        limits = st.floats(min_value=0.0, allow_infinity=False) | edge_values | st.just(math.nan)
        c1, c2 = (data.draw(hnp.arrays(np.float64, shape, elements=limits)) for shape in shapes.input_shapes)
        assert_kernel_matches_scalar(Weights(a, b), k, c1, c2)


ordered_limits = st.lists(extended_limits, min_size=2, max_size=2).map(sorted)


@given(c1=ordered_limits, c2=ordered_limits, k=st.sampled_from([P, S]))
def test_force_rises_and_resistance_falls_in_each_limit(c1, c2, k):
    """The monotonicity, in rounded arithmetic, that the oracle's row rule
    rests on: a grid row whose force is equal at both ends has constant
    force, so each of its points after the first is dominated by its
    column predecessor, whose resistance is at least as large, and the
    frontier build skips them.  The oracle's other contract, the symmetry
    its half-square search rests on, is tested by
    ``test_grids_swap_symmetry``."""
    corners = np.array([[c1[0], c2[0]], [c1[1], c2[0]], [c1[0], c2[1]], [c1[1], c2[1]]])
    with np.errstate(all="ignore"):
        f = _force(k, corners[:, 0], corners[:, 1], np.minimum)
        r = _resistance(k, corners[:, 0], corners[:, 1])
    # each pair raises one limit: (lo, lo) -> (hi, lo) -> (hi, hi), (lo, lo) -> (lo, hi) -> (hi, hi)
    for low, high in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert f[low] <= f[high]
        assert r[low] >= r[high]
