"""Tests for weight-space classification and topology selection."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from exact_reference import exact_decision
from near_line import NEAR_LINES
from performance_roots import roots
from value_contract import assert_value_contract

from twospring import solver
from twospring.model import Topology, Weights
from twospring.phase import total_cost_grid, winner_grid
from twospring.regions import (
    B2_SEGMENT_A_MAX,
    B2_SEGMENT_A_MIN,
    RegionLabel,
    RegionReport,
    Winner,
    b2_boundary,
    winner,
)
from twospring.solver import expand, solve_reduced

P = Topology.PARALLEL
S = Topology.SERIAL

# nonnegative weights with the float edges drawn often: zero, subnormal and
# tiny values, values near the overflow threshold, and inf
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-308, 2e-308, 1e308, 1.7976931348623157e308, math.inf]),
    st.floats(min_value=0.0),
)


class TestClassify:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (0.2, 0.2, RegionLabel.A),
            (0.6, 0.5, RegionLabel.C),
            (0.3, 0.5, RegionLabel.B2),
            (0.35, 0.62, RegionLabel.B1),
            (1.0, 1.0, RegionLabel.C),
            (0.5, 0.5, RegionLabel.C),  # a+b-1 == 0 belongs to C
            (0.0, 0.6, RegionLabel.B2),  # infeasible parallel strip
            (0.0, 0.3, RegionLabel.A),
            (0.0, 1.2, RegionLabel.C),
        ],
    )
    def test_examples(self, a, b, expected):
        assert winner(Weights(a, b)).label is expected

    def test_b1_b2_divider_assigned_to_b1(self):
        # on the dividing locus the minimal parallel cost equals 2 exactly
        w = Weights(0.4, b2_boundary(0.4))
        assert solve_reduced(w, P).total_cost == 2.0
        assert winner(w).label is RegionLabel.B1


class TestWinner:
    def test_region_a_example(self):
        rep = winner(Weights(0.2, 0.2))
        assert rep.winner is Winner.PARALLEL
        assert rep.cost_parallel == pytest.approx(4.791288, abs=1e-6)
        assert rep.cost_serial == pytest.approx(9.123106, abs=1e-6)

    def test_b2_example(self):
        rep = winner(Weights(0.3, 0.5))
        assert rep.label is RegionLabel.B2
        assert rep.winner is Winner.SERIAL
        assert rep.cost_parallel == pytest.approx(2.720759220056127, abs=1e-12)
        assert rep.cost_serial == 2.0

    def test_region_c_example(self):
        rep = winner(Weights(1.0, 1.0))
        assert rep.winner is Winner.PARALLEL
        assert (rep.cost_parallel, rep.cost_serial) == (1.0, 2.0)

    def test_infeasible_parallel_strip(self):
        rep = winner(Weights(0.0, 0.7))
        assert rep.winner is Winner.SERIAL
        assert rep.cost_parallel == math.inf
        assert rep.cost_serial == 2.0

    def test_both_infeasible(self):
        rep = winner(Weights(0.0, 0.3))
        assert rep.winner is Winner.BOTH_INFEASIBLE
        assert math.isinf(rep.cost_parallel) and math.isinf(rep.cost_serial)

    def test_tie_on_divider(self):
        rep = winner(Weights(0.4, b2_boundary(0.4)))
        assert rep.winner is Winner.TIE
        assert rep.cost_parallel == rep.cost_serial == 2.0

    def test_report_invariants_on_sample(self):
        rng = np.random.default_rng(11)
        for a, b in rng.uniform(0.0, 3.0, size=(500, 2)):
            rep = winner(Weights(float(a), float(b)))
            if rep.winner is Winner.PARALLEL:
                assert rep.cost_parallel < rep.cost_serial
            elif rep.winner is Winner.SERIAL:
                assert rep.cost_serial < rep.cost_parallel
            elif rep.winner is Winner.TIE:
                assert math.isfinite(rep.cost_parallel)
                assert rep.cost_parallel == rep.cost_serial
            else:
                assert math.isinf(rep.cost_parallel) and math.isinf(rep.cost_serial)


    # one pair per label and one per winner
    @pytest.mark.parametrize(
        "a, b, label, best",
        [
            (0.2, 0.2, RegionLabel.A, Winner.PARALLEL),
            (0.35, 0.62, RegionLabel.B1, Winner.PARALLEL),
            (0.3, 0.5, RegionLabel.B2, Winner.SERIAL),
            (1.0, 1.0, RegionLabel.C, Winner.PARALLEL),
            (0.4, 0.3999999999999999, RegionLabel.B1, Winner.TIE),
            (0.0, 0.3, RegionLabel.A, Winner.BOTH_INFEASIBLE),
        ],
    )
    def test_reports_the_canonical_members(self, a, b, label, best):
        rep = winner(Weights(a, b))
        assert rep.label is label and rep.winner is best


def test_value_contract():
    assert_value_contract(RegionReport)


def load_benchmark_reference():
    """The benchmark's frozen point-query answers, ``perfbench/reference.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_point_queries_match_the_benchmark_answers():
    """The benchmark's query, ``winner`` and then ``expand(solve_reduced(w, k), k)``
    for the winning wiring, gives the tuple its correctness check compares, at
    1,000 seeded weights each uniform on ``[0, 1.5]^2``, on the ``a = 0`` axis
    and on the lines ``a + 2b = 1``, ``a + b = 1`` and ``b = 2 - 4a``."""
    design_answer = load_benchmark_reference().design_answer
    rng = np.random.default_rng(8)
    n = 1000
    t = rng.uniform(0.0, 1.0, n).tolist()
    seg = [B2_SEGMENT_A_MIN + x * (B2_SEGMENT_A_MAX - B2_SEGMENT_A_MIN) for x in t]
    pairs = [
        *zip(rng.uniform(0.0, 1.5, n).tolist(), rng.uniform(0.0, 1.5, n).tolist()),
        *((0.0, b) for b in rng.uniform(0.0, 1.5, n).tolist()),
        *((a, (1.0 - a) / 2.0) for a in t),
        *((a, 1.0 - a) for a in t),
        *((a, 2.0 - 4.0 * a) for a in seg),
    ]
    seen = set()
    for a, b in pairs:
        w = Weights(a, b)
        report = winner(w)
        got = (report.label.value, report.winner.value, report.cost_parallel, report.cost_serial)
        if report.winner is Winner.BOTH_INFEASIBLE:
            got += (None, None, None)
        else:
            k = S if report.winner is Winner.SERIAL else P
            design = expand(solve_reduced(w, k), k)
            got += (design.c1_star, design.c2_star, design.total_cost)
        assert got == design_answer(a, b), (a, b)
        seen.add(got[:2])
    # every label and every outcome occurs
    assert {label for label, _ in seen} == {"A", "B1", "B2", "C"}
    assert {best for _, best in seen} == {"parallel", "serial", "tie", "infeasible"}


class TestB2Boundary:
    def test_meets_b_c_line(self):
        a = 1.0 / 3.0
        b = b2_boundary(a)
        assert b == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert a + b - 1.0 == pytest.approx(0.0, abs=1e-12)
        assert roots(Weights(a, b), P)[1] == pytest.approx(2.0, abs=1e-12)

    def test_meets_a_b_line(self):
        a = 3.0 / 7.0
        b = b2_boundary(a)
        assert b == pytest.approx(2.0 / 7.0, abs=1e-15)
        assert a + 2.0 * b - 1.0 == pytest.approx(0.0, abs=1e-12)
        assert roots(Weights(a, b), P)[1] == pytest.approx(2.0, abs=1e-12)

    def test_interior_point(self):
        assert b2_boundary(0.4) == pytest.approx(0.4, abs=1e-15)
        assert solve_reduced(Weights(0.4, b2_boundary(0.4)), P).total_cost == pytest.approx(2.0, abs=1e-12)

    def test_absent_outside_band(self):
        for a in (0.0, 0.2, 0.26, 0.30, 1.0 / 3.0 - 1e-9, 3.0 / 7.0 + 1e-9, 0.46, 1.0):
            assert b2_boundary(a) is None

    def test_segment_bounds(self):
        assert B2_SEGMENT_A_MIN == pytest.approx(1.0 / 3.0)
        assert B2_SEGMENT_A_MAX == pytest.approx(3.0 / 7.0)


def test_labels_and_winners_match_the_exact_reference():
    """Away from the dividing lines, rounding picks no side."""
    for a, b in np.random.default_rng(0).uniform(0.0, 1.5, (20_000, 2)).tolist():
        rep = winner(Weights(a, b))
        assert (rep.label.value, rep.winner.value) == exact_decision(a, b), (a, b)


@pytest.mark.parametrize(
    "a,b,label,best",
    [
        (0.0, 0.2, "A", "infeasible"),
        (0.0, 0.5, "B2", "serial"),
        (0.0, 1.0, "C", "parallel"),
        (0.2, 0.4, "B2", "serial"),  # a + 2b = 1 exactly
        (0.5, 0.5, "C", "parallel"),  # a + b = 1 exactly
        (0.25, 0.6, "B2", "serial"),  # a = 1/4, below 2 - 4a = 1
        (0.375, 0.5, "B1", "tie"),  # b = 2 - 4a exactly
        (0.375, 0.5000000000000001, "B1", "parallel"),
        (0.375, 0.49999999999999994, "B2", "serial"),
        (0.5, 0.25, "B1", "parallel"),
    ],
)
def test_exact_reference_on_the_lines(a, b, label, best):
    assert exact_decision(a, b) == (label, best)


def test_labels_partition_the_quadrant():
    """Exactly one region predicate holds at every sampled weight pair."""
    rng = np.random.default_rng(5)
    for a, b in rng.uniform(0.0, 3.0, size=(4000, 2)):
        w = Weights(float(a), float(b))
        in_a = w.a + 2.0 * w.b - 1.0 < 0.0
        in_c = w.a + w.b - 1.0 >= 0.0
        in_b = not in_a and not in_c
        cost_p = solve_reduced(w, P).total_cost
        flags = [in_a, in_b and cost_p > 2.0, in_b and cost_p <= 2.0, in_c]
        assert sum(flags) == 1
        expected = [RegionLabel.A, RegionLabel.B2, RegionLabel.B1, RegionLabel.C][flags.index(True)]
        assert winner(w).label is expected


def test_serial_wins_exactly_on_b2():
    """Whenever the costs differ meaningfully, serial wins iff the label is B2."""
    rng = np.random.default_rng(6)
    for a, b in rng.uniform(0.0, 3.0, size=(4000, 2)):
        rep = winner(Weights(float(a), float(b)))
        if not abs(rep.cost_parallel - rep.cost_serial) > 1e-9:
            continue  # ties and double infeasibility carry no winner claim
        if rep.winner is Winner.SERIAL:
            assert rep.label is RegionLabel.B2
        else:
            assert rep.winner is Winner.PARALLEL
            assert rep.label is not RegionLabel.B2


def test_parallel_dominates_region_a():
    rng = np.random.default_rng(7)
    count = 0
    while count < 1000:
        a, b = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
        if a + 2.0 * b - 1.0 >= 0.0:
            continue
        rep = winner(Weights(float(a), float(b)))
        assert rep.cost_parallel < rep.cost_serial
        count += 1


def test_region_c_costs_are_exact():
    rng = np.random.default_rng(8)
    count = 0
    while count < 1000:
        a, b = rng.uniform(0.0, 1.5, size=2)
        if a + b - 1.0 < 0.0:
            continue
        rep = winner(Weights(float(a), float(b)))
        assert (rep.cost_parallel, rep.cost_serial) == (1.0, 2.0)
        count += 1


def test_divider_locus_has_parallel_cost_two():
    for a in np.arange(0.26, 0.4201, 0.04):
        a = float(a)
        b = b2_boundary(a)
        if b is None:
            assert not (B2_SEGMENT_A_MIN <= a <= B2_SEGMENT_A_MAX)
            continue
        assert abs(solve_reduced(Weights(a, b), P).total_cost - 2.0) <= 1e-12


def test_winner_flips_across_divider():
    for a in (0.36, 0.40):
        b = 2.0 - 4.0 * a
        below = winner(Weights(a, b - 1e-6))  # less resistance help: parallel costlier
        above = winner(Weights(a, b + 1e-6))
        assert below.winner is Winner.SERIAL
        assert below.label is RegionLabel.B2
        assert above.winner is Winner.PARALLEL
        assert above.label is RegionLabel.B1


def test_winner_grid_matches_scalar_reports():
    """winner_grid codes and costs equal winner's report at every pair."""
    rng = np.random.default_rng(9)
    edges = [
        (0.0, 0.3), (0.0, 0.7), (0.0, 1.2), (0.4, b2_boundary(0.4)), (0.5, 0.5), (0.2, 0.4),
        (B2_SEGMENT_A_MIN, 2.0 / 3.0), (B2_SEGMENT_A_MAX, 2.0 / 7.0),
        (0.36, 0.56 - 1e-6), (0.36, 0.56 + 1e-6),
        # a = -0.0, where np.linspace(0.0, -0.0, n) ends
        (-0.0, 0.3), (-0.0, 0.5), (-0.0, 0.7), (-0.0, 1.0), (-0.0, 1.2),
    ]
    # within 4 ulps of a + b = 1, a + 2b = 1 and a = 0, where rounding picks the side
    edges += [pair for pairs in NEAR_LINES.values() for pair in pairs]
    a, b = np.concatenate([np.array(edges).T, rng.uniform(0.0, 1.5, size=(2, 4000))], axis=1)
    region, best, cost_p, cost_s = winner_grid(a, b)
    labels, winners = tuple(RegionLabel), tuple(Winner)
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        rep = winner(Weights(x, y))
        assert (labels[region[i]], winners[best[i]]) == (rep.label, rep.winner)
        assert (cost_p[i], cost_s[i]) == (rep.cost_parallel, rep.cost_serial)
    assert {labels[r] for r in region.tolist()} == set(RegionLabel)
    assert {winners[w] for w in best.tolist()} == set(Winner)



@pytest.mark.parametrize(
    "a,b", [(1e-200, 1e-200), (5e-324, 0.2), (1e308, 1e308), (0.0, 1e308), (1e-300, 1e300)]
)
def test_array_kernels_raise_no_floating_point_error(a, b):
    """Under a raising caller the array kernels underflow and overflow as
    Python floats do, return the scalar costs, and leave the caller's error
    state as it was."""
    rep = winner(Weights(a, b))
    x, y = np.array([a]), np.array([b])
    with np.errstate(all="raise"):
        state = np.geterr()
        region, best, cost_p, cost_s = winner_grid(x, y)
        assert np.geterr() == state
        costs = [total_cost_grid(x, y, k)[0][0] for k in (P, S)]
        assert np.geterr() == state
    assert costs == [cost_p[0], cost_s[0]] == [rep.cost_parallel, rep.cost_serial]
    assert (tuple(RegionLabel)[region[0]], tuple(Winner)[best[0]]) == (rep.label, rep.winner)

class _NoReducedSolution:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a ReducedSolution was built")


@pytest.mark.parametrize(
    "a,b,label",
    [
        (0.2, 0.2, RegionLabel.A),
        (0.35, 0.62, RegionLabel.B1),
        (0.3, 0.5, RegionLabel.B2),
        (0.6, 0.5, RegionLabel.C),
        (0.0, 0.6, RegionLabel.B2),
        (5e-324, 0.1, RegionLabel.A),
    ],
)
def test_winner_builds_no_reduced_solution(monkeypatch, a, b, label):
    monkeypatch.setattr(solver, "ReducedSolution", _NoReducedSolution)
    w = Weights(a, b)
    with pytest.raises(AssertionError, match="ReducedSolution"):
        # the stub is the one the solver builds (on the root branch: the
        # strength-bound solutions are shared values built at import)
        solve_reduced(Weights(0.2, 0.2), P)
    assert winner(w).label is label


@given(a=WEIGHTS, b=WEIGHTS)
def test_winner_costs_are_solve_reduced_costs(a, b):
    """winner's costs equal solve_reduced's total_cost bit for bit on every
    nonnegative weight pair."""
    w = Weights(a, b)
    rep = winner(w)
    assert rep.cost_parallel == solve_reduced(w, P).total_cost
    assert rep.cost_serial == solve_reduced(w, S).total_cost
