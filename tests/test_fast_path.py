"""The scalar query's fast paths against a kernel-only reference.

``winner`` and ``classify`` decide band C (and ``classify`` band A) before
the kernel runs, and ``solve_reduced`` and ``expand`` return shared values
for the strength bound.  The reference here answers every query through the
kernel alone, ``solver._reduced`` and ``regions._label`` with the parallel
cost given, so each answer must equal it field for field: the same enum
members, and costs and limits equal bit for bit.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twospring import regions, solver
from twospring.model import Topology, Weights
from twospring.regions import RegionLabel, Winner, classify, winner
from twospring.solver import (
    ActiveConstraint,
    DesignSolution,
    InfeasibleError,
    ReducedSolution,
    _reduced,
    expand,
    solve_reduced,
)

P = Topology.PARALLEL
S = Topology.SERIAL
TOPOLOGIES = (P, S)
STRENGTH = ActiveConstraint.STRENGTH_BOUND
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-308, 2e-308, 1e308, 1.7976931348623157e308, math.inf]),
    st.floats(min_value=0.0),
)


def bits(value):
    """``value`` with each float replaced by its IEEE bytes, so ``==`` is bit equality."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


def fields(obj):
    """The dataclass fields of ``obj``, in order."""
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def ref_solution(a, b, k):
    x_star, total, active = _reduced(a, b, float(k.k))
    return x_star is not None, x_star, total, active


def ref_report(a, b):
    cost_p = ref_solution(a, b, P)[2]
    cost_s = ref_solution(a, b, S)[2]
    if math.isinf(cost_p) and math.isinf(cost_s):
        best = Winner.BOTH_INFEASIBLE
    elif cost_p < cost_s:
        best = Winner.PARALLEL
    elif cost_s < cost_p:
        best = Winner.SERIAL
    else:
        best = Winner.TIE
    return regions._label(a, b, cost_p), best, cost_p, cost_s


def ref_design(solution, k):
    feasible, x_star, total, _ = solution
    if not feasible:
        return None
    c = x_star if k is S else x_star / 2.0
    return c, c, total, k


def assert_matches_reference(a, b):
    """Every scalar query at ``(a, b)`` equals the kernel-only reference."""
    w = Weights(a, b)
    report = ref_report(a, b)
    assert bits(fields(winner(w))) == bits(report), (a, b)
    assert classify(w) is report[0], (a, b)
    for k in TOPOLOGIES:
        sol = solve_reduced(w, k)
        expected = ref_solution(a, b, k)
        assert bits(fields(sol)) == bits(expected), (a, b, k)
        for k2 in TOPOLOGIES:
            design = ref_design(expected, k2)
            # the solver's own solution, and an equal one a caller built
            for given_sol in (sol, dataclasses.replace(sol)):
                if design is None:
                    with pytest.raises(InfeasibleError):
                        expand(given_sol, k2)
                else:
                    assert bits(fields(expand(given_sol, k2))) == bits(design), (a, b, k, k2)


def ulps(x, n):
    """``x`` moved by ``n`` ulps (down when ``n`` is negative), staying nonnegative."""
    toward = -math.inf if n < 0 else math.inf
    for _ in range(abs(n)):
        x = max(math.nextafter(x, toward), 0.0)
    return x


def near_line(points):
    """Each pair of ``points`` with each weight moved by -4 to +4 ulps."""
    return [(ulps(a, i), ulps(b, j)) for a, b in points for i in range(-4, 5) for j in range(-4, 5)]


T = np.random.default_rng(12).uniform(0.0, 1.0, 40).tolist()


@pytest.mark.parametrize(
    "pairs",
    [
        near_line([(t, 1.0 - t) for t in T]),  # a + b = 1
        near_line([(t, (1.0 - t) / 2.0) for t in T]),  # a + 2b = 1
        near_line([(0.0, 0.5), (0.0, 1.0), (0.5, 0.5), (1.0, 0.0), (1.0 / 3.0, 1.0 / 3.0)]),
    ],
    ids=["a+b=1", "a+2b=1", "a=0-and-corners"],
)
def test_near_the_lines(pairs):
    for a, b in pairs:
        assert_matches_reference(a, b)
    # both sides of each line are drawn
    assert len({classify(Weights(a, b)) for a, b in pairs}) >= 2


EDGES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.25, 0.5, 1.0, 2.0, 1e300, 1.7976931348623157e308, math.inf]


def test_inf_and_subnormal_weights():
    for a in EDGES:
        for b in EDGES:
            assert_matches_reference(a, b)


@given(a=WEIGHTS, b=WEIGHTS)
def test_matches_the_reference_on_the_quadrant(a, b):
    assert_matches_reference(a, b)


def _raises(*args):
    raise AssertionError("the kernel ran")


# band C, on a + b = 1 exactly and off it, including the a = 0 and inf edges
BAND_C = [(0.5, 0.5), (0.25, 0.75), (0.0, 1.0), (1.0, 0.0), (0.6, 0.5), (0.0, 1.2), (2.0, 3.0), (math.inf, 0.0), (0.0, math.inf)]
BAND_A = [(0.2, 0.2), (0.0, 0.3), (5e-324, 0.1), (0.9, 0.04)]
BAND_B = [(0.35, 0.62), (0.3, 0.5), (0.0, 0.6), (0.0, 0.5), (0.9, 0.06)]


def test_band_c_needs_no_kernel(monkeypatch):
    """With the kernel unavailable, winner and classify still answer every
    band-C pair, and classify every band-A pair; a band-B pair needs it."""
    expected = {(a, b): (ref_report(a, b), classify(Weights(a, b))) for a, b in BAND_C + BAND_A}
    monkeypatch.setattr(regions, "_reduced", _raises)
    for a, b in BAND_C:
        report = winner(Weights(a, b))
        assert bits(fields(report)) == bits(expected[a, b][0])
        assert report.label is RegionLabel.C and report.winner is Winner.PARALLEL
        assert classify(Weights(a, b)) is RegionLabel.C
    for a, b in BAND_A:
        assert classify(Weights(a, b)) is expected[a, b][1] is RegionLabel.A
    for a, b in BAND_B:
        with pytest.raises(AssertionError, match="kernel"):
            winner(Weights(a, b))
        with pytest.raises(AssertionError, match="kernel"):
            classify(Weights(a, b))
    with pytest.raises(AssertionError, match="kernel"):
        winner(Weights(0.2, 0.2))


class _NoValue:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a value object was built")


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (1.0, 1.0), (0.0, 1.0), (0.3, 0.5), (0.0, 0.6)])
def test_strength_bound_builds_no_value(monkeypatch, a, b):
    """Where the kernel takes the strength branch, solve_reduced and expand
    answer without building a ReducedSolution or DesignSolution."""
    w = Weights(a, b)
    expected = {k: ref_solution(a, b, k) for k in TOPOLOGIES}
    monkeypatch.setattr(solver, "ReducedSolution", _NoValue)
    monkeypatch.setattr(solver, "DesignSolution", _NoValue)
    strength = [k for k in TOPOLOGIES if expected[k][3] is STRENGTH]
    assert strength
    for k in strength:
        sol = solve_reduced(w, k)
        assert bits(fields(sol)) == bits(expected[k])
        for k2 in TOPOLOGIES:
            assert bits(fields(expand(sol, k2))) == bits(ref_design(expected[k], k2))
    with pytest.raises(AssertionError, match="value object"):
        solve_reduced(Weights(0.2, 0.2), P)


@pytest.mark.parametrize(
    "sol",
    [
        ReducedSolution(True, 3.0, 3.0, STRENGTH),
        ReducedSolution(True, 1.0, 2.0, STRENGTH),
        ReducedSolution(True, 1.0, 1.0, ActiveConstraint.PERFORMANCE_ROOT),
        ReducedSolution(False, None, math.inf, STRENGTH),
        ReducedSolution(False, 1.0, 1.0, STRENGTH),
    ],
)
def test_a_solution_the_caller_built_expands_from_its_fields(sol):
    """expand reads a solution it did not return, even an equal one or one
    marked as the strength bound, from its own fields."""
    for k in TOPOLOGIES:
        expected = ref_design((sol.feasible and sol.x_star is not None, sol.x_star, sol.total_cost, None), k)
        if expected is None:
            with pytest.raises(InfeasibleError):
                expand(sol, k)
        else:
            design = expand(sol, k)
            assert type(design) is DesignSolution
            assert bits(fields(design)) == bits(expected)
