"""The scalar query's fast paths against a kernel-only reference.

``winner`` decides band C and ``solve_reduced`` the strength bound before
the kernel runs, and both ``solve_reduced`` and ``expand`` return shared
values for the strength bound.  With the kernel stubbed out, the path tests
show which path answered, which the values alone cannot.  The reference here
answers every query through the kernel alone, ``solver._reduced``, and
labels it with the line predicates as written, so each answer must equal it
field for field: the same enum members, and costs and limits equal bit for
bit.  The library reads its labels from the kernel's branches instead, so
the label is checked against the lines, not against itself.
"""

import dataclasses
import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st
from near_line import NEAR_LINES

from twospring import regions, solver
from twospring.model import Topology, Weights
from twospring.regions import RegionLabel, Winner, winner
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


def ref_label(a, b, cost_p):
    """The region of ``(a, b)`` by the lines ``a + 2b = 1`` and ``a + b = 1``
    and, in band B, the parallel cost ``cost_p`` against the serial 2."""
    if a + 2.0 * b - 1.0 < 0.0:
        return RegionLabel.A
    if a + b - 1.0 >= 0.0:
        return RegionLabel.C
    if cost_p > 2.0:
        return RegionLabel.B2
    return RegionLabel.B1


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
    return ref_label(a, b, cost_p), best, cost_p, cost_s


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


@pytest.mark.parametrize("pairs", list(NEAR_LINES.values()), ids=list(NEAR_LINES))
def test_near_the_lines(pairs):
    for a, b in pairs:
        assert_matches_reference(a, b)
    # both sides of each line are drawn
    assert len({winner(Weights(a, b)).label for a, b in pairs}) >= 2


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
    """With the kernel unavailable, winner still answers every band-C pair;
    a band-A or band-B pair needs it."""
    expected = {(a, b): ref_report(a, b) for a, b in BAND_C}
    monkeypatch.setattr(regions, "_reduced", _raises)
    for a, b in BAND_C:
        report = winner(Weights(a, b))
        assert bits(fields(report)) == bits(expected[a, b])
        assert report.label is RegionLabel.C and report.winner is Winner.PARALLEL
    for a, b in BAND_A + BAND_B:
        with pytest.raises(AssertionError, match="kernel"):
            winner(Weights(a, b))


# each wiring's line a + k*b = 1 and the a = 0 axis at k*b = 1 (also at
# a = -0.0), off the lines, the inf edges, one ulp below each line (each sum
# exact, so the test sees the ulp), and root or infeasible pairs; each pair
# runs in both wirings
LINES = [
    (0.5, 0.5), (0.25, 0.75), (0.5, 0.25), (0.25, 0.375), (0.0, 1.0), (0.0, 0.5), (-0.0, 1.0), (-0.0, 0.5),
    (0.6, 0.5), (0.3, 0.4), (1.0, 0.0), (math.inf, 0.0), (0.0, math.inf), (-0.0, math.inf), (math.inf, math.inf),
    (0.25, math.nextafter(0.75, 0.0)), (0.25, math.nextafter(0.375, 0.0)), (0.0, math.nextafter(1.0, 0.0)),
    (0.0, math.nextafter(0.5, 0.0)), (-0.0, math.nextafter(0.5, 0.0)), (0.2, 0.2), (0.0, 0.3), (5e-324, 0.1),
]  # fmt: skip
PATH_PAIRS = {"lines": LINES, **NEAR_LINES, "edges": [(a, b) for a in EDGES for b in EDGES]}


@pytest.mark.parametrize("pairs", list(PATH_PAIRS.values()), ids=list(PATH_PAIRS))
def test_strength_bound_needs_no_kernel(monkeypatch, pairs):
    """With the kernel unavailable, solve_reduced answers each case the
    kernel puts on the strength bound, bit for bit, and reaches the kernel
    for every other case."""
    expected = [(a, b, k, ref_solution(a, b, k)) for a, b in pairs for k in TOPOLOGIES]
    monkeypatch.setattr(solver, "_reduced", _raises)
    for a, b, k, ref in expected:
        if ref[3] is STRENGTH:
            assert bits(fields(solve_reduced(Weights(a, b), k))) == bits(ref), (a, b, k)
        else:
            with pytest.raises(AssertionError, match="kernel"):
                solve_reduced(Weights(a, b), k)
    # both paths are taken
    assert len({ref[3] is STRENGTH for _, _, _, ref in expected}) == 2


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
