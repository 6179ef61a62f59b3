"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from twospring import oracle, sweep_cli
from twospring.model import Weights
from twospring.regions import winner
from twospring.sweep_cli import (
    BOUNDARY_HEADER,
    EXIT_DISAGREEMENT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MAX_BOUNDARY_POINTS,
    MAX_VERIFY_SAMPLES,
    SWEEP_HEADER,
    SweepSpec,
    boundary_lines,
    main,
    phase_cells,
    sweep_lines,
)


def reference_sweep_lines(spec):
    """The per-cell sweep: one scalar ``winner`` call and six ``repr`` per cell.

    Parity reference for the array kernel behind ``sweep_lines``.
    """
    a_values = [float(a) for a in np.linspace(spec.a_min, spec.a_max, spec.na)]
    b_values = [float(b) for b in np.linspace(spec.b_min, spec.b_max, spec.nb)]
    lines = [SWEEP_HEADER]
    for b in b_values:
        for a in a_values:
            rep = winner(Weights(a, b))
            costs = (repr(rep.cost_parallel), repr(rep.cost_serial))
            lines.append(",".join((repr(a), repr(b), rep.label.value, rep.winner.value, *costs)))
    return lines


def run_json(capsys, argv):
    code = main(argv)
    record = json.loads(capsys.readouterr().out)
    return code, record


class TestSolveCommand:
    def test_parallel_root_instance(self, capsys):
        code, rec = run_json(capsys, ["solve", "--a", "0.2", "--b", "0.2", "--topology", "parallel"])
        assert code == EXIT_OK
        assert rec["feasible"] is True
        assert rec["total_cost"] == pytest.approx(4.791288, abs=1e-6)
        assert rec["c1_star"] == rec["c2_star"] == pytest.approx(rec["x_star"] / 2.0)
        assert rec["active_constraint"] == "performance_root"

    def test_serial_strength_instance(self, capsys):
        code, rec = run_json(capsys, ["solve", "--a", "1", "--b", "1", "--topology", "serial"])
        assert code == EXIT_OK
        assert rec["total_cost"] == 2.0
        assert (rec["c1_star"], rec["c2_star"]) == (1.0, 1.0)

    def test_infeasible_instance_still_succeeds(self, capsys):
        code, rec = run_json(capsys, ["solve", "--a", "0", "--b", "0.3", "--topology", "parallel"])
        assert code == EXIT_OK
        assert rec["feasible"] is False
        assert rec["total_cost"] == "inf"
        assert rec["x_star"] is None

    def test_negative_weight_is_usage_error(self, capsys):
        assert main(["solve", "--a", "-1", "--b", "0.3", "--topology", "parallel"]) == EXIT_USAGE

    def test_unknown_topology_is_usage_error(self, capsys):
        assert main(["solve", "--a", "1", "--b", "1", "--topology", "ring"]) == EXIT_USAGE

    @pytest.mark.parametrize("a", ["5e-324", "1e-308", "2e-308"])
    @pytest.mark.parametrize("topology", ["parallel", "serial"])
    def test_agrees_with_classify_on_tiny_force_weight(self, capsys, a, topology):
        _, solved = run_json(capsys, ["solve", "--a", a, "--b", "0.1", "--topology", topology])
        _, classified = run_json(capsys, ["classify", "--a", a, "--b", "0.1"])
        assert solved["total_cost"] == classified[f"cost_{topology}"]
        assert solved["feasible"] == (solved["total_cost"] != "inf")
        assert solved["feasible"] == (a == "2e-308" or (a == "1e-308" and topology == "parallel"))


class TestClassifyCommand:
    @pytest.mark.parametrize(
        "a,b,region,who",
        [
            ("0.3", "0.5", "B2", "serial"),
            ("1", "1", "C", "parallel"),
            ("0.2", "0.2", "A", "parallel"),
        ],
    )
    def test_examples(self, capsys, a, b, region, who):
        code, rec = run_json(capsys, ["classify", "--a", a, "--b", b])
        assert code == EXIT_OK
        assert rec["region"] == region
        assert rec["winner"] == who

    def test_infinite_cost_serialized_as_inf(self, capsys):
        code, rec = run_json(capsys, ["classify", "--a", "0", "--b", "0.7"])
        assert code == EXIT_OK
        assert rec["cost_parallel"] == "inf"
        assert rec["cost_serial"] == 2.0


class TestSweepCommand:
    def test_row_count_and_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--a-min", "0", "--a-max", "1", "--b-min", "0", "--b-max", "1",
             "--na", "3", "--nb", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 3 * 2
        # b outer, a inner
        coords = [tuple(map(float, line.split(",")[:2])) for line in lines[1:]]
        assert coords == [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]

    def test_region_c_square(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(
            ["sweep", "--a-min", "0.9", "--a-max", "1.2", "--b-min", "0.9", "--b-max", "1.2",
             "--na", "4", "--nb", "4", "--out", str(out)]
        ) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(row[2] == "C" and row[4] == "1.0" and row[5] == "2.0" for row in rows)

    def test_no_region_c_below_the_line(self, capsys):
        assert main(["sweep", "--a-min", "0", "--a-max", "0.2", "--b-min", "0", "--b-max", "0.3",
                     "--na", "5", "--nb", "5"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert all(row[2] != "C" for row in rows)

    def test_b2_cells_all_serial(self, capsys):
        assert main(["sweep", "--a-min", "0", "--a-max", "1.2", "--b-min", "0", "--b-max", "1.2",
                     "--na", "25", "--nb", "25"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        b2 = [row for row in rows if row[2] == "B2"]
        assert b2
        assert all(row[3] == "serial" for row in b2)

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "one.csv", tmp_path / "two.csv"
        argv = ["sweep", "--na", "15", "--nb", "15"]
        assert main(argv + ["--out", str(first)]) == EXIT_OK
        assert main(argv + ["--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_cells_match_fresh_reports(self):
        from twospring.model import Weights
        from twospring.regions import winner

        spec = SweepSpec(0.0, 1.0, 0.0, 1.0, 7, 5)
        for cell in phase_cells(spec):
            rep = winner(Weights(cell.a, cell.b))
            assert (cell.label, cell.winner) == (rep.label, rep.winner)
            assert (cell.cost_parallel, cell.cost_serial) == (rep.cost_parallel, rep.cost_serial)

    def test_bad_window_is_usage_error(self):
        assert main(["sweep", "--a-min", "1", "--a-max", "0"]) == EXIT_USAGE
        assert main(["sweep", "--na", "1"]) == EXIT_USAGE

    def test_unwritable_path_is_io_error(self):
        assert main(["sweep", "--na", "3", "--nb", "3", "--out", "/nonexistent-dir/x.csv"]) == EXIT_IO

    @pytest.mark.parametrize(
        "argv",
        [
            ["--a-max", "inf", "--na", "2", "--nb", "2"],
            ["--b-max", "inf", "--na", "2", "--nb", "2"],
            ["--na", "2001", "--nb", "2000"],
        ],
    )
    def test_unbounded_window_is_usage_error(self, capsys, argv):
        assert main(["sweep", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


class TestSweepParity:
    """The array sweep writes the same bytes as the per-cell reference."""

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(0.0, 0.0, 0.0, 1.5, 2, 61),  # the a = 0 column, a_min == a_max
            SweepSpec(1.0 / 3.0, 3.0 / 7.0, 2.0 / 7.0, 2.0 / 3.0, 41, 37),  # the B2 pocket
            SweepSpec(0.0, 1.0, 0.0, 0.5, 11, 11),  # samples on a + 2b = 1
            SweepSpec(0.0, 1.0, 0.0, 1.0, 11, 11),  # samples on a + b = 1
            SweepSpec(0.25, 0.5, 0.0, 1.0, 5, 5),  # samples on b = 2 - 4a
            SweepSpec(0.4, 0.4, 2.0 - 4.0 * 0.4, 0.4, 2, 2),  # the tie at a = 0.4
            SweepSpec(0.0, 1.2, 0.0, 1.2, 2, 2),
            SweepSpec(0.0, 1.2, 0.0, 1.2, 31, 29),
            SweepSpec(0.0, 1e-322, 0.0, 1.7e308, 3, 3),  # overflow to inf
        ],
    )
    def test_fixed_windows(self, spec):
        assert sweep_lines(spec) == reference_sweep_lines(spec)

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=2, max_size=2).map(sorted),
        b=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=2, max_size=2).map(sorted),
        na=st.integers(min_value=2, max_value=12),
        nb=st.integers(min_value=2, max_value=12),
    )
    def test_random_windows(self, a, b, na, nb):
        spec = SweepSpec(a[0], a[1], b[0], b[1], na, nb)
        assert sweep_lines(spec) == reference_sweep_lines(spec)

    def test_default_sweep_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "c0dc3e156f802170910603fd40ecbbda6ef46da26fa6a8de11966c7db569a19e"


class TestBoundariesCommand:
    def test_three_polylines_with_exact_endpoints(self, capsys):
        assert main(["boundaries", "--na", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == BOUNDARY_HEADER
        by_curve = {}
        for line in lines[1:]:
            curve, a, b = line.split(",")
            by_curve.setdefault(curve, []).append((float(a), float(b)))
        assert set(by_curve) == {"a+2b=1", "a+b=1", "b=2-4a"}
        assert all(len(points) == 5 for points in by_curve.values())
        assert by_curve["a+2b=1"][0] == (0.0, 0.5)
        assert by_curve["a+b=1"][0] == (0.0, 1.0)
        seg = by_curve["b=2-4a"]
        assert seg[0] == pytest.approx((1.0 / 3.0, 2.0 / 3.0), abs=1e-15)
        assert seg[-1] == pytest.approx((3.0 / 7.0, 2.0 / 7.0), abs=1e-15)
        # every segment point keeps both region lines consistent with the locus
        for a, b in seg:
            assert b == pytest.approx(2.0 - 4.0 * a, abs=1e-15)

    def test_resolution_must_be_at_least_two(self):
        assert main(["boundaries", "--na", "1"]) == EXIT_USAGE

    def test_resolution_cap_is_checked_before_allocating(self, capsys, monkeypatch):
        argv = ["boundaries", "--na", str(MAX_BOUNDARY_POINTS + 1)]
        assert_rejected_without_allocating(capsys, monkeypatch, argv)


class TestVerifyCommand:
    def test_small_campaign_agrees(self, capsys):
        code, rec = run_json(
            capsys,
            ["verify", "--samples", "5", "--seed", "1", "--step", "0.05", "--c-max", "6", "--tol", "0.01"],
        )
        assert code == EXIT_OK
        assert rec["checks"] == 10
        assert rec["disagreements"] == 0
        assert rec["failures"] == []
        assert rec["worst_cost_gap"] <= 0.01 + 2 * 0.05

    def test_disagreement_exits_nonzero(self, capsys, monkeypatch):
        from twospring.oracle import VerificationVerdict

        def always_wrong(w, k, g, tol):
            return VerificationVerdict(
                agree=False, status="cost-mismatch", closed_cost=1.0, oracle_cost=2.0,
                cost_gap=1.0, allowance=0.02, argmin_gap=0.0, beyond_grid=False,
            )

        monkeypatch.setattr(sweep_cli, "verify_reduction", always_wrong)
        code, rec = run_json(capsys, ["verify", "--samples", "1", "--seed", "3"])
        assert code == EXIT_DISAGREEMENT
        assert rec["disagreements"] == 2
        assert rec["failures"][0]["status"] == "cost-mismatch"

    def test_bad_flags_are_usage_errors(self):
        assert main(["verify", "--samples", "0"]) == EXIT_USAGE
        assert main(["verify", "--tol", "0"]) == EXIT_USAGE
        assert main(["verify", "--step", "-1"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "-1"],
            ["--tol", "inf"],
            ["--tol", "nan"],
            ["--samples", str(MAX_VERIFY_SAMPLES + 1)],
        ],
    )
    def test_out_of_range_flags_are_rejected_before_allocating(self, capsys, monkeypatch, argv):
        assert_rejected_without_allocating(capsys, monkeypatch, ["verify", *argv])

    @pytest.mark.parametrize(
        "argv",
        [["--c-max", "inf"], ["--step", "1e-5"], ["--step", "1e-320"]],
    )
    def test_unbounded_grid_is_usage_error(self, capsys, argv):
        assert main(["verify", "--samples", "1", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_summary_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--samples", "20", "--seed", "42", "--out", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "02f8c6812df5be0f1fb082148d506dd6c97085f437c23b1b318490df8d01a38c"


class _NumpyGuard:
    """Stands in for numpy in ``sweep_cli``: any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} was reached before the input was rejected")


def assert_rejected_without_allocating(capsys, monkeypatch, argv):
    """``main(argv)`` exits 2 with an error line and no traceback, before it
    touches numpy (where the sample arrays would be allocated)."""
    monkeypatch.setattr(sweep_cli, "np", _NumpyGuard())
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


EDGE_VALUES = ("-1", "0", "nan", "inf", "-inf", "1e-320", "abc")


def _flag(*valid):
    """A flag value: one of ``EDGE_VALUES`` one time in four, else one of ``valid``."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(EDGE_VALUES if i == 0 else valid))


# per subcommand, the values each flag is drawn from; sizes sit around the
# caps that the fuzz test patches in (3 verify samples, 8 boundary points,
# 400 sweep cells, a 101 x 101 oracle grid)
FUZZ_FLAGS = {
    "solve": {
        "--a": _flag("0.2", "1e308"),
        "--b": _flag("0.3", "1e308"),
        "--topology": st.sampled_from(["parallel", "serial", "ring"]),
    },
    "classify": {"--a": _flag("0.3", "1e308"), "--b": _flag("0.5", "1e308")},
    "sweep": {
        "--a-min": _flag("0.2"),
        "--a-max": _flag("1.2", "1e308"),
        "--b-min": _flag("0.3"),
        "--b-max": _flag("1.2", "1e308"),
        "--na": _flag("2", "3", "19", "20", "21"),
        "--nb": _flag("2", "3", "19", "20", "21"),
    },
    "boundaries": {"--na": _flag("2", "3", "7", "8", "9")},
    "verify": {
        "--samples": _flag("1", "2", "3", "4"),
        "--seed": _flag("7", str(2**64)),
        "--c-max": _flag("1.5", "3"),
        "--step": _flag("0.5", "0.25", "0.03", "0.029"),
        "--tol": _flag("0.01", "1e308"),
    },
}
# given every time: argparse requires the first three, and the defaults of
# the last two exceed the patched caps, so a campaign would almost never run
ALWAYS_GIVEN = {"--a", "--b", "--topology", "--samples", "--step"}


@st.composite
def cli_argvs(draw):
    """A subcommand with a random subset of its flags."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    for flag, values in FUZZ_FLAGS[command].items():
        if flag in ALWAYS_GIVEN or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


class TestFuzzMain:
    """No argv makes ``main`` raise; exit 1 is only a verify disagreement."""

    @settings(max_examples=300, deadline=None)
    @given(argv=cli_argvs())
    def test_exit_codes(self, argv):
        # small caps, so that values at cap - 1 and cap + 1 stay cheap
        caps = [
            mock.patch.object(sweep_cli, "MAX_SWEEP_CELLS", 400),
            mock.patch.object(sweep_cli, "MAX_BOUNDARY_POINTS", 8),
            mock.patch.object(sweep_cli, "MAX_VERIFY_SAMPLES", 3),
            # at c_max 3, step 0.03 fills this grid cap and step 0.029 exceeds it
            mock.patch.object(oracle, "MAX_GRID_POINTS", 101**2),
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            for cap in caps:
                stack.enter_context(cap)
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            code = main(argv)
        event(f"{argv[0]} exit {code}")
        assert code in (EXIT_OK, EXIT_DISAGREEMENT, EXIT_USAGE, EXIT_IO)
        if code == EXIT_DISAGREEMENT:
            assert argv[0] == "verify"
        if code == EXIT_USAGE:
            assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()


class TestFormatting:
    def test_float_formatting_round_trips(self):
        for value in (0.1, 1.0, 4.7912878474779195, 2.0 / 3.0, math.inf):
            text = sweep_cli._fmt(value)
            assert float(text) == value
        assert sweep_cli._fmt(math.inf) == "inf"

    def test_sweep_lines_schema(self):
        lines = sweep_lines(SweepSpec(0.0, 1.0, 0.0, 1.0, 2, 2))
        assert lines[0] == "a,b,region,winner,cost_parallel,cost_serial"
        for line in lines[1:]:
            a, b, region, who, cp, cs = line.split(",")
            assert region in {"A", "B1", "B2", "C"}
            assert who in {"parallel", "serial", "tie", "infeasible"}
            float(cp), float(cs)  # parseable, 'inf' included

    def test_boundary_lines_resolution_guard(self):
        with pytest.raises(sweep_cli.UsageError):
            boundary_lines(1)

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == EXIT_OK
