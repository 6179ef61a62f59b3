"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math

import pytest

from twospring import sweep_cli
from twospring.sweep_cli import (
    BOUNDARY_HEADER,
    EXIT_DISAGREEMENT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    SWEEP_HEADER,
    SweepSpec,
    boundary_lines,
    main,
    phase_cells,
    sweep_lines,
)


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
