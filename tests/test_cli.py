"""End-to-end tests of the command-line interface."""

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from exact_reference import exact_decision
from pinned import DIGESTS, SINGLE_PAIR_EDGES

from twospring import oracle, phase, regions, sweep_cli, verify
from twospring.model import Topology, Weights
from twospring.regions import SweepSpec, winner
from twospring.sweep_cli import (
    BOUNDARY_HEADER,
    EXIT_DISAGREEMENT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MAX_BOUNDARY_POINTS,
    MAX_VERIFY_SAMPLES,
    SWEEP_HEADER,
    main,
)


def reference_sweep_lines(spec):
    """The per-cell sweep: one scalar ``winner`` call and six ``repr`` per cell.

    Parity reference for the array kernel behind ``twospring sweep``.
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
        """``main`` prints the message of the ``ValueError`` that ``Weights`` raises."""
        for argv, pair in [
            (["solve", "--a", "-1", "--b", "0.3", "--topology", "parallel"], "(-1.0, 0.3)"),
            (["classify", "--a", "nan", "--b", "0.3"], "(nan, 0.3)"),
        ]:
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: weights must be nonnegative, got {pair}\n"

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


def test_single_pair_bytes_are_pinned(capsys):
    """``solve`` for both wirings and ``classify`` over the edge pairs, as one digest."""
    out = []
    for a, b in SINGLE_PAIR_EDGES:
        for argv in (["solve", "--topology", "parallel"], ["solve", "--topology", "serial"], ["classify"]):
            assert main([*argv, "--a", a, "--b", b]) == EXIT_OK
            out.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == DIGESTS["single.txt"]


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


DEFAULT_SWEEP_SHA256 = DIGESTS["s.csv"]

# rows of the default sweep whose float label or winner differs from the
# exact decision on the row's own doubles (tests/exact_reference.py): all lie
# within a few ulps of a + 2b = 1, a + b = 1 or b = 2 - 4a
DEFAULT_SWEEP_INEXACT_ROWS = {
    ("0.98,0.01,B1,parallel", "A,parallel"),
    ("0.99,0.01,C,parallel", "B1,parallel"),
    ("0.96,0.02,B1,parallel", "A,parallel"),
    ("0.98,0.02,C,parallel", "B1,parallel"),
    ("0.97,0.03,C,parallel", "B1,parallel"),
    ("0.96,0.04,C,parallel", "B1,parallel"),
    ("0.84,0.08,B1,parallel", "A,parallel"),
    ("0.85,0.15,C,parallel", "B1,parallel"),
    ("0.84,0.16,C,parallel", "B1,parallel"),
    ("0.58,0.21,B1,parallel", "A,parallel"),
    ("0.42,0.29,B2,serial", "A,parallel"),
    ("0.71,0.29,C,parallel", "B1,parallel"),
    ("0.41000000000000003,0.36,B1,tie", "B1,parallel"),
    ("0.16,0.42,B2,serial", "A,parallel"),
    ("0.58,0.42,C,parallel", "B1,parallel"),
    ("0.39,0.44,B1,tie", "B1,parallel"),
    ("0.04,0.48,B2,serial", "A,parallel"),
    ("0.02,0.49,B2,serial", "A,parallel"),
    ("0.42,0.58,C,parallel", "B1,parallel"),
    ("0.29,0.71,C,parallel", "B2,serial"),
    ("0.16,0.84,C,parallel", "B2,serial"),
    ("0.15,0.85,C,parallel", "B2,serial"),
    ("0.04,0.96,C,parallel", "B2,serial"),
    ("0.03,0.97,C,parallel", "B2,serial"),
    ("0.02,0.98,C,parallel", "B2,serial"),
    ("0.01,0.99,C,parallel", "B2,serial"),
}

# the same rows of acceptance criterion 2's 201 x 201 sweep of [0, 1]^2: 54
# rows, 29 of them with another winner
C2_SWEEP_INEXACT_ROWS = {
    ("0.99,0.005,B1,parallel", "A,parallel"),
    ("0.995,0.005,C,parallel", "B1,parallel"),
    ("0.98,0.01,B1,parallel", "A,parallel"),
    ("0.99,0.01,C,parallel", "B1,parallel"),
    ("0.97,0.015,B1,parallel", "A,parallel"),
    ("0.985,0.015,C,parallel", "B1,parallel"),
    ("0.96,0.02,B1,parallel", "A,parallel"),
    ("0.98,0.02,C,parallel", "B1,parallel"),
    ("0.975,0.025,C,parallel", "B1,parallel"),
    ("0.97,0.03,C,parallel", "B1,parallel"),
    ("0.965,0.035,C,parallel", "B1,parallel"),
    ("0.96,0.04,C,parallel", "B1,parallel"),
    ("0.85,0.075,B1,parallel", "A,parallel"),
    ("0.84,0.08,B1,parallel", "A,parallel"),
    ("0.71,0.145,B1,parallel", "A,parallel"),
    ("0.855,0.145,C,parallel", "B1,parallel"),
    ("0.85,0.15,C,parallel", "B1,parallel"),
    ("0.845,0.155,C,parallel", "B1,parallel"),
    ("0.84,0.16,C,parallel", "B1,parallel"),
    ("0.835,0.165,C,parallel", "B1,parallel"),
    ("0.58,0.21,B1,parallel", "A,parallel"),
    ("0.42,0.29,B2,serial", "A,parallel"),
    ("0.71,0.29,C,parallel", "B1,parallel"),
    ("0.705,0.295,C,parallel", "B1,parallel"),
    ("0.425,0.3,B1,tie", "B2,serial"),
    ("0.29,0.355,B2,serial", "A,parallel"),
    ("0.41000000000000003,0.36,B1,tie", "B1,parallel"),
    ("0.405,0.38,B1,tie", "B1,parallel"),
    ("0.16,0.42,B2,serial", "A,parallel"),
    ("0.395,0.42,B1,tie", "B1,parallel"),
    ("0.58,0.42,C,parallel", "B1,parallel"),
    ("0.15,0.425,B2,serial", "A,parallel"),
    ("0.39,0.44,B1,tie", "B1,parallel"),
    ("0.385,0.46,B1,tie", "B1,parallel"),
    ("0.04,0.48,B2,serial", "A,parallel"),
    ("0.03,0.485,B2,serial", "A,parallel"),
    ("0.02,0.49,B2,serial", "A,parallel"),
    ("0.01,0.495,B2,serial", "A,parallel"),
    ("0.42,0.58,C,parallel", "B1,parallel"),
    ("0.295,0.705,C,parallel", "B2,serial"),
    ("0.29,0.71,C,parallel", "B2,serial"),
    ("0.165,0.835,C,parallel", "B2,serial"),
    ("0.16,0.84,C,parallel", "B2,serial"),
    ("0.155,0.845,C,parallel", "B2,serial"),
    ("0.15,0.85,C,parallel", "B2,serial"),
    ("0.145,0.855,C,parallel", "B2,serial"),
    ("0.04,0.96,C,parallel", "B2,serial"),
    ("0.035,0.965,C,parallel", "B2,serial"),
    ("0.03,0.97,C,parallel", "B2,serial"),
    ("0.025,0.975,C,parallel", "B2,serial"),
    ("0.02,0.98,C,parallel", "B2,serial"),
    ("0.015,0.985,C,parallel", "B2,serial"),
    ("0.01,0.99,C,parallel", "B2,serial"),
    ("0.005,0.995,C,parallel", "B2,serial"),
}


def chunk_sizes(spec):
    """Values of ``CHUNK_LINES`` around the row length of ``spec``: one
    cell, chunks that begin inside rows, one row, and the whole sweep."""
    return [1, 7, spec.na - 1, spec.na, spec.na + 1, spec.na * spec.nb]


def sweep_text(spec):
    return "\n".join(sweep_cli._sweep_chunks(spec))


def sweep_argv(spec):
    return [
        "sweep", "--a-min", repr(spec.a_min), "--a-max", repr(spec.a_max), "--b-min", repr(spec.b_min),
        "--b-max", repr(spec.b_max), "--na", str(spec.na), "--nb", str(spec.nb),
    ]  # fmt: skip


class TestSweepParity:
    """The array sweep writes the same bytes as the per-cell reference, at
    any chunk size."""

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(0.0, 0.0, 0.0, 1.5, 2, 61),  # the a = 0 column, a_min == a_max
            SweepSpec(0.0, -0.0, 0.0, 1.5, 3, 61),  # its last a sample is -0.0
            SweepSpec(1.0 / 3.0, 3.0 / 7.0, 2.0 / 7.0, 2.0 / 3.0, 41, 37),  # the B2 pocket
            SweepSpec(0.0, 1.0, 0.0, 0.5, 11, 11),  # samples on a + 2b = 1
            SweepSpec(0.0, 1.0, 0.0, 1.0, 11, 11),  # samples on a + b = 1
            SweepSpec(0.25, 0.5, 0.0, 1.0, 5, 5),  # samples on b = 2 - 4a
            SweepSpec(0.4, 0.4, 2.0 - 4.0 * 0.4, 0.4, 2, 2),  # the tie at a = 0.4
            SweepSpec(0.0, 1.2, 0.0, 1.2, 2, 2),
            SweepSpec(0.0, 1.2, 0.0, 1.2, 31, 29),
            SweepSpec(0.0, 1e-322, 0.0, 1.7e308, 3, 3),  # overflow to inf
            SweepSpec(0.0, 1.2, 0.5, 0.5, 13, 3),  # one b value, b_min == b_max
        ],
    )
    def test_fixed_windows(self, spec, monkeypatch):
        expected = "\n".join(reference_sweep_lines(spec))
        for chunk in chunk_sizes(spec):
            monkeypatch.setattr(sweep_cli, "CHUNK_LINES", chunk)
            assert sweep_text(spec) == expected, chunk

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=2, max_size=2).map(sorted),
        b=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=2, max_size=2).map(sorted),
        na=st.integers(min_value=2, max_value=12),
        nb=st.integers(min_value=2, max_value=12),
        chunk=st.integers(min_value=0, max_value=5),
    )
    def test_random_windows(self, a, b, na, nb, chunk):
        spec = SweepSpec(a[0], a[1], b[0], b[1], na, nb)
        expected = "\n".join(reference_sweep_lines(spec))
        assert sweep_text(spec) == expected
        with mock.patch.object(sweep_cli, "CHUNK_LINES", chunk_sizes(spec)[chunk]):
            assert sweep_text(spec) == expected

    def test_stdout_and_out_file_match_at_any_chunk_size(self, capsys, monkeypatch, tmp_path):
        spec = SweepSpec(0.0, 1.2, 0.0, 1.2, 11, 9)
        expected = "\n".join(reference_sweep_lines(spec)) + "\n"
        out = tmp_path / "sweep.csv"
        for chunk in chunk_sizes(spec):
            monkeypatch.setattr(sweep_cli, "CHUNK_LINES", chunk)
            assert main(sweep_argv(spec)) == EXIT_OK
            assert capsys.readouterr().out == expected, chunk
            assert main([*sweep_argv(spec), "--out", str(out)]) == EXIT_OK
            assert out.read_bytes() == expected.encode(), chunk

    def test_default_sweep_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == DEFAULT_SWEEP_SHA256

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["sweep"], DEFAULT_SWEEP_INEXACT_ROWS),
            (
                ["sweep", "--a-min", "0", "--a-max", "1", "--b-min", "0", "--b-max", "1", "--na", "201", "--nb", "201"],
                C2_SWEEP_INEXACT_ROWS,
            ),
        ],
        ids=["default", "criterion-2"],
    )
    def test_sweep_rows_off_the_exact_decision_are_pinned(self, argv, expected, capsys):
        assert main(argv) == EXIT_OK
        inexact = set()
        for line in capsys.readouterr().out.splitlines()[1:]:
            a, b, label, best, _, _ = line.split(",")
            exact = ",".join(exact_decision(float(a), float(b)))
            if f"{label},{best}" != exact:
                inexact.add((f"{a},{b},{label},{best}", exact))
        assert inexact == expected

    def test_a_axis_is_formatted_once_per_sweep(self, monkeypatch):
        """With rows shorter than a chunk and chunks shorter than the sweep,
        each ``a`` sample is formatted once, not once per chunk."""
        # a, b and both costs (about 2.7 and 2.0) take disjoint values here
        spec = SweepSpec(0.3, 0.31, 0.5, 0.6, 7, 9)
        formatted = collections.Counter()
        texts = phase._texts

        def counting_texts(values, *args):
            formatted.update(values.tolist())
            return texts(values, *args)

        monkeypatch.setattr(phase, "_texts", counting_texts)
        monkeypatch.setattr(sweep_cli, "CHUNK_LINES", 10)
        assert sweep_text(spec) == "\n".join(reference_sweep_lines(spec))
        a_axis = np.linspace(spec.a_min, spec.a_max, spec.na).tolist()
        assert [formatted[a] for a in a_axis] == [1] * spec.na

    # the default sweep is 121 x 121; one-cell chunks would take 14,641 array calls
    @pytest.mark.parametrize("chunk", [7, 120, 121, 122, 1000, 121 * 121])
    def test_default_sweep_bytes_at_any_chunk_size(self, chunk, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep_cli, "CHUNK_LINES", chunk)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_SWEEP_SHA256


def sweep_peak_bytes(tmp_path, na, nb):
    """``tracemalloc`` peak of one ``sweep --out`` of ``na`` by ``nb`` cells."""
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--na", str(na), "--nb", str(nb), "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


CLOSED_PIPE_CASES = pytest.mark.parametrize(
    "unbuffered, lines_read",
    [(False, 0), (False, 1), (True, 1)],
    ids=["buffered-closed-at-once", "buffered-closed-after-header", "unbuffered-closed-after-header"],
)


def assert_closed_pipe_exits_3(argv, header, unbuffered, lines_read):
    """``twospring argv`` in a subprocess, whose reader closes stdout after
    ``lines_read`` lines (the header), exits 3 with one ``i/o error:`` line."""
    src = Path(sweep_cli.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "twospring.sweep_cli", *argv]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        for _ in range(lines_read):
            assert proc.stdout.readline() == (header + "\n").encode()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == EXIT_IO, err
    assert len(err.splitlines()) == 1 and err.startswith("i/o error: "), err
    assert "Traceback" not in err and "Exception ignored" not in err


class TestSweepStreaming:
    """``sweep`` holds one chunk at a time, and a failed write still exits 3."""

    CHUNK = 512

    @pytest.mark.parametrize(
        "short, tall",
        [
            ((64, 2 * CHUNK // 64), (64, 20 * CHUNK // 64)),  # 2 and 20 chunks of whole rows
            ((2 * CHUNK, 2), (20 * CHUNK, 2)),  # rows longer than a chunk
        ],
    )
    def test_peak_memory_does_not_grow_with_the_grid(self, monkeypatch, tmp_path, short, tall):
        monkeypatch.setattr(sweep_cli, "CHUNK_LINES", self.CHUNK)
        assert main(["sweep", "--na", "2", "--nb", "2", "--out", str(tmp_path / "warm.csv")]) == EXIT_OK
        short_peak = sweep_peak_bytes(tmp_path, *short)
        tall_peak = sweep_peak_bytes(tmp_path, *tall)
        assert tall_peak < 2 * short_peak, (short_peak, tall_peak)

    def test_failed_write_mid_stream_exits_3(self, capsys, monkeypatch, tmp_path):
        spec = SweepSpec(0.0, 1.2, 0.0, 1.2, 9, 9)
        expected = "\n".join(reference_sweep_lines(spec)) + "\n"
        monkeypatch.setattr(sweep_cli, "CHUNK_LINES", 10)

        write, lines = os.write, 0

        def disk_full(fd, data):
            """``os.write`` that fails once the header and one chunk are in."""
            nonlocal lines
            if lines >= 11:
                raise OSError(28, "No space left on device")
            written = write(fd, data)
            lines += bytes(data[:written]).count(b"\n")
            return written

        monkeypatch.setattr(os, "write", disk_full)
        out = tmp_path / "sweep.csv"
        assert main([*sweep_argv(spec), "--out", str(out)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "i/o error: [Errno 28] No space left on device\n"
        partial = out.read_text()
        assert partial == "".join(expected.splitlines(keepends=True)[:11])

    @CLOSED_PIPE_CASES
    def test_closed_pipe_exits_3_without_a_traceback(self, unbuffered, lines_read):
        argv = ["sweep", "--na", "1001", "--nb", "1001"]
        assert_closed_pipe_exits_3(argv, SWEEP_HEADER, unbuffered, lines_read)

    def test_unbuffered_pipe_closed_inside_the_last_chunk_exits_3(self):
        """With unbuffered stdout, a reader that closes while the one chunk of
        rows (past what a pipe buffers) is being written cuts that write
        short without an error; the chunk's own newline write must then
        fail, so the run exits 3 instead of 0."""
        na, nb = 64, sweep_cli.CHUNK_LINES // 64  # the rows fill one chunk
        spec = SweepSpec(0.0, 1.2, 0.0, 1.2, na, nb)
        assert len(sweep_text(spec).encode()) > 2 * 65536  # twice a default pipe buffer
        src = Path(sweep_cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
        command = [sys.executable, "-m", "twospring.sweep_cli", *sweep_argv(spec)]
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == (SWEEP_HEADER + "\n").encode()
            assert proc.stdout.readline().startswith(b"0.0,0.0,")
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == EXIT_IO, err
        assert len(err.splitlines()) == 1 and err.startswith("i/o error: "), err


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

    def test_resolution_cap_is_checked_before_allocating(self, capsys):
        argv = ["boundaries", "--na", str(MAX_BOUNDARY_POINTS + 1)]
        assert_rejected_without_allocating(capsys, argv)


# digests of the boundaries CSV, recorded before it was streamed
DEFAULT_BOUNDARIES_SHA256 = DIGESTS["b.csv"]
BOUNDARIES_20000_SHA256 = "512e8c1f300d55d52b0ccbf9e025d2fddf6192f7b177e53e9228a389d8814588"


def boundaries_digest(tmp_path, *argv):
    out = tmp_path / "boundaries.csv"
    assert main(["boundaries", *argv, "--out", str(out)]) == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestBoundariesStreaming:
    """``boundaries`` writes the same bytes at any chunk size, holds one chunk
    at a time and exits 3 when its reader closes the pipe."""

    def test_default_bytes_are_pinned(self, capsys):
        assert main(["boundaries"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DEFAULT_BOUNDARIES_SHA256

    # the default is 101 points per polyline
    @pytest.mark.parametrize("chunk", [1, 7, 100, 101, 102])
    def test_default_bytes_at_any_chunk_size(self, chunk, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep_cli, "CHUNK_LINES", chunk)
        assert boundaries_digest(tmp_path) == DEFAULT_BOUNDARIES_SHA256
        assert main(["boundaries"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DEFAULT_BOUNDARIES_SHA256

    @pytest.mark.parametrize("chunk", [sweep_cli.CHUNK_LINES, 7919])
    def test_larger_resolution_bytes_are_pinned(self, chunk, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep_cli, "CHUNK_LINES", chunk)
        assert boundaries_digest(tmp_path, "--na", "20000") == BOUNDARIES_20000_SHA256

    def test_boundary_lines_are_the_streamed_lines(self, capsys, monkeypatch):
        monkeypatch.setattr(sweep_cli, "CHUNK_LINES", 3)
        assert main(["boundaries", "--na", "10"]) == EXIT_OK
        assert capsys.readouterr().out == "\n".join(sweep_cli._boundary_chunks(10)) + "\n"

    @pytest.mark.parametrize("chunk", [1, 2, 3, 64])
    @pytest.mark.parametrize(
        "curve, start, stop",
        [
            ("a+2b=1", 0.0, 1.0),
            ("a+b=1", 0.0, 1.0),
            ("b=2-4a", regions.B2_SEGMENT_A_MIN, regions.B2_SEGMENT_A_MAX),
        ],
    )
    def test_polyline_samples_equal_numpy_linspace(self, curve, start, stop, chunk, monkeypatch):
        """The ``a`` column of each polyline is ``np.linspace`` bit for bit,
        at any chunk size, and each ``b`` is the curve's float at that ``a``
        (a ``None`` from ``b2_boundary`` would not parse).  At 50 samples on
        ``[0, 1]`` the last one must be pinned to ``stop``: ``49 * (1 / 49)``
        is not 1.0."""
        formula = {
            "a+2b=1": lambda a: (1.0 - a) / 2.0,
            "a+b=1": lambda a: 1.0 - a,
            "b=2-4a": lambda a: 2.0 - 4.0 * a,
        }
        monkeypatch.setattr(sweep_cli, "CHUNK_LINES", chunk)
        for num in (2, 3, 50, 63, 64, 65, 129, 1001):
            chunks = [chunk.split("\n") for chunk in list(sweep_cli._boundary_chunks(num))[1:]]
            assert all(1 <= len(lines) <= chunk for lines in chunks)
            rows = [line.split(",")[1:] for lines in chunks for line in lines if line.startswith(curve + ",")]
            a = [float(a) for a, _ in rows]
            assert np.array_equal(a, np.linspace(start, stop, num)), num
            assert [float(b) for _, b in rows] == [formula[curve](x) for x in a], num

    def test_peak_memory_does_not_grow_with_the_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep_cli, "CHUNK_LINES", 512)
        out = str(tmp_path / "boundaries.csv")
        assert main(["boundaries", "--na", "2", "--out", out]) == EXIT_OK

        def peak(na):
            tracemalloc.start()
            try:
                assert main(["boundaries", "--na", str(na), "--out", out]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short_peak, tall_peak = peak(2 * 512), peak(20 * 512)
        assert tall_peak < 2 * short_peak, (short_peak, tall_peak)

    @CLOSED_PIPE_CASES
    def test_closed_pipe_exits_3_without_a_traceback(self, unbuffered, lines_read):
        # 8 MB of CSV, well past what a pipe buffers
        argv = ["boundaries", "--na", "200000"]
        assert_closed_pipe_exits_3(argv, BOUNDARY_HEADER, unbuffered, lines_read)


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
        def always_wrong(w, k, g, tol):
            return verify.VerificationVerdict(
                agree=False, status="cost-mismatch", closed_cost=1.0, oracle_cost=2.0,
                cost_gap=1.0, allowance=0.02, argmin_gap=0.0, beyond_grid=False,
            )

        monkeypatch.setattr(verify, "verify_reduction", always_wrong)
        code, rec = run_json(capsys, ["verify", "--samples", "1", "--seed", "3"])
        assert code == EXIT_DISAGREEMENT
        assert rec["disagreements"] == 2
        assert rec["failures"][0]["status"] == "cost-mismatch"

    def test_failure_records_are_pinned(self, monkeypatch):
        """Every field of a failure record, in key order, and the records in
        check order: each pair parallel, then serial."""

        def wrong_per_wiring(w, k, g, tol):
            serial = k is Topology.SERIAL
            return verify.VerificationVerdict(
                agree=False, status="split-mismatch" if serial else "feasibility-mismatch",
                closed_cost=float(k.k), oracle_cost=math.inf if serial else 10.0,
                cost_gap=math.inf, allowance=0.02, argmin_gap=None, beyond_grid=False,
            )

        monkeypatch.setattr(verify, "verify_reduction", wrong_per_wiring)
        code, out, _ = run_captured(["verify", "--samples", "2", "--seed", "3"])
        assert code == EXIT_DISAGREEMENT
        pairs = list(verify._uniform_pairs(2, 3))
        assert all(a != b for a, b in pairs)
        failures = json.loads(out)["failures"]
        assert failures == [
            record
            for a, b in pairs
            for record in (
                {"a": a, "b": b, "topology": "parallel", "status": "feasibility-mismatch",
                 "closed_cost": 1.0, "oracle_cost": 10.0},
                {"a": a, "b": b, "topology": "serial", "status": "split-mismatch",
                 "closed_cost": 2.0, "oracle_cost": "inf"},
            )
        ]
        keys = ["a", "b", "topology", "status", "closed_cost", "oracle_cost"]
        assert all(list(record) == keys for record in failures)

    def test_campaign_runs_without_the_command_line(self, capsys):
        """``verify_campaign`` gives the summary's computed fields, as the
        command writes them after the flags it echoes."""
        argv = ["verify", "--samples", "20", "--seed", "1", "--c-max", "1.5", "--step", "0.05"]
        code, rec = run_json(capsys, argv)
        fields = verify.verify_campaign(20, 1, oracle.GridSpec(1.5, 0.05), 0.01)
        assert code == EXIT_OK
        assert fields["truncated"] == 2 and fields["failures"] == []
        assert rec == {"samples": 20, "seed": 1, "c_max": 1.5, "step": 0.05, "tol": 0.01, **fields}
        assert list(rec) == ["samples", "seed", "c_max", "step", "tol", *fields]

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
    def test_out_of_range_flags_are_rejected_before_allocating(self, capsys, argv):
        assert_rejected_without_allocating(capsys, ["verify", *argv])

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

    @pytest.mark.parametrize(
        "argv,per_side",
        [
            (["--c-max", "6", "--step", "0.0005"], "12001"),
            (["--c-max", "1e308", "--step", "1e-300"], "more than 100000000"),  # c_max/step is inf
        ],
    )
    def test_grid_cap_message_names_the_points_per_side(self, argv, per_side):
        code, out, err = run_captured(["verify", "--samples", "1", *argv])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: grid of {per_side} points per side exceeds the cap of 10000 per side"
            " (100000000 points); use a larger step\n"
        )

    def test_summary_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--samples", "20", "--seed", "42", "--out", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "02f8c6812df5be0f1fb082148d506dd6c97085f437c23b1b318490df8d01a38c"

    def test_default_summary_bytes_are_pinned(self, tmp_path):
        # the default campaign: 200 samples, seed 42, the 1201^2 grid
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == DIGESTS["v.json"]

    def test_20000_sample_summary_bytes_are_pinned(self, tmp_path):
        # 40,000 checks: the pairs, drawn in pure Python, match a digest
        # recorded with numpy's draw, and the oracle answers both from the
        # frontier's head and from its arrays
        out = tmp_path / "verify.json"
        assert main(["verify", "--samples", "20000", "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS["v20k.json"]


def assert_rejected_without_allocating(capsys, argv):
    """``main(argv)`` exits 2 with one error line and no traceback.  That it
    does so before numpy loads (where the sample arrays would be allocated)
    is checked in fresh processes by
    ``test_imports.TestCommandsWithoutNumpy``."""
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


# one small call of each command
COMMAND_ARGVS = [
    ["solve", "--a", "1", "--b", "1", "--topology", "parallel"],
    ["classify", "--a", "1", "--b", "1"],
    ["sweep", "--na", "3", "--nb", "3"],
    ["boundaries"],
    ["verify", "--samples", "1", "--step", "0.5"],
]
# --out paths that os.open() refuses with a ValueError: an embedded null byte,
# and a lone surrogate, which the file system encoding cannot encode
UNOPENABLE_PATHS = ["x\x00y", "\ud800"]


@pytest.mark.parametrize("out", UNOPENABLE_PATHS, ids=["null-byte", "lone-surrogate"])
@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
def test_unopenable_out_path_is_usage_error(monkeypatch, tmp_path, argv, out):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_captured([*argv, "--out", out])
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
def test_out_survives_short_writes(monkeypatch, tmp_path, argv):
    """With ``os.write`` writing at most 7 bytes a call, ``--out`` still
    holds exactly the command's stdout bytes, over a longer file that was
    there before."""
    code, stdout, _ = run_captured(argv)
    out = tmp_path / "out.txt"
    out.write_bytes(b"x" * (len(stdout) + 100))
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    assert run_captured([*argv, "--out", str(out)]) == (code, "", "")
    assert out.read_bytes() == stdout.encode()


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
def test_out_file_mode_follows_the_umask(tmp_path, argv):
    """``--out`` creates its file with mode ``0o666`` less the umask, as
    ``open()`` does: ``0o644`` under ``umask 022``."""
    out = tmp_path / "out.txt"
    umask = os.umask(0o022)
    try:
        run_captured([*argv, "--out", str(out)])
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o644


# per command, a call that the parser accepts but the command's own checks
# refuse with a usage error
USAGE_ERROR_ARGVS = [
    ["solve", "--a", "-1", "--b", "0.2", "--topology", "serial"],
    ["classify", "--a", "0.2", "--b", "nan"],
    ["sweep", "--na", "1", "--nb", "3"],
    ["boundaries", "--na", "1"],
    ["verify", "--samples", "1", "--tol", "0"],
]


@pytest.mark.parametrize("argv", USAGE_ERROR_ARGVS, ids=lambda argv: argv[0])
def test_usage_error_writes_no_file(tmp_path, argv):
    out = tmp_path / "out.txt"
    code, stdout, err = run_captured([*argv, "--out", str(out)])
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def forbid_work(monkeypatch, command):
    """Make the work of ``command`` fail the test: ``verify``'s campaign,
    ``sweep``'s rows, or ``boundaries``' curves.  ``solve`` and
    ``classify`` answer one pair before they write, and are left as they are."""

    def work(*args):
        raise AssertionError(f"{command} did its work before its output was opened")

    if command == "verify":
        monkeypatch.setattr(verify, "verify_campaign", work)
    elif command == "sweep":
        monkeypatch.setattr(phase, "sweep_rows", work)
    elif command == "boundaries":
        curves = tuple((name, start, stop, work) for name, start, stop, _ in regions.BOUNDARY_CURVES)
        monkeypatch.setattr(sweep_cli, "BOUNDARY_CURVES", curves)


@pytest.mark.parametrize(
    "out,status",
    [*((path, EXIT_USAGE) for path in UNOPENABLE_PATHS), ("/nonexistent-dir/x.out", EXIT_IO)],
    ids=["null-byte", "lone-surrogate", "missing-dir"],
)
@pytest.mark.parametrize(
    "argv",
    [["verify", "--samples", str(MAX_VERIFY_SAMPLES)], ["sweep", "--na", "2000", "--nb", "2000"], ["boundaries"]],
    ids=lambda argv: argv[0],
)
def test_out_is_opened_before_the_work(monkeypatch, tmp_path, argv, out, status):
    """An --out path os.open() refuses fails before the command's work: at the
    largest --samples, verify's campaign would take minutes."""
    forbid_work(monkeypatch, argv[0])
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_captured([*argv, "--out", out])
    assert (code, stdout) == (status, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
def test_closed_stdout_is_io_error(monkeypatch, argv):
    """With no stdout (``sys.stdout`` is ``None``, as when the process starts
    with descriptor 1 closed), a command exits 3 before its work."""
    forbid_work(monkeypatch, argv[0])
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", err)
    assert main(argv) == EXIT_IO
    assert err.getvalue() == "i/o error: [Errno 9] stdout is closed\n"


class FullStream(io.StringIO):
    """A stream whose every write fails, as on ``/dev/full``."""

    def write(self, text):
        raise OSError(28, "No space left on device")


# help of the whole command line and of one command
HELP_ARGVS = [["--help"], ["solve", "--help"]]
# an unusable stdout, in process and in a fresh process, and its error line
UNUSABLE_STDOUTS = {
    "closed": (lambda: None, ">&-", "i/o error: [Errno 9] stdout is closed\n"),
    "full": (FullStream, ">/dev/full", "i/o error: [Errno 28] No space left on device\n"),
}


@pytest.mark.parametrize("stdout", list(UNUSABLE_STDOUTS))
@pytest.mark.parametrize("argv", HELP_ARGVS, ids=lambda argv: argv[0])
def test_help_to_an_unusable_stdout_is_io_error(monkeypatch, argv, stdout):
    """Help takes the rule of every command's output: exit 3 with one
    ``i/o error:`` line, and no help on stderr instead."""
    make_stdout, _, message = UNUSABLE_STDOUTS[stdout]
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", make_stdout())
    monkeypatch.setattr(sys, "stderr", err)
    assert main(argv) == EXIT_IO
    assert err.getvalue() == message


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=lambda argv: argv[0])
def test_help_to_stdout_keeps_its_bytes(argv):
    """Help to a working stdout is argparse's own text, with status 0."""
    parser = sweep_cli.build_parser()
    expected = (parser if argv == ["--help"] else parser.commands[argv[0]]).format_help()
    assert run_captured(argv) == (EXIT_OK, expected, "")


# a post-parse usage error and an I/O error, with their statuses
FAILED_CALLS = [
    (["solve", "--a", "-1", "--b", "0.2", "--topology", "serial"], EXIT_USAGE),
    (["sweep", "--na", "2", "--nb", "2", "--out", "/nonexistent-dir/x.csv"], EXIT_IO),
]


@pytest.mark.parametrize("stderr", [None, FullStream()], ids=["closed", "full"])
@pytest.mark.parametrize("argv,status", FAILED_CALLS, ids=["usage", "io"])
def test_unwritable_stderr_keeps_the_status(monkeypatch, argv, status, stderr):
    """The error line is lost, not the status, and it does not go to stdout."""
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(argv) == status
    assert out.getvalue() == ""


def run_cli(argv, redirect):
    """``twospring argv`` in a subprocess, its descriptors redirected by the
    shell's ``redirect`` (``>&-`` closes stdout): (status, stdout, stderr)."""
    src = Path(sweep_cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = f'exec "$0" -m twospring.sweep_cli "$@" {redirect}'
    proc = subprocess.run(["sh", "-c", script, sys.executable, *argv], capture_output=True, env=env, timeout=60)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
def test_closed_stdout_exits_3_in_a_fresh_process(argv):
    code, _, err = run_cli(argv, redirect=">&-")
    assert (code, err) == (EXIT_IO, "i/o error: [Errno 9] stdout is closed\n")


@pytest.mark.parametrize("stdout", list(UNUSABLE_STDOUTS))
@pytest.mark.parametrize("argv", HELP_ARGVS, ids=lambda argv: argv[0])
def test_help_to_an_unusable_stdout_exits_3_in_a_fresh_process(argv, stdout):
    _, redirect, message = UNUSABLE_STDOUTS[stdout]
    assert run_cli(argv, redirect=redirect) == (EXIT_IO, "", message)


@pytest.mark.parametrize("redirect", ["2>/dev/full", "2>&-"], ids=["full", "closed"])
@pytest.mark.parametrize("argv,status", FAILED_CALLS, ids=["usage", "io"])
def test_unwritable_stderr_keeps_the_status_in_a_fresh_process(argv, status, redirect):
    assert run_cli(argv, redirect=redirect) == (status, "", "")


EDGE_VALUES = ("-1", "0", "nan", "inf", "-inf", "1e-320", "abc")


def _flag(*valid):
    """A flag value: one of ``EDGE_VALUES`` one time in four, else one of ``valid``."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(EDGE_VALUES if i == 0 else valid))


# an --out path: a file in the example's temporary directory, a path whose
# directory does not exist, or one that os.open() refuses
OUT_PATHS = st.sampled_from(["out.txt", "/nonexistent-dir/x.out", *UNOPENABLE_PATHS])
# per subcommand, the values each flag is drawn from; sizes sit around the
# caps that the fuzz test patches in (3 verify samples, 8 boundary points,
# 400 sweep cells, a 101 x 101 oracle grid)
FUZZ_FLAGS = {
    "solve": {
        "--a": _flag("0.2", "1e308"),
        "--b": _flag("0.3", "1e308"),
        "--topology": st.sampled_from(["parallel", "serial", "ring"]),
        "--out": OUT_PATHS,
    },
    "classify": {"--a": _flag("0.3", "1e308"), "--b": _flag("0.5", "1e308"), "--out": OUT_PATHS},
    "sweep": {
        "--a-min": _flag("0.2"),
        "--a-max": _flag("1.2", "1e308"),
        "--b-min": _flag("0.3"),
        "--b-max": _flag("1.2", "1e308"),
        "--na": _flag("2", "3", "19", "20", "21"),
        "--nb": _flag("2", "3", "19", "20", "21"),
        "--out": OUT_PATHS,
    },
    "boundaries": {"--na": _flag("2", "3", "7", "8", "9"), "--out": OUT_PATHS},
    "verify": {
        "--samples": _flag("1", "2", "3", "4"),
        "--seed": _flag("7", str(2**64)),
        "--c-max": _flag("1.5", "3"),
        "--step": _flag("0.5", "0.25", "0.03", "0.029"),
        "--tol": _flag("0.01", "1e308"),
        "--out": OUT_PATHS,
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
            mock.patch.object(regions, "MAX_SWEEP_CELLS", 400),
            mock.patch.object(sweep_cli, "MAX_BOUNDARY_POINTS", 8),
            mock.patch.object(sweep_cli, "MAX_VERIFY_SAMPLES", 3),
            # at c_max 3, step 0.03 fills this grid cap and step 0.029 exceeds it
            mock.patch.object(oracle, "MAX_GRID_POINTS", 101**2),
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            # a relative --out path names a file in a new temporary directory
            tmp = stack.enter_context(tempfile.TemporaryDirectory())
            argv = [os.path.join(tmp, arg) if flag == "--out" else arg for flag, arg in zip(["", *argv], argv)]
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


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    """``main`` keeps one parser per process; reusing it changes no output."""

    ARGVS = [
        ["verify", "--samples", "3", "--step", "0.05"],
        ["verify", "--step", "0.05"],
        ["solve", "--a", "0.2", "--b", "0.2", "--topology", "parallel"],
        ["sweep", "--na", "3", "--nb", "2"],
        ["classify", "--a", "1", "--b", "1"],
        ["solve", "--a", "0.2", "--topology", "serial"],  # usage error: no --b
        ["boundaries", "--na", "3"],
        ["verify", "--samples", "1", "--seed", "7", "--step", "0.05"],
        ["--help"],
        ["sweep", "--na", "2", "--nb", "3", "--a-max", "0.5"],
        ["classify", "--a", "0.3", "--b", "0.5"],
        ["verify", "--samp", "3", "--step", "0.05"],  # abbreviated option
        ["verify", "--he"],  # abbreviated --help of the command
        ["sweep", "--na", "3", "-h"],  # help after a command
        ["verify", "--", "--samples", "3"],  # left over after "--"
        ["verify", "--bogus"],  # unknown option after a command
        ["verify", "--step", "0.05", "extra"],  # unknown positional after a command
        ["verify", "--samples"],  # missing value
        ["verify", "--samples", "x"],  # bad type
        ["frobnicate"],  # unknown command
        [],
        ["-h", "verify"],
    ]

    def test_alternating_calls_match_a_fresh_parser(self, monkeypatch):
        reused = [run_captured(argv) for argv in self.ARGVS * 2]
        assert sweep_cli._parser() is sweep_cli._parser()
        monkeypatch.setattr(sweep_cli, "_parser", sweep_cli.build_parser)
        fresh = [run_captured(argv) for argv in self.ARGVS * 2]
        assert reused == fresh
        assert sweep_cli.build_parser() is not sweep_cli.build_parser()

    def test_one_parse_matches_the_whole_parser(self, monkeypatch):
        """``main`` parses a valid call with its command's parser alone; the
        exit code, stdout and stderr are those of one parse of the whole
        command line, on valid calls, help and errors alike."""
        direct = [run_captured(argv) for argv in self.ARGVS]
        monkeypatch.setattr(sweep_cli, "_parse", lambda argv: sweep_cli.build_parser().parse_args(argv))
        whole = [run_captured(argv) for argv in self.ARGVS]
        for argv, got, expected in zip(self.ARGVS, direct, whole):
            assert got == expected, argv
        assert {code for code, _, _ in direct} == {EXIT_OK, EXIT_USAGE}

    def test_defaults_do_not_leak(self):
        for samples, argv in [(3, ["--samples", "3"]), (200, []), (1, ["--samples", "1"]), (200, [])]:
            code, out, _ = run_captured(["verify", "--step", "0.05", *argv])
            assert code == EXIT_OK
            assert json.loads(out)["samples"] == samples


class TestFormatting:
    def test_float_formatting_round_trips(self):
        values = (0.1, 1.0, 4.7912878474779195, 2.0 / 3.0, 2.0, math.inf)
        texts = phase._cost_texts(np.array(values))
        assert [float(text) for text in texts] == list(values)
        assert texts == [repr(value) for value in values]
        assert texts[-1] == "inf"

    def test_sweep_lines_schema(self):
        lines = sweep_text(SweepSpec(0.0, 1.0, 0.0, 1.0, 2, 2)).split("\n")
        assert lines[0] == "a,b,region,winner,cost_parallel,cost_serial"
        assert len(lines) == 5
        for line in lines[1:]:
            a, b, region, who, cp, cs = line.split(",")
            assert region in {"A", "B1", "B2", "C"}
            assert who in {"parallel", "serial", "tie", "infeasible"}
            float(cp), float(cs)  # parseable, 'inf' included

    def test_boundary_lines_resolution_guard(self):
        # the generator checks its resolution before it yields a line
        for resolution in (1, MAX_BOUNDARY_POINTS + 1):
            with pytest.raises(ValueError):
                next(sweep_cli._boundary_chunks(resolution))

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == EXIT_OK
