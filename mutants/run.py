"""Mutation check: each listed mutant must make its own tests fail.

    python3 mutants/run.py

Run from anywhere; the repository is the parent of this file's directory.
Each entry of :data:`MUTANTS` names a file, an exact source snippet, its
replacement and the test files (or pytest node ids) that should notice it.
For each entry the runner copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` into a temporary directory, replaces the snippet there,
and runs only the entry's tests with pytest, importing the package from the
copy's ``src/``.  First it runs the union of those tests on an unmutated
copy, which must pass.

A mutant is *killed* when pytest reports failing tests (or runs past
``TIMEOUT_S``), and *survives* when they all pass.  The runner exits 1 when
a mutant survives, when a snippet does not occur exactly once in its file (a
refactor has to carry its mutants along), when pytest ends any other way (an
error in collection, say), or when the unmutated tests fail; otherwise it
exits 0.  It uses only the standard library and pytest, and is not part of
the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "_work")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    # band C decided first in winner
    Mutant(
        "winner-band-c-strict",
        "src/twospring/regions.py",
        "    if a + b - 1.0 >= 0.0:\n        return _BAND_C\n",
        "    if a + b - 1.0 > 0.0:\n        return _BAND_C\n",
        ("tests/test_fast_path.py",),
    ),
    Mutant(
        "band-c-costs-swapped",
        "src/twospring/regions.py",
        "_BAND_C = _report(1.0, 1.0)\n",
        "_BAND_C = _report(1.0, 1.0)\n"
        "_BAND_C = RegionReport(_BAND_C.label, _BAND_C.winner, _BAND_C.cost_serial, _BAND_C.cost_parallel)\n",
        ("tests/test_fast_path.py",),
    ),
    # expand's shared designs served for any solution marked as the strength
    # bound; the globals() test lets the import-time build of those designs,
    # which expands equal copies of the shared solutions, take the general path
    Mutant(
        "expand-shares-any-strength-solution",
        "src/twospring/solver.py",
        "    if sol is _STRENGTH_PARALLEL or sol is _STRENGTH_SERIAL:\n"
        "        return _STRENGTH_DESIGNS[sol is _STRENGTH_SERIAL][k is _SERIAL]\n",
        '    if sol.active_constraint is _STRENGTH and "_STRENGTH_DESIGNS" in globals():\n'
        "        return _STRENGTH_DESIGNS[sol.total_cost == 2.0][k is _SERIAL]\n",
        ("tests/test_fast_path.py",),
    ),
    # the scalar kernel's strength test made strict, so the root branch is
    # taken on the line a + k*b = 1, and the a = 0 axis at k*b = 1 is
    # infeasible; the kernel's first line and solve_reduced's shortcut have
    # the same text, so each snippet takes the line after it as well
    Mutant(
        "kernel-strength-strict",
        "src/twospring/solver.py",
        "    if a + kk * b - 1.0 >= 0.0:\n        # x = 1 already meets the performance constraint\n",
        "    if a + kk * b - 1.0 > 0.0:\n        # x = 1 already meets the performance constraint\n",
        ("tests/test_solver.py", "tests/test_fast_path.py"),
    ),
    # the scalar kernel's a = 0 guard dropped, so the root divides by zero
    Mutant(
        "kernel-a0-guard-dropped",
        "src/twospring/solver.py",
        "    if a == 0.0:\n        # the performance constraint caps x at k*b < 1\n        return None, math.inf, None\n",
        "",
        ("tests/test_solver.py", "tests/test_fast_path.py"),
    ),
    # a pair on a line left to the kernel, which answers it alike, so only
    # the path a solve takes shows it
    Mutant(
        "solve-shortcut-strict",
        "src/twospring/solver.py",
        "    if a + kk * b - 1.0 >= 0.0:\n        return _STRENGTH_PARALLEL",
        "    if a + kk * b - 1.0 > 0.0:\n        return _STRENGTH_PARALLEL",
        ("tests/test_fast_path.py::test_strength_bound_needs_no_kernel[lines]",),
    ),
    # the parallel shortcut tests the serial line, so band B gets the
    # parallel strength bound
    Mutant(
        "solve-shortcut-serial-line-on-parallel",
        "src/twospring/solver.py",
        "    if a + kk * b - 1.0 >= 0.0:\n        return _STRENGTH_PARALLEL",
        "    if a + 2.0 * b - 1.0 >= 0.0:\n        return _STRENGTH_PARALLEL",
        ("tests/test_fast_path.py::test_near_the_lines", "tests/test_fast_path.py::test_inf_and_subnormal_weights"),
    ),
    # the resistance weighed in at b = 0, where 0 * inf must give 0
    Mutant(
        "weigh-adds-resistance-at-b0",
        "src/twospring/model.py",
        "    if w.b > 0.0:\n        p += r * w.b\n",
        "    if w.b >= 0.0:\n        p += r * w.b\n",
        ("tests/test_model.py",),
    ),
    # the parallel force, shared by the scalar spec and the oracle, reads one limit twice
    Mutant(
        "parallel-force-one-limit",
        "src/twospring/model.py",
        "        return c1 + c2\n",
        "        return c2 + c2\n",
        ("tests/test_model.py", "tests/test_oracle.py"),
    ),
    # the serial resistance, shared likewise, reads one limit twice
    Mutant(
        "serial-resistance-one-limit",
        "src/twospring/model.py",
        "1.0 / c1 + 1.0 / c2",
        "1.0 / c1 + 1.0 / c1",
        ("tests/test_model.py", "tests/test_oracle.py"),
    ),
    # a verdict agrees only on the plain "agree" status
    Mutant(
        "verdict-agree-exact",
        "src/twospring/verify.py",
        '    agree = status.startswith("agree")\n',
        '    agree = status == "agree"\n',
        ("tests/test_oracle.py",),
    ),
    # a campaign's failure record with its weights swapped and the wiring's
    # name upper-cased
    Mutant(
        "campaign-failure-fields-swapped",
        "src/twospring/verify.py",
        '                        "a": w.a,\n                        "b": w.b,\n'
        '                        "topology": k.name.lower(),\n',
        '                        "a": w.b,\n                        "b": w.a,\n'
        '                        "topology": k.name,\n',
        ("tests/test_cli.py::TestVerifyCommand",),
    ),
    # numpy loaded by the scalar spec, and so by every command
    Mutant(
        "model-imports-numpy",
        "src/twospring/model.py",
        "from dataclasses import dataclass, fields\n",
        "from dataclasses import dataclass, fields\n\nimport numpy as np\n",
        ("tests/test_imports.py::TestCommandsWithoutNumpy",),
    ),
    # the oracle made to import the closed form it is meant to check
    Mutant(
        "oracle-imports-solver",
        "src/twospring/oracle.py",
        "from .model import SpringPair, Topology, Weights, _direct_init, _force, _resistance, _weigh, cost\n",
        "from .model import SpringPair, Topology, Weights, _direct_init, _force, _resistance, _weigh, cost\n"
        "from .solver import solve_reduced\n",
        ("tests/test_imports.py::TestImportGraph",),
    ),
    # a broken stdout pipe left in place, so the flush at exit fails again
    Mutant(
        "broken-pipe-no-dup2",
        "src/twospring/sweep_cli.py",
        "        os.dup2(devnull, sys.stdout.fileno())\n",
        "",
        ("tests/test_cli.py",),
    ),
    # a command's parse that leaves arguments over taken as valid, where
    # the whole parser reports them as unrecognized
    Mutant(
        "dispatch-ignores-leftovers",
        "src/twospring/sweep_cli.py",
        "        if not extra:\n",
        "        if True:\n",
        ("tests/test_cli.py::TestParserReuse",),
    ),
    # a usage error past the parser left to escape main as a traceback
    Mutant(
        "main-misses-usage-errors",
        "src/twospring/sweep_cli.py",
        "    except ValueError as exc:\n",
        "    except TypeError as exc:\n",
        ("tests/test_cli.py",),
    ),
    # the last boundary sample left at (resolution - 1) * step + start, which
    # misses stop at 50 samples on [0, 1] and at many other resolutions
    Mutant(
        "boundary-last-sample-unpinned",
        "src/twospring/sweep_cli.py",
        "            for a in [i * step + start if i < last else stop]\n",
        "            for a in [i * step + start]\n",
        ("tests/test_cli.py",),
    ),
    # a chunk and its last newline in one write
    Mutant(
        "chunk-and-newline-one-write",
        "src/twospring/sweep_cli.py",
        '            fh.write(chunk)\n            fh.write("\\n")\n',
        '            fh.write(chunk + "\\n")\n',
        ("tests/test_cli.py",),
    ),
    # no check for a closed stdout, so writing to None raises AttributeError
    Mutant(
        "closed-stdout-unchecked",
        "src/twospring/sweep_cli.py",
        '    if sys.stdout is None:\n        raise OSError(errno.EBADF, "stdout is closed")\n',
        "",
        ("tests/test_cli.py",),
    ),
    # a failing stderr's OSError left to escape main, which then exits 1
    Mutant(
        "stderr-guard-misses-oserror",
        "src/twospring/sweep_cli.py",
        "    except (AttributeError, OSError):\n        pass\n",
        "    except AttributeError:\n        pass\n",
        ("tests/test_cli.py",),
    ),
    # help printed by argparse, which drops a failed write to stdout and
    # prints on stderr when stdout is closed
    Mutant(
        "help-bypasses-the-writer",
        "src/twospring/sweep_cli.py",
        "    def print_help(self, file=None):\n",
        "    def _unused_print_help(self, file=None):\n",
        ("tests/test_cli.py::test_help_to_an_unusable_stdout_is_io_error",),
    ),
    # verify's campaign run before _write opens --out or takes stdout
    Mutant(
        "verify-campaign-before-open",
        "src/twospring/sweep_cli.py",
        "    _write(summary_chunk(), args.out)\n",
        "    _write(list(summary_chunk()), args.out)\n",
        ("tests/test_cli.py",),
    ),
    # a sweep chunk that ends with its last row's newline, so the writer's
    # own newline leaves a blank line
    Mutant(
        "sweep-chunk-keeps-last-newline",
        "src/twospring/phase.py",
        '    parts[-1] = ""  # no newline after the chunk\'s last row\n',
        "",
        ("tests/test_cli.py::TestSweepParity",),
    ),
    # the "a," texts of a chunk read from column 0, wrong only for a chunk
    # that starts inside a row
    Mutant(
        "sweep-a-texts-from-column-0",
        "src/twospring/phase.py",
        "a_run[offset : offset + a.size]",
        "a_run[: a.size]",
        ("tests/test_cli.py::TestSweepParity",),
    ),
    # the array kernel's B2 test taken at a parallel cost of exactly 2
    Mutant(
        "winner-grid-b2-loose",
        "src/twospring/phase.py",
        "cost_p > 2.0]",
        "cost_p >= 2.0]",
        ("tests/test_regions.py", "tests/test_cli.py"),
    ),
    # the array kernel's strength test made strict, so the root branch is
    # taken on the line a + k*b = 1 as well
    Mutant(
        "cost-grid-strength-strict",
        "src/twospring/phase.py",
        "strength = a + kk * b - 1.0 >= 0.0",
        "strength = a + kk * b - 1.0 > 0.0",
        ("tests/test_regions.py", "tests/test_cli.py"),
    ),
    # the array kernel's a = 0 guard dropped: at a = +0.0 the root is inf,
    # as the infeasible cost is, but at a = -0.0 it is -inf
    Mutant(
        "cost-grid-a0-guard-dropped",
        "src/twospring/phase.py",
        "root = ~strength & (a != 0.0)",
        "root = ~strength",
        ("tests/test_regions.py", "tests/test_cli.py"),
    ),
    # the lower root of the performance quadratic in the formula both kernels
    # share; the scalar files alone kill it, and so do the array files alone
    Mutant(
        "root-lower",
        "src/twospring/solver.py",
        "1.0 + sqrt(",
        "1.0 - sqrt(",
        ("tests/test_solver.py", "tests/test_fast_path.py", "tests/test_regions.py", "tests/test_cli.py"),
    ),
    # the shared root rounded differently, about one ulp off on a third of
    # the root-branch pairs, where the scalar-vs-array parity cannot see it
    Mutant(
        "root-rounded-differently",
        "src/twospring/solver.py",
        "    return (1.0 + sqrt(1.0 - 4.0 * kk * a * b)) / (2.0 * a)\n",
        "    return 0.5 / a + sqrt(1.0 - 4.0 * kk * a * b) / (2.0 * a)\n",
        (
            "tests/test_solver.py::test_root_costs_match_the_textbook_root",
            "tests/test_cli.py::TestSweepParity::test_default_sweep_bytes_are_pinned",
        ),
    ),
    # the array kernel's strength mask true where a = 0 is infeasible
    Mutant(
        "cost-grid-strength-ignores-infeasible",
        "src/twospring/phase.py",
        "    return cost, strength\n",
        "    return cost, strength | (a == 0.0)\n",
        ("tests/test_regions.py", "tests/test_cli.py"),
    ),
    # the array kernel's bands read from the other wiring's strength branch
    Mutant(
        "winner-grid-strength-swapped",
        "src/twospring/phase.py",
        "[~strength_s, strength_p,",
        "[~strength_p, strength_s,",
        ("tests/test_regions.py", "tests/test_cli.py"),
    ),
    # band A of the scalar label read from the parallel kernel's branch
    Mutant(
        "report-band-a-from-parallel",
        "src/twospring/regions.py",
        "    if active_s is not _STRENGTH:\n",
        "    if active_p is not _STRENGTH:\n",
        ("tests/test_fast_path.py",),
    ),
    # the frontier's dominance test with the resistance compared the wrong way
    Mutant(
        "dominance-resistance-reversed",
        "src/twospring/oracle.py",
        "(f >= f2) & (r >= r2)",
        "(f >= f2) & (r <= r2)",
        ("tests/test_oracle.py::TestFrontier",),
    ),
    # an infinite force taken to dominate a finite one, which it does not
    # under a = 0; no grid reaches the case, so the rule is tested directly
    Mutant(
        "dominance-without-infinite-force-guard",
        "src/twospring/oracle.py",
        "    return (f >= f2) & (r >= r2) & ((f < math.inf) | (f2 == math.inf))\n",
        "    return (f >= f2) & (r >= r2)\n",
        ("tests/test_oracle.py::TestFrontier",),
    ),
    # each diagonal laid out by ascending i, so a point is compared with
    # the points after it in scan order
    Mutant(
        "frontier-diagonal-ascending",
        "src/twospring/oracle.py",
        "i = s // 2 + starts[s] - np.arange(starts[first], ends[stop - 1])",
        "i = np.maximum(s - last, 0) - starts[s] + np.arange(starts[first], ends[stop - 1])",
        ("tests/test_oracle.py::TestFrontier",),
    ),
    # each run of the build laid out without its last diagonal, which no
    # run then evaluates; every small grid is one run at the default
    # _CHUNK, so only the runs of a few points show it
    Mutant(
        "frontier-run-skips-last-diagonal",
        "src/twospring/oracle.py",
        "s = np.repeat(diagonal[first:stop], counts[first:stop])\n"
        "            i = s // 2 + starts[s] - np.arange(starts[first], ends[stop - 1])",
        "s = np.repeat(diagonal[first : stop - 1], counts[first : stop - 1])\n"
        "            i = s // 2 + starts[s] - np.arange(starts[first], ends[stop - 2])",
        ("tests/test_oracle.py::TestFrontier::test_runs_of_few_points_build_the_same_frontier",),
    ),
    # each point compared with the points after it in scan order, so a
    # point is dropped for a later one that the frontier may not keep
    Mutant(
        "frontier-neighbour-after",
        "src/twospring/oracle.py",
        "keep[d:] &= ~_dominates(f[:-d], r[:-d], f[d:], r[d:])",
        "keep[:-d] &= ~_dominates(f[d:], r[d:], f[:-d], r[:-d])",
        ("tests/test_oracle.py::TestFrontier",),
    ),
    # a diagonal point of force exactly 1 left out as weak, such as the
    # default grid's serial head (1.0, 1.0)
    Mutant(
        "frontier-diagonal-strict",
        "src/twospring/oracle.py",
        "(i,) = (f >= 1.0).nonzero()",
        "(i,) = (f > 1.0).nonzero()",
        ("tests/test_oracle.py::TestFrontier",),
    ),
    # the row rule applied to every row, whatever its force at its ends
    Mutant(
        "row-rule-skips-every-row",
        "src/twospring/oracle.py",
        "    live = f != _force(k, axis, axis[last], np.minimum)",
        "    live = f != f",
        ("tests/test_oracle.py::TestFrontier",),
    ),
    # both wirings' frontiers in one cache slot, so a campaign that
    # alternates them rebuilds a frontier on every call
    Mutant(
        "frontiers-share-one-cache-slot",
        "src/twospring/oracle.py",
        "@functools.lru_cache(maxsize=2)",
        "@functools.lru_cache(maxsize=1)",
        ("tests/test_oracle.py::TestFrontier::test_each_wiring_builds_its_frontier_once",),
    ),
    # a head weighing exactly 1 left to the arrays, which answer it alike,
    # so only the path a call takes shows it
    Mutant(
        "oracle-head-strict",
        "src/twospring/oracle.py",
        "    if _weigh(w, head_f, head_r) >= 1.0:\n",
        "    if _weigh(w, head_f, head_r) > 1.0:\n",
        ("tests/test_oracle.py::TestHead",),
    ),
    # the head's result built from the frontier's second point
    Mutant(
        "oracle-head-second-point",
        "src/twospring/oracle.py",
        "_answer(axis, int(i[0]), int(j[0]), last)",
        "_answer(axis, int(i[1]), int(j[1]), last)",
        ("tests/test_oracle.py::TestFullScanParity",),
    ),
    # the generated __init__ lists its parameters rotated by one, so a
    # positional call stores each field from the next argument; rotating
    # the stores instead breaks solver's import-time build, an error and
    # not a kill
    Mutant(
        "direct-init-fields-shifted",
        "src/twospring/model.py",
        "{', '.join(names)}",
        "{', '.join(names[-1:] + names[:-1])}",
        (
            "tests/test_solver.py::test_value_contract",
            "tests/test_regions.py::test_value_contract",
            "tests/test_oracle.py::test_value_contract",
        ),
    ),
    # a result type declared without slots; model._direct_init refuses it
    # when regions loads, which the guard test, importing the modules
    # inside the test, reports as a failure
    Mutant(
        "value-type-without-slots",
        "src/twospring/regions.py",
        "@dataclass(frozen=True, slots=True)\nclass RegionReport:\n",
        "@dataclass(frozen=True)\nclass RegionReport:\n",
        ("tests/test_value_types.py::test_every_dataclass_is_frozen_with_slots",),
    ),
    # the campaign's draw keeps 52 bits of each raw word, not 53
    Mutant(
        "verify-draw-52-bits",
        "src/twospring/verify.py",
        "(word >> 11)",
        "(word >> 12)",
        (
            "tests/test_oracle.py::test_campaign_pairs_come_from_the_raw_pcg64_stream",
            "tests/test_cli.py::TestVerifyCommand::test_default_summary_bytes_are_pinned",
        ),
    ),
    # the campaign's pairs drawn all at once, before the first is checked:
    # the 60,000 pairs of the memory test are held together
    Mutant(
        "verify-draw-held-whole",
        "src/twospring/verify.py",
        "    return ([u, v] for _, u, v in zip(range(samples), words, words))\n",
        "    return iter([[u, v] for _, u, v in zip(range(samples), words, words)])\n",
        ("tests/test_oracle.py::test_campaign_draw_memory_is_bounded",),
    ),
    # the pure-Python PCG64 output rotated left instead of right
    Mutant(
        "verify-stream-rotates-left",
        "src/twospring/verify.py",
        "(word >> rot | word << 64 - rot)",
        "(word << rot | word >> 64 - rot)",
        ("tests/test_oracle.py::test_python_stream_is_numpys_pcg64",),
    ),
    # the pure-Python PCG64 seeding with an even increment
    Mutant(
        "verify-seeding-even-increment",
        "src/twospring/verify.py",
        "inc = (initseq << 1 | 1) & _MASK128\n",
        "inc = (initseq << 1) & _MASK128\n",
        ("tests/test_oracle.py::test_python_stream_is_numpys_pcg64",),
    ),
    # --out written with one os.write per buffer, dropping what a short
    # write leaves over
    Mutant(
        "out-write-once",
        "src/twospring/sweep_cli.py",
        "    while view:\n",
        "    if view:\n",
        ("tests/test_cli.py::test_out_survives_short_writes",),
    ),
]


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=IGNORED)
        else:
            shutil.copy2(src, dest / name)


def pytest(tree: Path, tests: tuple[str, ...]) -> int:
    """Exit status of pytest on ``tests`` in ``tree``, 1 on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1
    return proc.returncode


def run(mutant: Mutant) -> str:
    """``killed``, ``survived``, ``stale`` (snippet not found exactly once) or ``error``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return "stale"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        code = pytest(tree, mutant.tests)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy_tree(Path(tmp))
        if pytest(Path(tmp), tests) != 0:
            print(f"unmutated tests fail: {' '.join(tests)}", flush=True)
            return 1

    outcomes = []
    for m in MUTANTS:
        outcome = run(m)
        outcomes.append(outcome)
        print(f"{outcome:9} {m.name}", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
