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
    # the a = 0 feasibility test of the scalar kernel
    Mutant(
        "kernel-a0-strict",
        "src/twospring/solver.py",
        "        if kk * b >= 1.0:\n",
        "        if kk * b > 1.0:\n",
        ("tests/test_solver.py", "tests/test_fast_path.py"),
    ),
    # the resistance weighed in at b = 0, where 0 * inf must give 0
    Mutant(
        "weigh-adds-resistance-at-b0",
        "src/twospring/oracle.py",
        "    if w.b > 0.0:\n        p += r * w.b\n",
        "    if w.b >= 0.0:\n        p += r * w.b\n",
        ("tests/test_model.py",),
    ),
    # the oracle's tile bound without the strength mask
    Mutant(
        "box-keep-ignores-strength",
        "src/twospring/oracle.py",
        "    keep &= strong\n",
        "",
        ("tests/test_model.py", "tests/test_oracle.py"),
    ),
    # the kernel's comparisons written so that a NaN limit passes both
    Mutant(
        "feasible-nan-passes",
        "src/twospring/oracle.py",
        "    ok = f >= 1.0\n    ok &= _weigh(w, f, r) >= 1.0\n",
        "    ok = ~(f < 1.0)\n    ok &= ~(_weigh(w, f, r) < 1.0)\n",
        ("tests/test_model.py::TestFeasibleGrid::test_nan_limit_is_infeasible",),
    ),
    # the oracle's half of each block one column short: the middle point
    # of the block's last diagonal, when that diagonal is even, is skipped
    Mutant(
        "oracle-half-bound-off-by-one",
        "src/twospring/oracle.py",
        "            r0 = max(int(kept[0]) * tile, i_hi - (s0 + width - 1) // 2)\n",
        "            r0 = max(int(kept[0]) * tile, i_hi - (s0 + width - 2) // 2)\n",
        ("tests/test_oracle.py",),
    ),
    # the oracle's answer looked for from i = (s + 1) // 2, the larger c1 on
    # an odd diagonal
    Mutant(
        "oracle-answer-start-rounds-up",
        "src/twospring/oracle.py",
        "    c = max(0, i_hi - s // 2 - r0)",
        "    c = max(0, i_hi - (s + 1) // 2 - r0)",
        ("tests/test_oracle.py",),
    ),
    # a block with no column left to evaluate passed to the kernel empty
    Mutant(
        "oracle-empty-block-evaluated",
        "src/twospring/oracle.py",
        "            if r0 >= r1:\n                continue\n",
        "",
        ("tests/test_oracle.py",),
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
        "from dataclasses import dataclass\n",
        "from dataclasses import dataclass\n\nimport numpy as np\n",
        ("tests/test_imports.py::TestCommandsWithoutNumpy",),
    ),
    # the oracle made to import the closed form it is meant to check
    Mutant(
        "oracle-imports-solver",
        "src/twospring/oracle.py",
        "from .model import SpringPair, Topology, Weights, cost\n",
        "from .model import SpringPair, Topology, Weights, cost\nfrom .solver import solve_reduced\n",
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
        '        fh.write(chunk)\n        fh.write("\\n")\n',
        '        fh.write(chunk + "\\n")\n',
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
    # the scalar kernel's root branch taken on the line a + k*b = 1 as well
    Mutant(
        "kernel-root-test-loose",
        "src/twospring/solver.py",
        "    if a + kk * b - 1.0 < 0.0:\n",
        "    if a + kk * b - 1.0 <= 0.0:\n",
        ("tests/test_solver.py", "tests/test_fast_path.py"),
    ),
    # the tile bound's resistance taken at the top of each column segment,
    # where it is smallest
    Mutant(
        "bound-resistance-at-high-corner",
        "src/twospring/oracle.py",
        "f, r = _force(k, c1, hi2), _resistance(k, c1, lo2)\n",
        "f, r = _force(k, c1, hi2), _resistance(k, c1, hi2)\n",
        ("tests/test_oracle.py",),
    ),
    # the layout's strength mask keeps tiles that a block does not have
    Mutant(
        "layout-strong-ignores-tiles",
        "src/twospring/oracle.py",
        "~(f_hi < 1.0) & tiles)",
        "~(f_hi < 1.0))",
        ("tests/test_oracle.py",),
    ),
    # the array kernel's B2 test taken at a parallel cost of exactly 2
    Mutant(
        "winner-grid-b2-loose",
        "src/twospring/phase.py",
        "cost_p > 2.0]",
        "cost_p >= 2.0]",
        ("tests/test_regions.py", "tests/test_cli.py"),
    ),
    # the array kernel's root branch taken on the line a + k*b = 1 as well
    Mutant(
        "cost-grid-root-test-loose",
        "src/twospring/phase.py",
        "root = ~zero & (a + kk * b - 1.0 < 0.0)",
        "root = ~zero & (a + kk * b - 1.0 <= 0.0)",
        ("tests/test_regions.py", "tests/test_cli.py"),
    ),
    # the array kernel's strength mask true where a = 0 is infeasible
    Mutant(
        "cost-grid-strength-ignores-infeasible",
        "src/twospring/phase.py",
        "    return cost, ~(infeasible | root)\n",
        "    return cost, ~root\n",
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
