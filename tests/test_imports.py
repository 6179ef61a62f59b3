"""The module boundary: which modules load numpy, and which import which.

``model``, ``solver`` and ``regions`` are the numpy-free scalar spec;
``oracle`` imports only the model from the package, so the grid search
stays independent of the closed form; ``verify`` is the one module that
brings the two together.  The commands that answer one weight pair, the
``boundaries`` command and the usage errors found by the standard
library alone finish without numpy.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from pinned import DIGESTS

import twospring
from twospring import sweep_cli

SRC = Path(twospring.__file__).resolve().parent

# runs main(argv) with its output captured, then reports the exit status,
# the digest of stdout and whether numpy and numpy.random were loaded
_MAIN = """
import contextlib, hashlib, io, json, sys
from twospring.sweep_cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
loaded = {"numpy": "numpy" in sys.modules, "numpy.random": "numpy.random" in sys.modules}
print(json.dumps({"code": code, **loaded, "sha256": digest, "err": err.getvalue()}))
"""


def run_fresh(script, *argv):
    """The JSON line ``script`` prints, run in a fresh interpreter that
    imports twospring from this source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(proc.stdout)


class TestCommandsWithoutNumpy:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--a", "0.3", "--b", "0.2", "--topology", "parallel"],
            ["solve", "--a", "0", "--b", "0.3", "--topology", "serial"],
            ["classify", "--a", "0.3", "--b", "0.5"],
            ["classify", "--a", "0.35", "--b", "0.45"],
        ],
    )
    def test_single_pair_commands(self, argv):
        got = run_fresh(_MAIN, *argv)
        assert (got["code"], got["numpy"], got["err"]) == (sweep_cli.EXIT_OK, False, "")

    def test_default_boundaries(self):
        got = run_fresh(_MAIN, "boundaries")
        assert (got["code"], got["numpy"], got["sha256"]) == (sweep_cli.EXIT_OK, False, DIGESTS["b.csv"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["boundaries", "--na", str(sweep_cli.MAX_BOUNDARY_POINTS + 1)],
            ["sweep", "--na", "1"],
            ["sweep", "--a-max", "inf"],
            ["sweep", "--na", "3000", "--nb", "3000"],
            ["verify", "--seed", "-1"],
            ["verify", "--tol", "inf"],
            ["verify", "--tol", "nan"],
            ["verify", "--samples", str(sweep_cli.MAX_VERIFY_SAMPLES + 1)],
        ],
    )
    def test_early_rejections(self, argv):
        got = run_fresh(_MAIN, *argv)
        assert (got["code"], got["numpy"]) == (sweep_cli.EXIT_USAGE, False)
        assert got["err"].startswith("error: ") and len(got["err"].splitlines()) == 1

    def test_sweep_and_verify_do_load_it(self):
        """The guard can see numpy: the two array commands load it."""
        assert run_fresh(_MAIN, "sweep", "--na", "2", "--nb", "2")["numpy"]
        assert run_fresh(_MAIN, "verify", "--samples", "1", "--step", "0.5")["numpy"]


class TestVerifyWithoutNumpyRandom:
    """``verify`` draws its pairs in pure Python, so it loads numpy but not
    ``numpy.random``, however many pairs it draws."""

    @pytest.mark.parametrize("samples", ["2", "5000"])
    def test_campaign(self, samples):
        if run_fresh("import json, sys, numpy; print(json.dumps('numpy.random' in sys.modules))"):
            pytest.skip("this numpy loads numpy.random when numpy loads")
        got = run_fresh(_MAIN, "verify", "--samples", samples, "--step", "0.5")
        assert (got["code"], got["numpy"], got["numpy.random"]) == (sweep_cli.EXIT_OK, True, False)

    def test_guard_can_see_it(self):
        """The guard reports ``numpy.random`` once something has loaded it."""
        got = run_fresh("import numpy.random\n" + _MAIN, "verify", "--samples", "2", "--step", "0.5")
        assert (got["code"], got["numpy.random"]) == (sweep_cli.EXIT_OK, True)


def imports(path, module_level_only):
    """Names of the modules the file at ``path`` imports, package-relative
    ones with their leading dots; with ``module_level_only``, only the
    imports that run when the module loads, not those inside a function."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if module_level_only and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = "." * child.level + (child.module or "")
                if child.module is None:  # from . import name
                    found.update(base + alias.name for alias in child.names)
                else:
                    found.add(base)
            visit(child)

    visit(ast.parse(path.read_text()))
    return found


def is_numpy(name):
    return name == "numpy" or name.startswith("numpy.")


class TestImportGraph:
    @pytest.mark.parametrize("module", ["model", "solver", "regions", "sweep_cli", "__init__"])
    def test_scalar_modules_import_no_numpy(self, module):
        assert not any(map(is_numpy, imports(SRC / f"{module}.py", module_level_only=True)))

    def test_oracle_imports_only_the_model(self):
        package = {name for name in imports(SRC / "oracle.py", module_level_only=False) if name.startswith(".")}
        assert package == {".model"}

    def test_only_verify_imports_both_the_oracle_and_the_solver(self):
        both = {
            path.stem
            for path in SRC.glob("*.py")
            if {".oracle", ".solver"} <= imports(path, module_level_only=True)
        }
        assert both == {"verify"}

    def test_only_the_solver_computes_the_root(self):
        """The root formula is written once, in ``solver._root``: no other
        module calls a ``sqrt``, and the array kernel imports the helper."""

        def calls_sqrt(path):
            return any(
                isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) == "sqrt" or getattr(node.func, "attr", None) == "sqrt")
                for node in ast.walk(ast.parse(path.read_text()))
            )

        assert {path.stem for path in SRC.glob("*.py") if calls_sqrt(path)} == {"solver"}
        assert any(
            isinstance(node, ast.ImportFrom)
            and (node.level, node.module) == (1, "solver")
            and "_root" in {alias.name for alias in node.names}
            for node in ast.walk(ast.parse((SRC / "phase.py").read_text()))
        )

    def test_only_the_model_defines_the_formulas(self):
        """Force, resistance and the ``a*F + b*R`` rule are written once, in
        ``model``: no other module defines a function of their names, and
        the oracle imports the model's."""
        formulas = {"_force", "_resistance", "_weigh"}

        def defines(path):
            tree = ast.parse(path.read_text())
            return formulas & {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

        assert {path.stem for path in SRC.glob("*.py") if defines(path)} == {"model"}
        assert any(
            isinstance(node, ast.ImportFrom)
            and (node.level, node.module) == (1, "model")
            and formulas <= {alias.name for alias in node.names}
            for node in ast.walk(ast.parse((SRC / "oracle.py").read_text()))
        )

    def test_no_module_reads_an_instance_dict(self):
        """The value types keep their fields in slots, so no module reads
        ``self.__dict__``: a value's ``__init__`` stores through the slot
        descriptors, by hand or from ``model._direct_init``."""

        def reads_dict(path):
            return any(
                isinstance(node, ast.Attribute)
                and node.attr == "__dict__"
                and getattr(node.value, "id", None) == "self"
                for node in ast.walk(ast.parse(path.read_text()))
            )

        assert [path.stem for path in SRC.glob("*.py") if reads_dict(path)] == []


class TestLazyNames:
    def test_star_import(self):
        namespace = {}
        exec("from twospring import *", namespace)
        assert set(twospring.__all__) <= set(namespace)
        assert namespace["oracle_solve"] is twospring.oracle.oracle_solve
        assert namespace["VerificationVerdict"] is twospring.verify.VerificationVerdict

    @pytest.mark.parametrize("module", ["model", "solver", "regions", "oracle", "verify", "phase", "sweep_cli"])
    def test_module_star_import(self, module):
        """Every name a module's ``__all__`` lists exists: a stale entry
        makes the star import raise."""
        namespace = {}
        exec(f"from twospring.{module} import *", namespace)
        assert set(importlib.import_module(f"twospring.{module}").__all__) <= set(namespace)

    def test_names_are_the_submodules_own(self):
        assert twospring.verify_reduction is twospring.verify.verify_reduction
        assert twospring.GridSpec is twospring.oracle.GridSpec
        assert twospring.OracleResult is twospring.oracle.OracleResult

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(twospring, "no_such_name")
        assert not hasattr(twospring, "winner_grid")
        assert not hasattr(twospring, "classify") and not hasattr(twospring.regions, "classify")

    def test_submodules_resolve_after_a_bare_import(self):
        script = """
import json, sys
import twospring
before = "numpy" in sys.modules
names = [twospring.oracle.__name__, twospring.verify.__name__, twospring.phase.__name__]
print(json.dumps({"before": before, "names": names, "grid": twospring.GridSpec.__module__}))
"""
        got = run_fresh(script)
        assert got == {
            "before": False,
            "names": ["twospring.oracle", "twospring.verify", "twospring.phase"],
            "grid": "twospring.oracle",
        }
