"""Every dataclass of the package is frozen and keeps its fields in slots.

An instance with no ``__dict__`` reads each field on the interpreter's
slot path.  The package's modules are imported inside the test, not at
collection, so a value type that loses its slots, which ``model._direct_init``
refuses when the module loads, fails this test instead of stopping the run.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("twospring").origin).parent

VALUE_TYPES = {
    "model": {"SpringPair", "Weights"},
    "solver": {"ReducedSolution", "DesignSolution"},
    "regions": {"RegionReport", "SweepSpec"},
    "oracle": {"GridSpec", "OracleResult"},
    "verify": {"VerificationVerdict"},
}


def test_every_dataclass_is_frozen_with_slots():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"twospring.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                found.setdefault(path.stem, set()).add(cls.__name__)
                assert cls.__dataclass_params__.frozen, cls
                assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls)), cls
                assert not hasattr(object.__new__(cls), "__dict__"), cls
    assert found == VALUE_TYPES
