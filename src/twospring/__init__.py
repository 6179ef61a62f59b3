"""Two-spring elastoplastic network design toolkit.

Closed-form minimal-cost designs under combined force/resistance performance
constraints for both wirings of a two-spring network, weight-space region
classification with the winning topology per weight pair, and an independent
brute-force grid oracle for cross-validation.  The ``twospring`` console
script exposes all of it on the command line.

Importing the package loads the numpy-free scalar modules ``model``,
``solver`` and ``regions``.  The modules that use numpy, ``oracle``,
``verify`` and ``phase``, and the names taken from them, load on first
access (a module ``__getattr__``, PEP 562), so ``import twospring`` and
the commands that answer one weight pair never load numpy.
"""

import importlib

from .model import (
    SpringPair,
    Topology,
    Weights,
    cost,
    force,
    multiperf,
    resistance,
)
from .regions import (
    RegionLabel,
    RegionReport,
    Winner,
    b2_boundary,
    classify,
    winner,
)
from .solver import (
    ActiveConstraint,
    DesignSolution,
    InfeasibleError,
    ReducedSolution,
    expand,
    solve_reduced,
)

__version__ = "0.1.0"

__all__ = [
    "SpringPair",
    "Topology",
    "Weights",
    "force",
    "resistance",
    "multiperf",
    "cost",
    "ActiveConstraint",
    "InfeasibleError",
    "ReducedSolution",
    "DesignSolution",
    "solve_reduced",
    "expand",
    "RegionLabel",
    "Winner",
    "RegionReport",
    "classify",
    "winner",
    "b2_boundary",
    "GridSpec",
    "OracleResult",
    "VerificationVerdict",
    "oracle_solve",
    "verify_reduction",
    "__version__",
]

# names loaded on first access: the submodules that use numpy, and the
# public names taken from them, each with the submodule that defines it
_LAZY_MODULES = ("oracle", "verify", "phase")
_LAZY_NAMES = {
    "GridSpec": "oracle",
    "OracleResult": "oracle",
    "oracle_solve": "oracle",
    "VerificationVerdict": "verify",
    "verify_reduction": "verify",
}


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_NAMES:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
