"""A reference kernel of feasibility on arrays, for the oracle's tests.

It is written here from the model's formulas, ``_force``, ``_resistance``
and ``_weigh``, and shares no code with the oracle it checks.  The suite
turns a ``RuntimeWarning`` into an error, so it runs them inside one
``np.errstate(all="ignore")`` scope, as the oracle does.
"""

import numpy as np

from twospring.model import _force, _resistance, _weigh


def feasible(w, k, c1, c2):
    """Mask of the points ``(c1, c2)`` that are strong (force ``>= 1``) and
    performant (``a*force + b*resistance >= 1``); a NaN limit fails both."""
    with np.errstate(all="ignore"):
        f = _force(k, c1, c2, np.minimum)
        return (f >= 1.0) & (_weigh(w, f, _resistance(k, c1, c2)) >= 1.0)
