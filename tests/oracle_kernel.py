"""The oracle's constraint kernel, called as its scan calls it.

``oracle._feasible`` enters no numpy error-state scope of its own: a scan
runs it inside one ``np.errstate(all="ignore")`` scope.  The suite turns a
``RuntimeWarning`` into an error, so the tests call the kernel through
:func:`feasible`, which enters that scope.
"""

import numpy as np

from twospring import oracle


def feasible(w, k, c1, c2):
    """``oracle._feasible(w, k, c1, c2)`` inside the scan's error-state scope."""
    with np.errstate(all="ignore"):
        return oracle._feasible(w, k, c1, c2)
