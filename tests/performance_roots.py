"""Both roots of the performance quadratic, for the tests alone.

The reduced problem's performance constraint ``a*x + k*b/x >= 1`` binds on
the roots of ``a*x**2 - x + k*b = 0``.  The library computes only the upper
root, in ``solver._root``, which the scalar and the array kernel share; the
tests take both from here, by the textbook formula, to check the branch the
kernel takes, the ends of the B1/B2 segment, and the rounding of that
shared formula.
"""

import math


def roots(w, k):
    """Roots ``(x1, x2)`` of ``a*x**2 - x + k*b = 0`` with ``x1 <= x2``, at
    the weights ``w`` (``a > 0``) and the topology ``k``; ``None`` when the
    discriminant is negative, where the constraint holds for every ``x > 0``."""
    disc = 1.0 - 4.0 * k.k * w.a * w.b
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    return (1.0 - sq) / (2.0 * w.a), (1.0 + sq) / (2.0 * w.a)
