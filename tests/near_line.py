"""Weight pairs within a few ulps of the dividing lines, where rounding picks the side."""

import math

import numpy as np


def ulps(x, n):
    """``x`` moved by ``n`` ulps (down when ``n`` is negative), staying nonnegative."""
    toward = -math.inf if n < 0 else math.inf
    for _ in range(abs(n)):
        x = max(math.nextafter(x, toward), 0.0)
    return x


def near_line(points):
    """Each pair of ``points`` with each weight moved by -4 to +4 ulps."""
    return [(ulps(a, i), ulps(b, j)) for a, b in points for i in range(-4, 5) for j in range(-4, 5)]


T = np.random.default_rng(12).uniform(0.0, 1.0, 40).tolist()

# the pairs near each line, by the line's name
NEAR_LINES = {
    "a+b=1": near_line([(t, 1.0 - t) for t in T]),
    "a+2b=1": near_line([(t, (1.0 - t) / 2.0) for t in T]),
    "a=0-and-corners": near_line([(0.0, 0.5), (0.0, 1.0), (0.5, 0.5), (1.0, 0.0), (1.0 / 3.0, 1.0 / 3.0)]),
}
