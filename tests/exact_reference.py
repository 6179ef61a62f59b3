"""Exact region labels and winners, decided in rational arithmetic.

The library decides every region test and every winner on rounded floats, so
within a few ulps of a dividing line rounding may pick the side.  This module
decides the same questions exactly, on the same doubles, with
:class:`fractions.Fraction`:

- band A is ``a + 2b < 1`` and band C is ``a + b >= 1``; band B lies between;
- in band B the serial cost is 2, and the parallel cost is the upper root
  ``(1 + sqrt(1 - 4ab)) / (2a)``, which exceeds 2 exactly when ``a < 1/4``
  or ``b < 2 - 4a`` (and is infinite at ``a = 0``), so that is sub-band B2;
- the winner follows from the label: parallel in A, C and B1, except a tie
  on ``b = 2 - 4a`` in B1; serial in B2; and at ``a = 0``, where band A is
  infeasible for both wirings, each wiring's feasibility decides.

It answers the real-number problem: for ``a`` below about 1e-308 the library
reports a root whose cost overflows as infeasible, where the exact optimum
is finite.  Labels and winners are the ``value`` strings of
``RegionLabel`` and ``Winner``, as the CSV prints them.
"""

from fractions import Fraction


def exact_decision(a: float, b: float) -> tuple[str, str]:
    """Region and cheaper wiring of the doubles ``(a, b)``: one of ``A``,
    ``B1``, ``B2``, ``C``, and one of ``parallel``, ``serial``, ``tie``,
    ``infeasible``."""
    fa, fb = Fraction(a), Fraction(b)
    if fa + 2 * fb < 1:
        # at a = 0 parallel needs b >= 1 and serial b >= 1/2; for a > 0 the
        # parallel cost is at most 1/a and the serial one above 1/a
        return "A", "infeasible" if a == 0.0 else "parallel"
    if fa + fb >= 1:
        return "C", "parallel"
    if fa < Fraction(1, 4) or fb < 2 - 4 * fa:
        return "B2", "serial"
    return "B1", "tie" if fb == 2 - 4 * fa else "parallel"
