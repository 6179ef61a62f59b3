"""Physical quantities of a two-spring elastoplastic network.

Two springs with elastic limits ``(c1, c2)`` are wired either in parallel or
in series.  This module evaluates, for either wiring, the maximal force the
network withstands before deforming plastically, its electrical resistance,
the weighted force/resistance performance, and the fabrication cost.

All operations are pure functions of immutable values on Python floats, and
the module imports only the standard library: it is the scalar spec that
every other module reads.  Resistance uses extended arithmetic (a zero
divisor yields ``+inf``) so every constraint can be evaluated on the whole
closed quadrant ``c1, c2 >= 0`` without special cases.  Each formula is
written once, in a private function of floats and numpy arrays alike:
:func:`_force`, :func:`_resistance` and :func:`_weigh`.  The public
functions call them on floats, and :mod:`twospring.oracle` on arrays,
passing ``np.minimum`` where this module passes ``min``, so loading the
model loads no numpy.

The formulas carry two contracts the oracle rests on.  They are symmetric
in the two limits, bit for bit, because ``+``, ``min`` and ``1/c1 + 1/c2``
are commutative in rounded arithmetic, so swapping ``c1`` and ``c2``
changes no force, resistance, performance or feasibility, NaN included:
the oracle searches half the grid.  And force is non-decreasing and
resistance non-increasing in each limit, for both wirings, and every
rounding step keeps that order: a grid row whose force is equal at both
ends has constant force, and the oracle skips every point of it after the
first, which its predecessor in the row dominates.

The value types are frozen dataclasses with slots, built once per query.
A field read on an instance with no ``__dict__`` takes the interpreter's
specialized slot path, where one on an instance dict looks the name up.
The ``__init__`` a frozen dataclass generates sets every field through
``object.__setattr__``, which costs more than a closed-form solve.  So each
stores its fields through their slot descriptors, one call of the field's
``__set__`` per field, which bypasses the frozen ``__setattr__`` as
``object.__setattr__`` does; ``@dataclass(frozen=True, slots=True)``, which
keeps an ``__init__`` the class defines, still gives the slots, equality,
hashing, ``repr``, pickling and the ``__setattr__`` that refuses
assignment.  :class:`SpringPair` and :class:`Weights` validate their
arguments, so their ``__init__`` is written by hand, with the setters bound
as module globals below each class.  The result types of ``solver``,
``regions``, ``oracle`` and ``verify`` take theirs from
:func:`_direct_init`, which writes the method's source from the field list
and compiles it once, when the class is created, as ``dataclasses`` builds
its own methods.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

__all__ = [
    "Topology",
    "SpringPair",
    "Weights",
    "force",
    "resistance",
    "multiperf",
    "cost",
]


class Topology(enum.Enum):
    """Wiring of the two springs; the numeric tag is the reduction factor k."""

    PARALLEL = 1
    SERIAL = 2

    @property
    def k(self) -> int:
        return self.value


def _direct_init(cls):
    """Give the slotted dataclass ``cls`` an ``__init__`` of its fields, in
    order, that stores each through its slot descriptor: one call of the
    field's ``__set__``, bound in the method's globals as ``_set_<field>``.
    Stacked above ``@dataclass(frozen=True, slots=True)``; a class without
    slots of its own raises ``TypeError``, and fields with defaults are not
    supported."""
    if "__slots__" not in vars(cls):
        raise TypeError(f"{cls.__qualname__} has no __slots__; declare it with @dataclass(frozen=True, slots=True)")
    names = [f.name for f in fields(cls)]
    setters = {f"_set_{name}": vars(cls)[name].__set__ for name in names}
    stores = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    namespace = {}
    exec(f"def __init__(self, {', '.join(names)}):{stores}\n", setters, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


@dataclass(frozen=True, slots=True)
class SpringPair:
    """Elastic limits of the two springs, the design variables of the network."""

    c1: float
    c2: float

    def __init__(self, c1: float, c2: float) -> None:
        if not (c1 >= 0.0) or not (c2 >= 0.0):
            raise ValueError(f"elastic limits must be nonnegative, got ({c1!r}, {c2!r})")
        _set_c1(self, c1)
        _set_c2(self, c2)


_set_c1, _set_c2 = SpringPair.c1.__set__, SpringPair.c2.__set__


@dataclass(frozen=True, slots=True)
class Weights:
    """Nonnegative weights: ``a`` on force capacity, ``b`` on resistance."""

    a: float
    b: float

    def __init__(self, a: float, b: float) -> None:
        if not (a >= 0.0) or not (b >= 0.0):
            raise ValueError(f"weights must be nonnegative, got ({a!r}, {b!r})")
        _set_a(self, a)
        _set_b(self, b)


_set_a, _set_b = Weights.a.__set__, Weights.b.__set__


def _force(k: Topology, c1, c2, minimum):
    """The force on floats with ``min`` or on arrays with ``np.minimum``."""
    if k is Topology.PARALLEL:
        return c1 + c2
    return minimum(c1, c2)


def _resistance(k: Topology, c1, c2):
    """The resistance on floats or arrays.  A zero divisor raises
    ``ZeroDivisionError`` on floats and gives ``inf`` on arrays, where a
    subnormal one also gives ``inf``, as it does on floats."""
    if k is Topology.PARALLEL:
        return 1.0 / (c1 + c2)
    return 1.0 / c1 + 1.0 / c2


def _weigh(w: Weights, f, r):
    """The performance rule ``a*f + b*r``, given the force ``f`` and the resistance ``r``.

    On arrays it returns a new array and only reads ``f`` and ``r``, so
    they may be cached and read-only.  ``r`` is added only when ``b > 0``,
    which is the ``0 * inf == 0`` convention of :func:`multiperf`.
    Overflow saturates to ``inf``, and an infinite force under ``a = 0``
    gives NaN, which fails ``>= 1`` as its limit ``b*r -> 0`` does.
    """
    p = f * w.a
    if w.b > 0.0:
        p += r * w.b
    return p


def force(k: Topology, s: SpringPair) -> float:
    """Maximal force before plastic flow: the sum of limits in parallel, the
    weaker limit in series (one yielded spring caps the serial chain)."""
    return _force(k, s.c1, s.c2, min)


def resistance(k: Topology, s: SpringPair) -> float:
    """Electrical resistance of the network, with per-spring resistance 1/c."""
    try:
        return _resistance(k, s.c1, s.c2)
    except ZeroDivisionError:
        return math.inf


def multiperf(w: Weights, k: Topology, s: SpringPair) -> float:
    """Weighted performance ``a*force + b*resistance``.

    Follows the convention ``0 * inf == 0``: a zero resistance weight
    silences an infinite resistance, matching the limit ``b -> 0+``.
    """
    return _weigh(w, force(k, s), resistance(k, s))


def cost(s: SpringPair) -> float:
    """Fabrication cost ``c1 + c2``, independent of the wiring."""
    return s.c1 + s.c2
