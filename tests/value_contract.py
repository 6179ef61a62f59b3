"""Contract of the frozen value types whose ``__init__`` stores through their slots.

Each such class is a ``@dataclass(frozen=True, slots=True)`` that stores
its fields through their slot descriptors, from an ``__init__`` written by
hand or by ``model._direct_init``, instead of through the ``__init__`` that
the decorator would generate.
:func:`assert_value_contract` checks that it still behaves as that generated
class would, against a plain frozen-dataclass twin built here.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest


def plain_twin(cls):
    """A plain ``@dataclass(frozen=True)`` with the fields, defaults and name of ``cls``."""
    spec = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def assert_value_contract(cls):
    """``cls`` keeps the contract of the frozen dataclass its fields declare."""
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]

    # the method's own names, as a method defined in the class body has them
    assert cls.__init__.__qualname__ == cls.__qualname__ + ".__init__"
    assert cls.__init__.__module__ == cls.__module__

    # signature: the field names in order, each with its default
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [p.name for p in params] == names
    for p, f in zip(params, fields):
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        expected = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        assert p.default == expected, p.name

    # distinct nonnegative sentinels read back from their own fields
    args = [0.5 + i for i in range(len(names))]
    obj = cls(*args)
    for name, arg in zip(names, args):
        assert getattr(obj, name) is arg, name
    assert cls.__slots__ == tuple(names)
    assert not hasattr(obj, "__dict__")
    assert cls(**dict(zip(names, args))) == obj

    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 0.25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert [getattr(obj, name) for name in names] == args

    # ==, hash and repr as the generated class gives them
    twin_cls = plain_twin(cls)
    twin = twin_cls(*args)
    assert repr(obj) == repr(twin)
    assert hash(obj) == hash(twin)
    assert (obj == cls(*args)) is (twin == twin_cls(*args)) is True
    for i, name in enumerate(names):
        other = [*args[:i], args[i] + 100.0, *args[i + 1 :]]
        assert (obj == cls(*other)) is (twin == twin_cls(*other)) is False, name
        replaced = dataclasses.replace(obj, **{name: other[i]})
        assert type(replaced) is cls and replaced == cls(*other)
        assert [getattr(replaced, n) for n in names] == other

    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is cls and clone == obj and not hasattr(clone, "__dict__")
        assert [getattr(clone, name) for name in names] == args
    assert dataclasses.asdict(obj) == dict(zip(names, args))
