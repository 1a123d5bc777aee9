"""Value records: `@record` makes a class's annotated names its fields.

The installed methods are shared closures, so defining a record compiles no
code.  Semantics are those of a plain dataclass: __init__ takes the fields
positionally or by keyword (annotations with a class value are defaults) and
then calls __post_init__ if the class has one; __eq__ holds only between
instances of one class; __repr__ is Name(field=value, ...).  Every record is
frozen: __hash__ hashes the field tuple and assignment is refused.  Methods
the class defines itself are kept.
"""

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """Assignment to a field of a frozen record."""


def record(cls):
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    if len(names) == 1:
        get_one = get
        get = lambda self: (get_one(self),)  # noqa: E731

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            if len(args) > len(names):
                raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
            given = dict(zip(names, args))
            for name in kwargs:
                if name not in names or name in given:
                    raise TypeError(f"{cls.__name__}() got a bad or repeated argument {name!r}")
            given.update(kwargs)
            missing = [n for n in names if n not in given and n not in defaults]
            if missing:
                raise TypeError(f"{cls.__name__}() missing arguments {missing}")
            args = [given[n] if n in given else defaults[n] for n in names]
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, get(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __hash__(self):
        return hash(get(self))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __repr__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls
