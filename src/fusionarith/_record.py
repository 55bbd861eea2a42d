"""The record decorator: frozen value classes without dataclasses.

Every value type of the package (polynomials, field elements, engine
verdicts, certificates, case files and reports) is a record.  It lives
in a module of its own, which every engine module imports.
"""

from __future__ import annotations

from operator import attrgetter


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def record(cls):
    """Frozen value class over the annotated fields of cls, in order.

    The class is rebuilt with __slots__ over its fields, less any that a
    record base already slots, so an instance has no __dict__.  A value
    given to a field in the body is a default of the generated __init__,
    which then calls __post_init__ if defined; __eq__, __hash__ and
    __repr__ use the fields, and __reduce__ pickles the field tuple.
    Body methods are kept, but one that uses zero-argument super() or
    __class__ would bind the discarded class, so it raises TypeError."""
    names = tuple(cls.__annotations__)
    body = dict(vars(cls))
    for value in body.values():
        for fn in (value, *(getattr(value, a, None) for a in ("__func__", "fget", "fset", "fdel"))):
            if "__class__" in getattr(getattr(fn, "__code__", None), "co_freevars", ()):
                raise TypeError(f"record {cls.__name__}: a method uses super() or __class__")
    defaults = {f: body.pop(f) for f in names if f in body}
    params = "".join(f", {f}=defaults[{f!r}]" if f in defaults else f", {f}" for f in names)
    sets = "".join(f"\n    _set(self, {f!r}, {f})" for f in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    scope = {"defaults": defaults, "_set": object.__setattr__}
    exec(compile(f"def __init__(self{params}):{sets}{post}", f"<{cls.__name__} record>", "exec"), scope)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda s: (get(s),)
    methods = {
        "__init__": scope["__init__"],
        "__eq__": lambda s, o: fields(s) == fields(o) if type(o) is type(s) else NotImplemented,
        "__hash__": lambda s: hash(fields(s)),
        "__repr__": lambda s: f"{type(s).__qualname__}({', '.join(f'{f}={getattr(s, f)!r}' for f in names)})",
        # the unpickler's slot writes would meet the frozen __setattr__
        "__reduce__": lambda s: (type(s), fields(s)),
        "__setattr__": _frozen, "__delattr__": _frozen,
    }
    for name, method in methods.items():
        if body.get(name) is None:
            body[name] = method
    slotted = {s for base in cls.__mro__[1:] for s in vars(base).get("__slots__", ())}
    body["__slots__"] = tuple(f for f in names if f not in slotted)
    body["__qualname__"] = cls.__qualname__
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    return type(cls)(cls.__name__, cls.__bases__, body)
