"""Canonical byte serialization.

Every signed or hashed message in the system is serialized the same way:
length-prefixed big-endian fields concatenated in declared field order.
These helpers are the single definition of that byte form; signatures and
digests are always computed over it, never over ad-hoc string renderings.

A dataclass value's field annotations define both its bytes and the
values it accepts. ``_codec`` reads one annotation into two snippets of
Python source: its check and its encoding. Each class's code is compiled
once from them: ``declared`` builds the ``__init__`` of a ``Checked``
class, which checks its fields once, when a value is built, and stores
them; ``enc_value`` a class's encoder; ``plan`` a check per field.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from functools import cache
from types import UnionType
from typing import Annotated, get_args, get_origin, get_type_hints

from .forking import Shared

# Unsigned field types bounded by what their encoder carries, for the
# declared fields of values received from other actors
U64 = Annotated[int, 1 << 64]  # enc_u64
Scalar = Annotated[int, 1 << 256]  # enc_scalar


class Checked(Shared):
    """An immutable dataclass, made by ``declared``, that cannot be built
    with a field not of its declared type, so a receiver tests only that a
    value is of its class."""

    __slots__ = ()


class Encoded:
    """An immutable dataclass whose ``to_bytes()`` returns its ``enc_value``
    bytes from a memo on the value: a field declared to hold one encodes it
    by ``to_bytes()`` rather than field by field."""

    __slots__ = ()


def enc_u64(n: int) -> bytes:
    if n < 0:
        raise ValueError("unsigned field is negative: %d" % n)
    return n.to_bytes(8, "big")


def enc_bytes(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


def enc_scalar(v: int) -> bytes:
    """Field elements and group elements travel as 32-byte big-endian."""
    return v.to_bytes(32, "big")


def enc_seq(items) -> bytes:
    """Sequence of pre-encoded byte chunks."""
    items = list(items)
    return enc_u64(len(items)) + b"".join(enc_bytes(i) for i in items)


def _no_surrogate(s: str) -> bool:
    return not any("\ud800" <= c <= "\udfff" for c in s)


def _names() -> dict:
    """The names every snippet may use, as compiled code's globals."""
    return {"enc_u64": enc_u64, "enc_bytes": enc_bytes, "enc_str": enc_str, "enc_scalar": enc_scalar,
            "enc_value": enc_value, "_no_surrogate": _no_surrogate, "_Checked": Checked, "_Mapping": Mapping}


def _name(ns: dict, obj) -> str:
    """A new name in ns for obj."""
    name = "_%s_%d" % (obj.__name__, len(ns))
    ns[name] = obj
    return name


def _codec(hint, ns: dict, depth: int = 0) -> tuple[str, str]:
    """(check, encode) for a field declared as hint: Python expressions for
    whether the value ``{x}`` holds that type, and for its bytes. What they
    name besides ``_names()`` is put in ns."""
    origin, args = get_origin(hint), get_args(hint)
    item = "_%d" % depth  # the loop variable over a nested value's items
    if hint is str:  # exactly a str, with no lone surrogate, which UTF-8 cannot carry
        return "type({x}) is str and ({x}.isascii() or _no_surrogate({x}))", "enc_str({x})"
    if hint is bytes:
        return "type({x}) is bytes", "enc_bytes({x})"
    if hint is bool:  # one flag byte
        return "type({x}) is bool", r"(b'\x01' if {x} else b'\x00')"
    if origin is Annotated:  # U64 or Scalar: an int (not a bool) the encoder carries
        return ("type({x}) is int and 0 <= {x} < %d" % args[1],
                "enc_u64({x})" if hint == U64 else "enc_scalar({x})")
    if origin is tuple:  # tuple[X, ...]: a count, then each item
        item_ok, enc_item = (s.format(x=item) for s in _codec(args[0], ns, depth + 1))
        return ("type({x}) is tuple and all((%s) for %s in {x})" % (item_ok, item),
                "enc_u64(len({x})) + b''.join([%s for %s in {x}])" % (enc_item, item))
    if origin is Mapping:  # a count, then each item in key order
        key, value = item + "k", item + "v"
        key_ok, enc_key = (s.format(x=key) for s in _codec(args[0], ns, depth + 1))
        value_ok, enc_val = _codec(args[1], ns, depth + 1)
        return ("isinstance({x}, _Mapping) and all((%s) and (%s) for %s, %s in {x}.items())"
                % (key_ok, value_ok.format(x=value), key, value),
                "enc_u64(len({x})) + b''.join([%s + %s for %s in sorted({x})])"
                % (enc_key, enc_val.format(x="{x}[%s]" % key), key))
    if origin is UnionType:  # X | None: a flag byte, then X
        item_ok, enc_item = _codec(args[0], ns, depth)
        return "{x} is None or (%s)" % item_ok, r"(b'\x00' if {x} is None else b'\x01' + %s)" % enc_item
    # a nested value of exactly its declared class, or any Checked value in a
    # field declared object: either was checked when it was built
    accepts = "isinstance({x}, _Checked)" if hint is object else "type({x}) is %s" % _name(ns, hint)
    if issubclass(hint, Encoded):  # its bytes are kept on it
        return accepts, "enc_bytes({x}.to_bytes())"
    return accepts, "enc_bytes(enc_value({x}))"


def _snippets(cls, ns: dict) -> list[tuple[str, str, str]]:
    """(name, check, encode) for each field of cls that its callers set, in
    declared order."""
    hints = get_type_hints(cls, include_extras=True)
    return [(f.name, *_codec(hints[f.name], ns)) for f in fields(cls) if f.init]


def _compile(ns: dict, name: str, params: list[str], body: list[str]):
    """The function ``name(params)`` with the given body lines, compiled
    with ns as its globals."""
    exec("def %s(%s):\n%s" % (name, ", ".join(params), "\n".join(body)), ns)
    return ns.pop(name)


def _init(cls):
    """cls's ``__init__``: each given field checked in declared order, the
    first not of its declared type raising TypeError("mistyped Class.field"),
    then every field stored and the class's ``__post_init__`` run."""
    ns = _names()
    params, body, stores = ["self"], [], []
    for f in fields(cls):
        default = "_default_" + f.name
        if f.default is not MISSING:
            ns[default] = f.default
        elif f.default_factory is not MISSING or not f.init:
            raise TypeError("%s.%s: a declared field takes a default value, not a factory"
                            % (cls.__name__, f.name))
        if f.init:
            params.append(f.name if f.default is MISSING else f.name + "=" + default)
        stores.append("    _d[%r] = %s" % (f.name, f.name if f.init else default))
    for name, check, _ in _snippets(cls, ns):
        body += ["    if not (%s):" % check.format(x=name),
                 "        raise TypeError('mistyped %%s.%s' %% type(self).__name__)" % name]
    body += ["    _d = self.__dict__"] + stores
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    init = _compile(ns, "__init__", params, body)
    init.__qualname__ = cls.__qualname__ + ".__init__"
    return init


def declared(cls):
    """cls, a ``Checked`` subclass, as a frozen dataclass whose ``__init__``
    checks every field it is given, once: ``dataclasses.replace`` checks
    each copy it builds anew."""
    cls = dataclass(frozen=True)(cls)
    cls.__init__ = _init(cls)
    return cls


@cache
def plan(cls) -> tuple:
    """(name, accepts) for each field of cls that its callers set, in
    declared order: accepts says whether a value holds the field's type."""
    ns = _names()
    return tuple((name, eval("lambda v: " + check.format(x="v"), ns))
                 for name, check, _ in _snippets(cls, ns))


@cache
def _encoder(cls, stop: str | None):
    ns = _names()
    parts = []
    for name, _, encode in _snippets(cls, ns):
        if name == stop:
            break
        parts.append(encode.format(x="v." + name))
    return _compile(ns, "encode", ["v"], ["    return b''.join((%s))" % "".join(p + ", " for p in parts)])


def enc_value(value, stop: str | None = None) -> bytes:
    """A dataclass value's fields in declared order, each encoded by its
    declared type, up to (not including) the field named stop."""
    return _encoder(type(value), stop)(value)
