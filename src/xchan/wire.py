"""Canonical byte serialization.

Every signed or hashed message in the system is serialized the same way:
length-prefixed big-endian fields concatenated in declared field order.
These helpers are the single definition of that byte form; signatures and
digests are always computed over it, never over ad-hoc string renderings.

A dataclass value's field annotations define both its bytes and the
values it accepts. ``_codec`` reads one annotation into a check and an
encoder; ``enc_value`` encodes a value's fields with the encoders, and a
``Checked`` value checks its fields with the checks once, when it is built.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields
from functools import cache
from types import UnionType
from typing import Annotated, get_args, get_origin, get_type_hints

from .forking import Shared

# Unsigned field types bounded by what their encoder carries, for the
# declared fields of values received from other actors
U64 = Annotated[int, 1 << 64]  # enc_u64
Scalar = Annotated[int, 1 << 256]  # enc_scalar


class Checked(Shared):
    """An immutable dataclass that cannot be built with a field not of its
    declared type, so a receiver tests only that a value is of its class."""

    __slots__ = ()

    def __post_init__(self):
        if bad := mistyped(self):
            raise TypeError("mistyped " + bad)


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


def _codec(hint):
    """(accepts, encode) for a field declared as hint: whether a value
    holds that type, and the value's bytes."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is str:  # exactly a str, with no lone surrogate, which UTF-8 cannot carry
        return (lambda v: type(v) is str and (v.isascii() or not any("\ud800" <= c <= "\udfff" for c in v)),
                enc_str)
    if hint is bytes:
        return (lambda v: type(v) is bytes), enc_bytes
    if origin is Annotated:  # U64 or Scalar: an int (not a bool) the encoder carries
        bound = args[1]
        return (lambda v: type(v) is int and 0 <= v < bound), (enc_u64 if hint == U64 else enc_scalar)
    if origin is tuple:  # tuple[X, ...]: a count, then each item
        item_ok, enc_item = _codec(args[0])
        return (lambda v: type(v) is tuple and all(map(item_ok, v)),
                lambda v: enc_u64(len(v)) + b"".join(map(enc_item, v)))
    if origin is Mapping:  # a count, then each item in key order
        key_ok, enc_key = _codec(args[0])
        value_ok, enc_val = _codec(args[1])
        return (lambda v: isinstance(v, Mapping) and all(key_ok(k) and value_ok(x) for k, x in v.items()),
                lambda v: enc_u64(len(v)) + b"".join(enc_key(k) + enc_val(v[k]) for k in sorted(v)))
    if origin is UnionType:  # X | None: a flag byte, then X
        item_ok, enc_item = _codec(args[0])
        return (lambda v: v is None or item_ok(v),
                lambda v: b"\x00" if v is None else b"\x01" + enc_item(v))
    # a nested value of exactly its declared class, or any Checked value in a
    # field declared object: either was checked when it was built
    accepts = (lambda v: isinstance(v, Checked)) if hint is object else (lambda v: type(v) is hint)
    if issubclass(hint, Encoded):  # its bytes are kept on it
        return accepts, lambda v: enc_bytes(v.to_bytes())
    return accepts, lambda v: enc_bytes(enc_value(v))


@cache
def plan(cls) -> tuple:
    """(name, accepts, encode) for each field of cls that its callers
    set, in declared order."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, *_codec(hints[f.name])) for f in fields(cls) if f.init)


def enc_value(value, stop: str | None = None) -> bytes:
    """A dataclass value's fields in declared order, each encoded by its
    declared type, up to (not including) the field named stop."""
    out = []
    for name, _, encode in plan(type(value)):
        if name == stop:
            break
        out.append(encode(getattr(value, name)))
    return b"".join(out)


def mistyped(value) -> str | None:
    """The first field of a dataclass value that does not hold its declared
    type, as "Class.field", or None; a nested value is checked by its class."""
    for name, accepts, _ in plan(type(value)):
        if not accepts(getattr(value, name)):
            return "%s.%s" % (type(value).__name__, name)
    return None
