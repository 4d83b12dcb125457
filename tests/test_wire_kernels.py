"""The compiled code of every declared class against the reference walk in
``oracles``: for well-typed and mistyped field values, the generated
``__init__`` accepts and rejects exactly as a field-by-field check (then
the class's ``__post_init__``) does, naming the same first field; and
``enc_value`` gives the reference bytes, whole and up to each field.

``XCHAN_KERNEL_EXAMPLES`` sets the examples drawn per class (default 40),
for a longer run.
"""

import os
from collections.abc import Mapping
from dataclasses import fields
from functools import cache
from types import MappingProxyType, UnionType
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xchan.engine  # noqa: F401  (imports every module that declares a class)
from xchan import contract as ct
from xchan import proofs, vss, wire
from xchan.crypto import keypair_from_label
from xchan.receipts import make_receipt
from xchan.simnet import Message
from xchan.wire import Checked
from oracles import reference_enc_value, reference_mistyped

EXAMPLES = int(os.environ.get("XCHAN_KERNEL_EXAMPLES", "40"))


def _declared_classes():
    classes, seen = [Checked], []
    for cls in classes:
        classes += cls.__subclasses__()
        if cls.__module__.startswith("xchan.") and "__init__" in vars(cls) and cls not in seen:
            seen.append(cls)
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


CLASSES = _declared_classes()

# checked values to stand in a field declared object, or of another class
POOL = [proofs.Proof(b"p"), vss.KeyShare(1, 2, 3), ct.Locked(b"h"), ct.OpenPayload(5),
        make_receipt(keypair_from_label("kernels"), "c0", (), 1, "b", 2)]


class _Str(str):
    pass


class _Bytes(bytes):
    pass


class _Int(int):
    pass


def _hints(cls):
    hints = get_type_hints(cls, include_extras=True)
    return [(f.name, hints[f.name]) for f in fields(cls) if f.init]


@cache
def well(hint):
    """Values that hold the declared type."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is str:
        return st.text(max_size=6)
    if hint is bytes:
        return st.binary(max_size=6)
    if origin is Annotated:
        return st.integers(0, args[1] - 1) | st.sampled_from([0, args[1] - 1])
    if origin is tuple:
        return st.lists(well(args[0]), max_size=3).map(tuple)
    if origin is Mapping:
        items = st.dictionaries(well(args[0]), well(args[1]), max_size=3)
        return items | items.map(MappingProxyType)
    if origin is UnionType:
        return st.none() | well(args[0])
    if hint is object:
        return st.sampled_from(POOL)
    if hint is bool:
        return st.booleans()
    if hint is int:
        return st.integers()
    return st.fixed_dictionaries({name: well(h) for name, h in _hints(hint)}).map(lambda kw: hint(**kw))


def _wrong_class(cls):
    """Values of another class: a subclass of cls, and checked values of
    other classes."""
    sub = type("Sub" + cls.__name__, (cls,), {})

    def as_sub(value):
        copy = object.__new__(sub)
        copy.__dict__.update(value.__dict__)
        return copy

    return well(cls).map(as_sub) | st.sampled_from([v for v in POOL if type(v) is not cls])


@cache
def mistyped(hint):
    """Values that do not hold the declared type."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is str:
        return (st.integers() | st.binary(max_size=4) | st.text(max_size=4).map(_Str)
                | st.tuples(st.text(max_size=3), st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
                            st.text(max_size=3)).map("".join)
                | st.none())
    if hint is bytes:
        return (st.text(max_size=4) | st.binary(max_size=4).map(bytearray) | st.binary(max_size=4).map(_Bytes)
                | st.lists(st.integers(0, 255), max_size=3) | st.none())
    if origin is Annotated:
        return (st.booleans() | st.integers(min_value=args[1]) | st.integers(max_value=-1)
                | st.integers(0, 9).map(_Int) | st.integers(0, 9).map(str) | st.none())
    if origin is tuple:
        one_bad = st.tuples(st.lists(well(args[0]), max_size=2), mistyped(args[0]),
                            st.lists(well(args[0]), max_size=2))
        return (st.lists(well(args[0]), max_size=3) | one_bad.map(lambda t: (*t[0], t[1], *t[2]))
                | st.none())
    if origin is Mapping:
        return (st.lists(st.tuples(well(args[0]), well(args[1])), max_size=2)
                | st.dictionaries(well(args[0]), mistyped(args[1]), min_size=1, max_size=2)
                | st.dictionaries(mistyped(args[0]).filter(lambda k: k is not None), well(args[1]),
                                  min_size=1, max_size=2)
                | st.none())
    if origin is UnionType:
        return mistyped(args[0]).filter(lambda v: v is not None)
    if hint is object:
        return st.sampled_from([1, "x", b"x", {"a": 1}, (POOL[0],), Message("tx", "a", "b", POOL[0])])
    if hint is bool:
        return st.integers(0, 1) | st.none()
    if hint is int:
        return st.booleans() | st.integers().map(_Int) | st.text(max_size=2) | st.none()
    return _wrong_class(hint) | st.none()


def _build_unchecked(cls, kwargs):
    raw = object.__new__(cls)
    for f in fields(cls):
        raw.__dict__[f.name] = kwargs[f.name] if f.init else f.default
    return raw


def _reference_build(cls, kwargs):
    """A value built as the walk builds it: every field stored, then the
    first mistyped field refused, then the class's own step."""
    raw = _build_unchecked(cls, kwargs)
    if bad := reference_mistyped(raw):
        raise TypeError("mistyped " + bad)
    if hasattr(cls, "__post_init__"):
        raw.__post_init__()
    return raw


def _outcome(build, *args):
    try:
        return build(*args), None
    except TypeError as e:
        return None, str(e)


def _encoding(encode, value, stop):
    try:
        return encode(value, stop)
    except Exception as e:  # both sides must fail alike
        return type(e)


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_compiled_code_matches_reference(cls, data):
    hints = _hints(cls)
    names = [name for name, _ in hints]
    how = data.draw(st.sampled_from(["none", "one", "each"]), label="mistyped fields")
    bad = set()
    if how == "one" and names:
        bad = {data.draw(st.sampled_from(names))}
    elif how == "each":
        bad = {name for name in names if data.draw(st.booleans(), label="mistype " + name)}
    kwargs = {name: data.draw(mistyped(hint) if name in bad else well(hint), label=name) for name, hint in hints}

    value, error = _outcome(lambda: cls(**kwargs))
    reference, reference_error = _outcome(_reference_build, cls, kwargs)
    assert error == reference_error
    if value is None:
        return
    assert type(value) is cls and value == reference and repr(value) == repr(reference)
    for stop in [None] + [name for name, _ in hints]:
        assert _encoding(wire.enc_value, value, stop) == _encoding(reference_enc_value, reference, stop)


def test_every_declared_class_is_covered():
    names = {c.__name__ for c in CLASSES}
    assert {"ChainEvent", "Receipt", "SubChannelReceipt", "FinalState", "OnChainTx", "ClosePayload",
            "KeyShare", "DealingPublic", "Ciphertext", "Proof", "ShareMsg", "Published"} <= names
