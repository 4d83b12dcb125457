"""The Signed base of receipts, sub-channel receipts, final states and
transactions: each object is type-checked once, when it is built, and
verified once, a changed copy anew, and a deep copy is the object itself."""

import copy
import random
from dataclasses import dataclass, replace
from functools import partial

import pytest

from oracles import reference_mistyped
from xchan import contract as ct
from xchan import vss, wire
from xchan.crypto import TINY_GROUP, keypair_from_label, verify
from xchan.receipts import (FinalState, Receipt, SubChannelReceipt, make_final_state,
                            make_receipt, make_sub_receipt)

A = keypair_from_label("memo:A")
B = keypair_from_label("memo:B")
C = keypair_from_label("memo:C")
SID = "memo-1"


def flipped(obj):
    return replace(obj, sig=bytes([obj.sig[0] ^ 1]) + obj.sig[1:])


def test_receipt_checked_once(verify_calls):
    tr = make_receipt(A, SID, (), 1, B.address, 5)
    assert tr.verify_sig() and tr.verify_sig()
    assert len(verify_calls) == 1


def test_changed_copies_of_a_verified_receipt_are_rejected(verify_calls):
    tr = make_receipt(A, SID, (), 1, B.address, 5)
    assert tr.verify_sig()
    assert not replace(tr, amount=50).verify_sig()
    assert not flipped(tr).verify_sig()
    assert len(verify_calls) == 3


def test_failed_check_is_remembered(verify_calls):
    bad = flipped(make_receipt(A, SID, (), 1, B.address, 5))
    assert not bad.verify_sig() and not bad.verify_sig()
    assert len(verify_calls) == 1


def test_memo_not_part_of_eq_hash_repr():
    tr = make_receipt(A, SID, (), 1, B.address, 5)
    fresh = replace(tr)
    assert tr.verify_sig()
    assert tr == fresh and hash(tr) == hash(fresh) and repr(tr) == repr(fresh)
    assert "_sig_ok" not in repr(tr)
    sr = make_sub_receipt(A, C.address, tr)
    fresh_sr = replace(sr)
    assert sr.verify_sig()
    assert sr == fresh_sr and hash(sr) == hash(fresh_sr) and repr(sr) == repr(fresh_sr)
    f = make_final_state(A, SID, (), {A.address: 3, B.address: 7})
    fresh_f = replace(f)
    assert f.verify_sig()
    assert f == fresh_f and repr(f) == repr(fresh_f)


def test_final_state_balances_are_read_only(verify_calls):
    balances = {A.address: 3, B.address: 7}
    f = make_final_state(A, SID, (), balances)
    assert f.verify_sig() and f.verify_sig()
    assert len(verify_calls) == 1
    with pytest.raises(TypeError):
        f.balances[A.address] = 10
    balances[A.address] = 10  # the caller's dict is not the signed one
    assert f.balances[A.address] == 3 and f.verify_sig()
    changed = replace(f, balances={A.address: 10, B.address: 7})
    assert not changed.verify_sig() and f.verify_sig()
    assert len(verify_calls) == 2


def test_sub_receipt_with_forged_embedded_receipt_fails():
    tr = make_receipt(A, SID, (), 1, B.address, 5)
    forged = replace(tr, amount=50)  # A's signature no longer covers it
    sr = make_sub_receipt(A, C.address, forged)
    assert verify(A.address, sr.signing_bytes(), sr.sig)  # its own signature holds
    assert not sr.verify_sig()
    assert not sr.verify_sig()


def test_sub_receipt_reuses_embedded_receipt_check(verify_calls):
    tr = make_receipt(A, SID, (), 1, B.address, 5)
    sr = make_sub_receipt(A, C.address, tr)
    assert tr.verify_sig()
    assert sr.verify_sig() and sr.verify_sig()
    assert len(verify_calls) == 2
    assert not flipped(sr).verify_sig()
    assert len(verify_calls) == 3


def test_deepcopy_gives_the_same_results():
    tr = make_receipt(A, SID, (), 1, B.address, 5)
    sr = make_sub_receipt(A, C.address, tr)
    f = make_final_state(A, SID, (), {A.address: 3, B.address: 7})
    objects = [tr, flipped(tr), sr, flipped(sr), f, flipped(f)]
    unchecked = copy.deepcopy(objects)
    results = [o.verify_sig() for o in objects]
    assert results == [True, False, True, False, True, False]
    assert [o.verify_sig() for o in copy.deepcopy(objects)] == results
    assert [o.verify_sig() for o in unchecked] == results
    f_copy = copy.deepcopy(f)
    with pytest.raises(TypeError):
        f_copy.balances[B.address] = 0
    assert f_copy.verify_sig() and f.verify_sig()


def test_signed_values_deep_copy_to_themselves(verify_calls):
    tr = make_receipt(A, SID, (), 1, B.address, 5)
    sr = make_sub_receipt(A, C.address, tr)
    f = make_final_state(A, SID, (), {A.address: 3, B.address: 7})
    tx = ct.make_tx(A, "alpha", SID, ct.CLOSE_TX, ct.ClosePayload(f, (sr,), (tr,)))
    for value in (tr, sr, f, tx):
        assert copy.deepcopy(value) is value
        assert copy.deepcopy(value).verify_sig()
    assert len(verify_calls) == 4  # a copy shares its original's check


def test_honest_values_hold_their_declared_types():
    tr = make_receipt(A, SID, (1, 2), 1, B.address, 5)
    sr = make_sub_receipt(A, C.address, tr)
    f = make_final_state(A, SID, (), {A.address: 3, B.address: 7})
    tx = ct.make_tx(A, "alpha", SID, ct.CLOSE_TX, ct.ClosePayload(f, (sr,), (tr,)))
    dealing = vss.share(5, 2, 3, random.Random(1), TINY_GROUP)
    assert all(reference_mistyped(v) is None for v in (tr, sr, f, tx) + dealing.shares)


@dataclass(frozen=True)
class _Subclassed(Receipt):
    """A receipt of another class than Receipt, with the same fields."""


# each builds a value (a partial, so that building it is the test)
@pytest.mark.parametrize("value, field", [
    (partial(Receipt, SID, (), True, "a", "b", 1), "Receipt.seq"),  # bool is not an int
    (partial(Receipt, SID, (-1,), 1, "a", "b", 1), "Receipt.channel_path"),
    (partial(Receipt, SID, (), 1, "a", "b", 1, sig="x"), "Receipt.sig"),
    # a nested value not of exactly its declared class
    (partial(SubChannelReceipt, "c", _Subclassed(SID, (), 1, "a", "b", 1)), "SubChannelReceipt.receipt"),
    (partial(FinalState, SID, (), {"a": -1}, "a"), "FinalState.balances"),
    (partial(vss.KeyShare, 1, 1, 1 << 256), "KeyShare.r"),
    # a nested value is refused where it is built, before it can be nested
    (partial(lambda: SubChannelReceipt("c", Receipt(SID, (), 1, "a", "b", 1 << 64))), "Receipt.amount"),
    (partial(Receipt, SID, (), 1, "a\udfff", "b", 1), "Receipt.snd"),  # UTF-8 cannot carry it
])
def test_mistyped_names_the_first_bad_field(value, field):
    with pytest.raises(TypeError, match="^mistyped %s$" % field):
        value()


def _unsigned_values():
    tr = Receipt(SID, (1,), 1, A.address, B.address, 5)
    sr = SubChannelReceipt(C.address, make_receipt(A, SID, (), 1, B.address, 5))
    f = FinalState(SID, (), {A.address: 3, B.address: 7}, A.address)
    tx = ct.OnChainTx("alpha", SID, A.address, ct.OPEN_TX, ct.OpenPayload(5))
    close = ct.OnChainTx("alpha", SID, A.address, ct.CLOSE_TX, ct.ClosePayload(f.signed_by(A), (), ()))
    return [tr, sr, f, tx, close]


@pytest.mark.parametrize("unsigned", _unsigned_values(), ids=lambda v: type(v).__name__)
def test_signed_copy_is_the_replaced_copy(unsigned, monkeypatch):
    """signed_by builds its copy without replace, yet the copy is the one
    replace builds; it keeps the signing bytes and not the signature
    check's verdict, and it is not type-checked again."""
    assert not unsigned.verify_sig()  # a verdict set on the original
    checked = _count_checks(monkeypatch)
    signed = unsigned.signed_by(A)
    assert checked == []
    expected = replace(unsigned, sig=signed.sig)
    assert checked == [type(unsigned).__name__]
    assert type(signed) is type(expected)
    assert signed == expected and repr(signed) == repr(expected)
    assert signed.to_bytes() == expected.to_bytes()
    assert signed.signing_bytes() == expected.signing_bytes() == unsigned.signing_bytes()
    try:
        assert hash(signed) == hash(expected)
    except TypeError:  # a final state's balances are a mapping: neither hashes
        with pytest.raises(TypeError):
            hash(expected)
    assert signed._sig_ok is None
    assert signed.verify_sig() and reference_mistyped(signed) is None


def _count_checks(monkeypatch) -> list:
    """The class name of each value whose fields are checked from now on:
    each declared class's generated ``__init__`` is the one place that
    checks them."""
    checked = []

    def counted(init):
        def __init__(self, *args, **kwargs):
            checked.append(type(self).__name__)
            init(self, *args, **kwargs)
        return __init__

    classes = [wire.Checked]
    for cls in classes:
        classes += cls.__subclasses__()
        if "__init__" in vars(cls):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    return checked


def test_type_check_runs_once_per_object(monkeypatch):
    """A value's fields are checked once, when it is built: signing it,
    nesting it, deep-copying it (as a world fork does) and encoding it
    check nothing again."""
    checked = _count_checks(monkeypatch)
    tr = make_receipt(A, SID, (), 1, B.address, 5)
    sr = make_sub_receipt(A, C.address, tr)
    payload = ct.ClosePayload(make_final_state(A, SID, (), {A.address: 3}), (sr,), (tr,))
    tx = ct.make_tx(A, "alpha", SID, ct.CLOSE_TX, payload)
    assert checked == ["Receipt", "SubChannelReceipt", "FinalState", "ClosePayload", "OnChainTx"]
    assert copy.deepcopy([sr, tx]) == [sr, tx] and tx.to_bytes() and tx.verify_sig()
    assert len(checked) == 5


def test_mistyped_verdict_is_kept_and_copies_are_checked_anew():
    """A value with a mistyped field cannot be built, and replace() checks
    the copy it builds anew, at any depth."""
    with pytest.raises(TypeError, match="^mistyped Receipt.amount$"):
        Receipt(SID, (), 1, "a", "b", "5")
    good = make_receipt(A, SID, (), 1, B.address, 5)
    with pytest.raises(TypeError, match="^mistyped Receipt.amount$"):
        replace(good, amount="5")
    with pytest.raises(TypeError, match="^mistyped Receipt.channel_path$"):
        replace(good, channel_path=[1])
    sr = make_sub_receipt(A, C.address, good)
    with pytest.raises(TypeError, match="^mistyped Receipt.seq$"):
        replace(sr, receipt=replace(good, seq=-1))
    with pytest.raises(TypeError, match="^mistyped SubChannelReceipt.receipt$"):
        replace(sr, receipt=sr)
    assert reference_mistyped(replace(sr, counterparty=B.address)) is None
