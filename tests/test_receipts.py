"""The memoized signature check on receipts, sub-channel receipts and
final states: each object is verified once, a changed copy anew."""

import copy
from dataclasses import replace

from xchan.crypto import keypair_from_label
from xchan.receipts import make_final_state, make_receipt, make_sub_receipt

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


def test_mutated_final_state_balances_fail_the_next_check(verify_calls):
    f = make_final_state(A, SID, (), {A.address: 3, B.address: 7})
    assert f.verify_sig() and f.verify_sig()
    assert len(verify_calls) == 1
    f.balances[A.address] = 10
    assert not f.verify_sig()
    f.balances[A.address] = 3
    assert f.verify_sig()
    assert len(verify_calls) == 3


def test_sub_receipt_with_forged_embedded_receipt_fails():
    tr = make_receipt(A, SID, (), 1, B.address, 5)
    forged = replace(tr, amount=50)  # A's signature no longer covers it
    sr = make_sub_receipt(A, C.address, forged)
    assert sr.verify_own_sig()
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
    f_copy.balances[B.address] = 0
    assert not f_copy.verify_sig() and f.verify_sig()
