"""Hierarchical settlement: spec'd three-level example topology plus
randomized oracle equivalence."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from xchan.contract import ClosePayload, settle_levels
from xchan.crypto import keypair_from_label
from xchan.receipts import Receipt, SubChannelReceipt, make_final_state, make_receipt, make_sub_receipt
from gen_trees import gen_case
from oracles import settle_oracle

S = keypair_from_label("hier:S")
R = keypair_from_label("hier:R")
D = keypair_from_label("hier:D")
Q = keypair_from_label("hier:Q")
SID = "hier-1"


def three_level_case(include_level2=True):
    """Root funded (100, 100); R pays S 30 (delegated into a channel with
    D); S pays D 10 there (delegated into a channel with Q); D pays Q 4."""
    deposits = {S.address: 100, R.address: 100}
    tr_root = make_receipt(R, SID, (), 6, S.address, 30)
    sr_root = make_sub_receipt(R, D.address, tr_root)
    tr_mid = make_receipt(S, SID, (6,), 2, D.address, 10)
    sr_mid = make_sub_receipt(S, Q.address, tr_mid)
    tr_leaf = make_receipt(D, SID, (6, 2), 1, Q.address, 4)

    def close(kp, path, srs=(), trs=()):
        f = make_final_state(kp, SID, path, {})
        return (kp.address, ClosePayload(final=f, srs=tuple(srs), trs=tuple(trs)))

    submissions = [
        close(S, (), srs=[sr_root], trs=[tr_root]),
        close(R, (), srs=[sr_root], trs=[tr_root]),
        close(S, (6,), srs=[sr_mid], trs=[tr_mid]),
        close(D, (6,), srs=[sr_mid], trs=[tr_mid]),
    ]
    if include_level2:
        submissions += [
            close(D, (6, 2), trs=[tr_leaf]),
            close(Q, (6, 2), trs=[tr_leaf]),
        ]
    return deposits, submissions


def test_three_levels_settle():
    deposits, submissions = three_level_case()
    res = settle_levels(SID, deposits, [S.address, R.address], submissions)
    assert res.ok and res.cutoff_level is None
    assert res.allocations == {S.address: 120, R.address: 70, D.address: 6, Q.address: 4}
    assert sum(res.allocations.values()) == 200


def test_three_levels_match_oracle():
    deposits, submissions = three_level_case()
    ok, alloc, cutoff = settle_oracle(SID, deposits, [S.address, R.address], submissions)
    res = settle_levels(SID, deposits, [S.address, R.address], submissions)
    assert (res.ok, res.allocations, res.cutoff_level) == (ok, alloc, cutoff)


def test_missing_level_two_reverts_funding():
    deposits, submissions = three_level_case(include_level2=False)
    res = settle_levels(SID, deposits, [S.address, R.address], submissions)
    assert res.ok and res.cutoff_level == 2
    assert res.allocations == {S.address: 120, R.address: 70, D.address: 10}
    assert res.allocations.get(Q.address, 0) == 0
    assert sum(res.allocations.values()) == 200


def test_inflated_claim_is_ignored():
    deposits, submissions = three_level_case()
    # resubmit S's root claim with +1 for itself; recomputation wins
    sender, payload = submissions[0]
    inflated = make_final_state(S, SID, (), {S.address: 121, R.address: 70})
    submissions[0] = (sender, ClosePayload(final=inflated, srs=payload.srs, trs=payload.trs))
    res = settle_levels(SID, deposits, [S.address, R.address], submissions)
    assert res.allocations[S.address] == 120


def test_duplicate_sub_authorization_fails_level():
    deposits, submissions = three_level_case()
    tr_root = submissions[0][1].trs[0]
    second_sr = make_sub_receipt(R, Q.address, tr_root)
    sender, payload = submissions[1]
    submissions[1] = (
        sender,
        ClosePayload(final=payload.final, srs=payload.srs + (second_sr,), trs=payload.trs),
    )
    res = settle_levels(SID, deposits, [S.address, R.address], submissions)
    assert res.cutoff_level == 1
    # the delegated 30 reverts to the receipt's payee at the root
    assert res.allocations == {S.address: 130, R.address: 70}


def test_empty_close_settles_deposits():
    deposits = {S.address: 100, R.address: 100}
    f = make_final_state(S, SID, (), {})
    res = settle_levels(SID, deposits, [S.address, R.address],
                        [(S.address, ClosePayload(final=f, srs=(), trs=()))])
    assert res.ok
    assert res.allocations == deposits


def test_randomized_oracle_equivalence():
    rng = random.Random(20_08)
    for case in range(200):
        session, deposits, parties, submissions, flags = gen_case(rng)
        res = settle_levels(session, deposits, parties, submissions)
        ok, alloc, cutoff = settle_oracle(session, deposits, parties, submissions)
        assert res.ok == ok, (case, flags)
        assert res.allocations == alloc, (case, flags)
        assert res.cutoff_level == cutoff, (case, flags)
        assert sum(res.allocations.values()) == sum(deposits.values()), (case, flags)


def flipped(obj):
    return replace(obj, sig=bytes([obj.sig[0] ^ 1]) + obj.sig[1:])


def test_each_signed_object_verified_once(verify_calls):
    # both root parties upload tr_root and sr_root, sr_root embeds tr_root,
    # and flipped-signature copies of both ride along with S's upload
    deposits, submissions = three_level_case()
    sender, payload = submissions[0]
    (tr_root,), (sr_root,) = payload.trs, payload.srs
    submissions[0] = (
        sender,
        ClosePayload(
            final=payload.final,
            srs=(sr_root, flipped(sr_root)),
            trs=(tr_root, flipped(tr_root)),
        ),
    )
    parties = [S.address, R.address]
    # the oracle checks through crypto.verify and leaves every object unchecked
    expected = settle_oracle(SID, deposits, parties, submissions)
    assert verify_calls == []
    res = settle_levels(SID, deposits, parties, submissions)
    # 2 final states (the first covering one of (6,) and of (6, 2); the
    # root's are never read), 4 receipts (tr_root, its copy, tr_mid,
    # tr_leaf) and the own signatures of 3 sub-channel receipts (sr_root,
    # its copy, sr_mid)
    assert len(verify_calls) == len(set(verify_calls)) == 9
    # the copies are rejected: no seq conflict, no double authorization
    assert (res.ok, res.allocations, res.cutoff_level) == expected
    assert res.allocations == {S.address: 120, R.address: 70, D.address: 6, Q.address: 4}


def test_verify_once_on_generated_trees(verify_calls):
    rng = random.Random(77)
    for case in range(60):
        session, deposits, parties, submissions, flags = gen_case(rng)
        expected = settle_oracle(session, deposits, parties, submissions)
        assert verify_calls == [], (case, flags)
        res = settle_levels(session, deposits, parties, submissions)
        assert len(verify_calls) == len(set(verify_calls)), (case, flags)
        # the walk always reaches the root, so whatever the root offers is checked
        if root_offers(session, submissions):
            assert verify_calls, (case, flags)
        verify_calls.clear()
        assert (res.ok, res.allocations, res.cutoff_level) == expected, (case, flags)


def root_offers(session, submissions):
    """Whether some submission offers the root channel a receipt or
    sub-channel receipt of the session that no field check drops."""
    return any(
        tr.channel_path == () and tr.session_id == session
        for _sender, payload in submissions
        for tr in payload.trs + tuple(sr.receipt for sr in payload.srs if sr.counterparty != sr.funder)
    )


def unchecked_flipped(submissions):
    """The submissions with every signed value whose signature is still
    unchecked replaced by a copy whose signature fails (a sub-channel
    receipt with an unchecked embedded receipt gets a failing copy of
    both), and the count of values replaced by class name."""
    copies = {}

    def swap(value):
        if value._sig_ok is not None:
            return value
        if id(value) not in copies:
            inner = {"receipt": swap(value.receipt)} if isinstance(value, SubChannelReceipt) else {}
            copies[id(value)] = flipped(replace(value, **inner))
        return copies[id(value)]

    tampered = [
        (sender, ClosePayload(final=swap(p.final), srs=tuple(map(swap, p.srs)), trs=tuple(map(swap, p.trs))))
        for sender, p in submissions
    ]
    return tampered, Counter(type(v).__name__ for v in copies.values())


def assert_skipped_checks_unread(session, deposits, parties, submissions):
    """Settle fresh submissions, then again with every value the first run
    left unchecked replaced by a copy whose signature fails: the result
    must not move, and must equal the eager oracle's on the tampered
    input, which rejects each copy. Returns the count replaced by class
    name."""
    res = settle_levels(session, deposits, parties, submissions)
    tampered, replaced = unchecked_flipped(submissions)
    again = settle_levels(session, deposits, parties, tampered)
    result = (again.ok, again.allocations, again.cutoff_level)
    assert result == (res.ok, res.allocations, res.cutoff_level)
    assert result == settle_oracle(session, deposits, parties, tampered)
    return replaced


def test_skipped_checks_are_unread():
    parties = [S.address, R.address]
    # both root final states, and the second covering final state of (6,)
    # and of (6, 2); without level 2 there is no (6, 2) final state to skip
    for include_level2, skipped in ((True, 4), (False, 3)):
        deposits, submissions = three_level_case(include_level2)
        assert assert_skipped_checks_unread(SID, deposits, parties, submissions) == {"FinalState": skipped}
    rng = random.Random(31)
    replaced = Counter()
    for case in range(80):
        session, deposits, parties, submissions, flags = gen_case(rng)
        try:
            replaced += assert_skipped_checks_unread(session, deposits, parties, submissions)
        except AssertionError as exc:
            raise AssertionError((case, flags)) from exc
    # receipts below a cutoff or on a bogus path, and sub-channel receipts
    # of a level that is never reached, are skipped too
    assert set(replaced) == {"FinalState", "Receipt", "SubChannelReceipt"}, replaced


def _preset_verdict():
    """A receipt S->R of 90 with a zero signature, its check's verdict preset."""
    tr = Receipt(SID, (), 1, S.address, R.address, 90, bytes(64))
    object.__setattr__(tr, "_sig_ok", True)
    return tr


def _preset_signing_bytes():
    """A receipt S->R of 90 carrying the signature of a genuine 1-unit
    receipt, whose signing bytes it holds preset as its own."""
    genuine = make_receipt(S, SID, (), 1, R.address, 1)
    tr = Receipt(SID, (), 1, S.address, R.address, 90, genuine.sig)
    object.__setattr__(tr, "_signing", genuine.signing_bytes())
    return tr


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("forge", [_preset_verdict, _preset_signing_bytes], ids=["verdict", "signing-bytes"])
def test_a_receipt_its_payer_never_signed_moves_nothing(forge):
    """R closes with a receipt of 90 that S never signed, built with the
    memo fields of ``Signed`` preset: the deposits of 100/100 must settle
    as they are. Both forgeries settle as 10/190 today, since the memo
    travels on the value."""
    deposits = {S.address: 100, R.address: 100}
    final = make_final_state(R, SID, (), deposits)
    res = settle_levels(SID, deposits, None, [(R.address, ClosePayload(final, (), (forge(),)))])
    assert res.allocations == deposits


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: settle_levels drops every receipt whose seq another "
                                       "signed receipt shares, so a payer's re-signed seq refunds the first")
def test_a_resigned_seq_keeps_the_payees_receipt():
    """S pays R 3 under seq 1 and 5 under seq 2, then signs an amount-0
    receipt under seq 2 and closes with it. R closes with the two it holds.
    The equivocation is S's, so R's receipt, the larger, must stand: R
    ends 100 + 8. Today both seq-2 receipts are dropped and R ends 103."""
    deposits = {S.address: 100, R.address: 100}
    held = [make_receipt(S, SID, (), 1, R.address, 3), make_receipt(S, SID, (), 2, R.address, 5)]
    resigned = make_receipt(S, SID, (), 2, R.address, 0)
    submissions = [(R.address, ClosePayload(make_final_state(R, SID, (), {}), (), tuple(held))),
                   (S.address, ClosePayload(make_final_state(S, SID, (), {}), (), (held[0], resigned)))]
    res = settle_levels(SID, deposits, [S.address, R.address], submissions)
    assert res.allocations == {S.address: 92, R.address: 108}
