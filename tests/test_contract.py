"""Contract state machine: open/upload/appeal/lock/update/recover."""

import copy
import random
from dataclasses import replace

import pytest

from xchan import contract as ct
from xchan import vss
from xchan.chain import Chain, TimerConfig
from xchan.crypto import TINY_GROUP, hash_bytes, key_to_bytes, keypair_from_label
from xchan.receipts import make_final_state

S = keypair_from_label("ct:S")
R = keypair_from_label("ct:R")
OUTSIDER = keypair_from_label("ct:X")


class Driver:
    """Steps one chain through block boundaries without the network."""

    def __init__(self, chain_id="alpha", interval=2, timers=None, miners=0):
        self.chain = Chain(chain_id, interval, timers or TimerConfig(6, 6, 10, 20))
        self.tick = 0
        self.miner_keys = []
        for i in range(miners):
            kp = keypair_from_label("ct:miner:%d" % i)
            self.miner_keys.append(kp)
            self.chain.register_miner(kp.address)
        for kp, bal in ((S, 1000), (R, 1000), (OUTSIDER, 1000)):
            self.chain.create_account(kp.address, bal)

    def submit(self, kp, session, kind, payload):
        tx = ct.make_tx(kp, self.chain.chain_id, session, kind, payload)
        ok, why = self.chain.submit_tx(tx)
        assert ok, why
        return tx

    def step(self, blocks=1):
        events = []
        for _ in range(blocks):
            self.tick += self.chain.block_interval
            events.extend(self.chain.produce_block(self.tick))
        return events

    def step_until(self, tick):
        events = []
        while self.tick < tick:
            events.extend(self.step())
        return events

    def session(self, sid="c0"):
        return self.chain.contract.sessions[sid]


def open_channel(d, sid="c0", v_s=100, v_r=100):
    d.submit(S, sid, ct.OPEN_TX, ct.OpenPayload(v_s))
    d.submit(R, sid, ct.OPEN_TX, ct.OpenPayload(v_r))
    d.step()
    return d.session(sid)


def close_to_allocations(d, sid="c0", allocations=None):
    """Drive an open session to the Close state with recomputed finals."""
    from xchan.receipts import make_final_state

    for kp in (S, R):
        f = make_final_state(kp, sid, (), {})
        d.submit(kp, sid, ct.CLOSE_TX, ct.ClosePayload(final=f, srs=(), trs=()))
    d.step()
    s = d.session(sid)
    d.step_until(s.close_deadline + d.chain.block_interval + 1)
    return d.session(sid)


class TestOpen:
    def test_both_deposits_escrowed(self):
        d = Driver()
        s = open_channel(d)
        assert s.state == ct.OPEN_CE
        assert s.deposits == {S.address: 100, R.address: 100}
        assert s.escrow == 200
        assert d.chain.balance(S.address) == 900

    def test_insufficient_balance(self):
        d = Driver()
        d.submit(S, "c0", ct.OPEN_TX, ct.OpenPayload(1001))
        events = d.step()
        assert not events[0].ok and events[0].result.startswith("insufficient")
        assert d.chain.balance(S.address) == 1000

    def test_duplicate_open_rejected(self):
        d = Driver()
        d.submit(S, "c0", ct.OPEN_TX, ct.OpenPayload(10))
        d.submit(S, "c0", ct.OPEN_TX, ct.OpenPayload(10))
        events = d.step()
        assert (events[1].ok, events[1].result) == (False, "duplicate open")
        assert d.chain.balance(S.address) == 990

    def test_zero_deposits_legal(self):
        d = Driver()
        s = open_channel(d, v_s=0, v_r=0)
        assert s.state == ct.OPEN_CE and s.escrow == 0

    def test_lone_open_held_in_deposits(self):
        """One open escrows its deposit; the session opens only with both."""
        d = Driver()
        d.submit(S, "c0", ct.OPEN_TX, ct.OpenPayload(30))
        (ev,) = d.step()
        assert (ev.ok, ev.result) == (True, "open pending")
        s = d.session()
        assert s.deposits == {S.address: 30}
        assert s.state == ct.INIT and s.escrow == 30


def make_upload(group=TINY_GROUP, t=2, n=3, seed=5):
    key = 55
    dealing = vss.share(key, t, n, random.Random(seed), group)
    payload = ct.UploadPayload(
        h_k=hash_bytes(key_to_bytes(key)),
        n=n,
        t=t,
        share_hashes=tuple(vss.share_hash(ks) for ks in dealing.shares),
    )
    return key, dealing, payload


class TestUpload:
    def test_bindings_published(self):
        d = Driver(miners=20)
        open_channel(d)
        _, _, payload = make_upload(n=4, t=2)
        d.submit(S, "c0", ct.UPLOAD_TX, payload)
        events = d.step()
        s = d.session()
        assert len(s.uploads[S.address].bindings) == 4
        miners = [b.miner for b in s.uploads[S.address].bindings]
        assert len(set(miners)) == 4
        assert s.sn is not None
        assert s.appeal_deadline == d.tick + d.chain.timers.appeal_window

    def test_appeal_window_then_open(self):
        d = Driver(miners=5)
        open_channel(d)
        _, _, payload = make_upload()
        d.submit(S, "c0", ct.UPLOAD_TX, payload)
        d.step()
        s = d.session()
        assert s.state == ct.OPEN_CE
        d.step_until(s.appeal_deadline + d.chain.block_interval + 1)
        assert s.state == ct.OPEN

    def test_n_exceeding_miner_count(self):
        d = Driver(miners=2)
        open_channel(d)
        _, _, payload = make_upload(n=3, t=2)
        d.submit(S, "c0", ct.UPLOAD_TX, payload)
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "n exceeds miner count")

    def test_close_allowed_without_upload(self):
        d = Driver()
        open_channel(d)
        s = close_to_allocations(d)
        assert s.state == ct.CLOSE
        assert s.locked_allocations == {S.address: 100, R.address: 100}


class TestCloseAdmission:
    """A close the contract cannot admit fails with its reason and leaves
    the collected closes as they were."""

    def submit_close(self, d, kp, final=None):
        final = final or make_final_state(kp, "c0", (), {kp.address: 1})
        d.submit(kp, "c0", ct.CLOSE_TX, ct.ClosePayload(final=final, srs=(), trs=()))

    def rejected(self, d):
        """Why the one close in the next block failed; it collected nothing."""
        before = dict(d.session().collected_closes)
        (ev,) = [ev for ev in d.step() if ev.tx_kind == ct.CLOSE_TX]
        assert not ev.ok and ev.detail is None
        assert d.session().collected_closes == before
        return ev.result

    def test_not_open(self):
        d = Driver()
        open_channel(d)
        close_to_allocations(d)
        self.submit_close(d, S)
        assert self.rejected(d) == "not open"

    def test_close_window_expired(self):
        """A close executed in the block past the window, before the
        timer settles the session."""
        d = Driver()
        open_channel(d)
        self.submit_close(d, S)
        self.submit_close(d, R)
        d.step()
        s = d.session()
        d.step_until(s.close_deadline)
        self.submit_close(d, S, final=make_final_state(S, "c0", (), {S.address: 2}))
        assert self.rejected(d) == "close window expired"
        assert s.state == ct.CLOSE

    def test_bad_final_state_signature(self):
        d = Driver()
        open_channel(d)
        self.submit_close(d, R)
        d.step()
        signed = make_final_state(S, "c0", (), {S.address: 1})
        self.submit_close(d, S, final=replace(signed, balances={S.address: 200}))
        assert self.rejected(d) == "bad final-state signature"
        assert d.session().close_deadline is None

    def test_wrong_session(self):
        d = Driver()
        open_channel(d)
        self.submit_close(d, R)
        d.step()
        self.submit_close(d, S, final=make_final_state(S, "c1", (), {S.address: 1}))
        assert self.rejected(d) == "wrong session"
        assert d.session().close_deadline is None


def _upload(d):
    open_channel(d)
    d.submit(S, "c0", ct.UPLOAD_TX, make_upload()[2])
    d.step()


def _closed(d):
    open_channel(d)
    close_to_allocations(d)


def _lock(d):
    _closed(d)
    d.submit(S, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=hash_bytes(b"\x07" * 32)))
    d.step()


def _appeal(d):
    s = d.chain.contract.sessions.get("c0")
    share = make_upload()[1].shares[0]
    return ct.AppealPayload(owner_sig=b"", share=share, sn=s.sn if s and s.sn else bytes(16))


# the reason, after "kind: " where two handlers share it -> (setup, sender,
# tx kind, the payload for the set-up driver)
REJECTIONS = {
    "session full": (open_channel, OUTSIDER, ct.OPEN_TX, lambda d: ct.OpenPayload(5)),
    "upload: not open": (lambda d: None, S, ct.UPLOAD_TX, lambda d: make_upload()[2]),
    "upload: not a channel party": (open_channel, OUTSIDER, ct.UPLOAD_TX, lambda d: make_upload()[2]),
    "already uploaded": (_upload, S, ct.UPLOAD_TX, lambda d: make_upload(seed=6)[2]),
    "invalid threshold parameters": (open_channel, S, ct.UPLOAD_TX,
                                     lambda d: replace(make_upload()[2], t=4)),
    "no session to appeal": (lambda d: None, OUTSIDER, ct.APPEAL_TX, _appeal),
    "no upload to appeal": (open_channel, OUTSIDER, ct.APPEAL_TX, _appeal),
    "no matching binding": (_upload, OUTSIDER, ct.APPEAL_TX, _appeal),
    "lock: not in close": (lambda d: None, S, ct.LOCK_TX, lambda d: ct.LockPayload(h_pre=bytes(32))),
    "lock: not a channel party": (_closed, OUTSIDER, ct.LOCK_TX, lambda d: ct.LockPayload(h_pre=bytes(32))),
    "sender is neither party nor miner": (_lock, OUTSIDER, ct.UPDATE_TX,
                                          lambda d: ct.UpdatePayload(pre=b"\x07" * 32)),
    "no recovery requested": (_lock, OUTSIDER, ct.RECOVER_TX,
                              lambda d: ct.RecoverPayload(share=make_upload()[1].shares[0])),
}


@pytest.mark.parametrize("case", REJECTIONS, ids=REJECTIONS)
def test_rejection_leaves_sessions_and_accounts_unchanged(case):
    """Every handler validates before it applies: a rejected transaction
    fails with its reason and changes no session and no account."""
    setup, sender, kind, payload = REJECTIONS[case]
    d = Driver(miners=5)
    setup(d)
    tx = d.submit(sender, "c0", kind, payload(d))
    sessions, accounts = copy.deepcopy(d.chain.contract.sessions), dict(d.chain.accounts)
    (ev,) = [ev for ev in d.step() if ev.tx_kind == tx.kind]
    assert (ev.ok, ev.result, ev.detail) == (False, case.split(": ")[-1], None)
    assert d.chain.contract.sessions == sessions and d.chain.accounts == accounts


class TestAppeal:
    def setup_driver(self):
        d = Driver(miners=5)
        open_channel(d)
        key, dealing, payload = make_upload()
        d.submit(S, "c0", ct.UPLOAD_TX, payload)
        d.step()
        s = d.session()
        b = s.uploads[S.address].bindings[0]
        miner_kp = next(kp for kp in d.miner_keys if kp.address == b.miner)
        share = dealing.shares[b.index - 1]
        return d, s, miner_kp, share

    def test_fake_share_terminates(self):
        d, s, miner_kp, share = self.setup_driver()
        fake = replace(share, s=(share.s + 1) % TINY_GROUP.q)
        sig = S.sign(vss.share_message_bytes(fake, s.sn))
        d.submit(miner_kp, "c0", ct.APPEAL_TX, ct.AppealPayload(owner_sig=sig, share=fake, sn=s.sn))
        d.step()
        assert s.state == ct.TERMINATED
        assert d.chain.balance(S.address) == 1000
        assert d.chain.balance(R.address) == 1000
        assert s.escrow == 0

    def test_honest_share_appeal_rejected(self):
        d, s, miner_kp, share = self.setup_driver()
        sig = S.sign(vss.share_message_bytes(share, s.sn))
        d.submit(miner_kp, "c0", ct.APPEAL_TX, ct.AppealPayload(owner_sig=sig, share=share, sn=s.sn))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "share matches binding")
        assert s.state == ct.OPEN_CE

    def test_stale_serial_number_rejected(self):
        d, s, miner_kp, share = self.setup_driver()
        fake = replace(share, s=(share.s + 1) % TINY_GROUP.q)
        old_sn = b"\x00" * 16
        sig = S.sign(vss.share_message_bytes(fake, old_sn))
        d.submit(miner_kp, "c0", ct.APPEAL_TX, ct.AppealPayload(owner_sig=sig, share=fake, sn=old_sn))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "stale serial number")
        assert s.state == ct.OPEN_CE

    def test_appeal_after_window_rejected(self):
        d, s, miner_kp, share = self.setup_driver()
        d.step_until(s.appeal_deadline + d.chain.block_interval + 1)
        fake = replace(share, s=(share.s + 1) % TINY_GROUP.q)
        sig = S.sign(vss.share_message_bytes(fake, s.sn))
        d.submit(miner_kp, "c0", ct.APPEAL_TX, ct.AppealPayload(owner_sig=sig, share=fake, sn=s.sn))
        events = d.step()
        assert any(not e.ok and "appeal" in e.result for e in events if e.tx_kind == ct.APPEAL_TX)
        assert s.state == ct.OPEN

    def test_forged_owner_signature_rejected(self):
        d, s, miner_kp, share = self.setup_driver()
        fake = replace(share, s=(share.s + 1) % TINY_GROUP.q)
        sig = R.sign(vss.share_message_bytes(fake, s.sn))  # wrong signer
        d.submit(miner_kp, "c0", ct.APPEAL_TX, ct.AppealPayload(owner_sig=sig, share=fake, sn=s.sn))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "owner signature invalid")


class TestLockUpdate:
    def locked_driver(self, assist=20, interval=2):
        timers = TimerConfig(6, 6, 10, assist)
        d = Driver(interval=interval, timers=timers, miners=3)
        open_channel(d)
        close_to_allocations(d)
        pre = b"\x07" * 32
        d.submit(S, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=hash_bytes(pre)))
        d.step()
        return d, d.session(), pre

    def test_lock_sets_deadlines(self):
        d, s, pre = self.locked_driver()
        assert s.state == ct.LOCK
        assert s.lock_deadline == d.tick + 10
        assert s.assist_deadline == d.tick + 20

    def test_lock_requires_close(self):
        d = Driver()
        open_channel(d)
        d.submit(S, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=b"\x01" * 32))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "not in close")

    def test_second_lock_rejected(self):
        d, s, pre = self.locked_driver()
        d.submit(R, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=b"\x02" * 32))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "already locked")

    def test_party_update_applies_allocations(self):
        d, s, pre = self.locked_driver()
        d.submit(R, "c0", ct.UPDATE_TX, ct.UpdatePayload(pre=pre))
        d.step()
        assert s.state == ct.SUCCESS
        assert d.chain.balance(S.address) == 1000
        assert d.chain.balance(R.address) == 1000
        assert s.escrow == 0

    def test_wrong_preimage_rejected(self):
        d, s, pre = self.locked_driver()
        d.submit(R, "c0", ct.UPDATE_TX, ct.UpdatePayload(pre=b"\x08" * 32))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "wrong preimage")
        assert s.state == ct.LOCK

    def test_party_past_deadline_rejected(self):
        d, s, pre = self.locked_driver()
        d.step_until(s.lock_deadline + 1)
        d.submit(R, "c0", ct.UPDATE_TX, ct.UpdatePayload(pre=pre))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "party past unlock deadline")

    def test_miner_assist_in_window_with_reward(self):
        timers = TimerConfig(6, 6, 10, 30)
        d = Driver(timers=timers, miners=3)
        d.chain.assist_reward_percent = 10
        open_channel(d)
        # S pays R 40 via a receipt so R is the net gainer here
        from xchan.receipts import make_final_state, make_receipt

        tr = make_receipt(S, "c0", (), 1, R.address, 40)
        for kp in (S, R):
            f = make_final_state(kp, "c0", (), {})
            d.submit(kp, "c0", ct.CLOSE_TX, ct.ClosePayload(final=f, srs=(), trs=(tr,)))
        d.step()
        s = d.session()
        d.step_until(s.close_deadline + d.chain.block_interval + 1)
        pre = b"\x07" * 32
        d.submit(S, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=hash_bytes(pre)))
        d.step()
        d.step_until(s.lock_deadline + 1)
        miner = d.miner_keys[0]
        d.submit(miner, "c0", ct.UPDATE_TX, ct.UpdatePayload(pre=pre))
        d.step()
        assert s.state == ct.SUCCESS
        reward = 140 * 10 // 100
        assert d.chain.balance(miner.address) == reward
        assert d.chain.balance(R.address) == 1000 + 40 - reward
        assert d.chain.balance(S.address) == 960

    def test_miner_before_window_rejected(self):
        d, s, pre = self.locked_driver()
        d.submit(d.miner_keys[0], "c0", ct.UPDATE_TX, ct.UpdatePayload(pre=pre))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "outside assist window")

    def test_no_assist_window_on_beta_style_chain(self):
        timers = TimerConfig(6, 6, 10, None)
        d = Driver(chain_id="beta", timers=timers, miners=2)
        open_channel(d)
        close_to_allocations(d)
        pre = b"\x05" * 32
        d.submit(S, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=hash_bytes(pre)))
        d.step()
        s = d.session()
        # park right at the deadline so the miner's transaction executes
        # inside the first block past it, before the refund timer runs
        d.step_until(s.lock_deadline)
        d.submit(d.miner_keys[0], "c0", ct.UPDATE_TX, ct.UpdatePayload(pre=pre))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "no assist window on this chain")

    def test_refund_after_assist_deadline(self):
        d, s, pre = self.locked_driver()
        d.step_until(s.assist_deadline + d.chain.block_interval + 1)
        assert s.state == ct.REFUNDED
        assert d.chain.balance(S.address) == 1000
        assert d.chain.balance(R.address) == 1000

    def test_refund_at_unlock_deadline_without_assist(self):
        timers = TimerConfig(6, 6, 10, None)
        d = Driver(timers=timers)
        open_channel(d)
        close_to_allocations(d)
        d.submit(S, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=b"\x01" * 32))
        d.step()
        s = d.session()
        d.step_until(s.lock_deadline + d.chain.block_interval + 1)
        assert s.state == ct.REFUNDED


class TestUpdateEie:
    def test_update_eie_triggers_recovery_and_recover_collects(self):
        d = Driver(miners=5, timers=TimerConfig(4, 4, 12, 24))
        open_channel(d)
        key, dealing, payload = make_upload(t=2, n=3)
        d.submit(S, "c0", ct.UPLOAD_TX, payload)
        d.step()
        s = d.session()
        d.step_until(s.appeal_deadline + d.chain.block_interval + 1)
        assert s.state == ct.OPEN
        from xchan.receipts import make_final_state

        for kp in (S, R):
            f = make_final_state(kp, "c0", (), {})
            d.submit(kp, "c0", ct.CLOSE_TX, ct.ClosePayload(final=f, srs=(), trs=()))
        d.step()
        d.step_until(s.close_deadline + d.chain.block_interval + 1)
        pre = b"\x09" * 32
        d.submit(S, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=hash_bytes(pre)))
        d.step()
        d.submit(R, "c0", ct.UPDATE_EIE_TX, ct.UpdateEiePayload(pre=pre, h_k=payload.h_k))
        d.step()
        assert s.state == ct.SUCCESS
        assert s.recovery_requested == [S.address]

        # miners answer with their bound shares
        bindings = s.uploads[S.address].bindings
        for b in bindings[:2]:
            kp = next(k for k in d.miner_keys if k.address == b.miner)
            d.submit(kp, "c0", ct.RECOVER_TX, ct.RecoverPayload(share=dealing.shares[b.index - 1]))
        (published,) = [ev.detail for ev in d.step() if ev.detail is not None]
        assert published.owner == S.address
        got = vss.recover(published.shares, 2, TINY_GROUP)
        assert got == key

    def test_update_eie_unknown_key_hash(self):
        d = Driver(miners=5)
        open_channel(d)
        _, _, payload = make_upload()
        d.submit(S, "c0", ct.UPLOAD_TX, payload)
        d.step()
        s = d.session()
        d.step_until(s.appeal_deadline + d.chain.block_interval + 1)
        close_to_allocations(d)
        pre = b"\x0a" * 32
        d.submit(S, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=hash_bytes(pre)))
        d.step()
        d.submit(R, "c0", ct.UPDATE_EIE_TX, ct.UpdateEiePayload(pre=pre, h_k=b"\x00" * 32))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "unknown key hash")

    def test_recover_rejects_mutated_and_unbound(self):
        d = Driver(miners=5, timers=TimerConfig(4, 4, 12, 24))
        open_channel(d)
        key, dealing, payload = make_upload(t=2, n=3)
        d.submit(S, "c0", ct.UPLOAD_TX, payload)
        d.step()
        s = d.session()
        d.step_until(s.appeal_deadline + d.chain.block_interval + 1)
        from xchan.receipts import make_final_state

        for kp in (S, R):
            f = make_final_state(kp, "c0", (), {})
            d.submit(kp, "c0", ct.CLOSE_TX, ct.ClosePayload(final=f, srs=(), trs=()))
        d.step()
        d.step_until(s.close_deadline + d.chain.block_interval + 1)
        pre = b"\x0b" * 32
        d.submit(S, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=hash_bytes(pre)))
        d.step()
        d.submit(R, "c0", ct.UPDATE_EIE_TX, ct.UpdateEiePayload(pre=pre, h_k=payload.h_k))
        d.step()

        b = s.uploads[S.address].bindings[0]
        kp = next(k for k in d.miner_keys if k.address == b.miner)
        bad = replace(dealing.shares[b.index - 1], s=(dealing.shares[b.index - 1].s + 1) % TINY_GROUP.q)
        d.submit(kp, "c0", ct.RECOVER_TX, ct.RecoverPayload(share=bad))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "no share accepted")
        # unbound miner (not selected) with a correct share
        bound = {other.miner for other in s.uploads[S.address].bindings}
        outsider_kp = next(k for k in d.miner_keys if k.address not in bound)
        d.submit(outsider_kp, "c0", ct.RECOVER_TX, ct.RecoverPayload(share=dealing.shares[0]))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "no share accepted")
        # a bound miner's index from a second dealing of the same key: the
        # owner's bound hash, not a mark on the share, keeps dealings apart
        other = vss.share(key, 2, 3, random.Random(6), TINY_GROUP)
        assert other.shares[b.index - 1] != dealing.shares[b.index - 1]
        d.submit(kp, "c0", ct.RECOVER_TX, ct.RecoverPayload(share=other.shares[b.index - 1]))
        events = d.step()
        assert (events[0].ok, events[0].result) == (False, "no share accepted")
        # duplicate index ignored: same miner resubmits its share twice
        good = dealing.shares[b.index - 1]
        d.submit(kp, "c0", ct.RECOVER_TX, ct.RecoverPayload(share=good))
        d.submit(kp, "c0", ct.RECOVER_TX, ct.RecoverPayload(share=good))
        events = d.step()
        assert (events[0].ok, events[0].result) == (True, "shares recorded")
        assert (events[1].ok, events[1].result) == (False, "no share accepted")
        assert len(s.collected_shares[S.address]) == 1


class TestStateMachineAudit:
    def test_transitions_follow_the_allowed_edges(self):
        d = Driver(miners=3)
        open_channel(d)
        close_to_allocations(d)
        pre = b"\x01" * 32
        d.submit(S, "c0", ct.LOCK_TX, ct.LockPayload(h_pre=hash_bytes(pre)))
        d.step()
        d.submit(R, "c0", ct.UPDATE_TX, ct.UpdatePayload(pre=pre))
        d.step()
        s = d.session()
        for frm, to, _tick in s.transitions:
            assert (frm, to) in ct.VALID_EDGES

    def test_illegal_transition_raises(self):
        s = ct.ContractSession(session_id="x")
        with pytest.raises(ct.InvariantViolation):
            s.set_state(ct.LOCK, 0)


def timer_results(events):
    return [e.result for e in events if e.tx_kind == "Timer"]


class TestTimedExits:
    """ChannelContract.TIMED_EXITS: each timed transition is one row, driven
    here once, and VALID_EDGES is derived from the rows and the handlers."""

    @staticmethod
    def row(deadline):
        (row,) = [r for r in ct.ChannelContract.TIMED_EXITS if r[1] == deadline]
        return row

    def assert_exit(self, deadline, before, events, entered):
        frm, _deadline, _action, to = self.row(deadline)
        assert before in frm and entered in to
        assert timer_results(events) == [entered]

    def test_valid_edges_are_the_state_machine_edges(self):
        assert ct.VALID_EDGES == {
            (ct.INIT, ct.OPEN_CE), (ct.OPEN_CE, ct.OPEN), (ct.OPEN_CE, ct.CLOSE), (ct.OPEN, ct.CLOSE),
            (ct.CLOSE, ct.LOCK), (ct.LOCK, ct.SUCCESS), (ct.LOCK, ct.REFUNDED),
            (ct.OPEN_CE, ct.TERMINATED), (ct.OPEN, ct.TERMINATED),
        }

    def test_appeal_window_expiry_opens(self):
        d = Driver(miners=5)
        s = open_channel(d)
        d.submit(S, "c0", ct.UPLOAD_TX, make_upload()[2])
        d.step()
        events = d.step_until(s.appeal_deadline + 1)
        self.assert_exit("appeal_deadline", ct.OPEN_CE, events, ct.OPEN)

    def test_close_window_expiry_settles(self):
        d = Driver()
        s = open_channel(d)
        for kp in (S, R):
            f = make_final_state(kp, "c0", (), {})
            d.submit(kp, "c0", ct.CLOSE_TX, ct.ClosePayload(final=f, srs=(), trs=()))
        d.step()
        events = d.step_until(s.close_deadline + 1)
        self.assert_exit("close_deadline", ct.OPEN_CE, events, ct.CLOSE)
        assert s.locked_allocations == {S.address: 100, R.address: 100}

    @pytest.mark.parametrize("assist", [20, None])
    def test_lock_expiry_refunds(self, assist):
        d, s, _pre = TestLockUpdate().locked_driver(assist=assist)
        deadline = s.lock_deadline if assist is None else s.assist_deadline
        assert timer_results(d.step_until(deadline)) == []
        self.assert_exit("refund_deadline", ct.LOCK, d.step_until(deadline + 1), ct.REFUNDED)
        assert (d.chain.balance(S.address), d.chain.balance(R.address)) == (1000, 1000)

    def test_appeal_and_close_expiring_in_one_block_chain(self):
        """Rows run in table order: a block past both deadlines opens the
        session and then settles it, Open_CE -> Open -> Close."""
        d = Driver(miners=5)
        s = open_channel(d)
        assert d.tick == 2
        for kp, seed in ((S, 5), (R, 6)):
            d.submit(kp, "c0", ct.UPLOAD_TX, make_upload(seed=seed)[2])
            f = make_final_state(kp, "c0", (), {})
            d.submit(kp, "c0", ct.CLOSE_TX, ct.ClosePayload(final=f, srs=(), trs=()))
        d.step()
        assert s.appeal_deadline == s.close_deadline == 10
        assert timer_results(d.step_until(10)) == []
        events = d.step()
        assert d.tick == 12
        assert [(e.tx_kind, e.result) for e in events] == [("Timer", ct.OPEN), ("Timer", ct.CLOSE)]
        assert s.transitions[-2:] == [(ct.OPEN_CE, ct.OPEN, 12), (ct.OPEN, ct.CLOSE, 12)]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: INIT and CLOSE have no timed exit")
    def test_every_waiting_state_has_a_timed_exit(self):
        left = {state for frm, _deadline, _action, _to in ct.ChannelContract.TIMED_EXITS for state in frm}
        assert ct.STATES - set(ct.TERMINAL_STATES) <= left


class TestSettledStart:
    """A session that starts at Close: deposits escrowed, allocations locked."""

    def test_deposits_escrowed_and_allocations_locked(self):
        d = Driver()
        before = d.chain.total_value()
        s = d.chain.contract.start_settled(d.chain, "h0", {S.address: 70, R.address: 30},
                                           {S.address: 20, R.address: 80})
        assert s is d.session("h0")
        assert s.state == ct.CLOSE and list(s.deposits) == [S.address, R.address]
        assert s.escrow == 100 and s.deposits == {S.address: 70, R.address: 30}
        assert s.locked_allocations == {S.address: 20, R.address: 80}
        assert (d.chain.balance(S.address), d.chain.balance(R.address)) == (930, 970)
        assert d.chain.total_value() == before

    def test_duplicate_session_rejected(self):
        d = Driver()
        open_channel(d, sid="h0")
        with pytest.raises(ValueError):
            d.chain.contract.start_settled(d.chain, "h0", {S.address: 1}, {S.address: 1})
        assert d.session("h0").state == ct.OPEN_CE
        assert d.chain.balance(S.address) == 900


class TestPlainHtlcSessions:
    def test_lock_update_refund_cycle(self):
        d = Driver(miners=1)
        c = d.chain.contract
        c.start_settled(d.chain, "h0", {S.address: 50, R.address: 0}, {R.address: 50, S.address: 0})
        assert d.chain.balance(S.address) == 950
        pre = b"\x03" * 32
        d.submit(S, "h0", ct.LOCK_TX, ct.LockPayload(h_pre=hash_bytes(pre)))
        d.step()
        d.submit(R, "h0", ct.UPDATE_TX, ct.UpdatePayload(pre=pre))
        d.step()
        s = c.sessions["h0"]
        assert s.state == ct.SUCCESS
        assert d.chain.balance(R.address) == 1050

        c.start_settled(d.chain, "h1", {S.address: 50, R.address: 0}, {R.address: 50, S.address: 0})
        d.submit(S, "h1", ct.LOCK_TX, ct.LockPayload(h_pre=hash_bytes(pre)))
        d.step()
        s1 = c.sessions["h1"]
        # the last block at or before the refund deadline leaves the lock; the next refunds
        last = s1.assist_deadline // d.chain.block_interval * d.chain.block_interval
        d.step_until(last)
        assert (d.tick, s1.state) == (last, ct.LOCK)
        d.step()
        assert s1.state == ct.REFUNDED
        assert d.chain.balance(S.address) == 900 + 50


class TestRevealRule:
    """update_payload: how a party and an assisting miner both reveal."""

    def test_no_upload_reveals_by_update(self):
        assert ct.update_payload(b"p", {}) == (ct.UPDATE_TX, ct.UpdatePayload(pre=b"p"))

    def test_two_uploads_name_the_lower_address_key(self):
        uploads = {"bb": ct.Bound("bb", b"sn", (), 1, b"key-b"), "aa": ct.Bound("aa", b"sn", (), 1, b"key-a")}
        want = ct.UpdateEiePayload(pre=b"p", h_k=b"key-a")
        assert ct.update_payload(b"p", uploads) == (ct.UPDATE_EIE_TX, want)
