"""Off-chain participant logic: receipts, sub-channel authorization,
final states."""

import copy
import random
import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xchan import contract as ct
from xchan.chain import ChainEvent
from xchan.contract import InvariantViolation
from xchan.crypto import DEFAULT_GROUP, keypair_from_label
from xchan import engine, proofs, receipts, vss
from xchan.engine import (BehaviorProfile, ChannelView, ExchangeMsg, Party, ReceiptMsg, SendPlan, ShareMsg,
                          SrMsg, Timer)
from xchan.receipts import (Receipt, SubChannelReceipt, fold_receipt, make_final_state, make_receipt,
                            make_sub_receipt, replay_receipts)
from xchan.scenario import ScenarioConfig, build_world, collect_metrics, sessions, settled, start_sessions
from xchan.simnet import LatencyModel, Message, Simnet
from xchan.wire import Checked

SID = "e0"


def two_parties(behavior_a=BehaviorProfile(), behavior_b=BehaviorProfile()):
    net = Simnet(seed=4, latency=LatencyModel(kind="fixed", fixed=1))
    directory = {}
    out = []
    for name, behavior in (("A", behavior_a), ("B", behavior_b)):
        keys = {"alpha": keypair_from_label("eng:%s" % name)}
        p = Party(name, keys, behavior=behavior, directory=directory)
        directory[p.address("alpha")] = name
        net.register(name, p)
        out.append(p)
    a, b = out
    for p in (a, b):
        p.join(SID)
        p.side("alpha", SID).views[()] = ChannelView(
            chain_id="alpha",
            session_id=SID,
            path=(),
            members=(a.address("alpha"), b.address("alpha")),
            initial={a.address("alpha"): 100, b.address("alpha"): 50},
        )
    return net, a, b


def view_of(p):
    return p.side("alpha", SID).views[()]


class TestJoin:
    @pytest.mark.parametrize("chains", [("alpha",), ("alpha", "beta")])
    def test_one_side_per_chain_keyed(self, chains):
        p = Party("P", {c: keypair_from_label("join:%s" % c) for c in chains})
        p.join(SID, mode="EIE", counterpart="Q", lock_chain="beta")
        ps = p.sessions[SID]
        assert (ps.mode, ps.counterpart, ps.lock_chain, ps.holder) == ("EIE", "Q", "beta", False)
        assert {c: (side.chain_id, side.session_id) for c, side in ps.sides.items()} == {
            c: (c, SID) for c in chains}

    def test_misspelt_role_raises(self):
        p = Party("P", {"alpha": keypair_from_label("join:alpha")})
        with pytest.raises(TypeError):
            p.join(SID, lock_chian="alpha")
        assert SID not in p.sessions


class TestReceipts:
    def test_send_updates_both_sides(self):
        net, a, b = two_parties()
        tr = a.send_receipt(net, view_of(a), 30)
        assert tr is not None
        net.run_until(max_tick=3)
        assert view_of(a).balances()[a.address("alpha")] == 70
        assert view_of(b).balances()[b.address("alpha")] == 80
        assert b.side("alpha", SID).received[()] == 1

    def test_zero_amount_legal(self):
        net, a, b = two_parties()
        assert a.send_receipt(net, view_of(a), 0) is not None

    def test_overspend_refused_locally(self):
        net, a, b = two_parties()
        assert a.send_receipt(net, view_of(a), 101) is None
        assert view_of(a).receipts == {}

    def test_forced_overspend_rejected_by_receiver(self):
        net, a, b = two_parties()
        tr = a.send_receipt(net, view_of(a), 101, force=True)
        assert tr is not None
        net.run_until(max_tick=3)
        assert view_of(b).receipts == {}  # receiver refuses

    def test_receiver_rejects_bad_signature(self):
        net, a, b = two_parties()
        tr = make_receipt(a.keys["alpha"], SID, (), 1, b.address("alpha"), 10)
        forged = replace(tr, amount=20)  # body changed under the old signature
        net.send("receipt", "A", "B", ReceiptMsg("alpha", forged))
        net.run_until(max_tick=3)
        assert view_of(b).receipts == {}

    def test_receiver_rejects_reused_sequence(self):
        net, a, b = two_parties()
        kp = a.keys["alpha"]
        t1 = make_receipt(kp, SID, (), 1, b.address("alpha"), 5)
        t2 = make_receipt(kp, SID, (), 1, b.address("alpha"), 6)
        for tr in (t1, t2):
            net.send("receipt", "A", "B", ReceiptMsg("alpha", tr))
        net.run_until(max_tick=3)
        assert list(view_of(b).receipts) == [1]
        assert view_of(b).receipts[1].amount == 5

    def test_sequence_monotonicity_audited(self):
        net, a, b = two_parties()
        a.send_receipt(net, view_of(a), 1)
        view_of(a).next_seq = 1  # corrupt the counter
        with pytest.raises(InvariantViolation):
            a.send_receipt(net, view_of(a), 1)


class TestSubChannels:
    def wire(self):
        net = Simnet(seed=4, latency=LatencyModel(kind="fixed", fixed=1))
        directory = {}
        parties = {}
        for name in ("A", "B", "C"):
            keys = {"alpha": keypair_from_label("sub:%s" % name)}
            p = Party(name, keys, directory=directory)
            directory[p.address("alpha")] = name
            net.register(name, p)
            parties[name] = p
        a, b, c = parties["A"], parties["B"], parties["C"]
        for p in (a, b):
            p.join(SID)
            p.side("alpha", SID).views[()] = ChannelView(
                chain_id="alpha",
                session_id=SID,
                path=(),
                members=(a.address("alpha"), b.address("alpha")),
                initial={a.address("alpha"): 100, b.address("alpha"): 0},
            )
        c.join(SID)  # the sub-channel counterparty takes part, as build_world's payees do
        return net, a, b, c

    def test_full_authorization_flow(self):
        net, a, b, c = self.wire()
        # B will redeploy A's first receipt into a channel with C
        b.side("alpha", SID).plans[(1,)] = SendPlan([2, 3], counterparty=c.address("alpha"))
        a.send_receipt(net, view_of(a), 40)
        net.run_until(max_tick=12)
        b_views, c_views = b.side("alpha", SID).views, c.side("alpha", SID).views
        assert (1,) in b_views and (1,) in c_views
        assert b_views[(1,)].funder == b.address("alpha")
        assert b_views[(1,)].initial[b.address("alpha")] == 40
        # the planned child workload ran
        assert c_views[(1,)].balances()[c.address("alpha")] == 5
        # the parent delegated the funding receipt
        assert 1 in view_of(a).delegated and 1 in view_of(b).delegated

    def test_second_authorization_refused(self):
        net, a, b, c = self.wire()
        b.side("alpha", SID).plans[(1,)] = SendPlan([], counterparty=c.address("alpha"))
        a.send_receipt(net, view_of(a), 40)
        net.run_until(max_tick=8)
        tr = view_of(a).receipts[1]
        net.send("sr_request", "B", "A", SrMsg("alpha", SubChannelReceipt(c.address("alpha"), tr)))
        before = len(view_of(a).srs)
        net.run_until(max_tick=12)
        assert len(view_of(a).srs) == before  # payer refuses a second grant

    def test_counterparty_rejects_forged_authorization(self):
        net, a, b, c = self.wire()
        tr = make_receipt(a.keys["alpha"], SID, (), 1, b.address("alpha"), 40)
        sr = make_sub_receipt(a.keys["alpha"], c.address("alpha"), tr)
        forged = replace(sr, sig=b.keys["alpha"].sign(sr.signing_bytes()))
        net.send("subchannel_open", "B", "C", SrMsg("alpha", forged))
        net.run_until(max_tick=3)
        side = c.side("alpha", SID)
        assert side is None or (1,) not in side.views

    def test_grant_embeds_the_held_receipt(self):
        """The payer authorizes the receipt it holds, not the requester's
        equal copy, whose memo fields the requester may have set."""
        net, a, b, c = self.wire()
        a.send_receipt(net, view_of(a), 40)
        net.run_until(max_tick=3)
        held = view_of(a).receipts[1]
        copied = replace(held)
        object.__setattr__(copied, "_signing", b"bytes the payer never signed")
        net.send("sr_request", "B", "A", SrMsg("alpha", SubChannelReceipt(c.address("alpha"), copied)))
        net.run_until(max_tick=5)
        (sr,) = view_of(a).srs
        assert sr.receipt is held and sr.verify_sig()

    def test_sub_receipt_requires_payer(self):
        net, a, b, c = self.wire()
        tr = make_receipt(a.keys["alpha"], SID, (), 1, b.address("alpha"), 40)
        with pytest.raises(ValueError):
            make_sub_receipt(b.keys["alpha"], c.address("alpha"), tr)

    LEVELS = ScenarioConfig(mode="CE", receipts_n=4, levels=2, sub_funding=(5,), sub_receipts=(2,))

    @classmethod
    def run_with(cls, kind, counterparty, amount=None):
        """LEVELS run to the end, R handed a kind message from S right after
        R accepts its first root receipt, which funds R's sub-channel to D:
        an authorization S signs for that receipt, or for a second receipt
        S signs under its seq for amount, naming counterparty ("S", "R" or
        "D"). Returns (D's receipts at (1,), alpha's payouts to R and D,
        the last tick)."""
        world = build_world(cls.LEVELS)
        S, R, D = (world.parties[n] for n in "SRD")
        net, deliver = world.net, R.on_message
        before = {p: world.alpha.balance(p.address("alpha")) for p in (R, D)}

        def on_message(net, msg):
            deliver(net, msg)
            tr = getattr(msg.data, "tr", None)
            if msg.kind == "receipt" and tr.channel_path == () and tr.seq == 1:
                if amount is not None:
                    tr = make_receipt(S.keys["alpha"], tr.session_id, (), 1, tr.rcv, amount)
                sr = make_sub_receipt(S.keys["alpha"], world.parties[counterparty].address("alpha"), tr)
                deliver(net, Message(kind, "S", "R", SrMsg("alpha", sr)))
        R.on_message = on_message
        start_sessions(world)
        net.run_until(lambda: settled(net), max_tick=cls.LEVELS.max_ticks)
        paid = tuple(world.alpha.balance(p.address("alpha")) - before[p] for p in (R, D))
        return D.side("alpha", "c0").received.get((1,), 0), paid, net.now

    def test_grant_naming_another_counterparty_opens_nothing(self):
        """A grant from S naming S opens no channel: R's plan names D, so R
        opens the channel to D once S's real grant comes, and D gets its
        two receipts. Opened, it once made R pay S, leaving D nothing."""
        assert self.run_with("sr_grant", "S") == (2, (6, 2), 64)

    def test_open_naming_its_funder_as_counterparty_is_refused(self):
        """A subchannel_open whose funder, R, is also its counterparty is
        refused: adopted, it held R's sub-channel path, so R's real one to D
        never opened and the run ended 28 ticks late with D paid nothing."""
        assert self.run_with("subchannel_open", "R") == (2, (6, 2), 64)

    def test_grant_for_a_receipt_not_held_opens_nothing(self):
        """A grant for a second receipt S signed under the funding receipt's
        seq opens nothing. Opened on it, R's sub-channel held two receipts
        under one seq, settlement dropped both levels, and S paid 3 of 8."""
        assert self.run_with("sr_grant", "D", amount=7) == (2, (6, 2), 64)


class TestFinalStates:
    def test_no_receipts_yields_initial(self):
        net, a, b = two_parties()
        f = a.compute_final_state(view_of(a))
        assert f.balances == view_of(a).initial
        assert f.verify_sig()

    def test_delegated_amount_excluded(self):
        net, a, b = two_parties()
        a.send_receipt(net, view_of(a), 30)
        net.run_until(max_tick=3)
        view_of(a).delegated.add(1)
        f = a.compute_final_state(view_of(a))
        assert f.balances[a.address("alpha")] == 70
        assert f.balances[b.address("alpha")] == 50  # credit escrowed to the child

    def test_fold_is_order_canonical(self):
        kp_a = keypair_from_label("eng:A")
        kp_b = keypair_from_label("eng:B")
        trs = [
            make_receipt(kp_a, SID, (), 1, kp_b.address, 10),
            make_receipt(kp_b, SID, (), 2, kp_a.address, 4),
            make_receipt(kp_a, SID, (), 3, kp_b.address, 1),
        ]
        initial = {kp_a.address: 20, kp_b.address: 0}
        fwd, _ = replay_receipts(initial, trs, set(), None)
        rev, _ = replay_receipts(initial, list(reversed(trs)), set(), None)
        assert fwd == rev

    def test_inflated_claim_flag(self):
        net, a, b = two_parties(behavior_a=BehaviorProfile(inflate_final_state=True))
        f = a.compute_final_state(view_of(a))
        assert f.balances[a.address("alpha")] == 101


class TestBalancesCache:
    """ChannelView.hold folds each receipt onto a cache that balances
    reads; it must always equal a fresh replay of everything the view
    holds."""

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("send"), st.sampled_from("AB"), st.integers(0, 60)),
            st.tuples(st.just("insert"), st.sampled_from("AB"), st.integers(0, 60), st.integers(1, 30)),
            st.tuples(st.just("overspend"), st.sampled_from("AB"), st.integers(1, 20)),
            st.tuples(st.just("delegate"), st.integers(1, 30)),
            st.tuples(st.just("replace"), st.integers(1, 30), st.integers(0, 60)),
        ),
        max_size=40,
    )

    @settings(max_examples=300, deadline=None)
    @given(ops=OPS, funded=st.booleans())
    def test_matches_full_replay(self, ops, funded):
        view = ChannelView(
            chain_id="alpha",
            session_id=SID,
            path=(3,) if funded else (),
            members=("A", "B"),
            initial={"A": 100, "B": 0} if funded else {"A": 100, "B": 50},
            funder="A" if funded else None,
        )

        def tr(seq, snd, amount):
            return Receipt(SID, view.path, seq, snd, "B" if snd == "A" else "A", amount)

        def expected():
            return replay_receipts(view.initial, view.receipts.values(), view.delegated, view.funder)[0]

        for op in ops:
            top = max(view.receipts, default=0)
            if op[0] == "send":
                view.hold(tr(top + 1, op[1], op[2]))
            elif op[0] == "insert":
                if op[3] not in view.receipts:  # below the top unless the view is short
                    view.hold(tr(op[3], op[1], op[2]))
            elif op[0] == "overspend":
                view.hold(tr(top + 1, op[1], expected()[op[1]] + op[2]))
            elif op[0] == "delegate":
                view.delegated.add(op[1])
            elif op[1] in view.receipts:  # replace a held receipt in place
                view.hold(replace(view.receipts[op[1]], amount=op[2]))
            got = view.balances()
            assert got == expected()
            with pytest.raises(TypeError):
                got["A"] += 1000  # a read-only view: callers cannot corrupt the cache
            assert view.balances() == expected()

    @pytest.mark.parametrize("held", [1, 100, 1000])
    def test_a_receipt_above_the_top_folds_once(self, monkeypatch, held):
        view = ChannelView("alpha", SID, (), ("A", "B"), {"A": 10_000, "B": 0})
        for seq in range(1, held + 1):
            view.hold(Receipt(SID, (), seq, "A", "B", 1))
        assert view.balances() == {"A": 10_000 - held, "B": held}
        steps = []  # every fold step, through the view's binding and replay_receipts'

        def counted(balances, tr, *rest):
            steps.append(tr.seq)
            return fold_receipt(balances, tr, *rest)

        monkeypatch.setattr(engine, "fold_receipt", counted)
        monkeypatch.setattr(receipts, "fold_receipt", counted)
        view.hold(Receipt(SID, (), held + 1, "A", "B", 1))
        assert view.balances() == {"A": 9_999 - held, "B": held + 1}
        assert steps == [held + 1]
        # an insert below the top, or a replacement, refolds everything
        view.hold(Receipt(SID, (), held + 5, "B", "A", 1))
        steps.clear()
        view.hold(Receipt(SID, (), held + 3, "A", "B", 1))
        assert view.balances() == {"A": 9_999 - held, "B": held + 1}
        assert len(steps) == held + 3
        steps.clear()
        view.hold(Receipt(SID, (), 1, "A", "B", 2))
        assert view.balances() == {"A": 9_998 - held, "B": held + 2}
        assert len(steps) == held + 3


def _eie_world_mid_run():
    """An EIE world whose channels are open and whose exchange is under way."""
    cfg = ScenarioConfig(mode="EIE", receipts_n=4, seed=10)
    world = build_world(cfg)
    start_sessions(world)
    world.net.run_until(max_tick=12)
    return world


def _snapshot(world, actor):
    chains = [(c.now, dict(c.accounts), list(c.mempool), len(c.blocks),
               {sid: s.state for sid, s in c.contract.sessions.items()})
              for c in (world.alpha, world.beta)]
    state = copy.deepcopy(actor.sessions if isinstance(actor, Party) else actor.stored)
    return chains, state, world.net.in_flight, len(world.net.trace)


_RECEIPT = make_receipt(keypair_from_label("probe"), "c0", (), 1, "nobody", 1)
_PUBLICS = proofs.make_public_inputs((b"x" * 13,), 5, 2, 3)

# S and R's alpha addresses in _eie_world_mid_run
_S = keypair_from_label("S:10:alpha").address
_R = keypair_from_label("R:10:alpha").address


def _event(result=ct.CLOSE, ok=True, detail=None, chain_id="alpha", session_id="c0"):
    """A chain event as the chain sends it: c0 entered Close on alpha."""
    return ChainEvent(8, chain_id, 2, "Close", session_id, result, ok, detail)


# the event dict a chain sent before chain events were typed
_DICT_EVENT = {"tick": 8, "chain_id": "alpha", "block": 2, "tx_kind": "Close", "session_id": "c0",
               "result": "state:Close"}
_SHARE = ShareMsg("alpha", "c0", _S, vss.KeyShare(1, 1, 1), vss.DealingPublic(2, 3, 1, ()), b"", b"")
_PROOF = proofs.Proof(bytes(32))


def _exchange(**fields):
    """S's exchange to R on alpha, where R expects S's proof, with some
    fields replaced."""
    return replace(ExchangeMsg("alpha", "c0", _PROOF, _PUBLICS, _S), **fields)


def _tr(**fields):
    """A receipt from R to S in channel c0, with some fields replaced."""
    return replace(Receipt("c0", (), 1, _R, _S, 1), **fields)


def _sr(counterparty="x", **fields):
    """R's sub-channel receipt for _tr(**fields), unsigned."""
    return SubChannelReceipt(counterparty, _tr(**fields))


class Unbuilt(NamedTuple):
    """Message data that cannot be built: build() raises TypeError(error)
    for a field not of its declared type, so no actor ever receives it."""

    error: str
    build: Callable


@dataclass(frozen=True)
class _AlwaysValid(Receipt):
    """A receipt subclass whose signature check passes whatever it carries."""

    def verify_sig(self) -> bool:
        return True


class _HashRaises(str):
    """A str whose hash raises, as a dict lookup of it would."""

    def __hash__(self):
        raise RuntimeError("unhashable")


# (actor, message kind, sender, data): each names an unknown chain, claims a
# sender it does not have, or is not the class its kind declares, as in the
# dict form every message had before it was typed, or its data cannot be
# built (Unbuilt): it lacks a field (None in its place) or has one of the
# wrong type, at any depth
MALFORMED = {
    "receipt-empty": ("S", "receipt", "R", Unbuilt("mistyped ReceiptMsg.chain_id",
                                                   lambda: ReceiptMsg(None, None))),
    "receipt-int-tr": ("S", "receipt", "R", Unbuilt("mistyped ReceiptMsg.tr", lambda: ReceiptMsg("alpha", 5))),
    "receipt-unknown-chain": ("S", "receipt", "R", ReceiptMsg("gamma", _RECEIPT)),
    "receipt-dict": ("S", "receipt", "R", {"chain_id": "alpha", "tr": _RECEIPT}),
    "sr_request-no-tr": ("S", "sr_request", "R", Unbuilt(
        "mistyped SubChannelReceipt.receipt", lambda: SrMsg("alpha", SubChannelReceipt("x", None)))),
    "sr_request-dict": ("S", "sr_request", "R", {"chain_id": "alpha", "tr": _RECEIPT, "counterparty": "x"}),
    "sr_grant-int-sr": ("S", "sr_grant", "R", Unbuilt("mistyped SrMsg.sr", lambda: SrMsg("alpha", 1))),
    "sr_grant-dict": ("S", "sr_grant", "R", {"chain_id": "alpha", "sr": _sr()}),
    "subchannel_open-empty": ("S", "subchannel_open", "R", Unbuilt("mistyped SrMsg.chain_id",
                                                                   lambda: SrMsg(None, None))),
    "subchannel_open-dict": ("S", "subchannel_open", "R", {"chain_id": "alpha", "sr": _sr(_S)}),
    "exchange-no-session": ("S", "exchange", "R", Unbuilt(
        "mistyped ExchangeMsg.session_id", lambda: ExchangeMsg("alpha", None, _PROOF, _PUBLICS, "x"))),
    "exchange-dict": ("R", "exchange", "S", {"chain_id": "alpha", "session_id": "c0", "proof": _PROOF,
                                             "publics": _PUBLICS, "owner": _S}),
    "chain_event-empty": ("S", "chain_event", "alpha", Unbuilt("mistyped ChainEvent.tick",
                                                               lambda: ChainEvent(*[None] * 8))),
    "chain_event-forged": ("S", "chain_event", "R", _event()),
    "chain_event-dict": ("S", "chain_event", "alpha", _DICT_EVENT),
    "chain_event-wrapped": ("S", "chain_event", "alpha", {"chain_id": "alpha", "event": _event()}),
    "chain_event-other-chain": ("S", "chain_event", "alpha", _event(chain_id="beta")),
    # a party naming itself as the chain, which once raised at the side lookup
    "chain_event-party-as-chain": ("R", "chain_event", "S", _event(chain_id="S")),
    "wakeup-int-pump": ("S", "wakeup", "S", {"pump": 3}),
    "wakeup-short-force_close": ("S", "wakeup", "S", {"force_close": ["alpha"]}),
    "wakeup-foreign": ("S", "wakeup", "R", {"force_close": ["alpha", "c0"]}),
    "wakeup-unknown-timer": ("S", "wakeup", "S", Timer("assist", "alpha", "c0")),
    "wakeup-timer-foreign": ("S", "wakeup", "R", Timer("force_close", "alpha", "c0")),
    "wakeup-timer-unknown-chain": ("S", "wakeup", "S", Timer("pump", "gamma", "c0")),
    "miner-wakeup-dict": ("M.alpha.1", "wakeup", "M.alpha.1", {"assist": "c0"}),
    "miner-wakeup-other-chain": ("M.alpha.1", "wakeup", "M.alpha.1", Timer("assist", "beta", "c0")),
    "miner-wakeup-party-timer": ("M.alpha.1", "wakeup", "M.alpha.1", Timer("try_close", "alpha", "c0")),
    "miner-share-empty": ("M.alpha.1", "share", "S", Unbuilt("mistyped ShareMsg.chain_id",
                                                             lambda: ShareMsg(*[None] * 7))),
    "miner-share-other-chain": ("M.alpha.1", "share", "S", ShareMsg(
        "beta", "c0", "x", vss.KeyShare(1, 1, 1), vss.DealingPublic(2, 3, 1, ()), b"", b"")),
    "miner-share-dict": ("M.alpha.1", "share", "S", {
        "chain_id": "alpha", "session_id": "c0", "owner": _S, "share": vss.KeyShare(1, 1, 1),
        "dealing_pub": vss.DealingPublic(2, 3, 1, ()), "sn": b"", "sig": b""}),
    "miner-chain_event-empty": ("M.alpha.1", "chain_event", "alpha", Unbuilt(
        "mistyped ChainEvent.tick", lambda: ChainEvent(*[None] * 8))),
    "miner-chain_event-forged": ("M.alpha.1", "chain_event", "beta",
                                 _event(ct.SUCCESS, detail=ct.Unlocked(b"", _S))),
    "miner-chain_event-party-as-chain": ("M.alpha.1", "chain_event", "S",
                                         _event(ct.SUCCESS, detail=ct.Unlocked(b"x", None), chain_id="S")),
    "miner-chain_event-wrapped": ("M.alpha.1", "chain_event", "alpha", {
        "chain_id": "alpha", "event": _event(ct.SUCCESS, detail=ct.Unlocked(b"x", _S))}),
    # an ok chain event whose detail is not the record its result declares
    "chain_event-lock-no-record": ("R", "chain_event", "alpha", Unbuilt(
        "detail is not the record its result declares", lambda: _event(ct.LOCK))),
    "chain_event-bound-no-record": ("S", "chain_event", "alpha", Unbuilt(
        "detail is not the record its result declares", lambda: _event(ct.BINDINGS_PUBLISHED))),
    # a result that is not a string, which no record or handler table can key
    "chain_event-list-result": ("S", "chain_event", "alpha", Unbuilt(
        "mistyped ChainEvent.result", lambda: _event(result=["Close"]))),
    "miner-chain_event-success-dict": ("M.alpha.1", "chain_event", "alpha", Unbuilt(
        "mistyped ChainEvent.detail",
        lambda: _event(ct.SUCCESS, detail={"pre": b"x", "recover_owner": _S}))),
    # a session id that is not a string, which once raised at the session
    # lookup (or, as an int, made a party session keyed by it)
    "chain_event-list-session": ("S", "chain_event", "alpha", Unbuilt(
        "mistyped ChainEvent.session_id", lambda: _event(session_id=["c0"]))),
    "chain_event-dict-session": ("R", "chain_event", "alpha", Unbuilt(
        "mistyped ChainEvent.session_id", lambda: _event(ct.TERMINATED, session_id={}))),
    "chain_event-int-session": ("S", "chain_event", "alpha", Unbuilt(
        "mistyped ChainEvent.session_id", lambda: _event(session_id=5))),
    "miner-chain_event-list-session": ("M.alpha.1", "chain_event", "alpha", Unbuilt(
        "mistyped ChainEvent.session_id",
        lambda: _event(ct.SUCCESS, detail=ct.Unlocked(b"x", _S), session_id=["c0"]))),
    "miner-chain_event-dict-session": ("M.alpha.1", "chain_event", "beta", Unbuilt(
        "mistyped ChainEvent.session_id",
        lambda: _event(ct.SUCCESS, detail=ct.Unlocked(b"x", None), chain_id="beta", session_id={}))),
    "miner-chain_event-int-session": ("M.alpha.1", "chain_event", "alpha", Unbuilt(
        "mistyped ChainEvent.session_id",
        lambda: _event(ct.SUCCESS, detail=ct.Unlocked(b"x", _S), session_id=5))),
    # an event's record holding a field not of its declared type, which
    # once reached the handler reading it
    "chain_event-open-negative-deposit": ("S", "chain_event", "alpha", Unbuilt(
        "mistyped Opened.deposits", lambda: _event(ct.OPEN_CE, detail=ct.Opened({_S: -1})))),
    "chain_event-bound-tuple-binding": ("S", "chain_event", "alpha", Unbuilt(
        "mistyped Bound.bindings",
        lambda: _event(ct.BINDINGS_PUBLISHED, detail=ct.Bound(_S, b"", (("m", 1, b""),), 2, b"")))),
    "chain_event-bound-str-index": ("S", "chain_event", "alpha", Unbuilt(
        "mistyped Binding.index",
        lambda: _event(ct.BINDINGS_PUBLISHED, detail=ct.Bound(_S, b"", (ct.Binding("m", "1", b""),), 2, b"")))),
    "chain_event-lock-dict-h_pre": ("R", "chain_event", "alpha", Unbuilt(
        "mistyped Locked.h_pre", lambda: _event(ct.LOCK, detail=ct.Locked({})))),
    "miner-chain_event-str-pre": ("M.alpha.1", "chain_event", "alpha", Unbuilt(
        "mistyped Unlocked.pre", lambda: _event(ct.SUCCESS, detail=ct.Unlocked("x", _S)))),
    "miner-chain_event-int-owner": ("M.alpha.1", "chain_event", "alpha", Unbuilt(
        "mistyped Unlocked.recover_owner", lambda: _event(ct.SUCCESS, detail=ct.Unlocked(b"x", 5)))),
    "chain_event-int-shares": ("R", "chain_event", "alpha", Unbuilt(
        "mistyped Published.shares", lambda: _event(ct.SHARES_RECORDED, detail=ct.Published(_S, (1,))))),
    # signed values or key shares holding a mistyped field
    "receipt-list-session": ("S", "receipt", "R", Unbuilt(
        "mistyped Receipt.session_id", lambda: ReceiptMsg("alpha", _tr(session_id=["c0"])))),
    "receipt-list-path": ("S", "receipt", "R", Unbuilt(
        "mistyped Receipt.channel_path", lambda: ReceiptMsg("alpha", _tr(channel_path=[1])))),
    "receipt-str-seq": ("S", "receipt", "R", Unbuilt("mistyped Receipt.seq",
                                                     lambda: ReceiptMsg("alpha", _tr(seq="1")))),
    "receipt-str-amount": ("S", "receipt", "R", Unbuilt("mistyped Receipt.amount",
                                                        lambda: ReceiptMsg("alpha", _tr(amount="1")))),
    "receipt-bool-amount": ("S", "receipt", "R", Unbuilt("mistyped Receipt.amount",
                                                         lambda: ReceiptMsg("alpha", _tr(amount=True)))),
    "receipt-negative-amount": ("S", "receipt", "R", Unbuilt("mistyped Receipt.amount",
                                                             lambda: ReceiptMsg("alpha", _tr(amount=-1)))),
    "receipt-seq-above-u64": ("S", "receipt", "R", Unbuilt("mistyped Receipt.seq",
                                                           lambda: ReceiptMsg("alpha", _tr(seq=1 << 64)))),
    "sr_request-list-path": ("S", "sr_request", "R", Unbuilt(
        "mistyped Receipt.channel_path", lambda: SrMsg("alpha", _sr(channel_path=[1], snd=_S, rcv=_R)))),
    "sr_request-int-counterparty": ("S", "sr_request", "R", Unbuilt(
        "mistyped SubChannelReceipt.counterparty", lambda: SrMsg("alpha", _sr(5, snd=_S, rcv=_R)))),
    "sr_grant-int-receipt": ("S", "sr_grant", "R", Unbuilt(
        "mistyped SubChannelReceipt.receipt", lambda: SrMsg("alpha", SubChannelReceipt("x", 5)))),
    "subchannel_open-int-receipt": ("S", "subchannel_open", "R", Unbuilt(
        "mistyped SubChannelReceipt.receipt", lambda: SrMsg("alpha", SubChannelReceipt(_S, 5)))),
    "sr_grant-list-path-receipt": ("S", "sr_grant", "R", Unbuilt(
        "mistyped Receipt.channel_path", lambda: SrMsg("alpha", _sr(channel_path=[1])))),
    "miner-share-str-scalar": ("M.alpha.1", "share", "S", Unbuilt(
        "mistyped KeyShare.s", lambda: replace(_SHARE, share=vss.KeyShare(1, "s", 1)))),
    # an exchange R checks against S's key, each with a proof or input that
    # once raised out of the proof backend (the line it raised at)
    "exchange-str-t": ("R", "exchange", "S", Unbuilt(  # wire.enc_u64
        "mistyped RelationPublicInputs.t", lambda: _exchange(publics=replace(_PUBLICS, t="2")))),
    "exchange-int-h_m": ("R", "exchange", "S", Unbuilt(  # wire.enc_bytes
        "mistyped RelationPublicInputs.h_m", lambda: _exchange(publics=replace(_PUBLICS, h_m=5)))),
    "exchange-int-m_bar": ("R", "exchange", "S", Unbuilt(  # fields()
        "mistyped RelationPublicInputs.m_bar", lambda: _exchange(publics=replace(_PUBLICS, m_bar=5)))),
    "exchange-int-binding": ("R", "exchange", "S", Unbuilt(  # len(binding)
        "mistyped Proof.binding", lambda: _exchange(proof=proofs.Proof(5)))),
    # a dealing that once raised out of vss.verify_share
    "miner-share-str-e_sr": ("M.alpha.1", "share", "S", Unbuilt(
        "mistyped DealingPublic.e_sr",
        lambda: replace(_SHARE, dealing_pub=replace(_SHARE.dealing_pub, e_sr="x")))),
    "miner-share-str-commitment": ("M.alpha.1", "share", "S", Unbuilt(
        "mistyped DealingPublic.coeff_commitments",
        lambda: replace(_SHARE, dealing_pub=replace(_SHARE.dealing_pub, coeff_commitments=("x",))))),
    "miner-share-int-commitments": ("M.alpha.1", "share", "S", Unbuilt(
        "mistyped DealingPublic.coeff_commitments",
        lambda: replace(_SHARE, dealing_pub=replace(_SHARE.dealing_pub, coeff_commitments=5)))),
    # values that once passed every check and then were held or raised:
    # a receipt subclass a payee held as genuine, a chain id whose hash
    # raised at serves, and a counterparty UTF-8 cannot carry, which raised
    # where the payer signs it (sr_request) or the payee verifies it (sr_grant)
    "receipt-subclass": ("S", "receipt", "R", Unbuilt(
        "mistyped ReceiptMsg.tr",
        lambda: ReceiptMsg("alpha", _AlwaysValid("c0", (), 9, _R, _S, 40, bytes(64))))),
    "receipt-raising-hash-chain": ("S", "receipt", "R", Unbuilt(
        "mistyped ReceiptMsg.chain_id", lambda: ReceiptMsg(_HashRaises("alpha"), _RECEIPT))),
    "sr_request-surrogate-counterparty": ("R", "sr_request", "S", Unbuilt(
        "mistyped SubChannelReceipt.counterparty", lambda: SrMsg("alpha", _sr("\ud800", snd=_S, rcv=_R)))),
    "sr_grant-surrogate-counterparty": ("S", "sr_grant", "R", Unbuilt(
        "mistyped SubChannelReceipt.counterparty",
        lambda: SrMsg("alpha", SubChannelReceipt("\ud800", _tr(), bytes(64))))),
}


class TestMalformedMessages:
    """A malformed message never reaches a handler: one of the wrong class,
    for an unknown chain or from a false sender is dropped and counted by
    reason, and nothing raises and no state changes; one whose data would
    hold a field not of its declared type cannot be built at all."""

    @staticmethod
    def reject(probe) -> str:
        """The one reason the probe never reaches a handler: the reason its
        actor counts it under, or the error that refuses to build its data."""
        name, kind, src, data = MALFORMED[probe]
        if type(data) is Unbuilt:
            with pytest.raises(TypeError, match="^%s$" % re.escape(data.error)):
                data.build()
            return "%s: %s" % (kind, data.error)
        world = _eie_world_mid_run()
        actor = world.net.actors[name]
        before = _snapshot(world, actor)
        actor.on_message(world.net, Message(kind, src, name, data))
        assert _snapshot(world, actor) == before
        assert sum(actor.rejected.values()) == 1
        (reason,) = actor.rejected
        assert reason.startswith(kind + ": ")
        return reason

    @pytest.mark.parametrize("probe", MALFORMED)
    def test_dropped_and_counted(self, probe):
        self.reject(probe)

    @pytest.mark.parametrize("probe, reason", [
        # one chain rule for every actor: a party and a miner word it alike
        ("receipt-unknown-chain", "receipt: unknown chain"),
        ("miner-share-other-chain", "share: unknown chain"),
        ("wakeup-timer-unknown-chain", "wakeup: unknown chain"),
        ("miner-wakeup-other-chain", "wakeup: unknown chain"),
        ("chain_event-list-session", "chain_event: mistyped ChainEvent.session_id"),
        ("miner-chain_event-dict-session", "chain_event: mistyped ChainEvent.session_id"),
        # data that is not the class its kind declares, as in each kind's old dict form
        ("receipt-dict", "receipt: not of class ReceiptMsg"),
        ("sr_request-dict", "sr_request: not of class SrMsg"),
        ("sr_grant-dict", "sr_grant: not of class SrMsg"),
        ("subchannel_open-dict", "subchannel_open: not of class SrMsg"),
        ("exchange-dict", "exchange: not of class ExchangeMsg"),
        ("miner-share-dict", "share: not of class ShareMsg"),
        ("chain_event-wrapped", "chain_event: not of class ChainEvent"),
        ("miner-chain_event-wrapped", "chain_event: not of class ChainEvent"),
        ("wakeup-int-pump", "wakeup: not of class Timer"),
        ("chain_event-forged", "chain_event: not sent by the chain it names"),
        ("chain_event-party-as-chain", "chain_event: not sent by the chain it names"),
        # a missing field, and a mistyped value at any depth, named by the
        # class that refuses to be built with it
        ("receipt-empty", "receipt: mistyped ReceiptMsg.chain_id"),
        ("exchange-no-session", "exchange: mistyped ExchangeMsg.session_id"),
        ("receipt-list-session", "receipt: mistyped Receipt.session_id"),
        ("sr_request-no-tr", "sr_request: mistyped SubChannelReceipt.receipt"),
        ("sr_request-int-counterparty", "sr_request: mistyped SubChannelReceipt.counterparty"),
        ("miner-share-str-scalar", "share: mistyped KeyShare.s"),
        ("exchange-int-binding", "exchange: mistyped Proof.binding"),
        ("miner-share-int-commitments", "share: mistyped DealingPublic.coeff_commitments"),
        ("chain_event-lock-dict-h_pre", "chain_event: mistyped Locked.h_pre"),
        ("chain_event-bound-str-index", "chain_event: mistyped Binding.index"),
    ])
    def test_reason(self, probe, reason):
        assert self.reject(probe) == reason

    def test_mistyped_signed_value_rejected_on_every_arrival(self):
        """A signed value with a mistyped field cannot be built, neither
        directly nor as a changed copy of a genuine one, so it never
        arrives; a message of another class is counted on every arrival."""
        with pytest.raises(TypeError, match="^mistyped Receipt.amount$"):
            Receipt("c0", (), 1, _R, _S, "1")
        with pytest.raises(TypeError, match="^mistyped Receipt.amount$"):
            replace(_RECEIPT, amount="1")
        world = _eie_world_mid_run()
        party = world.parties["S"]
        for _ in range(3):
            party.on_message(world.net, Message("receipt", "R", "S", _RECEIPT))
        assert party.rejected == {"receipt: not of class ReceiptMsg": 3}

    def test_subclassed_receipt_is_neither_held_nor_settled(self):
        """A Receipt subclass whose signature check always passes reaches no
        payee and no settlement: a message or a close holds only receipts of
        exactly their class. A payee once held a 40-unit one, its balance
        going from 50 to 90, and a 90-unit one in a close settled deposits
        of 100/100 as 10/190."""
        a, b = keypair_from_label("fake:A"), keypair_from_label("fake:B")
        fake = _AlwaysValid("c0", (), 1, a.address, b.address, 90, bytes(64))
        assert fake.verify_sig()
        with pytest.raises(TypeError, match="^mistyped ReceiptMsg.tr$"):
            ReceiptMsg("alpha", fake)
        final = make_final_state(b, "c0", (), {a.address: 100, b.address: 100})
        with pytest.raises(TypeError, match="^mistyped ClosePayload.trs$"):
            ct.ClosePayload(final, (), (fake,))
        with pytest.raises(TypeError, match="^mistyped SubChannelReceipt.receipt$"):
            SubChannelReceipt("x", fake)

    # R's side on alpha holds S's upload and proof; each record below is one
    # the chain never sends there, as a replay out of its time or a record
    # it never built would carry
    UNSENT = {
        # R's own upload, though R dealt no key on alpha
        "bound-without-dealing": ct.Bound(_R, b"", (ct.Binding("m", 1, b""),), 2, b""),
        # S's key published below its threshold
        "published-no-shares": ct.Published(_S, ()),
        # two shares of no dealing of S's key
        "published-unrelated-shares": ct.Published(_S, (vss.KeyShare(1, 1, 1), vss.KeyShare(2, 1, 1))),
    }

    @pytest.mark.parametrize("probe", UNSENT)
    def test_record_the_chain_never_sent_raises_nothing(self, probe):
        detail = self.UNSENT[probe]
        result = ct.BINDINGS_PUBLISHED if type(detail) is ct.Bound else ct.SHARES_RECORDED
        world = _eie_world_mid_run()
        R = world.parties["R"]
        queued = world.net.in_flight
        R.on_message(world.net, Message("chain_event", "alpha", "R", _event(result, detail=detail)))
        assert world.net.in_flight == queued and not R.rejected
        unrecovered = None if type(detail) is ct.Bound else "recovered-key-hash-mismatch"
        assert R.side("alpha", "c0").mismatch == unrecovered

    def test_share_of_another_dealing_is_appealed(self):
        """S signs the share at a miner's index from a second dealing of the
        same key and sends it with that dealing's commitments. The share
        checks out against them, so only S's bound hash tells the dealings
        apart: the miner appeals the share and keeps the one it stored."""
        world = _eie_world_mid_run()
        S = world.parties["S"]
        exchange = S.sessions["c0"].sides["alpha"].exchange
        bound = world.alpha.contract.sessions["c0"].uploads[_S]
        binding = bound.bindings[0]
        miner = world.net.actors[S.directory[binding.miner]]
        stored = miner.stored[("c0", _S)]
        other = vss.share(exchange.key, exchange.t, exchange.n, random.Random(1), DEFAULT_GROUP)
        ks = other.shares[binding.index - 1]
        assert vss.verify_share(ks, other.public, DEFAULT_GROUP) and ks != stored.share
        sig = S.keys["alpha"].sign(vss.share_message_bytes(ks, bound.sn))
        queued = {m.seq for m in world.net.queued()}
        miner.on_message(world.net, Message("share", "S", miner.name,
                                            ShareMsg("alpha", "c0", _S, ks, other.public, bound.sn, sig)))
        (sent,) = [m for m in world.net.queued() if m.seq not in queued]
        assert (sent.kind, sent.src, sent.data.kind) == ("tx", miner.name, ct.APPEAL_TX)
        assert sent.data.payload == ct.AppealPayload(owner_sig=sig, share=ks, sn=bound.sn)
        assert miner.stored[("c0", _S)] is stored

    def test_failed_event_inert(self):
        """A failed transaction's event whose result names a state and a
        handler neither records the state nor runs the handler."""
        world = _eie_world_mid_run()
        party = world.parties["S"]
        before = _snapshot(world, party)
        party.on_message(world.net, Message("chain_event", "alpha", "S", _event(ok=False)))
        assert _snapshot(world, party) == before
        assert not party.rejected

    def test_ok_events_carry_declared_records(self):
        """In an EIE run with share recovery, every ok chain event's detail
        is the record its result declares, or None for any other result."""
        cfg = ScenarioConfig(mode="EIE", receipts_n=2, seed=15, vss_t=2, vss_n=3, byzantine_ell=1,
                             byzantine_miners=1)
        world = build_world(cfg)
        events = []
        for chain in (world.alpha, world.beta):
            def produce(tick, produce_block=chain.produce_block):
                block_events = produce_block(tick)
                events.extend(block_events)
                return block_events
            chain.produce_block = produce
        start_sessions(world)
        world.net.run_until(max_tick=cfg.max_ticks)
        declared = {ct.OPEN_CE: ct.Opened, ct.BINDINGS_PUBLISHED: ct.Bound, ct.LOCK: ct.Locked,
                    ct.SUCCESS: ct.Unlocked, ct.SHARES_RECORDED: (ct.Published, type(None))}
        for ev in events:
            assert isinstance(ev.detail, declared.get(ev.result, type(None)) if ev.ok else type(None)), ev
            if isinstance(ev.detail, ct.Bound):
                session = world.net.actors[ev.chain_id].chain.read_session(ev.session_id)
                assert session.uploads[ev.detail.owner] is ev.detail
                assert all(type(b) is ct.Binding for b in ev.detail.bindings)
        kinds = {type(ev.detail) for ev in events}
        assert kinds >= {ct.Opened, ct.Bound, ct.Locked, ct.Unlocked, ct.Published}
        # each checks its declared field types when it is built
        assert all(issubclass(cls, Checked) for cls in kinds - {type(None)} | {ChainEvent, ct.Binding})
        # the run recovered keys: an UpdateEIE named an owner, and shares published
        assert any(isinstance(ev.detail, ct.Unlocked) and ev.detail.recover_owner for ev in events)
        assert all(len(ev.detail.shares) == cfg.vss_t for ev in events if isinstance(ev.detail, ct.Published))
        for actor in world.net.actors.values():
            assert not getattr(actor, "rejected", None)

    def test_well_formed_messages_not_counted(self):
        world = _eie_world_mid_run()
        world.net.run_until(max_tick=world.config.max_ticks)
        for actor in world.net.actors.values():
            assert not getattr(actor, "rejected", None)

    def test_event_for_an_unjoined_session_makes_no_state(self):
        """A chain event for a session a party never joined is ignored: an
        outsider's opens once gave S and R a session, and a side per chain,
        for each of its sessions."""
        cfg = ScenarioConfig(receipts_n=4, seed=3)
        world = build_world(cfg)
        outsider = keypair_from_label("outsider")
        world.alpha.create_account(outsider.address, 1000)
        start_sessions(world)
        for i in range(3):
            tx = ct.make_tx(outsider, "alpha", "zzz%d" % i, ct.OPEN_TX, ct.OpenPayload(10))
            world.net.send("tx", "outsider", "alpha", tx)
        world.net.run_until(lambda: world.net.now >= 6, max_tick=6)
        assert world.alpha.read_session("zzz2").state == ct.INIT
        for name in ("S", "R"):
            assert list(world.parties[name].sessions) == ["c0"]

    def test_subchannel_open_for_an_unjoined_session_makes_no_state(self):
        """A sub-channel open for a session the party never joined is
        ignored: a stranger signing its own receipt and authorization, with
        the party as counterparty, once gave the party a session for each."""
        world = build_world(ScenarioConfig(receipts_n=4, seed=3))
        S, stranger = world.parties["S"], keypair_from_label("stranger")
        for i in range(3):
            tr = make_receipt(stranger, "zzz%d" % i, (), 1, stranger.address, 1)
            sr = make_sub_receipt(stranger, S.address("alpha"), tr)
            S.on_message(world.net, Message("subchannel_open", "stranger", "S", SrMsg("alpha", sr)))
        assert list(S.sessions) == ["c0"]


def _pending_timers(world) -> list:
    """(actor name, data) of every wakeup world's network holds; each must
    be one hashable Timer for a session and a chain its actor serves."""
    out = []
    for msg in world.net.queued():
        if msg.kind == "wakeup":
            assert type(msg.data) is Timer
            hash(msg.data)
            assert msg.data.session_id in sessions(world.net)
            assert world.net.actors[msg.dst].serves(msg.data.chain_id)
            out.append((msg.dst, msg.data))
    return out


class TestTimers:
    def test_pending_wakeups_are_timers(self):
        world = _eie_world_mid_run()
        kinds = {timer.kind for _name, timer in _pending_timers(world)}
        assert kinds == {"try_close", "force_close"}

    def test_sub_channel_pumps_carry_tuple_paths(self):
        """A three-level CE run sets a pump timer per channel path, each
        path a tuple, on the way to settling both chains."""
        cfg = ScenarioConfig(receipts_n=4, seed=3, levels=3, sub_funding=(40, 15), sub_receipts=(5, 3))
        world = build_world(cfg)
        start_sessions(world)
        pumps = set()
        for tick in range(1, 60):
            world.net.run_until(lambda: world.net.now >= tick, max_tick=tick)
            pumps |= {(name, timer.path) for name, timer in _pending_timers(world) if timer.kind == "pump"}
        assert pumps == {("S", ()), ("R", ()), ("R", (1,)), ("D", (1, 1))}


class TestReplays:
    """A replayed message leaves what its first delivery settled as it is."""

    LEVELS = ScenarioConfig(receipts_n=4, seed=3, levels=2, sub_funding=(40,), sub_receipts=(5,))

    @staticmethod
    def world_at(tick, cfg, name):
        """cfg's world with its opens submitted, run to tick, and every
        message the party name received on the way."""
        world = build_world(cfg)
        party, got = world.parties[name], []

        def on_message(net, msg, deliver=party.on_message):
            got.append(msg)
            deliver(net, msg)
        party.on_message = on_message
        start_sessions(world)
        world.net.run_until(lambda: world.net.now >= tick, max_tick=tick)
        return world, got

    def test_replayed_subchannel_open_keeps_the_view(self):
        world, got = self.world_at(11, self.LEVELS, "D")
        D = world.parties["D"]
        side, me = D.side("alpha", "c0"), D.address("alpha")
        view = side.views[(1,)]
        assert len(view.receipts) == 5 and view.balances()[me] == 5
        (msg,) = [m for m in got if m.kind == "subchannel_open"]
        D.on_message(world.net, msg)
        assert side.views[(1,)] is view
        assert len(view.receipts) == 5 and view.balances()[me] == 5 == side.received[(1,)]

    def test_replayed_sr_grant_keeps_both_views(self):
        world, got = self.world_at(11, self.LEVELS, "R")
        R, D = world.parties["R"], world.parties["D"]
        views = {p: p.side("alpha", "c0").views[(1,)] for p in (R, D)}
        srs = list(R.side("alpha", "c0").views[()].srs)
        (msg,) = [m for m in got if m.kind == "sr_grant"]
        R.on_message(world.net, msg)
        world.net.run_until(lambda: world.net.now >= 14, max_tick=14)
        for p, view in views.items():
            assert p.side("alpha", "c0").views[(1,)] is view
        assert len(views[D].receipts) == 5 and views[D].balances()[D.address("alpha")] == 5
        assert R.side("alpha", "c0").views[()].srs == srs

    def test_late_exchange_leaves_a_verified_proof(self):
        """Once the counterpart's proof verified, a later exchange with a
        bad proof, from a stranger or from the counterpart, changes
        nothing: the run pays every receipt."""
        cfg = ScenarioConfig(mode="EIE", receipts_n=40, seed=10)
        world, got = self.world_at(8, cfg, "R")
        R = world.parties["R"]
        side = R.side("alpha", "c0")
        assert side.proof_ok is True
        (msg,) = [m for m in got if m.kind == "exchange"]
        bad = replace(msg.data, proof=proofs.Proof(bytes(32)))
        for src in ("nobody", msg.src):
            R.on_message(world.net, Message("exchange", src, "R", bad))
        assert side.proof_ok is True and not R.sessions["c0"].aborted
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        assert collect_metrics(world).receipts_processed == 40
