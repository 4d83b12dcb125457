"""Chain mechanics: mempool admission, block determinism, conservation,
committed-only reads."""

import pytest

from oracles import reference_enc_value
from xchan import contract as ct
from xchan import vss
from xchan.chain import Chain, ChainEvent, TimerConfig
from xchan.scenario import ScenarioConfig, run_scenario
from xchan.wire import enc_value
from xchan.crypto import keypair_from_label
from xchan.receipts import FinalState, Receipt, make_final_state

S = keypair_from_label("chain:S")
R = keypair_from_label("chain:R")


def new_chain(chain_id="alpha", interval=3):
    c = Chain(chain_id, interval, TimerConfig(6, 6, 10, 20))
    c.create_account(S.address, 500)
    c.create_account(R.address, 500)
    return c


def list_path_receipt():
    return Receipt("c0", [], 1, S.address, R.address, 1).signed_by(S)


def open_tx(kp, chain_id="alpha", sid="c0", v=100):
    return ct.make_tx(kp, chain_id, sid, ct.OPEN_TX, ct.OpenPayload(v))


class TestSubmit:
    def test_valid_tx_queued_and_included(self):
        c = new_chain()
        ok, why = c.submit_tx(open_tx(S))
        assert ok
        events = c.produce_block(3)
        assert events[0].tx_kind == ct.OPEN_TX
        assert len(c.blocks) == 1

    def test_forged_signature_rejected(self):
        from dataclasses import replace

        c = new_chain()
        tx = open_tx(S)
        bad = replace(tx, sig=bytes(64))
        ok, why = c.submit_tx(bad)
        assert not ok and why == "bad signature"
        assert c.mempool == []

    def test_unknown_sender_rejected(self):
        c = new_chain()
        stranger = keypair_from_label("chain:stranger")
        ok, why = c.submit_tx(open_tx(stranger))
        assert not ok and why == "unknown sender"

    def test_wrong_chain_rejected(self):
        c = new_chain()
        ok, why = c.submit_tx(open_tx(S, chain_id="beta"))
        assert not ok and why == "wrong chain"

    def test_unknown_kind_rejected(self):
        c = new_chain()
        tx = ct.make_tx(S, "alpha", "c0", "Bogus", ct.OpenPayload(1))
        ok, why = c.submit_tx(tx)
        assert not ok and why == "unknown kind"
        # payload type must match the declared kind
        tx2 = ct.make_tx(S, "alpha", "c0", ct.LOCK_TX, ct.OpenPayload(1))
        ok, why = c.submit_tx(tx2)
        assert not ok and why == "unknown kind"

    @pytest.mark.parametrize(
        "build, field",
        [
            # a balance the unsigned encoding cannot carry
            (lambda: FinalState("c0", (), {S.address: -1}, S.address, bytes(64)), "FinalState.balances"),
            # a threshold of the wrong type
            (lambda: ct.UploadPayload(h_k=bytes(32), n=1, t="1", share_hashes=(bytes(32),)),
             "UploadPayload.t"),
            # a receipt whose path is a list
            (list_path_receipt, "Receipt.channel_path"),
            # bool is not an int
            (lambda: ct.OpenPayload(True), "OpenPayload.amount"),
            # a key share scalar of the wrong type
            (lambda: ct.RecoverPayload(share=vss.KeyShare(1, "1", 1)), "KeyShare.s"),
            # an address UTF-8 cannot carry (a lone surrogate)
            (lambda: FinalState("c0", (), {"\ud800": 1}, S.address, bytes(64)), "FinalState.balances"),
            # balances that are no mapping, which once raised ValueError from the copy
            (lambda: FinalState("c0", (), ("",), S.address, bytes(64)), "FinalState.balances"),
        ],
        ids=["negative-balance", "str-threshold", "list-path", "bool-amount", "str-scalar",
             "surrogate-address", "tuple-balances"],
    )
    def test_malformed_payload_rejected(self, build, field):
        """A payload part with a field not of its declared type cannot be
        built, so no transaction carries it to the chain."""
        with pytest.raises(TypeError, match="^mistyped %s$" % field):
            build()

    def test_mistyped_close_rejected_before_settlement(self):
        """No close carries a receipt with a list path, which settlement
        would key a dict by, nor a payload of no declared class: neither
        can be built, and the session stays open."""
        c = new_chain()
        c.submit_tx(open_tx(S))
        c.submit_tx(open_tx(R))
        c.produce_block(3)
        with pytest.raises(TypeError, match="^mistyped Receipt.channel_path$"):
            list_path_receipt()
        for kp in (S, R):
            payload = {"final": make_final_state(kp, "c0", (), {}), "srs": (), "trs": ()}
            with pytest.raises(TypeError, match="^mistyped OnChainTx.payload$"):
                ct.make_tx(kp, "alpha", "c0", ct.CLOSE_TX, payload)
        for tick in range(6, 6 + 3 * c.timers.close_window, 3):
            c.produce_block(tick)
        assert c.read_session("c0").state == ct.OPEN_CE

    def test_submission_order_preserved(self):
        """One block yields a note, a state and a failure, in submission
        order; the trace renders each with the same keys in the same order
        and no detail."""
        c = new_chain()
        c.submit_tx(open_tx(S))
        c.submit_tx(open_tx(R))
        c.submit_tx(open_tx(S, v=50))
        events = c.produce_block(3)
        assert [(e.ok, e.result, e.state) for e in events] == [
            (True, "open pending", None), (True, ct.OPEN_CE, ct.OPEN_CE), (False, "duplicate open", None)]
        head = {"tick": 3, "chain_id": "alpha", "block": 1, "tx_kind": "Open", "session_id": "c0"}
        assert [list(e.trace_entry().items()) for e in events] == [
            list((head | {"result": result}).items())
            for result in ("open pending", "state:Open_CE", "failed:duplicate open")]


class TestBlocks:
    def test_empty_block_increments_height(self):
        c = new_chain()
        events = c.produce_block(3)
        assert events == []
        assert len(c.blocks) == 1

    def test_identical_submissions_identical_hashes(self):
        def run():
            c = new_chain()
            c.submit_tx(open_tx(S))
            c.submit_tx(open_tx(R))
            c.produce_block(3)
            c.produce_block(6)
            return list(c.blocks)

        assert run() == run()
        # the canonical block encoding is pinned byte for byte
        assert [h.hex() for h in run()] == [
            "01fe2f94397c013c5b57d22294e376de6d47b42d660416491f398c32ebb7abeb",
            "6e520892ea4a64f4062f8ca0c1402aef3506aa112213b5b8f8cbc3ca1f88677e",
        ]

    def test_conservation_every_block(self):
        c = new_chain()
        total = c.total_value()
        c.submit_tx(open_tx(S))
        c.submit_tx(open_tx(R))
        c.produce_block(3)
        assert c.total_value() == total
        assert c.balance(S.address) == 400
        assert c.contract.sessions["c0"].escrow == 200

    def test_failed_tx_included_but_stateless(self):
        c = new_chain()
        c.submit_tx(open_tx(S, v=10_000))  # more than the balance
        events = c.produce_block(3)
        assert not events[0].ok
        assert c.balance(S.address) == 500
        empty = new_chain()
        empty.produce_block(3)
        assert c.blocks[-1] != empty.blocks[-1]  # the block holds the tx


    def test_committed_counts_transactions_that_did_not_fail(self):
        c = new_chain()
        c.submit_tx(open_tx(S))
        c.submit_tx(open_tx(R, v=10_000))  # more than the balance: fails
        c.produce_block(3)
        c.submit_tx(open_tx(R))
        c.produce_block(6)
        assert c.committed == {ct.OPEN_TX: 2}


class TestReads:
    def test_unconfirmed_state_invisible(self):
        c = new_chain()
        c.submit_tx(open_tx(S))
        c.submit_tx(open_tx(R))
        assert c.read_session("c0") is None
        c.produce_block(3)
        assert c.read_session("c0").state == ct.OPEN_CE

    def test_queries(self):
        c = new_chain()
        assert c.accounts[S.address] == 500
        assert c.read_session("c0") is None and len(c.blocks) == 0
        c.submit_tx(open_tx(S))
        c.submit_tx(open_tx(R))
        c.produce_block(3)
        assert c.accounts[S.address] == 400
        assert c.read_session("c0").state == ct.OPEN_CE and len(c.blocks) == 1

    def test_miner_selection_deterministic(self):
        c = new_chain()
        for i in range(10):
            c.register_miner(keypair_from_label("chain:m%d" % i).address)
        a = c.pick_miners(4, b"seed-bytes")
        b = c.pick_miners(4, b"seed-bytes")
        assert a == b and len(set(a)) == 4
        assert c.pick_miners(4, b"other-seed") != a


class TestChainEvent:
    ARGS = dict(tick=8, chain_id="alpha", block=2, tx_kind="Close", session_id="c0", result=ct.CLOSE,
                ok=True, detail=None)

    @pytest.mark.parametrize("field", ["tick", "block"])
    @pytest.mark.parametrize("value", [-5, 2**80])
    def test_tick_and_height_are_u64(self, field, value):
        ChainEvent(**self.ARGS)
        with pytest.raises(TypeError, match="^mistyped ChainEvent.%s$" % field):
            ChainEvent(**{**self.ARGS, field: value})

    def test_every_event_of_an_eie_run_has_a_byte_form(self, monkeypatch):
        """Every event a seeded EIE run produces, each detail record
        included, encodes by its declared types as the reference walk does."""
        events, produce = [], Chain.produce_block

        def recorded(chain, tick):
            out = produce(chain, tick)
            events.extend(out)
            return out

        monkeypatch.setattr(Chain, "produce_block", recorded)
        metrics, _ = run_scenario(ScenarioConfig(mode="EIE", receipts_n=4, seed=93))
        assert metrics.invariants_ok
        records = {ct.Opened, ct.Bound, ct.Locked, ct.Unlocked, ct.Published}
        assert {type(e.detail) for e in events} == records | {type(None)}
        for e in events:
            assert enc_value(e) == reference_enc_value(e)

    def test_ok_encodes_as_one_flag_byte(self):
        failed = ChainEvent(**{**self.ARGS, "result": "duplicate open", "ok": False})
        for event, flag in ((ChainEvent(**self.ARGS), b"\x01"), (failed, b"\x00")):
            assert enc_value(event, stop="detail")[-1:] == flag
            assert enc_value(event) == reference_enc_value(event)
