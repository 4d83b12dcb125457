"""End-to-end scenario runs: happy paths per mode, adversarial
deviations, miner assist, and replay determinism."""

import gc
import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from xchan import contract as ct
from xchan import receipts, scenario, vss
from xchan.atomicity import PROFILES, build_close_phase_world, enumerate_close_phase, outcome_of
from xchan.crypto import hash_blocks, hash_bytes
from xchan.engine import Miner, MinerBehavior
from xchan.scenario import (
    ConfigError,
    ScenarioConfig,
    build_world,
    collect_metrics,
    run_scenario,
    settled,
    start_sessions,
    trace_bytes,
)
from oracles import pedersen_two_pow


def planned_transfer(world, chain):
    """Sum of the workload amounts planned on one chain (root channels)."""
    total = 0
    for p in world.parties.values():
        for ps in p.sessions.values():
            plan = ps.sides[chain].plans.get(())
            if plan is not None:
                total += sum(plan.amounts)
    return total


class TestCurrencyExchange:
    def test_happy_path_swaps_balances(self):
        cfg = ScenarioConfig(mode="CE", receipts_n=8, seed=11)
        world = build_world(cfg)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        S, R = world.parties["S"], world.parties["R"]
        w_alpha = planned_transfer(world, "alpha")
        w_beta = planned_transfer(world, "beta")
        assert w_alpha > 0 and w_beta > 0
        assert world.alpha.balance(S.address("alpha")) == cfg.funding - w_alpha
        assert world.alpha.balance(R.address("alpha")) == cfg.funding + w_alpha
        assert world.beta.balance(S.address("beta")) == cfg.funding + w_beta
        assert world.beta.balance(R.address("beta")) == cfg.funding - w_beta

    def test_constant_onchain_cost(self):
        counts = []
        for n in (1, 16):
            metrics, _ = run_scenario(ScenarioConfig(mode="CE", receipts_n=n, seed=2))
            assert metrics.invariants_ok
            counts.append(metrics.total_txs())
        assert counts[0] == counts[1] == 12

    def test_tx_counts_match_the_trace(self):
        """The metrics count every transaction the trace shows committed
        and none it shows failed, without reading the trace."""
        cfg = ScenarioConfig(mode="CE", receipts_n=4, seed=3, latency={"kind": "uniform", "lo": 1, "hi": 6})
        world = build_world(cfg)
        start_sessions(world)
        trace = world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        world.net.trace = []
        metrics = collect_metrics(world)
        committed, failed = {}, 0
        for e in trace:
            if e.get("tx_kind") in ct.ChannelContract.HANDLERS and "result" in e:
                if e["result"].startswith("failed:"):
                    failed += 1
                else:
                    committed[e["tx_kind"]] = committed.get(e["tx_kind"], 0) + 1
        assert failed > 0
        assert metrics.onchain_tx_count == committed

    def test_withhold_pre_refunds_both(self):
        cfg = ScenarioConfig(mode="CE", receipts_n=4, seed=3, adversary={"S": ["withhold_pre"]})
        metrics, _ = run_scenario(cfg)
        assert metrics.outcomes == {"alpha:c0": ct.REFUNDED, "beta:c0": ct.REFUNDED}

    def test_overspend_neutralized_at_settlement(self):
        cfg = ScenarioConfig(mode="CE", receipts_n=4, seed=5, adversary={"S": ["overspend"]})
        world = build_world(cfg)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        S = world.parties["S"]
        w_alpha = planned_transfer(world, "alpha")
        # the forced extra receipt beyond the whole funding is excluded
        assert world.alpha.balance(S.address("alpha")) == cfg.funding - w_alpha
        total = sum(world.alpha.accounts.values())
        assert total == sum(a for a in world.alpha.accounts.values())
        assert world.alpha.contract.sessions["c0"].state == ct.SUCCESS

    def test_inflated_final_state_ignored(self):
        base = ScenarioConfig(mode="CE", receipts_n=4, seed=6)
        cheat = ScenarioConfig(mode="CE", receipts_n=4, seed=6,
                               adversary={"R": ["inflate_final_state"]})
        honest_metrics, _ = run_scenario(base)
        cheat_metrics, _ = run_scenario(cheat)
        assert honest_metrics.outcomes == cheat_metrics.outcomes
        w1 = build_world(base)
        w2 = build_world(cheat)
        for world in (w1, w2):
            start_sessions(world)
            world.net.run_until(lambda: settled(world.net), max_tick=base.max_ticks)
        assert (
            w1.alpha.contract.sessions["c0"].locked_allocations
            == w2.alpha.contract.sessions["c0"].locked_allocations
        )

    def test_duplicate_sub_authorization_fails_level(self):
        # the payer of the funding receipt (S on alpha) issues the
        # authorizations, so the duplicate comes from S
        cfg = ScenarioConfig(
            mode="CE", receipts_n=4, seed=7, levels=2, sub_funding=(20,), sub_receipts=(2,),
            adversary={"S": ["duplicate_sr"]},
        )
        world = build_world(cfg)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        s = world.alpha.contract.sessions["c0"]
        assert s.state == ct.SUCCESS
        assert s.settle_cutoff == 1
        D = world.parties["D"]
        assert world.alpha.balance(D.address("alpha")) == 0  # discarded level

    def test_refuse_close_leaves_channel_open(self):
        # closing needs both root parties; a refusing counterpart parks
        # the channel (a known liveness gap of the mutual-close design)
        cfg = ScenarioConfig(mode="CE", receipts_n=2, seed=16, max_ticks=250,
                             adversary={"R": ["refuse_close"]})
        metrics, _ = run_scenario(cfg)
        assert metrics.outcomes["alpha:c0"] in (ct.OPEN_CE, ct.OPEN)
        assert not metrics.invariants_ok

    def test_hierarchy_settles_all_levels(self):
        cfg = ScenarioConfig(
            mode="CE", receipts_n=4, seed=8, levels=3, sub_funding=(30, 10), sub_receipts=(3, 2)
        )
        world = build_world(cfg)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        s = world.alpha.contract.sessions["c0"]
        assert s.state == ct.SUCCESS and s.settle_cutoff is None
        D, Q = world.parties["D"], world.parties["Q"]
        # D earned 3 one-unit receipts in the middle channel and kept
        # 10 - 2 of the leaf channel it funded
        assert world.alpha.balance(Q.address("alpha")) == 2
        assert world.alpha.balance(D.address("alpha")) == 3 + (10 - 2)


class TestFairExchange:
    def test_fe_receiver_decrypts_with_preimage(self):
        cfg = ScenarioConfig(mode="FE", receipts_n=4, seed=9)
        world = build_world(cfg)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        S, R = world.parties["S"], world.parties["R"]
        blocks = R.side("alpha", "c0").recovered
        assert blocks == S.side("alpha", "c0").exchange.m_blocks
        x = R.side("alpha", "c0").counterpart_publics
        assert hash_blocks(blocks) == x.h_m

    def test_eie_both_sides_recover(self):
        cfg = ScenarioConfig(mode="EIE", receipts_n=4, seed=10)
        world = build_world(cfg)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        S, R = world.parties["S"], world.parties["R"]
        assert R.side("alpha", "c0").recovered == S.side("alpha", "c0").exchange.m_blocks
        assert S.side("beta", "c0").recovered == R.side("beta", "c0").exchange.m_blocks
        assert all(side.mismatch is None for p in (S, R) for side in p.sessions["c0"].sides.values())

    def test_fake_key_share_terminates_and_returns_deposits(self):
        cfg = ScenarioConfig(mode="EIE", receipts_n=0, seed=12,
                             adversary={"S": ["fake_key_share"]})
        world = build_world(cfg)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        s = world.alpha.contract.sessions["c0"]
        assert s.state == ct.TERMINATED
        # terminated inside the report window
        term_tick = next(t for frm, to, t in s.transitions if to == ct.TERMINATED)
        assert term_tick <= s.appeal_deadline
        for name in ("S", "R"):
            p = world.parties[name]
            assert world.alpha.balance(p.address("alpha")) == cfg.funding
            assert world.beta.balance(p.address("beta")) == cfg.funding

    def test_invalid_proof_aborts_before_any_payment(self):
        class CorruptingBackend:
            """Emits proofs whose binding bytes are garbage."""

            def __init__(self, inner):
                self.inner = inner

            def prove(self, key, w, x):
                p = self.inner.prove(key, w, x)
                return replace_proof(p)

            def verify(self, key, x, proof):
                return self.inner.verify(key, x, proof)

        def replace_proof(p):
            from dataclasses import replace as dc
            return dc(p, binding=bytes(32))

        cfg = ScenarioConfig(mode="EIE", receipts_n=4, seed=14)
        world = build_world(cfg)
        R = world.parties["R"]
        R.backend = CorruptingBackend(R.backend)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        S = world.parties["S"]
        assert S.side("beta", "c0").proof_ok is False
        # the honest side paid nothing: its receipt pump never started
        alpha_plan = S.side("alpha", "c0").plans[()]
        assert alpha_plan.sent == 0
        for name in ("S", "R"):
            p = world.parties[name]
            assert world.alpha.balance(p.address("alpha")) == cfg.funding
        assert world.beta.balance(S.address("beta")) >= cfg.funding
        assert scenario.terminal(scenario.session_states(world.net, "c0"))
        for chain in (world.alpha, world.beta):
            total = sum(chain.accounts.values())
            assert total == 2 * cfg.funding

    def test_fe_preimage_that_is_no_key_is_a_mismatch(self):
        """In FE the revealed preimage is R's decryption key. S reveals a
        33-byte one: it unlocks both chains but decrypts nothing, and R
        records the mismatch instead of raising out of the run."""
        cfg = ScenarioConfig(mode="FE", receipts_n=2, seed=1, max_ticks=60)
        world = build_world(cfg)
        ps = world.parties["S"].sessions["c0"]
        ps.pre = bytes(33)
        ps.h_pre = hash_bytes(ps.pre)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        assert collect_metrics(world).outcomes == {"alpha:c0": ct.SUCCESS, "beta:c0": ct.SUCCESS}
        R = world.parties["R"]
        assert {c: side.mismatch for c, side in R.sessions["c0"].sides.items()} == {
            "alpha": "plaintext-hash-mismatch", "beta": None}
        assert R.side("alpha", "c0").recovered is None

    def test_fe_run_stops_once_the_payee_records_a_mismatch(self, monkeypatch):
        """The same 33-byte preimage in a whole run: once R has recorded the
        mismatch nothing is left to wait for, so the run ends soon after both
        chains do, and its invariants fail because R recovered nothing."""
        build = scenario.build_world

        def no_key_preimage(cfg):
            world = build(cfg)
            ps = world.parties["S"].sessions["c0"]
            ps.pre = bytes(33)
            ps.h_pre = hash_bytes(ps.pre)
            return world

        monkeypatch.setattr(scenario, "build_world", no_key_preimage)
        cfg = ScenarioConfig(mode="FE", receipts_n=2, seed=1)
        assert cfg.max_ticks == 4000
        metrics, _ = run_scenario(cfg)
        assert metrics.outcomes == {"alpha:c0": ct.SUCCESS, "beta:c0": ct.SUCCESS}
        assert metrics.ticks_elapsed < 100
        assert metrics.invariants_ok is False

    def test_byzantine_withholders_cannot_block_recovery(self):
        # one withholding miner per chain; n >= t + ell keeps recovery alive
        cfg = ScenarioConfig(mode="EIE", receipts_n=2, seed=15,
                             vss_t=2, vss_n=3, byzantine_ell=1,
                             byzantine_miners=1)
        world = build_world(cfg)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        S, R = world.parties["S"], world.parties["R"]
        assert R.side("alpha", "c0").recovered == S.side("alpha", "c0").exchange.m_blocks
        assert S.side("beta", "c0").recovered == R.side("beta", "c0").exchange.m_blocks

    def test_stale_serial_replay_rejected_sessions_proceed(self):
        cfg = ScenarioConfig(mode="EIE", receipts_n=2, seed=13, channels=2,
                             vss_t=2, vss_n=4, byzantine_ell=1)
        world = build_world(cfg)
        # one alpha miner replays previously-stored shares into new sessions
        replayer = world.net.actors["M.alpha.1"]
        replayer.behavior = MinerBehavior(stale_sn_replay=True)
        start_sessions(world)
        world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        stale = [
            e for e in world.net.trace
            if e.get("tx_kind") == ct.APPEAL_TX and e.get("result") == "failed:stale serial number"
        ]
        assert stale, "the replayed appeal must surface and be rejected"
        states = [scenario.session_states(world.net, sid) for sid in scenario.sessions(world.net)]
        assert states == [(ct.SUCCESS, ct.SUCCESS)] * cfg.channels


class TestMinerAssist:
    def test_delayed_relay_saved_by_miner(self):
        net = build_close_phase_world("delay_r", assist_enabled=True, seed=4, mode="run")
        net.run_until(lambda: outcome_of(net) is not None, max_tick=200)
        assert outcome_of(net) == (ct.SUCCESS, ct.SUCCESS)
        alpha = net.chains[0]
        miner_balance = alpha.balance(net.actors["M"].kp.address)
        assert miner_balance == alpha.contract.sessions["c0"].assist_reward_paid
        assert miner_balance > 0

    def test_eie_assist_names_the_key_to_recover(self):
        """R mirrors S's lock onto alpha 30 ticks late, so alpha's miners,
        which saw the preimage revealed on beta, unlock alpha with an
        UpdateEIE that names S's key. The first miner's UpdateEIE commits at
        tick 124 and earns the reward, and R still recovers S's plaintext."""
        late = {"kind": "fixed", "fixed": 1, "overrides": [{"src": "R", "dst": "alpha", "fixed": 30}]}
        cfg = ScenarioConfig(mode="EIE", seed=1, receipts_n=4, latency=late)
        world = build_world(cfg)
        start_sessions(world)
        trace = world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
        assert collect_metrics(world).outcomes == {"alpha:c0": ct.SUCCESS, "beta:c0": ct.SUCCESS}
        S, R = world.parties["S"], world.parties["R"]
        s = world.alpha.contract.sessions["c0"]
        assert s.transitions[-1] == (ct.LOCK, ct.SUCCESS, 124)
        assert s.recovery_requested == [S.address("alpha")]
        assert s.assist_reward_paid == 100
        miner = world.net.actors["M.alpha.1"]  # the first to submit
        assert world.alpha.balance(miner.kp.address) == 100
        submits = [e["from"] for e in trace if e.get("kind") == "submit" and e["chain_id"] == "alpha"
                   and e["tx_kind"] == ct.UPDATE_EIE_TX and e["tick"] < 124]
        assert submits[0] == miner.name
        assert R.side("alpha", "c0").recovered == S.side("alpha", "c0").exchange.m_blocks

    def test_without_assist_split_outcome(self):
        net = build_close_phase_world("delay_r", assist_enabled=False, seed=4, mode="run")
        net.run_until(lambda: outcome_of(net) is not None, max_tick=200)
        assert outcome_of(net) == (ct.REFUNDED, ct.SUCCESS)

    # (mode, the tick a run with the default window ends at)
    @pytest.mark.parametrize("mode, assisted_end", [("CE", 124), ("EIE", 129)])
    @pytest.mark.parametrize("window", [45, None])
    def test_assist_window_of_a_scenario(self, mode, assisted_end, window):
        """R mirrors S's lock onto alpha 30 ticks late. With the window,
        alpha's miners reveal the preimage seen on beta, one transaction
        each, and the pair ends Success/Success; with assist_window None no
        miner reveals it, alpha refunds at tick 120, and the run reports the
        split."""
        late = {"kind": "fixed", "fixed": 1, "overrides": [{"src": "R", "dst": "alpha", "fixed": 30}]}
        cfg = ScenarioConfig.from_dict({"mode": mode, "seed": 1, "receipts_n": 4, "latency": late,
                                        "assist_window": window})
        metrics, trace = run_scenario(cfg)
        reveals = [e for e in trace if e.get("kind") == "submit" and e["from"].startswith("M.alpha.")
                   and e["tx_kind"] in (ct.UPDATE_TX, ct.UPDATE_EIE_TX)]
        if window is None:
            assert metrics.outcomes == {"alpha:c0": ct.REFUNDED, "beta:c0": ct.SUCCESS}
            assert (metrics.ticks_elapsed, metrics.invariants_ok, reveals) == (120, False, [])
        else:
            assert metrics.outcomes == {"alpha:c0": ct.SUCCESS, "beta:c0": ct.SUCCESS}
            assert (metrics.ticks_elapsed, metrics.invariants_ok, len(reveals)) == (assisted_end, True, 4)


class TestCloseStartWorld:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_sessions_start_settled(self, profile):
        """Both sessions wait at Close on 100 + 100 escrowed, each chain's
        payee allocated 160 of 200, S paying on alpha and R on beta."""
        net = build_close_phase_world(profile, assist_enabled=True)
        S, R = net.actors["S"], net.actors["R"]
        for chain, payer, payee in ((net.chains[0], S, R), (net.chains[1], R, S)):
            paid, got = payer.address(chain.chain_id), payee.address(chain.chain_id)
            (s,) = chain.contract.sessions.values()
            assert (s.session_id, s.state, s.escrow) == ("c0", ct.CLOSE, 200)
            assert list(s.deposits) == sorted((paid, got))
            assert s.locked_allocations == {got: 160, paid: 40}
            assert chain.balance(paid) == chain.balance(got) == 900


class TestProfiles:
    # (nodes, schedules) of each profile's enumeration at seed 1, assist on and off
    COUNTS = {
        "honest": ((17, 2), (17, 2)),
        "withhold_pre": ((13, 1), (10, 1)),
        "delay_r": ((16, 1), (14, 1)),
        "delay_s": ((24, 2), (10, 1)),
        "withhold_delay": ((13, 1), (10, 1)),
    }

    @pytest.mark.parametrize("profile", PROFILES)
    def test_explorer_counts(self, profile):
        """Each profile's latency and adversary fix the tree the explorer walks."""
        got = tuple((r.nodes, r.schedules) for r in (enumerate_close_phase(profile, assist, seed=1)
                                                     for assist in (True, False)))
        assert got == self.COUNTS[profile]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_adversary_in_config_form(self, profile):
        _latency, adversary = PROFILES[profile]
        assert ScenarioConfig(adversary=adversary).validate() == []


def _one_slow_link(mode, seed, receipts_n, fixed, slow):
    """Honest parties; every link takes fixed ticks but beta -> R, which takes slow."""
    return ScenarioConfig(mode=mode, seed=seed, receipts_n=receipts_n, latency={
        "kind": "fixed", "fixed": fixed, "overrides": [{"src": "beta", "dst": "R", "fixed": slow}]})


SLOW_LINK_SPLITS = [_one_slow_link("CE", 327, 2, 2, 68), _one_slow_link("EIE", 733, 5, 1, 49),
                    _one_slow_link("FE", 685, 5, 4, 32)]


class TestHonestSplit:
    @pytest.mark.parametrize("cfg", SLOW_LINK_SPLITS, ids=["ce", "eie", "fe"])
    def test_split_breaks_the_invariants(self, cfg):
        """R sees beta's events late, so its session ends refunded on alpha
        and paid on beta. No party is adversarial: the run's invariants fail."""
        metrics, _ = run_scenario(cfg)
        assert metrics.outcomes == {"alpha:c0": ct.REFUNDED, "beta:c0": ct.SUCCESS}
        assert not metrics.invariants_ok

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a lock mirrored too late splits an honest pair")
    def test_slow_link_pairs_end_atomic(self):
        outcomes = [run_scenario(cfg)[0].outcomes for cfg in SLOW_LINK_SPLITS]
        assert all(o["alpha:c0"] == o["beta:c0"] for o in outcomes)


# CI's smoke runs, and the refuse_close pin: (config, its run's invariants_ok)
SMOKE_RUNS = [pytest.param(ScenarioConfig.from_json(str(path)), True, id=path.stem)
              for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))] + [
    pytest.param(ScenarioConfig(mode="FE", baseline="plain_htlc", receipts_n=3), True, id="fe_htlc"),
    pytest.param(SLOW_LINK_SPLITS[0], False, id="slow_link"),
    pytest.param(ScenarioConfig(mode="EIE", receipts_n=4, byzantine_miners=1, adversary={"S": ["fake_key_share"]}),
                 True, id="fake_key_share"),
    pytest.param(ScenarioConfig(assist_window=None, receipts_n=2), True, id="no_assist"),
    pytest.param(ScenarioConfig(mode="CE", seed=16, max_ticks=250, adversary={"R": ["refuse_close"]}), False,
                 id="refuse_close"),
]


class TestVerdict:
    @pytest.mark.parametrize("cfg,ok", SMOKE_RUNS)
    def test_invariants_ok_pinned(self, cfg, ok):
        assert run_scenario(cfg)[0].invariants_ok is ok

    def test_atomic_is_one_terminal_state_on_every_chain(self):
        assert scenario.atomic((ct.SUCCESS, ct.SUCCESS)) and scenario.atomic((ct.REFUNDED, ct.REFUNDED))
        assert scenario.atomic((ct.TERMINATED, ct.TERMINATED))  # the exchange aborted on both chains
        assert not scenario.atomic((ct.REFUNDED, ct.SUCCESS))
        assert not scenario.atomic((ct.OPEN_CE, ct.OPEN_CE))
        assert not scenario.terminal((ct.SUCCESS, None))  # missing on one chain


class TestHtlcWorld:
    CFG = ScenarioConfig(mode="CE", receipts_n=10, seed=91, baseline="plain_htlc")

    def test_world_holds_only_its_settled_sessions(self):
        """The baseline's world starts only its h<j> pairs, at Close on both
        sides, and sets no timer: each session's lock is start_sessions'."""
        world = build_world(self.CFG)
        ids = ["h%d" % j for j in range(10)]
        assert (scenario.sessions(world.net), world.expected_receipts) == (ids, 0)
        for p in world.parties.values():
            assert list(p.sessions) == ids
            assert {side.state for ps in p.sessions.values() for side in ps.sides.values()} == {ct.CLOSE}
        assert world.net.pending == {}

    def test_run_delivers_no_wakeup(self):
        _, trace = run_scenario(self.CFG)
        assert not [e for e in trace if e.get("kind") == "deliver" and e["msg"] == "wakeup"]

    @pytest.mark.parametrize("mode", ["FE", "EIE"])
    def test_exchange_modes_end_once_every_session_is_terminal(self, mode):
        """A settled HTLC session sets up no exchange, so no payee waits for
        a plaintext: the run stops when every session is terminal."""
        cfg = ScenarioConfig(mode=mode, baseline="plain_htlc", receipts_n=3)
        metrics, _ = run_scenario(cfg)
        assert set(metrics.outcomes.values()) == {ct.SUCCESS}
        assert metrics.invariants_ok
        assert metrics.ticks_elapsed < cfg.max_ticks // 10

    def test_workload_above_funding_is_a_config_error(self):
        """Ten exchanges of 1..3 cannot all be escrowed from a funding of 10."""
        with pytest.raises(ConfigError) as err:
            run_scenario(replace(self.CFG, funding=10))
        assert err.value.violations == ["workload exceeds channel funding"]


class TestDeterminism:
    def test_same_seed_identical_traces(self):
        cfg = ScenarioConfig(mode="EIE", receipts_n=4, seed=21)
        _, t1 = run_scenario(cfg)
        _, t2 = run_scenario(cfg)
        assert trace_bytes(t1) == trace_bytes(t2)

    def test_seed_drives_workload(self):
        w1 = build_world(ScenarioConfig(mode="CE", receipts_n=10, seed=1, amount_hi=50))
        w2 = build_world(ScenarioConfig(mode="CE", receipts_n=10, seed=2, amount_hi=50))
        amounts = lambda w: [
            plan.amounts
            for ps in w.parties["S"].sessions.values()
            for side in ps.sides.values()
            for plan in side.plans.values()
        ]
        assert amounts(w1) != amounts(w2)


class TestCloseBarrier:
    @pytest.mark.parametrize("cfg, barrier", [
        (ScenarioConfig(), 16),
        (ScenarioConfig(receipts_n=10, levels=3, sub_funding=(30, 10), sub_receipts=(3, 2),
                        latency={"kind": "uniform", "lo": 1, "hi": 3}), 66),
        (ScenarioConfig(mode="EIE", receipts_n=7, levels=2, sub_funding=(20,), sub_receipts=(5,),
                        latency={"kind": "fixed", "fixed": 2,
                                 "overrides": [{"src": "S", "dst": "R", "kind": "fixed", "fixed": 40}]}), 43),
        (ScenarioConfig(mode="FE", receipts_n=0, channels=3, latency={"kind": "uniform", "lo": 2, "hi": 4}), 21),
    ], ids=["default", "levels3_uniform", "levels2_override", "fe_empty"])
    def test_close_barrier_from_the_built_plans(self, cfg, barrier):
        """The agreed close tick comes from the latency model and the plans
        build_world made, overrides aside; the values are those the raw
        config once gave."""
        world = build_world(cfg)
        assert {p.close_after_tick for p in world.parties.values()} == {barrier}


class TestConfig:
    def test_timer_ordering_enforced(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"alpha_unlock": 20, "beta_unlock": 20})
        assert any("alpha_unlock > beta_unlock" in v for v in err.value.violations)

    def test_threshold_vs_byzantine(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"vss_t": 1, "byzantine_ell": 1})
        assert any("t > ell" in v for v in err.value.violations)

    def test_node_count_rule(self):
        """A chain has 3 * ell + 1 miners; a file cannot set the count."""
        assert [ScenarioConfig(byzantine_ell=ell).n_node for ell in (1, 2, 3)] == [4, 7, 10]
        actors = build_world(ScenarioConfig(receipts_n=0)).net.actors
        assert [name for name, a in actors.items() if isinstance(a, Miner)] == [
            "M.%s.%d" % (c, i) for c in ("alpha", "beta") for i in (1, 2, 3, 4)]
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"n_node": 4})
        assert err.value.violations == ["unknown config keys: ['n_node']"]

    def test_share_count_within_node_count(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"vss_n": 5, "byzantine_ell": 1})
        assert "n <= n_node violated (5 > 4)" in err.value.violations

    def test_share_count_rule(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"vss_t": 2, "vss_n": 2, "byzantine_ell": 1})
        assert any("n >= t + ell" in v for v in err.value.violations)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"no_such_option": 1})

    # a funding of 2**64 or more cannot be carried by the Open transaction;
    # amounts are drawn from 1..amount_hi, an empty range below 1; a
    # negative max_ticks once ran nothing and failed as an invariant
    @pytest.mark.parametrize("raw, violation", [
        ({"funding": 1 << 64}, "funding must be below 2**64"),
        ({"amount_hi": 0}, "amount_hi must be >= 1"),
        ({"max_ticks": -1}, "max_ticks must be >= 0"),
    ])
    def test_out_of_range_sizes_rejected(self, raw, violation):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.violations == [violation]

    def test_range_edges_accepted(self):
        assert ScenarioConfig(funding=(1 << 64) - 1).validate() == []

    def test_amount_hi_of_one_plans_only_ones(self):
        world = build_world(ScenarioConfig(amount_hi=1, receipts_n=9, channels=2))
        amounts = [a for p in world.parties.values() for ps in p.sessions.values()
                   for side in ps.sides.values() for plan in side.plans.values() for a in plan.amounts]
        assert len(amounts) == 18 and set(amounts) == {1}

    # a level-(i+2) channel spends its sub_receipts[i] receipts of 1 plus,
    # above the deepest level, the next level's sub_funding[i+1]
    @pytest.mark.parametrize("levels, sub_funding, sub_receipts, level", [
        (2, (5,), (6,), 2),
        (3, (20, 15), (6, 1), 2),
        (3, (40, 5), (3, 6), 3),
    ])
    def test_level_spend_above_funding_rejected(self, levels, sub_funding, sub_receipts, level):
        raw = {"levels": levels, "sub_funding": list(sub_funding), "sub_receipts": list(sub_receipts)}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.violations == ["sub-channel %d cannot spend more than its funding" % level]

    def test_level_spend_within_funding_runs(self):
        """Level 2 spends 1 + 15 of its 20, level 3 spends 6 of its 15."""
        cfg = ScenarioConfig.from_dict({"levels": 3, "sub_funding": [20, 15], "sub_receipts": [1, 6],
                                        "receipts_n": 4, "seed": 3})
        metrics, _ = run_scenario(cfg)
        assert metrics.invariants_ok
        assert metrics.outcomes == {"alpha:c0": ct.SUCCESS, "beta:c0": ct.SUCCESS}

    def test_level_lists_of_the_wrong_length_rejected(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"levels": 3, "sub_funding": [20, 15], "sub_receipts": [1]})
        assert err.value.violations == ["sub_funding/sub_receipts must list one entry per level beyond the first"]

    # each raised a raw TypeError/ValueError/KeyError/AttributeError out of
    # a run, or was silently ignored (an unknown party's flags)
    MALFORMED = {
        "unknown-flag": {"adversary": {"S": ["bogus"]}},
        "flag-not-list": {"adversary": {"S": "withhold_pre"}},
        "adversary-list": {"adversary": ["S"]},
        "unknown-party": {"adversary": {"Z": ["withhold_pre"]}},
        "latency-str": {"latency": "x"},
        "latency-kind": {"latency": {"kind": "weird"}},
        "latency-lo-above-hi": {"latency": {"kind": "uniform", "lo": 3, "hi": 1}},
        "override-without-dst": {"latency": {"overrides": [{"src": "S", "fixed": 2}]}},
        "latency-misspelt-delay": {"latency": {"fixd": 40}},
        "override-unknown-key": {"latency": {"overrides": [
            {"src": "R", "dst": "alpha", "fixed": 5, "bogus": 1}]}},
        "override-with-overrides": {"latency": {"overrides": [
            {"src": "R", "dst": "alpha", "fixed": 5, "overrides": [{"src": "*", "dst": "*", "fixed": 2}]}]}},
        "latency-all-three": {"latency": {"fixd": 40, "overrides": [
            {"src": "R", "dst": "alpha", "fixed": 5, "bogus": 1,
             "overrides": [{"src": "*", "dst": "*", "fixed": 2}]}]}},
        # a delay the kind does not read once ran silently at the kind's default
        "latency-window-on-fixed": {"latency": {"lo": 1, "hi": 9}},
        "latency-fixed-on-uniform": {"latency": {"kind": "uniform", "fixed": 5}},
        "override-window-on-fixed": {"latency": {"overrides": [{"src": "R", "dst": "alpha", "lo": 3, "hi": 5}]}},
        "receipts_n-str": {"receipts_n": "5"},
        "seed-str": {"seed": "a"},
        "channels-float": {"channels": 2.5},
        "sub_funding-int": {"sub_funding": 5},
    }

    @pytest.mark.parametrize("raw", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_config_raises_config_error(self, raw):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.violations

    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)])
    def test_every_field_checked_by_its_annotation(self, name):
        """A value of no declared type is named, with the field's own
        annotation, as the one violation, for every field there is."""
        cfg = replace(ScenarioConfig(), **{name: object()})
        assert cfg.validate() == ["%s must be of type %s" % (name, ScenarioConfig.__annotations__[name])]

    def test_list_items_checked(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"levels": 2, "sub_funding": [5], "sub_receipts": [True]})
        assert err.value.violations == ["sub_receipts must be of type tuple[int, ...]"]

    @pytest.mark.parametrize("percent", [-1, 101])
    def test_assist_reward_percent_out_of_range_rejected(self, percent):
        """A reward above 100 percent once debited the assisted party more
        than it was paid, and InvariantViolation escaped produce_block."""
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"assist_reward_percent": percent})
        assert err.value.violations == ["assist_reward_percent must be in 0..100"]

    def test_assist_reward_of_the_whole_allocation_runs(self):
        late = {"kind": "fixed", "fixed": 1, "overrides": [{"src": "R", "dst": "alpha", "fixed": 40}]}
        metrics, _ = run_scenario(ScenarioConfig.from_dict({"assist_reward_percent": 100, "latency": late}))
        assert metrics.outcomes == {"alpha:c0": ct.SUCCESS, "beta:c0": ct.SUCCESS}

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "EIE", "receipts_n": 3, "seed": 4}))
        cfg = ScenarioConfig.from_json(str(path))
        assert cfg.mode == "EIE" and cfg.receipts_n == 3


class TestVerifyOnce:
    """Receipts cross the simulated network by reference, so the payee's
    check and the contract's checks at close and settlement share one
    verification of each signed object."""

    CONFIGS = [
        ScenarioConfig(mode="CE", receipts_n=6, seed=95, levels=3,
                       sub_funding=(30, 10), sub_receipts=(3, 2)),
        ScenarioConfig(mode="CE", receipts_n=20, seed=96, channels=30),
        ScenarioConfig(mode="EIE", receipts_n=4, seed=93),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["ce_levels", "ce_30_channels", "eie"])
    def test_each_signed_object_verified_once(self, monkeypatch, verify_calls, cfg):
        metrics, trace = run_scenario(cfg)
        calls = list(verify_calls)
        assert 0 < len(calls) == len(set(calls))
        verify_calls.clear()
        with monkeypatch.context() as m:  # the same checks without the memo
            m.setattr(receipts.Signed, "verify_sig",
                      lambda x: receipts.verify(x.signer, x.signing_bytes(), x.sig))
            plain_metrics, plain_trace = run_scenario(cfg)
        assert set(verify_calls) == set(calls)
        assert len(verify_calls) > len(calls)  # the bypass does check repeatedly
        assert trace_bytes(trace) == trace_bytes(plain_trace)
        assert metrics.to_json() == plain_metrics.to_json()


class TestFixedBaseCommitments:
    """Fixed-base tables yield the same commitments as two pow calls, so an
    EIE run's trace and metrics cannot tell them apart."""

    CONFIGS = [
        ScenarioConfig(mode="EIE", receipts_n=4, seed=93),
        ScenarioConfig(mode="EIE", receipts_n=2, seed=15, vss_t=2, vss_n=3,
                       byzantine_ell=1, byzantine_miners=1),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["eie", "eie_byzantine"])
    def test_run_equals_two_pow_reference(self, monkeypatch, cfg):
        metrics, trace = run_scenario(cfg)
        calls = []

        def reference(s, r, group):
            calls.append((s, r))
            return pedersen_two_pow(s, r, group)

        with monkeypatch.context() as m:  # vss imports pedersen_commit by name
            m.setattr(vss, "pedersen_commit", reference)
            ref_metrics, ref_trace = run_scenario(cfg)
        assert calls
        assert trace_bytes(trace) == trace_bytes(ref_trace)
        assert metrics.to_json() == ref_metrics.to_json()


class TestNoReferenceCycles:
    """A finished world is freed by reference counting alone: no chain,
    contract, party or session object points back at its owner."""

    @pytest.mark.parametrize("mode", ["CE", "EIE"])
    def test_dropped_run_leaves_nothing_for_the_cycle_collector(self, mode):
        gc.collect()
        run_scenario(ScenarioConfig(mode=mode, receipts_n=20, channels=5, seed=1))
        assert gc.collect() == 0
