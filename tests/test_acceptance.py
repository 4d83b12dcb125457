"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import random
import time
from dataclasses import replace

from xchan import contract as ct
from xchan import proofs, vss
from xchan.atomicity import enumerate_close_phase
from xchan.chain import Chain, TimerConfig
from xchan.crypto import DEFAULT_GROUP, hash_bytes, key_to_bytes, keypair_from_label
from xchan.contract import settle_levels
from xchan.engine import MinerBehavior
from xchan.scenario import (
    ScenarioConfig,
    build_world,
    run_scaling_sweep,
    run_scenario,
    session_states,
    sessions,
    settled,
    start_sessions,
    trace_bytes,
)
from gen_trees import gen_case
from oracles import settle_oracle

PASS = "ACCEPTANCE %d (%s): PASS  [%s]"


def report(number, name, detail=""):
    print(PASS % (number, name, detail))


# -- 1. atomicity ------------------------------------------------------------


def test_criterion_1_atomicity():
    t0 = time.monotonic()
    allowed = {(ct.SUCCESS, ct.SUCCESS), (ct.REFUNDED, ct.REFUNDED)}
    profiles = ("honest", "withhold_pre", "delay_r", "delay_s", "withhold_delay")
    totals = {}
    for profile in profiles:
        res = enumerate_close_phase(profile, assist_enabled=True, seed=1, bound=12)
        assert res.outcomes <= allowed, (profile, res.outcomes)
        totals[profile] = res.schedules
    # the assist window rescues a relay delayed past the party deadline
    res = enumerate_close_phase("delay_r", assist_enabled=True, seed=1, bound=12)
    assert res.outcomes == {(ct.SUCCESS, ct.SUCCESS)}
    # without it the split outcome is reachable: the asynchrony failure
    res_off = enumerate_close_phase("delay_r", assist_enabled=False, seed=1, bound=12)
    assert (ct.REFUNDED, ct.SUCCESS) in res_off.outcomes
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(1, "atomicity", "schedules=%s split_without_assist=yes %.1fs" % (totals, elapsed))


# -- 2. fairness -------------------------------------------------------------


FAIR_S = keypair_from_label("fair:S")
FAIR_R = keypair_from_label("fair:R")


def _bindings_for(ell, t, n, seed):
    """Real miner selection: run the upload handler on a chain with
    3*ell+1 miners; returns (selected addresses in share-index order,
    dealing, key, all miner addresses)."""
    n_node = 3 * ell + 1
    chain = Chain("alpha", 1, TimerConfig(4, 4, 10, 20))
    chain.create_account(FAIR_S.address, 100)
    chain.create_account(FAIR_R.address, 100)
    miners = []
    for i in range(n_node):
        kp = keypair_from_label("fair:m:%d:%d" % (ell, i))
        chain.register_miner(kp.address)
        miners.append(kp.address)
    for kp in (FAIR_S, FAIR_R):
        tx = ct.make_tx(kp, "alpha", "f", ct.OPEN_TX, ct.OpenPayload(10))
        chain.submit_tx(tx)
    chain.produce_block(1)
    rng = random.Random(seed)
    key = rng.randrange(DEFAULT_GROUP.q)
    dealing = vss.share(key, t, n, rng, DEFAULT_GROUP)
    payload = ct.UploadPayload(
        h_k=hash_bytes(key_to_bytes(key)),
        n=n,
        t=t,
        share_hashes=tuple(vss.share_hash(ks) for ks in dealing.shares),
    )
    chain.submit_tx(ct.make_tx(FAIR_S, "alpha", "f", ct.UPLOAD_TX, payload))
    chain.produce_block(2)
    session = chain.contract.sessions["f"]
    selected = [b.miner for b in session.uploads[FAIR_S.address].bindings]
    return selected, dealing, key, miners


def test_criterion_2_fairness():
    t0 = time.monotonic()
    checked = 0
    for ell in range(1, 6):
        n_node = 3 * ell + 1
        pairs = [
            (t, n)
            for t in range(ell + 1, n_node + 1)
            for n in range(t + ell, n_node + 1)
        ]
        assert pairs, "ell=%d admits no (t, n)" % ell
        for t, n in pairs:
            selected, dealing, key, miners = _bindings_for(ell, t, n, seed=100 * ell + t)
            share_of = {addr: dealing.shares[i] for i, addr in enumerate(selected)}
            if ell <= 3:
                subsets = itertools.combinations(miners, ell)
            else:
                subsets = [tuple(miners[:ell])]
            for byz in subsets:
                byz = set(byz)
                coalition = [m for m in selected if m in byz]
                # (a) the coalition can never meet the threshold
                assert len(coalition) < t
                # (b) recovery succeeds although every byzantine miner withholds
                honest_shares = [share_of[m] for m in selected if m not in byz]
                assert len(honest_shares) >= t
                assert vss.recover(honest_shares, t, DEFAULT_GROUP) == key
                checked += 1
        # (c) negative control: t <= ell lets a fully-selected coalition
        # reassemble the key before any recovery request
        t_bad = ell
        n_bad = max(2 * ell, 1)
        if t_bad >= 1 and n_bad <= n_node:
            selected, dealing, key, miners = _bindings_for(ell, t_bad, n_bad, seed=999 + ell)
            share_of = {addr: dealing.shares[i] for i, addr in enumerate(selected)}
            coalition = selected[:ell]
            early = [share_of[m] for m in coalition]
            assert len(early) >= t_bad
            assert vss.recover(early, t_bad, DEFAULT_GROUP) == key
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    report(2, "fairness", "%d (ell,t,n,subset) combinations %.1fs" % (checked, elapsed))


# -- 3. VSS at reported thresholds --------------------------------------------


def test_criterion_3_vss_thresholds():
    t0 = time.monotonic()
    group = DEFAULT_GROUP
    for t, n in [(11, 31), (21, 61), (31, 91), (41, 121), (51, 151)]:
        rng = random.Random(7000 + t)
        secret = rng.randrange(group.q)
        dealing = vss.share(secret, t, n, rng, group)
        for ks in dealing.shares:
            assert vss.verify_share(ks, dealing.public, group)
            assert not vss.verify_share(
                replace(ks, s=(ks.s + 1) % group.q), dealing.public, group
            )
        for _ in range(100):
            subset = rng.sample(dealing.shares, t)
            assert vss.recover(subset, t, group) == secret
        try:
            vss.recover(dealing.shares[: t - 1], t, group)
            assert False, "threshold violation must raise"
        except vss.ThresholdNotMet:
            pass
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    report(3, "vss-thresholds", "five (t,n) sets, 100 subsets each %.1fs" % elapsed)


# -- 4. settlement oracle equivalence ------------------------------------------


def test_criterion_4_settlement_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(424242)
    failures_seen = 0
    for case in range(1000):
        session, deposits, parties, submissions, flags = gen_case(rng)
        res = settle_levels(session, deposits, parties, submissions)
        ok, alloc, cutoff = settle_oracle(session, deposits, parties, submissions)
        assert res.ok == ok, (case, flags)
        assert res.allocations == alloc, (case, flags)
        assert res.cutoff_level == cutoff, (case, flags)
        assert sum(res.allocations.values()) == sum(deposits.values())
        if cutoff is not None:
            failures_seen += 1
    elapsed = time.monotonic() - t0
    report(
        4,
        "settlement-oracle",
        "1000 trees, %d with level failures, zero tolerance %.1fs" % (failures_seen, elapsed),
    )


# -- 5. cost shape --------------------------------------------------------------


def test_criterion_5_cost_shape():
    t0 = time.monotonic()
    cross = {}
    baseline = {}
    for n in (1, 10, 100, 1000):
        m, _ = run_scenario(ScenarioConfig(mode="CE", receipts_n=n, seed=55))
        assert m.invariants_ok
        cross[n] = m.total_txs()
        m2, _ = run_scenario(
            ScenarioConfig(mode="CE", receipts_n=n, seed=55, baseline="plain_htlc")
        )
        baseline[n] = m2.total_txs()
    assert len(set(cross.values())) == 1, cross
    c = baseline[1]
    assert c >= 4
    for n, count in baseline.items():
        assert count == c * n, baseline
    elapsed = time.monotonic() - t0
    report(
        5,
        "cost-shape",
        "channel=%d constant, baseline=%d*N exactly %.1fs" % (cross[1], c, elapsed),
    )


def _committed_bytes(cfg, monkeypatch) -> int:
    """The bytes of every transaction cfg's run commits: the sum of
    ``tx.to_bytes()`` over each tx a block executes without failing."""
    sizes = []
    execute = ct.ChannelContract.execute

    def counted(self, tx, chain):
        ok, result, detail = execute(self, tx, chain)
        if ok:
            sizes.append(len(tx.to_bytes()))
        return ok, result, detail

    with monkeypatch.context() as m:
        m.setattr(ct.ChannelContract, "execute", counted)
        metrics, _ = run_scenario(cfg)
    assert metrics.invariants_ok
    return sum(sizes)


def test_criterion_5_byte_shape(monkeypatch):
    """Criterion 5 counted in bytes, beside it (ROADMAP item 5): a channel's
    on-chain bytes grow by one fixed amount per receipt, 476 at seed 55,
    and overtake plain HTLC's somewhere past 10 receipts and by 100."""
    ns = (1, 10, 100)
    cross = {n: _committed_bytes(ScenarioConfig(mode="CE", receipts_n=n, seed=55), monkeypatch) for n in ns}
    htlc = {n: _committed_bytes(ScenarioConfig(mode="CE", receipts_n=n, seed=55, baseline="plain_htlc"),
                                monkeypatch) for n in ns}
    assert (cross[10] - cross[1]) / 9 == (cross[100] - cross[10]) / 90 == 476, cross
    assert cross[10] > htlc[10] and cross[100] <= htlc[100], (cross, htlc)


# -- 6. throughput scaling -------------------------------------------------------


def test_criterion_6_throughput_scaling():
    t0 = time.monotonic()
    res = run_scaling_sweep(
        ScenarioConfig(mode="CE", receipts_n=20, seed=66), range(10, 101, 10)
    )
    assert res.r_squared >= 0.98, res.r_squared
    rate = res.single_channel_rate
    assert abs(res.slope - rate) <= 0.20 * rate, (res.slope, rate)
    elapsed = time.monotonic() - t0
    report(
        6,
        "throughput-scaling",
        "r2=%.4f slope=%.4f single=%.4f %.1fs" % (res.r_squared, res.slope, rate, elapsed),
    )


# -- 7. appeal paths ---------------------------------------------------------------


def test_criterion_7_appeal_paths():
    t0 = time.monotonic()
    # fake share: terminated inside the report window, deposits returned
    cfg = ScenarioConfig(mode="EIE", receipts_n=0, seed=77, adversary={"S": ["fake_key_share"]})
    world = build_world(cfg)
    start_sessions(world)
    world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
    s = world.alpha.contract.sessions["c0"]
    assert s.state == ct.TERMINATED
    term_tick = next(t for _f, to, t in s.transitions if to == ct.TERMINATED)
    assert term_tick <= s.appeal_deadline
    for name in ("S", "R"):
        p = world.parties[name]
        assert world.alpha.balance(p.address("alpha")) == cfg.funding
        assert world.beta.balance(p.address("beta")) == cfg.funding

    # stale serial replay: rejected, sessions proceed to success
    cfg2 = ScenarioConfig(mode="EIE", receipts_n=2, seed=78, channels=2,
                          vss_t=2, vss_n=4, byzantine_ell=1)
    world2 = build_world(cfg2)
    replayer = world2.net.actors["M.alpha.1"]
    replayer.behavior = MinerBehavior(stale_sn_replay=True)
    start_sessions(world2)
    world2.net.run_until(lambda: settled(world2.net), max_tick=cfg2.max_ticks)
    stale = [
        e for e in world2.net.trace
        if e.get("tx_kind") == ct.APPEAL_TX and e.get("result") == "failed:stale serial number"
    ]
    assert stale
    states = [session_states(world2.net, sid) for sid in sessions(world2.net)]
    assert states == [(ct.SUCCESS, ct.SUCCESS)] * cfg2.channels
    elapsed = time.monotonic() - t0
    report(7, "appeal-paths", "terminated@%d<=T1 window; replay rejected %.1fs" % (term_tick, elapsed))


# -- 8. fair-exchange relation -------------------------------------------------------


def test_criterion_8_relation_and_eie():
    t0 = time.monotonic()
    group = DEFAULT_GROUP
    rng = random.Random(888)
    for case in range(500):
        t = rng.randint(1, 4)
        n = rng.randint(t, 6)
        key = rng.randrange(group.q)
        blocks = tuple(
            bytes(rng.randrange(256) for _ in range(13)) for _ in range(rng.randint(1, 5))
        )
        dealing = vss.share(key, t, n, rng, group)
        x = proofs.make_public_inputs(blocks, key, t, n)
        w = proofs.RelationWitness(m=blocks, k_shares=dealing.shares)
        assert proofs.eval_relation(w, x, group), case
        # single mutations, each must break the relation
        mutated_block = (b"\x00" * 13,) + x.m_bar.blocks[1:]
        if x.m_bar.blocks[0] == b"\x00" * 13:
            mutated_block = (b"\xff" * 13,) + x.m_bar.blocks[1:]
        assert not proofs.eval_relation(
            w, replace(x, m_bar=replace(x.m_bar, blocks=mutated_block)), group
        )
        assert not proofs.eval_relation(w, replace(x, h_m=hash_bytes(b"x%d" % case)), group)
        assert not proofs.eval_relation(w, replace(x, h_k=hash_bytes(b"k%d" % case)), group)
        shares = list(dealing.shares)
        shares[0] = replace(shares[0], s=(shares[0].s + 1) % group.q)
        assert not proofs.eval_relation(replace(w, k_shares=tuple(shares)), x, group)

    # end-to-end: each party ends with a plaintext matching the
    # counterpart's committed hash
    cfg = ScenarioConfig(mode="EIE", receipts_n=2, seed=89)
    world = build_world(cfg)
    start_sessions(world)
    world.net.run_until(lambda: settled(world.net), max_tick=cfg.max_ticks)
    S, R = world.parties["S"], world.parties["R"]
    from xchan.crypto import hash_blocks

    got_r = R.side("alpha", "c0").recovered
    assert hash_blocks(got_r) == R.side("alpha", "c0").counterpart_publics.h_m
    assert got_r == S.side("alpha", "c0").exchange.m_blocks
    got_s = S.side("beta", "c0").recovered
    assert hash_blocks(got_s) == S.side("beta", "c0").counterpart_publics.h_m
    assert got_s == R.side("beta", "c0").exchange.m_blocks
    elapsed = time.monotonic() - t0
    report(8, "fair-exchange-relation", "500 instances + EIE end-to-end %.1fs" % elapsed)


# -- 9. determinism --------------------------------------------------------------------


def test_criterion_9_determinism():
    t0 = time.monotonic()
    configs = [
        ScenarioConfig(mode="CE", receipts_n=10, seed=91),
        ScenarioConfig(mode="CE", receipts_n=10, seed=91, baseline="plain_htlc"),
        ScenarioConfig(mode="FE", receipts_n=4, seed=92),
        ScenarioConfig(mode="EIE", receipts_n=4, seed=93),
        ScenarioConfig(mode="EIE", receipts_n=0, seed=94, adversary={"S": ["fake_key_share"]}),
        ScenarioConfig(mode="CE", receipts_n=6, seed=95, levels=3,
                       sub_funding=(30, 10), sub_receipts=(3, 2)),
        ScenarioConfig(mode="CE", receipts_n=20, seed=96, channels=30),
    ]
    for cfg in configs:
        m1, t1 = run_scenario(cfg)
        m2, t2 = run_scenario(cfg)
        assert trace_bytes(t1) == trace_bytes(t2), cfg
        assert m1.to_json() == m2.to_json()
    # enumeration replays to the same outcome sets and schedule counts
    for profile in ("honest", "delay_r"):
        a = enumerate_close_phase(profile, assist_enabled=True, seed=1)
        b = enumerate_close_phase(profile, assist_enabled=True, seed=1)
        assert a.outcomes == b.outcomes and a.schedules == b.schedules
    # generator-driven settlement replays identically
    for seed in (5, 6):
        r1 = gen_case(random.Random(seed))
        r2 = gen_case(random.Random(seed))
        assert settle_levels(r1[0], r1[1], r1[2], r1[3]).allocations == \
            settle_levels(r2[0], r2[1], r2[2], r2[3]).allocations
    elapsed = time.monotonic() - t0
    report(9, "determinism", "%d configs byte-identical %.1fs" % (len(configs), elapsed))
