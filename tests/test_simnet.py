"""Message fabric: latency, ordering, determinism, the exhaustive
schedule enumerator's interleaving counts, and world forks.

``XCHAN_FORK_NODES`` sets how many nodes of the real-run exploration the
fork-isolation walk checks (default 25), for a longer run."""

import copy
import dataclasses
import functools
import gc
import json
import math
import os
import random
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import HeapSimnet, choices_pairwise, enumerate_schedules_copying
from xchan import atomicity, chain, contract, engine, scenario, simnet
from xchan.crypto import KeyPair, keypair_from_label
from xchan.simnet import (
    BoundExceeded,
    LatencyModel,
    Message,
    Rng,
    Simnet,
    enumerate_schedules,
)


class Recorder:
    """Actor that logs (tick, kind) of everything it receives."""

    def __init__(self):
        self.got = []

    def on_message(self, net, msg):
        self.got.append((net.now, msg.kind, msg.data.get("i")))


class Echo:
    """Sends a follow-up message on each delivery, building causal chains."""

    def __init__(self, dst, depth):
        self.dst = dst
        self.depth = depth

    def on_message(self, net, msg):
        d = msg.data.get("depth", 0)
        if d < self.depth:
            net.send("chain", msg.dst, self.dst, {"depth": d + 1})


class TestLatencyModel:
    def test_fixed_delay(self):
        net = Simnet(seed=1, latency=LatencyModel(kind="fixed", fixed=3))
        rec = Recorder()
        net.register("a", rec)
        net.send("ping", "x", "a", {})
        net.run_until(max_tick=10)
        assert rec.got[0][0] == 3

    def test_uniform_within_bounds(self):
        model = LatencyModel(kind="uniform", lo=2, hi=5)
        net = Simnet(seed=9, latency=model)
        rec = Recorder()
        net.register("a", rec)
        for i in range(50):
            net.send("ping", "x", "a", {"i": i})
        net.run_until(max_tick=20)
        assert all(2 <= t <= 5 for t, _k, _i in rec.got)

    def test_targeted_override(self):
        model = LatencyModel(
            kind="fixed", fixed=1,
            overrides=(("r", "a", LatencyModel(kind="fixed", fixed=7)),),
        )
        net = Simnet(seed=1, latency=model)
        rec = Recorder()
        net.register("a", rec)
        net.send("ping", "r", "a", {"i": 0})
        net.send("ping", "s", "a", {"i": 1})
        net.run_until(max_tick=10)
        assert dict((i, t) for t, _k, i in rec.got) == {0: 7, 1: 1}

    def test_wildcard_override(self):
        model = LatencyModel(
            kind="fixed", fixed=1,
            overrides=(("*", "a", LatencyModel(kind="fixed", fixed=4)),),
        )
        assert model.window("anyone", "a") == (4, 4)
        assert model.window("anyone", "b") == (1, 1)

    def test_from_config(self):
        model = LatencyModel.from_config(
            {"kind": "uniform", "lo": 1, "hi": 3,
             "overrides": [{"src": "R", "dst": "alpha", "kind": "fixed", "fixed": 9}]}
        )
        assert model.window("R", "alpha") == (9, 9)
        assert model.window("R", "beta") == (1, 3)

    def test_invalid_models(self):
        with pytest.raises(ValueError):
            LatencyModel(kind="gaussian")
        with pytest.raises(ValueError):
            LatencyModel(kind="uniform", lo=5, hi=2)


class TestRunLoop:
    def test_same_tick_insertion_order(self):
        net = Simnet(seed=1, latency=LatencyModel(kind="fixed", fixed=2))
        rec = Recorder()
        net.register("a", rec)
        for i in range(5):
            net.send("ping", "x", "a", {"i": i})
        net.run_until(max_tick=5)
        assert [i for _t, _k, i in rec.got] == [0, 1, 2, 3, 4]

    def test_zero_latency_cascade_same_tick(self):
        net = Simnet(seed=1, latency=LatencyModel(kind="fixed", fixed=0))
        rec = Recorder()
        net.register("echo", Echo("sink", depth=3))
        net.register("sink", rec)
        net.send("chain", "x", "echo", {"depth": 0})
        net.run_until(max_tick=3)
        # echo forwards at depth 1..3, all within tick 0
        assert rec.got and all(t == 0 for t, _k, _i in rec.got)

    def test_determinism_replay(self):
        def run():
            net = Simnet(seed=77, latency=LatencyModel(kind="uniform", lo=1, hi=4))
            rec = Recorder()
            net.register("a", rec)
            net.register("e", Echo("a", depth=2))
            for i in range(10):
                net.send("ping", "x", "a", {"i": i})
                net.send("chain", "x", "e", {"depth": 0})
            net.run_until(max_tick=30)
            return rec.got, net.trace

        got1, trace1 = run()
        got2, trace2 = run()
        assert got1 == got2
        assert trace1 == trace2

    def test_predicate_halts_at_first_satisfying_tick(self):
        net = Simnet(seed=1, latency=LatencyModel(kind="fixed", fixed=4))
        rec = Recorder()
        net.register("a", rec)
        net.send("ping", "x", "a", {})
        net.run_until(lambda: bool(rec.got), max_tick=50)
        assert net.now == 4

    def test_undelivered_reported(self):
        net = Simnet(seed=1, latency=LatencyModel(kind="fixed", fixed=10))
        net.register("a", Recorder())
        net.send("ping", "x", "a", {})
        net.run_until(max_tick=5)
        assert any(e.get("kind") == "undelivered" for e in net.trace)

    def test_wakeup_exact_tick(self):
        net = Simnet(seed=1)
        rec = Recorder()
        net.register("a", rec)
        net.wakeup("a", 6, {"i": 1})
        net.run_until(max_tick=10)
        assert rec.got == [(6, "wakeup", 1)]

    def test_fifo_per_link_under_random_latency(self):
        for seed in range(10):
            net = Simnet(seed=seed, latency=LatencyModel(kind="uniform", lo=1, hi=6))
            rec = Recorder()
            net.register("a", rec)
            for i in range(20):
                net.send("ping", "src", "a", {"i": i})
            net.run_until(max_tick=40)
            assert [i for _t, _k, i in rec.got] == list(range(20))

    def test_chain_events_arrive_in_block_order(self):
        # one subscriber, random latency: deliveries preserve block order
        from xchan.chain import Chain, TimerConfig
        from xchan.contract import OPEN_TX, OpenPayload, make_tx
        from xchan.crypto import keypair_from_label

        class BlockRecorder:
            def __init__(self):
                self.blocks = []

            def on_message(self, net, msg):
                if msg.kind == "chain_event":
                    self.blocks.append(msg.data.block)

        kp = keypair_from_label("evt:S")
        for seed in range(8):
            net = Simnet(seed=seed, latency=LatencyModel(kind="uniform", lo=1, hi=9))
            chain = Chain("alpha", 2, TimerConfig(4, 4, 10, 20))
            net.add_chain(chain)
            watcher = BlockRecorder()
            net.register("w", watcher)
            net.subscribe(chain, "w")
            chain.create_account(kp.address, 1000)
            # stagger submissions so the events span several blocks
            for i in range(8):
                net.send("tx", "ext", "alpha", make_tx(kp, "alpha", "x%d" % i, OPEN_TX, OpenPayload(1)))
                net.run_until(max_tick=net.now + 3)
            net.run_until(max_tick=net.now + 20)
            assert len(watcher.blocks) >= 4
            assert watcher.blocks == sorted(watcher.blocks)

    def test_resumed_run_matches_uninterrupted(self):
        # the first run stops on tick 8, a block boundary of alpha
        cfg = scenario.ScenarioConfig(mode="CE", receipts_n=4, seed=3)

        def run(*stops):
            world = _opened(cfg)
            for tick in stops:
                trace = world.net.run_until(lambda: world.net.now >= tick, max_tick=cfg.max_ticks)
            return scenario.trace_bytes(trace), world.alpha.blocks, world.beta.blocks, world.alpha.now

        split = run(8, 9)
        assert (len(split[1]), split[3]) == (2, 8)  # alpha's two blocks, at ticks 4 and 8
        assert split == run(9)


def make_enum_world(k, chain_depth=0, latency=None):
    """k independent messages, optionally followed by a causal chain."""

    def factory():
        net = Simnet(seed=1, latency=latency or LatencyModel(kind="fixed", fixed=1),
                     mode="enumerate")
        rec = Recorder()
        net.register("sink", rec)
        net.register("echo", Echo("sink", depth=chain_depth))
        for i in range(k):
            # distinct sources: links are FIFO, so messages sharing a
            # link would be order-constrained
            net.send("ping", "x%d" % i, "sink", {"i": i})
        if chain_depth:
            net.send("chain", "x", "echo", {"depth": 0})
        net.world_rec = rec
        return net

    return factory


def make_timer_world(mode="enumerate"):
    """One actor that sets a wakeup for tick 16, then one for tick 6."""
    net = Simnet(seed=1, mode=mode)
    rec = Recorder()
    net.register("sink", rec)
    for tick in (16, 6):
        net.wakeup("sink", tick, {"i": tick})
    net.world_rec = rec
    return net


def order_outcome(net):
    if net.pending:
        return None
    return tuple(i for _t, _k, i in net.world_rec.got)


class TestChainActor:
    """A chain's network entry point counts a message that carries no
    transaction instead of raising; it logs nothing and queues nothing."""

    TX = contract.OnChainTx("alpha", "c0", "S", contract.OPEN_TX, contract.OpenPayload(5))

    @pytest.mark.parametrize("kind, data", [
        ("tx", 5),
        ("tx", None),
        ("tx", b"tx"),
        ("tx", {"kind": "Open"}),
        ("receipt", TX),
        ("tx", {"tx": TX}),  # the dict a tx message carried before it carried the tx itself
    ], ids=["int-tx", "empty", "int-data", "dict-tx", "other-kind", "wrapped-tx"])
    def test_malformed_tx_counted(self, kind, data):
        net = Simnet()
        c = chain.Chain("alpha", 3, chain.TimerConfig(6, 6, 10, 20))
        net.add_chain(c)
        actor = net.actors["alpha"]
        actor.on_message(net, Message(kind, "S", "alpha", data))
        assert net.trace == [] and c.mempool == []
        assert sum(actor.rejected.values()) == 1
        (reason,) = actor.rejected
        assert reason == ("tx: not of class OnChainTx" if kind == "tx" else kind + ": unknown kind")

    def test_tx_for_another_chain_counted(self):
        """A tx naming the other chain is dropped at dispatch, untraced, as
        a party or a miner drops data for a chain it does not serve."""
        net = Simnet()
        c = chain.Chain("alpha", 3, chain.TimerConfig(6, 6, 10, 20))
        net.add_chain(c)
        kp = keypair_from_label("other-chain:S")
        c.create_account(kp.address, 10)
        actor = net.actors["alpha"]
        tx = contract.make_tx(kp, "beta", "c0", contract.OPEN_TX, contract.OpenPayload(5))
        actor.on_message(net, Message("tx", "S", "alpha", tx))
        assert actor.rejected == {"tx: unknown chain": 1}
        assert net.trace == [] and c.mempool == []

    @pytest.mark.parametrize("field", ["sender", "kind"])
    def test_unhashable_tx_field_rejected(self, field):
        """A transaction whose sender or kind is a list, which the chain
        would hash, cannot be built."""
        tx = contract.OnChainTx("alpha", "c0", "S", contract.OPEN_TX, contract.OpenPayload(5))
        with pytest.raises(TypeError, match="^mistyped OnChainTx.%s$" % field):
            dataclasses.replace(tx, **{field: [getattr(tx, field)]})

    def test_raising_hash_sender_cannot_be_built(self):
        """A sender that is a str subclass whose hash raises, which once
        raised out of the chain actor at the account lookup, cannot be built
        into a transaction; nor can a tx subclass reach the mempool."""

        class HashRaises(str):
            def __hash__(self):
                raise RuntimeError("unhashable")

        with pytest.raises(TypeError, match="^mistyped OnChainTx.sender$"):
            contract.OnChainTx("alpha", "c0", HashRaises("S"), contract.OPEN_TX, contract.OpenPayload(5))

        @dataclasses.dataclass(frozen=True)
        class Sub(contract.OnChainTx):
            pass

        net = Simnet()
        c = chain.Chain("alpha", 3, chain.TimerConfig(6, 6, 10, 20))
        net.add_chain(c)
        actor = net.actors["alpha"]
        sub = Sub("alpha", "c0", "S", contract.OPEN_TX, contract.OpenPayload(5))
        actor.on_message(net, Message("tx", "S", "alpha", sub))
        assert actor.rejected == {"tx: not of class OnChainTx": 1} and c.mempool == [] and net.trace == []

    def test_mistyped_kind_leaves_trace_serializable(self):
        """A transaction whose kind is bytes, which the run trace could not
        serialize, cannot be built; a well-typed submission is traced."""
        net = Simnet()
        c = chain.Chain("alpha", 3, chain.TimerConfig(6, 6, 10, 20))
        c.create_account("S", 10)
        net.add_chain(c)
        actor = net.actors["alpha"]
        with pytest.raises(TypeError, match="^mistyped OnChainTx.kind$"):
            contract.OnChainTx("alpha", "c0", "S", b"Open", contract.OpenPayload(5))
        tx = contract.OnChainTx("alpha", "c0", "S", contract.OPEN_TX, contract.OpenPayload(5))
        actor.on_message(net, Message("tx", "S", "alpha", tx))
        assert not actor.rejected
        assert net.trace == [{"tick": 0, "kind": "submit", "chain_id": "alpha", "tx_kind": "Open",
                              "from": "S", "accepted": False, "why": "bad signature"}]
        assert scenario.trace_bytes(net.trace) == json.dumps(net.trace[0]).encode()


class FiledFromNow(Simnet):
    """A Simnet that checks, at each send and wakeup, that no message waits
    in the list of a tick before the current one."""

    def send(self, *args):
        super().send(*args)
        assert min(self.pending) >= self.now

    def wakeup(self, *args):
        super().wakeup(*args)
        assert min(self.pending) >= self.now


_DELAYS = st.one_of(st.builds(lambda d: {"kind": "fixed", "fixed": d}, st.integers(0, 3)),
                    st.builds(lambda lo, w: {"kind": "uniform", "lo": lo, "hi": lo + w},
                              st.integers(0, 2), st.integers(0, 3)))
_ENDS = st.sampled_from(["S", "R", "alpha", "beta", "M.alpha.1", "*"])
_LATENCIES = st.builds(lambda base, links: dict(base, overrides=[dict(d, src=s, dst=t) for s, t, d in links]),
                       _DELAYS, st.lists(st.tuples(_ENDS, _ENDS, _DELAYS), max_size=2))
_CONFIGS = st.builds(scenario.ScenarioConfig, mode=st.sampled_from(scenario.MODES),
                     baseline=st.sampled_from(scenario.BASELINES), seed=st.integers(0, 99),
                     channels=st.integers(1, 3), receipts_n=st.integers(0, 4), byzantine_miners=st.integers(0, 1),
                     latency=_LATENCIES, max_ticks=st.one_of(st.integers(0, 60), st.just(4000)))


class TestOneQueue:
    """Both modes queue every message, carrying its window, in the FIFO list
    of the tick it is first deliverable at."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=_CONFIGS)
    @example(cfg=scenario.ScenarioConfig(mode="EIE", channels=2, receipts_n=3, max_ticks=20,
                                         latency={"kind": "uniform", "lo": 0, "hi": 2}))
    def test_runs_as_the_heap_did(self, cfg):
        """A drawn scenario (any mode and baseline, fixed delays from 0,
        uniform windows from 0, per-link overrides, 1-3 channels, and a
        max_ticks that may cut the run with messages undelivered, as the
        explicit example does) gives the same trace and metrics bytes on the
        per-tick lists as on the reference heap, and no message is filed
        under a tick before the current one."""
        runs = []
        for net_class in (FiledFromNow, HeapSimnet):
            with mock.patch.object(scenario, "Simnet", net_class):
                metrics, trace = scenario.run_scenario(cfg)
            runs.append((scenario.trace_bytes(trace), metrics.to_json()))
        assert runs[0] == runs[1]

    def test_run_mode_delivers_in_lo_seq_order(self):
        slow = LatencyModel(overrides=(("a", "sink", LatencyModel(fixed=3)),))
        net = Simnet(seed=1, latency=slow)
        rec = Recorder()
        net.register("sink", rec)
        net.send("ping", "a", "sink", {"i": 0})  # due at 3
        net.send("ping", "b", "sink", {"i": 1})  # due at 1
        net.wakeup("sink", 3, {"i": 2})
        net.send("ping", "b", "sink", {"i": 3})  # due at 1
        net.send("ping", "a", "sink", {"i": 4})  # due at 3, due past the run
        assert all(m.lo == lo for lo, due in net.pending.items() for m in due)
        assert [(m.lo, m.seq, m.hi) for m in net.queued()] == [
            (1, 2, 1), (1, 4, 1), (3, 1, 3), (3, 3, 3), (3, 5, 3)]
        assert net.in_flight == 5
        net.run_until(max_tick=2)
        assert rec.got == [(1, "ping", 1), (1, "ping", 3)]
        assert [e["kind"] for e in net.trace[-3:]] == ["undelivered"] * 3
        net.run_until(max_tick=5)
        assert rec.got[2:] == [(3, "ping", 0), (3, "wakeup", 2), (3, "ping", 4)]
        assert net.pending == {} and net.in_flight == 0

    def test_enumerate_mode_queues_windows_in_the_same_lists(self):
        net = Simnet(seed=1, latency=LatencyModel(kind="uniform", lo=2, hi=5), mode="enumerate")
        net.send("ping", "a", "sink", {})
        net.wakeup("sink", 1, {})
        assert [(m.lo, m.seq, m.hi) for m in net.queued()] == [(1, 2, 1), (2, 1, 5)]


FORK_NODES = int(os.environ.get("XCHAN_FORK_NODES", "25"))
REAL_RUN_NODES = 21_231  # explored from the real-run world at latency [1, 1]


class _Enough(Exception):
    pass


def _check_choices(monkeypatch) -> list:
    """Make every _choices call the explorer makes also check its list
    against the pairwise reference; returns [calls so far]."""
    scan, calls = simnet._choices, [0]

    def checked(net, horizon):
        got = scan(net, horizon)
        assert got == choices_pairwise(net, horizon)
        calls[0] += 1
        return got

    monkeypatch.setattr(simnet, "_choices", checked)
    return calls


def _real_run_at_close():
    """A real CE run (one receipt, every link fixed at one tick) paused as
    both chains hold c0 at Close, with its 8 miners, channel views, send
    plans and run-mode delay generator."""
    world = _opened(scenario.ScenarioConfig(mode="CE", receipts_n=1, latency={"kind": "fixed", "fixed": 1}))
    sessions = [c.contract.sessions for c in (world.alpha, world.beta)]
    world.net.run_until(lambda: all("c0" in s and s["c0"].state == contract.CLOSE for s in sessions),
                        max_tick=world.config.max_ticks)
    return world.net


@functools.cache
def _close_phase_outcomes(profile, assist):
    return atomicity.enumerate_close_phase(profile, assist).outcomes


class TestExploreFromARun:
    @pytest.mark.parametrize("tick", (1, 4, 8, 13, 20))
    @pytest.mark.parametrize("assist", (True, False))
    @pytest.mark.parametrize("profile", atomicity.PROFILES)
    def test_forked_run_explores_inside_the_close_phase(self, profile, assist, tick):
        """A run paused at tick, forked and set to enumerate mode, is an
        explorable world: its outcomes are among those of the whole close
        phase, and so is the outcome of the run itself."""
        net = atomicity.build_close_phase_world(profile, assist, 1, mode="run")
        net.run_until(lambda: net.now >= tick, max_tick=tick)
        w = net.fork()
        w.mode = "enumerate"
        got = enumerate_schedules(lambda: w, atomicity.outcome_of, horizon=atomicity.HORIZON)
        assert got.outcomes and got.outcomes <= _close_phase_outcomes(profile, assist)
        net.run_until(lambda: atomicity.outcome_of(net) is not None, max_tick=atomicity.HORIZON)
        assert atomicity.outcome_of(net) in got.outcomes

    def test_real_run_fork_explores_the_whole_close(self, monkeypatch):
        """A fork of the real-run world shares no mutable state with it, and
        explores as measured: 21,231 nodes, 18 schedules, both chains Success.
        At every node that is not terminal, the scheduler's scan lists the
        pairwise reference's choices."""
        net = _real_run_at_close()
        assert net.now == 36 and len(net.actors) == 12
        w = net.fork()
        assert _shared_mutables(net, w) == []
        w.mode = "enumerate"
        scanned = _check_choices(monkeypatch)
        got = enumerate_schedules(lambda: w, atomicity.outcome_of, horizon=atomicity.HORIZON)
        assert (got.nodes, got.schedules) == (REAL_RUN_NODES, 18)
        assert got.nodes - got.schedules <= scanned[0] < got.nodes
        assert got.outcomes == {(contract.SUCCESS, contract.SUCCESS)}

    def test_real_run_forks_share_no_mutable_state(self):
        """At each of the first FORK_NODES nodes (XCHAN_FORK_NODES) of the
        real-run exploration, a fork and its original reach no mutable
        container and no unsealed world object in common."""
        w = _real_run_at_close().fork()
        w.mode = "enumerate"
        walked = [0]

        def outcome(net):
            if walked[0] == FORK_NODES:
                raise _Enough
            assert _shared_mutables(net, net.fork()) == []
            walked[0] += 1
            return atomicity.outcome_of(net)

        try:
            enumerate_schedules(lambda: w, outcome, horizon=atomicity.HORIZON)
        except _Enough:
            pass
        assert walked[0] >= min(FORK_NODES, REAL_RUN_NODES)

    def test_max_tick_stop_explores_as_a_predicate_stop(self):
        """A run stopped by max_tick=3 (time 4, tick 4's blocks not yet
        produced) explores as one stopped by a predicate at tick 4 (its
        blocks produced): taking the first choice each time, alpha's blocks
        fall at ticks 4, 8, 12 and 16 after either, and the whole tree
        reaches the close phase's outcomes. Four blocks, the last at tick
        16, are those four: every alpha boundary up to 16 makes one."""
        def paused(stop):
            net = atomicity.build_close_phase_world("honest", True, 1, mode="run")
            stop(net)
            w = net.fork()
            w.mode = "enumerate"
            return w

        def first_choice_block_ticks(w):
            while atomicity.outcome_of(w) is None and (choices := simnet._choices(w, atomicity.HORIZON)):
                simnet._take(w, choices[0])
            return len(w.chains[0].blocks), w.chains[0].now

        by_max_tick = paused(lambda net: net.run_until(max_tick=3))
        by_predicate = paused(lambda net: net.run_until(lambda: net.now >= 4, max_tick=4))
        assert by_max_tick.now == by_predicate.now == 4
        assert first_choice_block_ticks(by_max_tick.fork()) == (4, 16)
        assert first_choice_block_ticks(by_predicate) == (4, 16)
        got = enumerate_schedules(lambda: by_max_tick, atomicity.outcome_of, horizon=atomicity.HORIZON)
        assert got.outcomes == _close_phase_outcomes("honest", True)


class TestLinearScan:
    """The scheduler's one-pass scan lists what the pairwise reference
    lists, in the same order."""

    @settings(max_examples=400, deadline=None)
    @given(now=st.integers(0, 12), produced=st.integers(0, 12), intervals=st.lists(st.integers(1, 6), max_size=2),
           horizon=st.integers(0, 20),
           msgs=st.lists(st.tuples(st.sampled_from([("a", "b"), ("b", "a"), ("a", "c"), ("a", "a")]), st.booleans(),
                                   st.integers(0, 12), st.integers(0, 4)), max_size=14))
    def test_generated_pending_sets(self, now, produced, intervals, horizon, msgs):
        """Links and wakeups mixed, windows overlapping and hi values tied:
        a wakeup goes from an actor to itself, any other message on one of
        a few links (one of them an actor's link to itself, which is not its
        timers), each with a window of up to four ticks."""
        net = Simnet(mode="enumerate")
        net.now, net._produced = now, min(produced, now)
        net.chains = [types.SimpleNamespace(block_interval=k) for k in intervals]
        for seq, ((src, dst), wakeup, lo, span) in enumerate(msgs, 1):
            kind, src = ("wakeup", dst) if wakeup else ("ping", src)
            net.pending.setdefault(lo, []).append(Message(kind, src, dst, None, lo, seq, lo + span))
        net.in_flight = len(msgs)
        assert simnet._choices(net, horizon) == choices_pairwise(net, horizon)

    @pytest.mark.parametrize("assist", (True, False))
    @pytest.mark.parametrize("profile", atomicity.PROFILES)
    def test_every_close_phase_node(self, profile, assist, monkeypatch):
        scanned = _check_choices(monkeypatch)
        got = atomicity.enumerate_close_phase(profile, assist)
        assert got.nodes - got.schedules <= scanned[0] < got.nodes


class TestEnumeration:
    def test_independent_messages_factorial(self):
        for k in (1, 2, 3, 4):
            res = enumerate_schedules(make_enum_world(k), order_outcome, bound=12, horizon=10)
            assert res.schedules == math.factorial(k)
            assert len(res.outcomes) == math.factorial(k)

    def test_causal_chain_single_order(self):
        res = enumerate_schedules(make_enum_world(0, chain_depth=3), order_outcome,
                                  bound=12, horizon=10)
        assert res.schedules == 1

    def test_chain_plus_independent_linear_extensions(self):
        # one causal chain of 2 deliveries interleaved with 1 independent
        # message: C(3,1) = 3 linear extensions; windows must be loose
        # enough that no ordering strands the independent message
        def outcome(net):
            if net.pending:
                return None
            return tuple(k for _t, k, _i in net.world_rec.got)

        loose = LatencyModel(kind="uniform", lo=1, hi=9)
        world = make_enum_world(1, chain_depth=1, latency=loose)
        want = enumerate_schedules_copying(world, outcome, bound=12, horizon=12)
        assert want.schedules == 3
        # the ping and the chain's head both reach different actors at
        # tick 1, so the reduced explorer tries one of their two orders
        got = enumerate_schedules(world, outcome, bound=12, horizon=12)
        assert got.outcomes == want.outcomes and got.schedules == 2

    def test_tight_windows_prune_stranding_orders(self):
        # with one-tick windows the chain tail cannot jump ahead of the
        # still-pending independent message: only 2 orders survive, and
        # those differ only in the order of two same-tick deliveries
        world = make_enum_world(1, chain_depth=1)
        want = enumerate_schedules_copying(world, order_outcome, bound=12, horizon=10)
        assert want.schedules == 2
        got = enumerate_schedules(world, order_outcome, bound=12, horizon=10)
        assert got.outcomes == want.outcomes and got.schedules == 1

    def test_bound_overflow(self):
        with pytest.raises(BoundExceeded):
            enumerate_schedules(make_enum_world(5), order_outcome, bound=4, horizon=10)

    def test_a_delivery_never_jumps_a_block_boundary(self):
        """R's open, due at tick 9, is delivered only once alpha's blocks at
        4 and 8 are behind it. Delivered straight from tick 1, it would
        produce both blocks at once and strand the tick-4 event to R past
        its one-tick window: a stall no schedule of the protocol can reach."""

        class Sink:
            def on_message(self, net, msg):
                pass

        def world():
            latency = LatencyModel(overrides=(("R", "alpha", LatencyModel(fixed=9)),))
            net = Simnet(seed=1, latency=latency, mode="enumerate")
            alpha = chain.Chain("alpha", 4, chain.TimerConfig(4, 4, 8))
            net.add_chain(alpha)
            net.register("R", Sink())
            net.subscribe(alpha, "R")
            for name in ("S", "R"):
                kp = keypair_from_label("boundary:" + name)
                alpha.create_account(kp.address, 100)
                tx = contract.make_tx(kp, "alpha", "c0", contract.OPEN_TX, contract.OpenPayload(10))
                net.send("tx", name, "alpha", tx)
            return net

        def state(net):
            if net.pending or net.chains[0].mempool:
                return None
            return (net.chains[0].contract.sessions["c0"].state,)

        got = enumerate_schedules(world, state, bound=12, horizon=20)
        assert got.outcomes == {(contract.OPEN_CE,)}
        assert _counts(got) == (8, 1)


# (nodes, schedules) of the reference explorer, then of the reduced one;
# they differ where two same-tick deliveries reach different actors
SYNTHETIC_COUNTS = [((2, 1),) * 2, ((5, 2),) * 2, ((16, 6),) * 2, ((65, 24),) * 2, ((3, 1),) * 2,
                    ((7, 2), (5, 1)), ((35, 12), (21, 6)), ((3, 1),) * 2]

SYNTHETIC_WORLDS = [
    (make_enum_world(k), order_outcome, 10) for k in (1, 2, 3, 4)
] + [
    (make_enum_world(0, chain_depth=3), order_outcome, 10),
    (make_enum_world(1, chain_depth=1), order_outcome, 10),
    (make_enum_world(2, chain_depth=2, latency=LatencyModel(kind="uniform", lo=1, hi=3)),
     order_outcome, 12),
    (make_timer_world, order_outcome, 20),
]


def _counts(res):
    return res.nodes, res.schedules


class TestForkingExplorer:
    """enumerate_schedules forks only where a choice needs it and tries one
    order of commuting deliveries; the reference explorer copies the world
    for every child and tries every order."""

    @pytest.mark.parametrize("i", range(len(SYNTHETIC_WORLDS)))
    def test_synthetic_worlds_match_reference(self, i):
        factory, outcome, horizon = SYNTHETIC_WORLDS[i]
        got = enumerate_schedules(factory, outcome, bound=12, horizon=horizon)
        want = enumerate_schedules_copying(factory, outcome, bound=12, horizon=horizon)
        assert got.outcomes == want.outcomes
        assert (_counts(want), _counts(got)) == SYNTHETIC_COUNTS[i]

    def test_reference_fires_timers_in_tick_order_as_a_run_does(self):
        """The wakeup set for tick 6 fires before the one set earlier for
        tick 16, in a run and in the reference: one that held an actor's
        wakeups in send order found only a stall."""
        run = make_timer_world("run")
        run.run_until(max_tick=20)
        want = enumerate_schedules_copying(make_timer_world, order_outcome, bound=12, horizon=20)
        assert want.outcomes == {order_outcome(run)} == {(6, 16)}

    @pytest.mark.parametrize("seed", range(16))
    def test_close_phase_matches_reference(self, seed):
        wants, gots = [], []
        for profile in atomicity.PROFILES:
            for assist in (True, False):
                got = atomicity.enumerate_close_phase(profile, assist, seed=seed)
                want = enumerate_schedules_copying(
                    lambda: atomicity.build_close_phase_world(profile, assist, seed),
                    atomicity.outcome_of, bound=12, horizon=atomicity.HORIZON)
                assert got.outcomes == want.outcomes, (profile, assist)
                assert got.nodes <= want.nodes, (profile, assist)
                wants.append(_counts(want))
                gots.append(_counts(got))
        if seed == 1:  # (nodes, schedules) over the ten cases
            assert tuple(map(sum, zip(*wants))) == (213, 41)
            assert tuple(map(sum, zip(*gots))) == (144, 13)

    def test_a_world_that_cannot_end_is_stalled(self):
        """With S's lock submission taken from the close phase, no session
        ever ends: the only schedule advances block by block to the horizon
        and is reported stalled, by the explorer and by the reference."""
        def factory():
            net = atomicity.build_close_phase_world("honest", True)
            (lock,) = [m for m in net.queued() if m.kind == "tx"]
            net.remove(lock.seq)
            return net

        got = enumerate_schedules(factory, atomicity.outcome_of, horizon=atomicity.HORIZON)
        want = enumerate_schedules_copying(factory, atomicity.outcome_of, horizon=atomicity.HORIZON)
        assert (got.outcomes, got.schedules, got.nodes) == ({("stalled",)}, 1, 17)
        assert want.outcomes == got.outcomes


def _close_phase_world_with_history():
    """Close-phase world after S's lock lands in the first alpha block, so
    the trace and both chains have entries to share."""
    net = atomicity.build_close_phase_world("honest", True)
    msg = net.remove(next(net.queued()).seq)
    net.advance(msg.lo)
    net._deliver(msg)
    net.advance(atomicity.CLOSE_PHASE[True].block_interval_alpha)
    return net


def _observable(net):
    return {
        "now": net.now,
        "pending": list(net.queued()),  # each message with its seq and window
        "trace": len(net.trace),
        "blocks": {c.chain_id: list(c.blocks) for c in net.chains},
        "accounts": {c.chain_id: dict(c.accounts) for c in net.chains},
        "sessions": {c.chain_id: {sid: s.state for sid, s in c.contract.sessions.items()}
                     for c in net.chains},
        "party_states": {n: {(c, sid): side.state
                             for sid, ps in net.actors[n].sessions.items()
                             for c, side in ps.sides.items()} for n in ("S", "R")},
    }


class TestFork:
    def test_fork_leaves_original_unchanged(self):
        net = _close_phase_world_with_history()
        assert net.trace and all(c.blocks for c in net.chains)
        before = _observable(net)
        w = net.fork()
        res = enumerate_schedules(lambda: w, atomicity.outcome_of, horizon=atomicity.HORIZON)
        assert res.outcomes and atomicity.atomic_outcomes_only(res)
        # the fork itself was explored in place: its last path may end in
        # a pruned node rather than an outcome, but it moved on
        assert w.now > net.now and len(w.trace) > len(net.trace)
        assert _observable(net) == before
        assert atomicity.outcome_of(net) is None

    def test_fork_shares_only_immutable_state(self):
        net = _close_phase_world_with_history()
        w = net.fork()
        assert all(a is b for a, b in zip(net.trace, w.trace))
        assert w.trace is not net.trace
        for c, wc in zip(net.chains, w.chains):
            assert wc is not c
            assert wc.blocks is not c.blocks
            assert all(a is b for a, b in zip(c.blocks, wc.blocks))
            assert wc.contract.sessions["c0"] is not c.contract.sessions["c0"]
        for name in ("S", "R"):
            p, wp = net.actors[name], w.actors[name]
            assert wp is not p
            assert wp.sessions is not p.sessions
            assert wp.sessions["c0"] is not p.sessions["c0"]
            assert all(wp.keys[cid] is kp for cid, kp in p.keys.items())
        miner, wminer = net.actors["M"], w.actors["M"]
        assert wminer is not miner
        assert wminer.kp is miner.kp
        assert wminer.behavior is miner.behavior
        assert wminer.chain is w.chains[0]

    def test_close_phase_worlds_build_no_generator(self):
        # the generators are built on first draw, and nothing in the close
        # phase draws, so no fork copies one
        nets = []

        def outcome(net):
            nets.append(net)
            return atomicity.outcome_of(net)

        enumerate_schedules(lambda: atomicity.build_close_phase_world("honest", True), outcome,
                            horizon=atomicity.HORIZON)
        assert len(nets) > 1
        for net in nets:
            assert "rng" not in vars(net)
            assert all("rng" not in vars(net.actors[name]) for name in ("S", "R"))


_WALK_STOPS = (types.ModuleType, type, types.FunctionType, types.BuiltinFunctionType)
_MUTABLE = (dict, list, set)  # Counter is a dict


def _sealed(obj) -> bool:
    params = getattr(type(obj), "__dataclass_params__", None)
    return (params is not None and params.frozen) or isinstance(obj, KeyPair)


def _reachable(root, allowed: set) -> dict:
    """id -> object for everything reachable from root, walking neither into
    sealed values nor past modules, types, functions or allowed objects."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in allowed or isinstance(obj, _WALK_STOPS):
            continue
        seen[id(obj)] = obj
        if not _sealed(obj):
            stack.extend(gc.get_referents(obj))
    return seen


def _allowed(net) -> set:
    """What a fork may share with its original besides sealed values: trace
    entries. Message data sits inside sealed messages."""
    return {id(entry) for entry in net.trace}


def _shared_mutables(net, w) -> list:
    """Mutable containers and unsealed xchan objects other than tuples (a
    queued entry, its message) both worlds reach; tuples are walked into."""
    allowed = _allowed(net) | _allowed(w)
    mine, theirs = _reachable(net, allowed), _reachable(w, allowed)
    return [obj for i, obj in mine.items() if i in theirs and (
        isinstance(obj, _MUTABLE)
        or (type(obj).__module__.startswith("xchan") and not _sealed(obj) and not isinstance(obj, tuple)))]


# the classes whose __deepcopy__ names what a fork copies
WORLD_CLASSES = (engine.Party, engine.PartySession, engine.ChainSide, engine.ChannelView,
                 engine.SendPlan, engine.ExchangeState, engine.Miner,
                 chain.Chain, contract.ChannelContract, contract.ContractSession,
                 simnet.ChainActor, simnet.Simnet)


def _opened(cfg):
    """cfg's run-mode world with every party's opens submitted."""
    world = scenario.build_world(cfg)
    scenario.start_sessions(world)
    return world


def _start(cfg, tick):
    """cfg's run-mode world, run up to and including tick."""
    world = _opened(cfg)
    # a predicate stop leaves nothing due at tick: resuming delivers and
    # produces exactly what an uninterrupted run would
    world.net.run_until(lambda: world.net.now >= tick, max_tick=cfg.max_ticks)
    return world


def _finish(world):
    trace = world.net.run_until(lambda: scenario.settled(world.net), max_tick=world.config.max_ticks)
    return scenario.trace_bytes(trace), scenario.collect_metrics(world).to_json()


def _uninterrupted(cfg):
    metrics, trace = scenario.run_scenario(cfg)
    return scenario.trace_bytes(trace), metrics.to_json()


class TestForkIsolation:
    @pytest.mark.parametrize("profile", atomicity.PROFILES)
    @pytest.mark.parametrize("assist", (True, False))
    def test_fork_shares_no_mutable_state(self, profile, assist):
        """At every node of a seed-1 enumeration, a fork and its original
        reach no mutable container and no unsealed world object in common."""
        nodes = []

        def outcome(net):
            w = net.fork()
            assert _shared_mutables(net, w) == [], profile
            nodes.append(net)
            return atomicity.outcome_of(net)

        enumerate_schedules(lambda: atomicity.build_close_phase_world(profile, assist, 1), outcome,
                            horizon=atomicity.HORIZON)
        assert len(nodes) > 1

    def test_copy_lists_name_held_attributes(self):
        """Each name in a world class's copy list is an attribute every
        instance of it holds, in a finished three-level CE run, a finished
        EIE run and a close-phase world: a stale or misspelt name would
        leave its container to a deep copy, unnoticed."""
        worlds = [_close_phase_world_with_history()]
        for cfg in (scenario.ScenarioConfig(mode="CE", receipts_n=4, seed=8, levels=3, sub_funding=(30, 10),
                                            sub_receipts=(3, 2)),
                    scenario.ScenarioConfig(mode="EIE", seed=15, byzantine_miners=1)):
            net = _opened(cfg).net
            net.run_until(lambda: scenario.settled(net), max_tick=cfg.max_ticks)
            worlds.append(net)
        seen = set()
        for net in worlds:
            for obj in _reachable(net, set()).values():
                copies = getattr(getattr(type(obj), "__deepcopy__", None), "copies", None)
                if copies is not None:
                    seen.add(type(obj))
                    assert set(copies) <= vars(obj).keys(), type(obj)
        assert seen == set(WORLD_CLASSES)

    def test_walk_finds_a_shared_container(self):
        net = _close_phase_world_with_history()
        w = net.fork()
        w.chains[0].accounts = net.chains[0].accounts
        assert _shared_mutables(net, w) == [net.chains[0].accounts]

    @pytest.mark.parametrize("cfg,tick", [
        # sub-channel opening mid-pump, uniform delays drawn from the network's generator
        (scenario.ScenarioConfig(mode="CE", receipts_n=10, seed=7, levels=2, sub_funding=(20,),
                                 sub_receipts=(2,), latency={"kind": "uniform", "lo": 1, "hi": 3}), 13),
        # after the uploads: dealings drawn, shares on their way to the miners
        (scenario.ScenarioConfig(mode="EIE", seed=15, byzantine_miners=1), 10),
        # during recovery: miners hold shares, one withholds
        (scenario.ScenarioConfig(mode="EIE", seed=15, byzantine_miners=1), 53),
    ], ids=["ce_levels2", "eie_dealt", "eie_recovering"])
    def test_hooked_fork_runs_like_a_plain_deep_copy(self, cfg, tick, monkeypatch):
        world = _start(cfg, tick)
        hooked = copy.deepcopy(world)
        for cls in WORLD_CLASSES:
            monkeypatch.delattr(cls, "__deepcopy__")
        plain = copy.deepcopy(world)
        monkeypatch.undo()
        want = _uninterrupted(cfg)
        assert _finish(hooked) == want
        assert _finish(plain) == want
        assert _finish(world) == want


def _explorable(net):
    """A fork of net's paused run, set to enumerate mode."""
    w = net.fork()
    w.mode = "enumerate"
    return w


# the shipped configs, then two latency mixes: uniform FE, and CE with one slow link
RUNS = [pytest.param(scenario.ScenarioConfig.from_json(str(path)), id=path.stem)
        for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))] + [
    pytest.param(scenario.ScenarioConfig(mode="FE", receipts_n=6, seed=9,
                                         latency={"kind": "uniform", "lo": 1, "hi": 3}), id="fe_uniform"),
    pytest.param(scenario.ScenarioConfig(mode="CE", receipts_n=2, seed=327, latency={
        "kind": "fixed", "fixed": 2, "overrides": [{"src": "beta", "dst": "R", "fixed": 68}]}), id="ce_slow_link"),
]


class TestEveryRunIsASchedule:
    """The explorer offers every step a run takes, so a fork of a paused
    run explores what the run itself does."""

    @pytest.mark.parametrize("mode,steps", [("CE", 108), ("EIE", 143)])
    def test_fork_at_open_walks_to_success(self, mode, steps):
        """A run paused at tick 4, both chains at Open_CE, forked and walked
        by its first choice each time, ends Success on both chains. Each
        actor's timers fire in tick order, so its tick-6 wakeup does not wait
        behind the one it set earlier for tick 16, which would strand the
        chain events due at tick 7."""
        world = _start(scenario.ScenarioConfig(mode=mode, receipts_n=1, latency={"kind": "fixed", "fixed": 1}), 4)
        assert scenario.session_states(world.net, "c0") == (contract.OPEN_CE, contract.OPEN_CE)
        w, taken = _explorable(world.net), 0
        while atomicity.outcome_of(w) is None and (choices := simnet._choices(w, world.config.max_ticks)):
            simnet._take(w, choices[0])
            taken += 1
        assert (atomicity.outcome_of(w), taken) == ((contract.SUCCESS, contract.SUCCESS), steps)

    @pytest.mark.parametrize("cfg", RUNS)
    def test_every_run_is_a_schedule(self, cfg):
        """Run cfg the way run_until does, and before each block and each
        delivery, the explorer's choices on the run's own world offer that
        step. _choices reads only the queue, the clock and the chains, never
        the mode, and changes nothing, so it is asked of the run itself."""
        net = _opened(cfg).net

        def offered(step):
            return step in simnet._choices(net, cfg.max_ticks)

        steps = 0
        while True:
            assert net.now <= cfg.max_ticks
            if net._produced < net.now and any(c.is_boundary(net.now) for c in net.chains):
                assert offered(("advance", net.now)), net.now
                steps += 1
            net.advance(net.now)
            while net.now in net.pending:
                msg = net.pending[net.now][0]
                assert offered(("deliver", msg.seq, net.now, msg.dst)), msg
                net._deliver(net.remove(msg.seq))
                steps += 1
            if scenario.settled(net):
                break
            net.now += 1
        assert steps > 100


class TestJudgeAFork:
    def test_a_bare_fork_is_judged_as_its_run(self):
        """A fork of an EIE run during recovery, finished in run mode with
        no World, ends with the outcomes and the invariants of the
        uninterrupted run, both plaintexts owed and recovered."""
        cfg = scenario.ScenarioConfig(mode="EIE", seed=15, byzantine_miners=1)
        w = _start(cfg, 53).net.fork()
        w.run_until(lambda: scenario.settled(w), max_tick=cfg.max_ticks)
        metrics, _ = scenario.run_scenario(cfg)
        sids = scenario.sessions(w)
        outcomes = {"%s:%s" % (c.chain_id, sid): state
                    for sid in sids for c, state in zip(w.chains, scenario.session_states(w, sid))}
        assert outcomes == metrics.outcomes
        owed = [(payee.name, side.chain_id) for payee, side in scenario.owed(w, "c0")]
        assert owed == [("S", "beta"), ("R", "alpha")]
        holds = (scenario.settled(w) and scenario.recovered(w)
                 and all(scenario.atomic(scenario.session_states(w, sid)) for sid in sids))
        assert holds is metrics.invariants_ok is True


class TestRng:
    def test_fixed_delays_build_no_generator(self):
        """Only a uniform window draws a delay: a run whose delays are all
        fixed never builds the network's generator."""
        nets = []
        for latency in ({"kind": "fixed", "fixed": 1}, {"kind": "uniform", "lo": 1, "hi": 2}):
            world = _opened(scenario.ScenarioConfig(receipts_n=4, seed=3, latency=latency))
            _finish(world)
            nets.append(world.net)
        assert ["rng" in vars(net) for net in nets] == [False, True]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**64), st.text(max_size=16)),
           window=st.one_of(st.integers(-2**20, 2**20).map(lambda lo: (lo, lo)), st.sampled_from([(1, 2), (1, 3)]),
                            st.tuples(st.integers(-2**20, 2**20), st.integers(0, 2**40)).map(
                                lambda w: (w[0], w[0] + w[1]))))
    def test_draws_match_random(self, seed, window):
        """Rng draws what random.Random draws, and between(lo, hi) is
        randint(lo, hi) draw for draw: the same values, leaving the
        generator in the same state."""
        a, b = Rng("party:S:1"), random.Random("party:S:1")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
        assert [a.randrange(10**40) for _ in range(5)] == [b.randrange(10**40) for _ in range(5)]
        a, b = Rng(seed), random.Random(seed)
        assert [a.between(*window) for _ in range(20)] == [b.randint(*window) for _ in range(20)]
        assert a.getstate() == b.getstate()

    def test_deep_copy_continues_and_is_independent(self):
        rng = Rng(7)
        rng.random()
        clone = copy.deepcopy(rng)
        assert type(clone) is Rng
        ahead = [clone.random() for _ in range(5)]
        assert [rng.random() for _ in range(5)] == ahead
