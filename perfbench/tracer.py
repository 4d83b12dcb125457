"""Per-layer spans and counters recorded from outside the program.

Every measured layer of ``xchan`` is observed by wrapping its public
functions and methods for the duration of a traced batch; nothing in the
package knows it is being traced. A span records name, start, end,
parent span and an operation id (session id, tree index or profile).
Self time is a span's duration minus the time its direct children cover.

Functions are wrapped at every module binding site: a name imported with
``from .crypto import verify`` is a separate binding in the importing
module, and a call through it would escape a wrapper installed on
``crypto`` alone. ``installed`` therefore replaces every global in every
loaded ``xchan`` module that *is* the original function object.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from collections import Counter

from xchan import chain, contract, crypto, engine, proofs, receipts, scenario, simnet, vss, wire

# Per-layer metrics reported by a traced run, in report order: (name, unit).
# Counts repeat exactly for the same inputs; shares are span self time over
# the traced batch's wall time (see ``trace.wall_s``).
SPAN_SHARES = (
    "crypto.verify",
    "crypto.sign",
    "crypto.pedersen",
    "receipts.replay",
    "engine.party.on_message",
    "engine.miner.on_message",
    "contract.execute",
    "contract.settle_levels",
    "contract.process_timers",
    "chain.produce_block",
    "chain.submit_tx",
    "simnet.run_until",
    "vss.share",
    "vss.verify_share",
    "vss.recover",
    "proofs.prove",
    "proofs.verify",
    "enum.deepcopy",
    "scenario.build_world",
    "scenario.collect_metrics",
)

COUNTS = (
    "crypto.verify.calls",
    "crypto.verify.distinct",
    "crypto.sign.calls",
    "crypto.pedersen.calls",
    "crypto.hash.calls",
    "wire.enc.calls",
    "wire.bytes_encoded",
    "receipts.replay.calls",
    "receipts.replay.steps",
    "receipts.make.calls",
    "engine.balances.calls",
    "engine.party.on_message.calls",
    "engine.miner.on_message.calls",
    "contract.execute.calls",
    "contract.execute.failed",
    "contract.settle_levels.calls",
    "contract.settle_levels.cutoffs",
    "contract.process_timers.calls",
    "chain.produce_block.calls",
    "chain.submit_tx.calls",
    "chain.submit_tx.rejected",
    "simnet.send.calls",
    "simnet.deliveries",
    "simnet.backlog_peak",
    "simnet.trace_entries",
    "vss.share.calls",
    "vss.verify_share.calls",
    "vss.recover.calls",
    "proofs.prove.calls",
    "proofs.verify.calls",
    "enum.nodes",
    "enum.schedules",
    "enum.deepcopy.calls",
    "scenario.sim_ticks",
    "scenario.onchain_txs",
    "scenario.receipts_processed",
)

RATIOS = (
    ("crypto.verify.useful_ratio", "ratio"),
    ("chain.txs_per_block", "txs/block"),
    ("scenario.sim_receipts_per_tick", "receipts/tick"),
)

TIMES = (
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

PER_LAYER = (
    [(name, "count") for name in COUNTS]
    + list(RATIOS)
    + [(name + ".self_share", "ratio") for name in SPAN_SHARES]
    + list(TIMES)
)


class Tracer:
    """Spans and counters for one traced batch; ``reset`` between batches."""

    def __init__(self):
        # wrappers hold these containers, so reset clears them in place
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, op)
        self.self_ns = Counter()
        self.counts = Counter()
        self.verify_keys = set()
        self._stack = []  # [span id, op, child ns]
        self.reset()

    def reset(self):
        for container in (self.spans, self.self_ns, self.counts, self.verify_keys, self._stack):
            container.clear()
        self.op = None  # operation id, set by the workload around each operation
        self._next_id = 0
        self._wire_depth = 0
        self._backlog = 0

    # -- wrappers ---------------------------------------------------------------

    def span(self, name, fn, op_of=None, before=None, after=None):
        """Wrap fn so each call records one span (and counts as a call)."""
        stack = self._stack
        clock = time.perf_counter_ns
        calls = name + ".calls"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            op = op_of(args) if op_of is not None else None
            if op is None:
                op = parent[1] if parent is not None else self.op
            if before is not None:
                before(args, kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, op, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.self_ns[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                self.spans.append((sid, name, start, end, parent[0] if parent else None, op))
                self.counts[calls] += 1
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn, before=None):
        """Wrap fn so each call only bumps a counter."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args, kwargs)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def encoder(self, fn):
        """Count top-level wire encodings and the bytes they produce;
        encoders nested inside another encoder are not counted again."""

        def encoded(*args, **kwargs):
            if self._wire_depth:
                return fn(*args, **kwargs)
            self._wire_depth = 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._wire_depth = 0
            self.counts["wire.enc.calls"] += 1
            self.counts["wire.bytes_encoded"] += len(out)
            return out

        encoded.__wrapped__ = fn
        return encoded

    # -- simnet backlog ---------------------------------------------------------

    def _queued(self, args, kwargs):
        self._backlog += 1
        if self._backlog > self.counts["simnet.backlog_peak"]:
            self.counts["simnet.backlog_peak"] = self._backlog

    def _delivered(self, args, kwargs):
        self._backlog -= 1
        self.counts["simnet.deliveries"] += 1

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, wall_ns: int) -> dict:
        """Counts, ratios and self-time shares of this batch (no TIMES)."""
        c = self.counts
        c["crypto.verify.distinct"] = len(self.verify_keys)
        out = {name: c[name] for name in COUNTS}
        calls = c["crypto.verify.calls"]
        blocks = c["chain.produce_block.calls"]
        out["crypto.verify.useful_ratio"] = c["crypto.verify.distinct"] / calls if calls else 0.0
        out["chain.txs_per_block"] = c["chain.txs_in_blocks"] / blocks if blocks else 0.0
        out["scenario.sim_receipts_per_tick"] = c["scenario.sim_receipts_per_tick"]
        for name in SPAN_SHARES:
            out[name + ".self_share"] = self.self_ns[name] / wall_ns
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# Operation ids


def _tx_session(args):
    return getattr(args[1], "session_id", None)


def _msg_session(args):
    """Session id a delivered message belongs to, where it names one."""
    data = getattr(args[2], "data", None)
    if not isinstance(data, dict):
        return None
    if "session_id" in data:
        return data["session_id"]
    for key in ("tr", "tx"):
        if key in data:
            return getattr(data[key], "session_id", None)
    if "sr" in data:
        return getattr(getattr(data["sr"], "receipt", None), "session_id", None)
    for key in ("pump", "try_close", "force_close"):
        if key in data:
            return data[key][1]
    return data.get("assist")


# ---------------------------------------------------------------------------
# Installation


class _CopyProxy:
    """Stands in for the ``copy`` module inside simnet only."""

    def __init__(self, deepcopy):
        self.deepcopy = deepcopy

    def __getattr__(self, name):
        return getattr(copy, name)


def _xchan_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "xchan" or n.startswith("xchan."))]


class installed:
    """Context manager: wrap every measured boundary, restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _function(self, fn, wrapped):
        for mod in _xchan_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def __enter__(self):
        t = self.tracer

        def note_verify(args, kwargs):
            t.verify_keys.add(args + tuple(kwargs.values()))

        def note_replay(args, kwargs):
            folded = args[1] if len(args) > 1 else kwargs.get("receipts")
            if hasattr(folded, "__len__"):
                t.counts["receipts.replay.steps"] += len(folded)

        def note_cutoff(result):
            if result.cutoff_level is not None:
                t.counts["contract.settle_levels.cutoffs"] += 1

        def note_block(args, kwargs):
            t.counts["chain.txs_in_blocks"] += len(args[0].mempool)

        def note_rejected(result):
            if not result[0]:
                t.counts["chain.submit_tx.rejected"] += 1

        def note_failed(result):
            if not result[0]:
                t.counts["contract.execute.failed"] += 1

        functions = [
            (crypto.verify, t.span("crypto.verify", crypto.verify, before=note_verify)),
            (crypto.hash_bytes, t.count("crypto.hash.calls", crypto.hash_bytes)),
            (crypto.pedersen_commit, t.span("crypto.pedersen", crypto.pedersen_commit)),
            (receipts.replay_receipts,
             t.span("receipts.replay", receipts.replay_receipts, before=note_replay)),
            (receipts.make_receipt, t.count("receipts.make.calls", receipts.make_receipt)),
            (contract.settle_levels,
             t.span("contract.settle_levels", contract.settle_levels, after=note_cutoff)),
            (vss.share, t.span("vss.share", vss.share)),
            (vss.verify_share, t.span("vss.verify_share", vss.verify_share)),
            (vss.recover, t.span("vss.recover", vss.recover)),
            (scenario.build_world, t.span("scenario.build_world", scenario.build_world)),
            (scenario.collect_metrics, t.span("scenario.collect_metrics", scenario.collect_metrics)),
        ]
        functions += [(fn, t.encoder(fn)) for attr, fn in sorted(vars(wire).items())
                      if attr.startswith("enc_") and callable(fn)]
        methods = [
            (crypto.KeyPair, "sign", lambda f: t.span("crypto.sign", f)),
            (engine.ChannelView, "balances", lambda f: t.count("engine.balances.calls", f)),
            (engine.Party, "on_message",
             lambda f: t.span("engine.party.on_message", f, op_of=_msg_session, before=t._delivered)),
            (engine.Miner, "on_message",
             lambda f: t.span("engine.miner.on_message", f, op_of=_msg_session, before=t._delivered)),
            (simnet.ChainActor, "on_message",
             lambda f: t.span("simnet.chain_actor.on_message", f, op_of=_msg_session,
                              before=t._delivered)),
            (chain.Chain, "produce_block", lambda f: t.span("chain.produce_block", f, before=note_block)),
            (chain.Chain, "submit_tx",
             lambda f: t.span("chain.submit_tx", f, op_of=_tx_session, after=note_rejected)),
            (contract.ChannelContract, "execute",
             lambda f: t.span("contract.execute", f, op_of=_tx_session, after=note_failed)),
            (contract.ChannelContract, "process_timers", lambda f: t.span("contract.process_timers", f)),
            (proofs.TransparentMacBackend, "prove", lambda f: t.span("proofs.prove", f)),
            (proofs.TransparentMacBackend, "verify", lambda f: t.span("proofs.verify", f)),
            (simnet.Simnet, "send", lambda f: t.count("simnet.send.calls", f, before=t._queued)),
            (simnet.Simnet, "wakeup", lambda f: t.count("simnet.wakeup.calls", f, before=t._queued)),
            (simnet.Simnet, "log", lambda f: t.count("simnet.trace_entries", f)),
            (simnet.Simnet, "run_until", lambda f: t.span("simnet.run_until", f)),
        ]
        try:
            for fn, wrapped in functions:
                self._function(fn, wrapped)
            for cls, attr, wrap in methods:
                self._set(cls, attr, wrap(vars(cls)[attr]))
            self._set(simnet, "copy", _CopyProxy(t.span("enum.deepcopy", copy.deepcopy)))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return t

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
