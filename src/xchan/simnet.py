"""Seeded discrete-event message fabric.

Parties, miners, and chains interact only through messages scheduled
here. Time is one global integer tick. At each tick, chains at a block
boundary produce blocks first, then due messages are delivered in
insertion order; a delivery may send further messages, including
zero-latency ones delivered within the same tick. Messages are delayed,
never dropped.

Two modes share the same actors, chains and queue, one heap of
PendingMsg delivery windows:

* run mode samples every delay from the seeded latency model, a window
  of one tick, and replays bit-identically for a given seed;
* enumerate mode gives each message its latency window and explores
  every feasible interleaving of deliveries and block boundaries,
  collecting the set of terminal outcomes.

A uniform delay is drawn as random.randint draws it, in one frame
(Rng.between): getrandbits of the width's bit length until the draw is
below the width. The explorer finds a node's choices in one pass over
its pending messages in seq order, keeping each link's head and the
earliest hi: one sort and one pass, with no message compared to every
other.

Parties, miners and chains check each delivered message one way, in dispatch.

Links are FIFO per (src, dst) pair: a later message never overtakes an
earlier one on the same link, so chain events reach a subscriber in
block order. Timers are not links: each actor's wakeups fire among
themselves in (tick, seq) order, as run mode queues them, so a timer set
for an early tick never waits behind one set earlier for a later tick.
"""

from __future__ import annotations

import copy
import heapq
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .chain import ChainEvent
from .contract import OnChainTx
from .forking import Shared, copier
from .wire import plan


MAX_SCHEDULES = 500_000  # an enumeration that passes this many schedules is abandoned


class BoundExceeded(RuntimeError):
    pass


class Rng(random.Random):
    """random.Random whose deep copy clones the generator state in C, with
    randint's bounded draw in one frame.

    Seeded draws are those of random.Random; a plain deep copy would copy
    the 625-int state tuple one element at a time.
    """

    def between(self, lo: int, hi: int) -> int:
        """randint(lo, hi), draw for draw: getrandbits(k) for the width's k
        bits until below the width (lo == hi still draws once)."""
        width = hi - lo + 1
        k = width.bit_length()
        r = self.getrandbits(k)
        while r >= width:
            r = self.getrandbits(k)
        return lo + r

    def __deepcopy__(self, memo):
        clone = type(self).__new__(type(self))
        clone.setstate(self.getstate())
        return clone


class Message(NamedTuple):
    """One message in flight. Neither it nor its data is mutated after
    send, so world forks share it."""

    kind: str
    src: str
    dst: str
    data: object  # the class its receiver declares for kind: a tx, a chain event, a Timer, ...

    def __deepcopy__(self, memo):
        return self


@dataclass(frozen=True)
class LatencyModel(Shared):
    """Fixed or uniform delay, with targeted per-pair overrides.

    Override keys are (src, dst) names; "*" matches anything on one side.
    A window is the inclusive range of delays a message may take; in run
    mode a delay is sampled from it, in enumerate mode every delivery
    tick inside it is explored.
    """

    kind: str = "fixed"  # "fixed" | "uniform"
    fixed: int = 1
    lo: int = 1
    hi: int = 1
    overrides: tuple = ()  # ((src, dst, LatencyModel), ...)
    _UNREAD = {"fixed": ("lo", "hi"), "uniform": ("fixed",)}  # kind -> the delays it does not read

    def __post_init__(self):
        if self.kind not in ("fixed", "uniform"):
            raise ValueError("unknown latency kind %r" % self.kind)
        if self.kind == "fixed" and self.fixed < 0:
            raise ValueError("negative delay")
        if self.kind == "uniform" and not (0 <= self.lo <= self.hi):
            raise ValueError("bad uniform bounds")

    def resolve(self, src: str, dst: str) -> "LatencyModel":
        for s, d, model in self.overrides:
            if (s == src or s == "*") and (d == dst or d == "*"):
                return model
        return self

    def window(self, src: str, dst: str) -> tuple[int, int]:
        m = self.resolve(src, dst)
        if m.kind == "fixed":
            return m.fixed, m.fixed
        return m.lo, m.hi

    @classmethod
    def from_config(cls, cfg: dict) -> "LatencyModel":
        """Build from a scenario's latency object, whose keys are this class's
        fields, a delay only among those its kind reads; an override adds src
        and dst names and holds no overrides. ValueError if malformed."""
        if not isinstance(cfg, dict):
            raise ValueError("latency must be an object")
        declared = dict(plan(cls))
        if unknown := set(cfg) - set(declared):
            raise ValueError("unknown keys %s" % sorted(map(str, unknown)))
        values = {name: cfg[name] for name in declared if name in cfg and name != "overrides"}
        if bad := [name for name, value in values.items() if not declared[name](value)]:
            raise ValueError("%s must be of type %s" % (bad[0], cls.__annotations__[bad[0]]))
        kind = values.get("kind", cls.kind)
        if unread := [name for name in cls._UNREAD.get(kind, ()) if name in values]:
            raise ValueError("kind %s reads no %s" % (kind, " or ".join(unread)))
        if not isinstance(cfg.get("overrides", ()), (list, tuple)):
            raise ValueError("overrides must be a list")
        overrides = []
        for o in cfg.get("overrides", ()):
            if not (isinstance(o, dict) and isinstance(o.get("src"), str) and isinstance(o.get("dst"), str)):
                raise ValueError("each override needs src and dst names")
            if "overrides" in o:
                raise ValueError("an override cannot hold overrides")
            rest = {k: v for k, v in o.items() if k not in ("src", "dst")}
            overrides.append((o["src"], o["dst"], cls.from_config(rest)))
        return cls(overrides=tuple(overrides), **values)


class PendingMsg(NamedTuple):
    """A queued message, the one entry of the delivery heap in either mode:
    deliverable at any tick from lo to hi (lo == hi in run mode), in
    (lo, seq) order, seq counting sends."""

    lo: int  # earliest deliverable tick, absolute
    seq: int
    msg: Message
    hi: int  # latest


class Timer(NamedTuple):
    """A wakeup an actor sets for itself: what is due (kind), for which
    session on which chain, and for a pump the channel path."""

    kind: str
    chain_id: str
    session_id: str
    path: tuple = ()


def dispatch(actor, net, msg: Message):
    """Run the actor's handler for msg's kind if msg is well formed, or else
    count msg in actor.rejected by reason: the one check every delivered
    message passes. Its data must be of exactly the class the actor's
    HANDLERS names for its kind, which checked its fields when it was
    built. A chain event must come from a chain, the one it names (a miner
    also hears the other chain's). A wakeup must be a Timer the actor set,
    of a kind in actor.TIMERS. Any other data must name a chain the actor
    serves, as must a Timer."""
    handler, cls = actor.HANDLERS.get(msg.kind, (None, None))
    data = msg.data
    if handler is None:
        why = "unknown kind"
    elif type(data) is not cls:
        why = "not of class " + cls.__name__
    elif cls is ChainEvent:
        from_chain = msg.src == data.chain_id and type(net.actors.get(msg.src)) is ChainActor
        why = None if from_chain else "not sent by the chain it names"
    else:
        why = ("not set by this actor" if cls is Timer and msg.src != actor.name
               else "unknown timer" if cls is Timer and data.kind not in actor.TIMERS
               else None if actor.serves(data.chain_id) else "unknown chain")
    if why is not None:
        actor.rejected["%s: %s" % (msg.kind, why)] += 1
    else:
        handler(actor, net, msg)


class ChainActor:
    """A chain's network entry point: routes each tx message's OnChainTx for
    its chain into the mempool and traces the verdict; counts in
    ``rejected`` by reason, untraced, any other message."""

    def __init__(self, chain):
        self.chain = chain
        self.rejected: Counter = Counter()  # reason -> messages dropped unread

    __deepcopy__ = copier(copy="rejected")

    def serves(self, chain_id: str) -> bool:
        return chain_id == self.chain.chain_id

    def on_message(self, net, msg: Message):
        dispatch(self, net, msg)

    def on_tx(self, net, msg: Message):
        tx: OnChainTx = msg.data
        ok, why = self.chain.submit_tx(tx)
        net.log(
            {
                "tick": net.now,
                "kind": "submit",
                "chain_id": self.chain.chain_id,
                "tx_kind": tx.kind,
                "from": msg.src,
                "accepted": ok,
                "why": why,
            }
        )

    HANDLERS = {"tx": (on_tx, OnChainTx)}  # message kind -> (handler, the class its data must be)


class Simnet:
    def __init__(self, seed: int = 0, latency: LatencyModel | None = None, mode: str = "run"):
        if mode not in ("run", "enumerate"):
            raise ValueError("mode must be run or enumerate")
        self.mode = mode
        self.latency = latency or LatencyModel()
        self.seed = seed
        self.now = 0
        self._produced = 0  # the last tick whose blocks exist; tick 0 is no block boundary
        self.actors: dict[str, object] = {}
        self.chains: list = []
        self.trace: list[dict] = []
        self._seq = 0
        self._fifo: dict = {}  # (src, dst) -> latest scheduled delivery tick, run mode
        self.pending: list[PendingMsg] = []  # a heap

    @cached_property
    def rng(self) -> Rng:
        """Delay draws in run mode; built on first use, so a world that
        never draws one (an enumerated world, or one whose delays are all
        fixed) has no generator to fork."""
        return Rng(("simnet", self.seed).__repr__())

    __deepcopy__ = copier(share="mode latency seed now _produced _seq", copy="trace _fifo pending")

    # -- wiring ---------------------------------------------------------------

    def register(self, name: str, actor):
        if name in self.actors:
            raise ValueError("actor name taken: %s" % name)
        self.actors[name] = actor

    def add_chain(self, chain):
        self.chains.append(chain)
        self.register(chain.chain_id, ChainActor(chain))

    def subscribe(self, chain, actor_name: str, kinds=None):
        chain.subscribers.append((actor_name, frozenset(kinds) if kinds else None))

    # -- sending ----------------------------------------------------------------

    def log(self, entry: dict):
        self.trace.append(entry)

    def send(self, kind: str, src: str, dst: str, data):
        if self.mode == "run":
            m = self.latency.resolve(src, dst)
            delay = m.fixed if m.kind == "fixed" else self.rng.between(m.lo, m.hi)  # only a window draws
            lo = hi = max(self.now + delay, self._fifo.get((src, dst), 0))
            self._fifo[(src, dst)] = lo
        else:
            lo, hi = (self.now + d for d in self.latency.window(src, dst))
        self._seq += 1
        heapq.heappush(self.pending, PendingMsg(lo, self._seq, Message(kind, src, dst, data), hi))

    def wakeup(self, dst: str, tick: int, data):
        """Local timer: delivers data back to dst exactly at the requested tick."""
        t = max(tick, self.now)
        self._seq += 1
        heapq.heappush(self.pending, PendingMsg(t, self._seq, Message("wakeup", dst, dst, data), t))

    # -- forking ----------------------------------------------------------------

    def fork(self) -> "Simnet":
        """An independent copy of the whole world: actors, chains, pending
        messages and trace. Each class's ``__deepcopy__`` (see ``forking``)
        names what a fork copies and what it shares; values sealed once
        built are shared. A fork of a paused run becomes an explorable
        world by setting its mode to "enumerate"."""
        return copy.deepcopy(self)

    # -- delivery -------------------------------------------------------------

    def _deliver(self, msg: Message):
        actor = self.actors.get(msg.dst)
        self.log({"tick": self.now, "kind": "deliver", "src": msg.src, "dst": msg.dst, "msg": msg.kind})
        if actor is not None:
            actor.on_message(self, msg)

    def advance(self, t: int):
        """The one block clock, in either mode: produce each tick's blocks
        after the last produced, up to t, at that tick; then set the time to t."""
        for tick in range(self._produced + 1, t + 1):
            self.now = tick
            self._produce_blocks(tick)
        self._produced = self.now = t

    def _produce_blocks(self, tick: int):
        for chain in self.chains:
            if chain.is_boundary(tick):
                for ev in chain.produce_block(tick):
                    self.log(ev.trace_entry())
                    for name, kinds in chain.subscribers:
                        if kinds is None or ev.tx_kind in kinds:
                            self.send("chain_event", chain.chain_id, name, ev)

    def run_until(self, predicate=None, max_tick: int = 10_000):
        """Advance ticks, producing blocks and delivering messages, until
        the predicate holds or max_tick is reached. Returns the trace;
        anything still queued at the end is reported undelivered."""
        if self.mode != "run":
            raise RuntimeError("run_until requires run mode")
        done = False
        while self.now <= max_tick and not done:
            self.advance(self.now)
            while self.pending and self.pending[0].lo <= self.now:
                self._deliver(heapq.heappop(self.pending).msg)
            if predicate is not None and predicate():
                done = True
            else:
                self.now += 1
        if not done:
            for _lo, _seq, msg, _hi in sorted(self.pending):
                self.log(
                    {"tick": self.now, "kind": "undelivered", "src": msg.src, "dst": msg.dst, "msg": msg.kind}
                )
        return self.trace


# ---------------------------------------------------------------------------
# Exhaustive schedule enumeration


@dataclass
class EnumResult:
    outcomes: set
    schedules: int
    nodes: int


def _next_boundary(net: Simnet):
    """The first block boundary after the last tick whose blocks exist."""
    if not net.chains:
        return None
    return min((net._produced // c.block_interval + 1) * c.block_interval for c in net.chains)


_by_seq = attrgetter("seq")


def _choices(net: Simnet, horizon: int) -> list:
    """The scheduler's choices at net, in exploration order: each pending
    message it may deliver now, as ("deliver", seq, tick, dst), then
    ("advance", tick) to the next block boundary if that strands nothing. A
    delivery never jumps that boundary, whose events would be stranded.

    One pass over the pending messages in seq order finds each link's head,
    the one message it may deliver next (FIFO per link; an actor's timers
    in (tick, seq) order), and the earliest hi pending. A head goes at
    max(now, lo) unless that is past the earliest hi, which would strand
    that message (or miss its own window), or past the boundary."""
    heads: dict = {}  # (src, dst, is a wakeup) -> the message that link delivers next
    earliest = float("inf")
    for m in sorted(net.pending, key=_by_seq):
        msg = m.msg
        link = (msg.src, msg.dst, msg.kind == "wakeup")  # a wakeup's src is its dst
        head = heads.setdefault(link, m)
        if link[2] and m.lo < head.lo:
            heads[link] = m
        if m.hi < earliest:
            earliest = m.hi
    nb = _next_boundary(net)
    last = earliest if nb is None else min(earliest, nb)
    choices = [("deliver", m.seq, t, m.msg.dst) for m in sorted(heads.values(), key=_by_seq)
               if (t := max(net.now, m.lo)) <= last]
    if nb is not None and nb <= horizon and earliest >= nb:
        choices.append(("advance", nb))
    return choices


def _take(net: Simnet, choice: tuple):
    """Apply one of _choices(net) to net."""
    if choice[0] == "deliver":
        _, seq, t, _dst = choice
        pm = next(p for p in net.pending if p.seq == seq)
        net.pending.remove(pm)
        heapq.heapify(net.pending)
        net.advance(t)
        net._deliver(pm.msg)
    else:
        net.advance(choice[1])


def _independent(a: tuple, b: tuple) -> bool:
    """Whether two choices commute: deliveries at the same tick to
    different actors. Every other pair, and every advance, is dependent."""
    return a[0] == b[0] == "deliver" and a[2] == b[2] and a[3] != b[3]


def enumerate_schedules(world_factory, outcome_of, *, bound: int = 12, horizon: int = 400) -> EnumResult:
    """Explore every delivery interleaving of a bounded scenario, up to the
    order of deliveries that commute.

    world_factory() must return a fresh Simnet in enumerate mode with its
    initial messages pending; that world is explored in place, so it must
    not be shared with anything else. outcome_of(net) returns a terminal
    outcome tuple, or None while the scenario is still live. At each step
    the scheduler may deliver any pending message inside its latency
    window or advance time to the next block boundary; it may never strand
    a message beyond its window (delay-only asynchrony: nothing is lost).

    Deliveries at the same tick to different actors commute: either order
    reaches the same world, up to the order of trace entries and the seq
    numbers of the messages they send. A sleep set (Godefroid, LNCS 1032)
    explores one order of each such pair: once a choice has been explored,
    its later siblings carry it asleep for as long as they stay
    independent of it, a sleeping choice is not taken, and a node whose
    every choice is asleep is pruned (neither a schedule nor stalled).
    ``schedules`` and ``nodes`` thus count one representative per class of
    interleavings that differ only in that order. The reduction keeps the
    outcome set whole when outcome_of reads actor, chain and pending state
    but not the order of deliveries to different actors, and when a
    further delivery would not change an outcome it has returned; both
    hold for the close phase's outcome (the terminal session states, which
    only blocks change).

    Every awake choice but the last explores a fork of the node's world;
    the last one takes the world itself, since nothing reads it once its
    choices are known.
    """
    outcomes: set = set()
    stats = {"schedules": 0, "nodes": 0}

    def explore(net: Simnet, asleep: list):
        stats["nodes"] += 1
        if stats["schedules"] > MAX_SCHEDULES:
            raise BoundExceeded("schedule count exceeds %d" % MAX_SCHEDULES)
        if len(net.pending) > bound:
            raise BoundExceeded(
                "%d messages in flight exceeds bound %d" % (len(net.pending), bound)
            )
        out = outcome_of(net)
        if out is not None:
            outcomes.add(out)
            stats["schedules"] += 1
            return
        choices = _choices(net, horizon)
        if not choices:
            outcomes.add(outcome_of(net) or ("stalled",))
            stats["schedules"] += 1
            return
        awake = [c for c in choices if c not in asleep]
        last = len(awake) - 1
        for i, choice in enumerate(awake):
            w = net if i == last else net.fork()
            _take(w, choice)
            explore(w, [z for z in asleep + awake[:i] if _independent(z, choice)])

    explore(world_factory(), [])
    return EnumResult(outcomes=outcomes, schedules=stats["schedules"], nodes=stats["nodes"])
