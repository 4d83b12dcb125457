"""Independent oracles the test suite checks the implementation against.

Each oracle recomputes a result by a deliberately different route than
the code under test: commitments by repeated multiplication or by
square-and-multiply instead of fixed-base tables, secret
recovery by solving the Vandermonde system, settlement by a recursive
replay of the receipt tree, schedule enumeration by copying the whole
world for every child, the scheduler's choices by checking each pending
message against every other one, a run's deliveries from one heap of
(lo, seq) entries instead of per-tick lists, keystream XOR one byte at
a time instead of as one int, field checks and byte forms by walking each
value's declared fields one Python call at a time instead of through
compiled per-class code. None of them import the settlement, recovery or
exploration code paths they are used to judge, and the settlement
oracle checks signatures through ``crypto.verify`` directly, so it
never fills the verification memo of the objects it is shown.
"""

import copy
import heapq
from collections import Counter
from collections.abc import Mapping
from dataclasses import fields
from functools import cache
from types import UnionType
from typing import Annotated, NamedTuple, get_args, get_origin, get_type_hints

from xchan import crypto
from xchan.crypto import GroupParams
from xchan.simnet import BoundExceeded, EnumResult, Message, Simnet
from xchan.wire import U64, Checked, Encoded, enc_bytes, enc_scalar, enc_str, enc_u64


def pedersen_brute(s: int, r: int, group: GroupParams) -> int:
    """g^s * h^r by literal repeated multiplication (tiny groups only)."""
    v = 1
    for _ in range(s % group.q):
        v = v * group.g % group.p
    for _ in range(r % group.q):
        v = v * group.h % group.p
    return v


def pedersen_two_pow(s: int, r: int, group: GroupParams) -> int:
    """g^s * h^r by two square-and-multiply pow calls, no tables."""
    return pow(group.g, s % group.q, group.p) * pow(group.h, r % group.q, group.p) % group.p


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """a XOR b one byte at a time, as long as the shorter of the two."""
    return bytes(x ^ y for x, y in zip(a, b))


def vandermonde_recover(points, q: int) -> int:
    """Solve for the polynomial through (x_i, y_i) by Gaussian
    elimination mod q and return its constant term."""
    t = len(points)
    rows = []
    for x, y in points:
        rows.append([pow(x, j, q) for j in range(t)] + [y % q])
    for col in range(t):
        pivot = next(r for r in range(col, t) if rows[r][col] % q != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, q)
        rows[col] = [v * inv % q for v in rows[col]]
        for r in range(t):
            if r != col and rows[r][col] % q != 0:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % q for a, b in zip(rows[r], rows[col])]
    return rows[0][t] % q


def _fold(initial, receipts, delegated, funder):
    balances = dict(initial)
    included = []
    ordered = sorted(receipts, key=lambda t: t.seq)
    for tr in ordered:
        if tr.seq < 1 or tr.amount < 0:
            continue
        if tr.snd == tr.rcv:
            continue
        if tr.snd not in balances or tr.rcv not in balances:
            continue
        if funder is not None and tr.snd != funder:
            continue
        if balances[tr.snd] - tr.amount < 0:
            continue
        balances[tr.snd] = balances[tr.snd] - tr.amount
        if tr.seq not in delegated:
            balances[tr.rcv] = balances[tr.rcv] + tr.amount
        included.append(tr)
    return balances, included


def _signed_by(signer, obj):
    return crypto.verify(signer, obj.signing_bytes(), obj.sig)


def settle_oracle(session_id, deposits, parties, submissions):
    """Recursive replay of the channel tree; returns (ok, allocations,
    cutoff_level) with the same semantics the contract promises."""
    trs = {}  # (path, tr_bytes) -> Receipt
    srs = {}  # (path, tr_bytes) -> {sr_bytes: Sr}
    covered = set()

    def note_tr(tr):
        if tr.session_id == session_id and _signed_by(tr.snd, tr):
            trs[(tr.channel_path, tr.to_bytes())] = tr

    for sender, payload in submissions:
        f = payload.final
        if f.session_id == session_id and f.submitter == sender and _signed_by(f.submitter, f):
            covered.add(f.channel_path)
        for tr in payload.trs:
            note_tr(tr)
        for sr in payload.srs:
            tr = sr.receipt
            if tr.session_id != session_id or not (_signed_by(tr.snd, tr) and _signed_by(tr.snd, sr)):
                continue
            if sr.counterparty == tr.rcv:
                continue
            note_tr(tr)
            srs.setdefault((tr.channel_path, tr.to_bytes()), {})[sr.to_bytes()] = sr

    fail_levels = set()
    nodes = []  # (level, balances, children=[(tr, sr|None)])

    def build(path, initial, funder, level):
        pool = [tr for (p, _b), tr in trs.items() if p == path]
        seq_uses = Counter(tr.seq for tr in pool)
        candidates = [tr for tr in pool if seq_uses[tr.seq] == 1]
        delegated = {
            tr.seq for tr in candidates if (path, tr.to_bytes()) in srs
        }
        balances, included = _fold(initial, candidates, delegated, funder)
        children = []
        for tr in included:
            if tr.seq not in delegated:
                continue
            group = srs[(path, tr.to_bytes())]
            if len(group) > 1:
                fail_levels.add(level + 1)
                children.append((tr, None))
                continue
            (sr,) = group.values()
            child_path = path + (tr.seq,)
            if child_path not in covered:
                fail_levels.add(level + 1)
                children.append((tr, None))
            else:
                children.append((tr, sr))
        nodes.append((level, balances, children))
        for tr, sr in children:
            if sr is not None:
                build(
                    path + (tr.seq,),
                    {sr.funder: tr.amount, sr.counterparty: 0},
                    sr.funder,
                    level + 1,
                )

    build((), dict(deposits), None, 0)
    cutoff = min(fail_levels) if fail_levels else None

    alloc = {}

    def credit(addr, v):
        alloc[addr] = alloc.get(addr, 0) + v

    for level, balances, children in nodes:
        if cutoff is not None and level >= cutoff:
            continue
        for addr in balances:
            credit(addr, balances[addr])
        for tr, _sr in children:
            if cutoff is not None and level + 1 >= cutoff:
                credit(tr.rcv, tr.amount)
    ok = sum(alloc.values()) == sum(deposits.values())
    if not ok:
        return False, dict(deposits), cutoff
    return True, alloc, cutoff


class PendingMsg(NamedTuple):
    """One entry of HeapSimnet's delivery heap, ordered by (lo, seq)."""

    lo: int
    seq: int
    msg: Message
    hi: int


class HeapSimnet(Simnet):
    """Run mode with every message queued in one heap of PendingMsg and
    delivered, at each tick, while the heap's least entry is due. The
    actors, chains, delays and block clock are Simnet's own; only the
    queue and the run loop differ."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending = []

    def send(self, kind, src, dst, data):
        m = self.latency.resolve(src, dst)
        delay = m.fixed if m.kind == "fixed" else self.rng.between(m.lo, m.hi)
        lo = max(self.now + delay, self._fifo.get((src, dst), 0))
        self._fifo[(src, dst)] = lo
        self._seq += 1
        heapq.heappush(self.pending, PendingMsg(lo, self._seq, Message(kind, src, dst, data), lo))

    def wakeup(self, dst, tick, data):
        t = max(tick, self.now)
        self._seq += 1
        heapq.heappush(self.pending, PendingMsg(t, self._seq, Message("wakeup", dst, dst, data), t))

    def run_until(self, predicate=None, max_tick=10_000):
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
                self.log({"tick": self.now, "kind": "undelivered", "src": msg.src, "dst": msg.dst,
                          "msg": msg.kind})
        return self.trace


def _pending(net) -> list:
    """Every message net holds in flight, in seq order."""
    return sorted((m for due in net.pending.values() for m in due), key=lambda m: m.seq)


def _next_boundary(net):
    ticks = [(net._produced // c.block_interval + 1) * c.block_interval for c in net.chains]
    return min(ticks) if ticks else None


def choices_pairwise(net, horizon: int) -> list:
    """The explorer's choices at net, as ``simnet._choices`` lists them, by
    checking each pending message against every other one: a delivery
    ("deliver", seq, tick, dst) for each message inside its window, not
    past the next block boundary, stranding no other message and behind
    no earlier message on its link, in seq order; then ("advance", tick)
    if that boundary is within the horizon and strands nothing."""
    choices = []
    pend = _pending(net)
    nb = _next_boundary(net)
    for m in pend:
        t = max(net.now, m.lo)
        if t > m.hi or (nb is not None and t > nb):
            continue
        if any(o.hi < t for o in pend if o.seq != m.seq):
            continue
        timer = m.kind == "wakeup"
        if any(o.src == m.src and o.dst == m.dst and (o.kind == "wakeup") == timer
               and ((o.lo, o.seq) < (m.lo, m.seq) if timer else o.seq < m.seq) for o in pend):
            continue
        choices.append(("deliver", m.seq, t, m.dst))
    if nb is not None and nb <= horizon and all(m.hi >= nb for m in pend):
        choices.append(("advance", nb))
    return choices


def enumerate_schedules_copying(world_factory, outcome_of, *, bound=12, horizon=400,
                                max_schedules=500_000):
    """Reference schedule explorer: deep-copies the factory's world and
    then the parent world for every child, so no node ever shares state
    with another. Same choices, in the same order, as the explorer under
    test, except that a delivery here may also jump a block boundary.
    Messages on one (src, dst) link arrive in send order; an actor's
    wakeups are no link and fire among themselves in (tick, send) order,
    so one set for an early tick never waits behind one set earlier for a
    later tick."""
    outcomes = set()
    stats = {"schedules": 0, "nodes": 0}

    def advance(net, t):
        while net._produced < t:
            net.now = net._produced = net._produced + 1
            net._produce_blocks(net.now)
        net.now = t

    def explore(net):
        stats["nodes"] += 1
        if stats["schedules"] > max_schedules:
            raise BoundExceeded("schedule count exceeds %d" % max_schedules)
        pend = _pending(net)
        if len(pend) > bound:
            raise BoundExceeded("%d messages in flight" % len(pend))
        out = outcome_of(net)
        if out is not None:
            outcomes.add(out)
            stats["schedules"] += 1
            return
        choices = []
        for m in pend:
            t = max(net.now, m.lo)
            stranding = any(o.hi < t for o in pend if o.seq != m.seq)
            wakeup = m.kind == "wakeup"
            overtaking = any((o.src, o.dst, o.kind == "wakeup") == (m.src, m.dst, wakeup)
                             and ((o.lo, o.seq) < (m.lo, m.seq) if wakeup else o.seq < m.seq)
                             for o in pend)
            if t <= m.hi and not stranding and not overtaking:
                choices.append(("deliver", m.seq, t))
        nb = _next_boundary(net)
        if nb is not None and nb <= horizon and all(m.hi >= nb for m in pend):
            choices.append(("advance", nb))
        if not choices:
            outcomes.add(outcome_of(net) or ("stalled",))
            stats["schedules"] += 1
            return
        for choice in choices:
            w = copy.deepcopy(net)
            if choice[0] == "deliver":
                _, seq, t = choice
                msg = next(m for m in _pending(w) if m.seq == seq)
                due = w.pending[msg.lo]
                del due[next(i for i, m in enumerate(due) if m is msg)]
                if not due:
                    del w.pending[msg.lo]
                w.in_flight -= 1
                advance(w, t)
                w._deliver(msg)
            else:
                advance(w, choice[1])
            explore(w)

    explore(copy.deepcopy(world_factory()))
    return EnumResult(outcomes=outcomes, schedules=stats["schedules"], nodes=stats["nodes"])


def _reference_codec(hint):
    """(accepts, encode) for a field declared as hint, as two Python
    callables: whether a value holds that type, and the value's bytes."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is str:  # exactly a str, with no lone surrogate, which UTF-8 cannot carry
        return (lambda v: type(v) is str and (v.isascii() or not any("\ud800" <= c <= "\udfff" for c in v)),
                enc_str)
    if hint is bytes:
        return (lambda v: type(v) is bytes), enc_bytes
    if hint is bool:  # one flag byte
        return (lambda v: type(v) is bool), (lambda v: b"\x01" if v else b"\x00")
    if origin is Annotated:  # U64 or Scalar: an int (not a bool) the encoder carries
        bound = args[1]
        return (lambda v: type(v) is int and 0 <= v < bound), (enc_u64 if hint == U64 else enc_scalar)
    if origin is tuple:  # tuple[X, ...]: a count, then each item
        item_ok, enc_item = _reference_codec(args[0])
        return (lambda v: type(v) is tuple and all(map(item_ok, v)),
                lambda v: enc_u64(len(v)) + b"".join(map(enc_item, v)))
    if origin is Mapping:  # a count, then each item in key order
        key_ok, enc_key = _reference_codec(args[0])
        value_ok, enc_val = _reference_codec(args[1])
        return (lambda v: isinstance(v, Mapping) and all(key_ok(k) and value_ok(x) for k, x in v.items()),
                lambda v: enc_u64(len(v)) + b"".join(enc_key(k) + enc_val(v[k]) for k in sorted(v)))
    if origin is UnionType:  # X | None: a flag byte, then X
        item_ok, enc_item = _reference_codec(args[0])
        return (lambda v: v is None or item_ok(v),
                lambda v: b"\x00" if v is None else b"\x01" + enc_item(v))
    accepts = (lambda v: isinstance(v, Checked)) if hint is object else (lambda v: type(v) is hint)
    if issubclass(hint, Encoded):  # its bytes are kept on it
        return accepts, lambda v: enc_bytes(v.to_bytes())
    return accepts, lambda v: enc_bytes(reference_enc_value(v))


@cache
def reference_plan(cls) -> tuple:
    """(name, accepts, encode) for each field of cls that its callers set,
    in declared order."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, *_reference_codec(hints[f.name])) for f in fields(cls) if f.init)


def reference_enc_value(value, stop=None) -> bytes:
    """A dataclass value's fields in declared order, each encoded by its
    declared type, up to (not including) the field named stop."""
    out = []
    for name, _, encode in reference_plan(type(value)):
        if name == stop:
            break
        out.append(encode(getattr(value, name)))
    return b"".join(out)


def reference_mistyped(value):
    """The first field of a dataclass value that does not hold its declared
    type, as "Class.field", or None."""
    for name, accepts, _ in reference_plan(type(value)):
        if not accepts(getattr(value, name)):
            return "%s.%s" % (type(value).__name__, name)
    return None
