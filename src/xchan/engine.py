"""Off-chain participant logic.

A party keeps all it knows of a session in one PartySession: its role
and, per chain, a ChainSide, which holds each fact of the session on
that chain once, where it is read. Each handler looks up one session
and touches only that one. Each actor names, in its HANDLERS table, the
handler and the one class of data for each message kind; simnet.dispatch
checks every message against it and counts a malformed or forged one in
``rejected`` by reason instead of raising. A chain event that succeeded
dispatches on the actor's EVENTS table by its result, and a Timer on
TIMERS by its kind.

Parties exchange signed receipts, open sub-channels by redeploying
unsettled receipts, run the threshold-shared fair exchange, and drive
the hash-time-locked close. Miners verify and store key shares, appeal
fakes, answer recovery requests, and may reveal a learned preimage on
a stalled chain during the assist window.

Honest actors re-derive every claim (receipt balances, sub-channel
authorizations, proofs) before acting. Adversarial deviations are
orthogonal behavior flags so tests can enumerate them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

from . import contract as ct
from . import proofs, vss
from .chain import ChainEvent
from .crypto import DEFAULT_GROUP, KeyPair, hash_bytes, key_to_bytes, decrypt, hash_blocks
from .forking import Shared, copier
from .receipts import (
    FinalState,
    Receipt,
    SubChannelReceipt,
    fold_receipt,
    make_final_state,
    make_receipt,
    make_sub_receipt,
    replay_receipts,
)
from .simnet import Message, Rng, Simnet, Timer, dispatch
from .wire import Checked, declared


@dataclass(frozen=True)
class BehaviorProfile(Shared):
    """Orthogonal adversarial deviations. Message delays are not a flag:
    they are targeted overrides in the network's latency model."""

    withhold_pre: bool = False
    fake_key_share: bool = False
    inflate_final_state: bool = False
    overspend: bool = False
    refuse_close: bool = False
    duplicate_sr: bool = False


HONEST = BehaviorProfile()


@dataclass
class ChannelView:
    chain_id: str
    session_id: str
    path: tuple[int, ...]
    members: tuple[str, str]
    initial: dict
    funder: str | None = None  # None for the root channel
    receipts: dict = field(default_factory=dict)  # seq -> Receipt
    delegated: set = field(default_factory=set)  # seqs spent via sub-receipts
    srs: list = field(default_factory=list)
    next_seq: int = 1  # one above the highest seq held
    last_sent_seq: int = 0
    # the fold of every held receipt under the delegation set _folded_delegated
    # (None: refold on the next read)
    _bal: dict | None = field(default=None, init=False, repr=False, compare=False)
    _folded_delegated: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)

    __deepcopy__ = copier("initial receipts delegated srs _bal")

    @classmethod
    def of_sub_receipt(cls, chain_id: str, sr: SubChannelReceipt) -> "ChannelView":
        """The sub-channel sr authorizes, as its funder and its
        counterparty both track it."""
        members, amount = (sr.funder, sr.counterparty), sr.receipt.amount
        initial = {sr.funder: amount, sr.counterparty: 0}
        return cls(chain_id, sr.receipt.session_id, sr.child_path, members, initial, sr.funder)

    def hold(self, tr: Receipt):
        """Hold tr under its seq: the one way a receipt enters the view. A
        receipt above every held seq is folded onto the cached balances
        as it arrives; any other write (an insert below the top or a
        replacement) drops the cache for a full replay on the next read."""
        if self._bal is not None and tr.seq >= self.next_seq:
            fold_receipt(self._bal, tr, self._folded_delegated, self.funder)
        else:
            self._bal = None
        self.receipts[tr.seq] = tr
        self.next_seq = max(self.next_seq, tr.seq + 1)

    def balances(self) -> Mapping[str, int]:
        """Current balances, the fold of every held receipt, as a read-only
        view of the cache that hold keeps. A replay_receipts over every
        held receipt rebuilds the cache after a write hold could not fold
        alone, or once delegated has changed (a direct ``delegated.add``
        included). initial and funder are fixed at construction."""
        if self._bal is None or self.delegated != self._folded_delegated:
            self._folded_delegated = frozenset(self.delegated)
            self._bal, _ = replay_receipts(self.initial, self.receipts.values(), self._folded_delegated,
                                           self.funder)
            self.next_seq = max(self.next_seq, max(self.receipts, default=0) + 1)
        return MappingProxyType(self._bal)

    def other(self, addr: str) -> str:
        return self.members[1] if self.members[0] == addr else self.members[0]


# receipts a channel pays per tick: 1300 bytes of bandwidth per tick over a
# receipt of 130 bytes in CE and of 1300 bytes in FE and EIE
RECEIPTS_PER_TICK = {"CE": 10, "FE": 1, "EIE": 1}


@dataclass
class SendPlan:
    """Receipts to pay in one channel, RECEIPTS_PER_TICK[mode] per tick; a
    planned sub-channel's plan pays nothing until the channel opens."""

    amounts: list
    sent: int = 0
    pumping: bool = False  # a pump timer is set
    counterparty: str | None = None  # to request the sub-channel for; None once it opens

    __deepcopy__ = copier("amounts")

    def done(self) -> bool:
        return self.sent >= len(self.amounts)


@dataclass
class ExchangeState:
    """One party's secret side of a fair exchange on one chain."""

    key: int
    m_blocks: tuple
    t: int
    n: int
    mac_key: bytes
    dealing: vss.Dealing | None = None

    __deepcopy__ = copier()


@dataclass
class ChainSide:
    """One party's part of one session on one chain."""

    chain_id: str
    session_id: str
    state: str | None = None  # last contract state a chain event reported
    views: dict = field(default_factory=dict)  # path -> ChannelView
    plans: dict = field(default_factory=dict)  # path -> SendPlan
    expected: dict = field(default_factory=dict)  # path -> receipts to receive before closing
    received: dict = field(default_factory=dict)  # path -> receipts accepted
    exchange: ExchangeState | None = None  # this party's own secret
    counterpart_key: tuple | None = None  # (owner address, MAC key) of the proof expected here
    counterpart_publics: proofs.RelationPublicInputs | None = None
    proof_ok: bool | None = None  # the counterpart's proof: None until it arrives; its first verdict is final
    uploads: dict = field(default_factory=dict)  # owner address -> the Bound record of its key upload
    recovered: tuple | None = None  # the counterpart's plaintext blocks
    mismatch: str | None = None  # the first reason recovery failed here, which nothing undoes
    close_sent: bool = False

    __deepcopy__ = copier("expected received uploads")

    def is_open(self) -> bool:
        return self.state in (ct.OPEN_CE, ct.OPEN)


@dataclass
class PartySession:
    """Everything one party holds about one session: its role in the
    cross-chain pair and its ChainSide on each chain."""

    session_id: str
    sides: dict  # chain_id -> ChainSide
    mode: str = "CE"  # CE | FE | EIE
    counterpart: str = ""  # actor name of the other side
    lock_chain: str | None = None  # the holder locks here first; the other party, once that lock is seen
    holder: bool = False  # holds the preimage, revealed on the other chain once it locks too
    pre: bytes | None = None  # preimage, holder only until revealed
    h_pre: bytes | None = None
    aborted: bool = False  # the other chain terminated; settle this one as-is

    __deepcopy__ = copier()


@declared
class ReceiptMsg(Checked):
    """A receipt, to its payee."""

    chain_id: str
    tr: Receipt


@declared
class SrMsg(Checked):
    """A sub-channel receipt: unsigned in an sr_request (its receipt's payee
    asks for it), signed in an sr_grant and a subchannel_open."""

    chain_id: str
    sr: SubChannelReceipt


@declared
class ExchangeMsg(Checked):
    """owner's fair-exchange proof and its public inputs, to the counterpart."""

    chain_id: str
    session_id: str
    proof: proofs.Proof
    publics: proofs.RelationPublicInputs
    owner: str


@declared
class ShareMsg(Checked):
    """owner's key share, signed under the session's serial number, to its miner."""

    chain_id: str
    session_id: str
    owner: str
    share: vss.KeyShare
    dealing_pub: vss.DealingPublic
    sn: bytes
    sig: bytes


class Party:
    def __init__(self, name: str, keys: dict, behavior: BehaviorProfile = HONEST,
                 directory: dict | None = None, seed: int = 0):
        self.name = name
        self.keys = keys  # chain_id -> KeyPair
        self.behavior = behavior
        self.directory = directory if directory is not None else {}  # address -> actor name
        self.seed = seed
        self.backend = proofs.TransparentMacBackend(DEFAULT_GROUP)
        self.sessions: dict[str, PartySession] = {}
        self.rejected: Counter = Counter()  # reason -> messages dropped unread
        self.close_after_tick: int = 0  # application-level close decision

    @cached_property
    def rng(self) -> Rng:
        """Dealing randomness; built on first use, so a world that never
        deals (a close-phase world) has no generator to fork."""
        return Rng("party:%s:%d" % (self.name, self.seed))

    __deepcopy__ = copier("keys directory rejected")

    def address(self, chain_id: str) -> str:
        return self.keys[chain_id].address

    def serves(self, chain_id: str) -> bool:
        return chain_id in self.keys

    def side(self, chain_id: str, session_id: str) -> ChainSide | None:
        """This party's part of a session on one chain, or None."""
        ps = self.sessions.get(session_id)
        return None if ps is None else ps.sides[chain_id]

    # -- workload wiring (installed by the scenario runner) --------------------

    def join(self, session_id, **role):
        """Take part in a session in a role, given as any of PartySession's
        fields from mode to h_pre, with one ChainSide per chain this party
        holds a key on. The runner then writes each side's plans, expected
        counts and counterpart key through side()."""
        sides = {c: ChainSide(c, session_id) for c in self.keys}
        self.sessions[session_id] = PartySession(session_id, sides, **role)

    def submit_open(self, net, chain_id, session_id, amount):
        self._submit(net, chain_id, session_id, ct.OPEN_TX, ct.OpenPayload(amount))

    def _submit(self, net, chain_id, session_id, kind, payload):
        tx = ct.make_tx(self.keys[chain_id], chain_id, session_id, kind, payload)
        net.send("tx", self.name, chain_id, tx)

    # -- message dispatch -------------------------------------------------------

    def on_message(self, net: Simnet, msg: Message):
        dispatch(self, net, msg)

    # -- receipts ---------------------------------------------------------------

    def send_receipt(self, net, view: ChannelView, amount: int, force: bool = False):
        kp = self.keys[view.chain_id]
        bal = view.balances().get(kp.address, 0)
        if amount > bal and not force:
            return None  # refuse to overspend
        seq = view.next_seq
        if seq <= view.last_sent_seq:
            raise ct.InvariantViolation("receipt sequence not monotone")
        tr = make_receipt(kp, view.session_id, view.path, seq, view.other(kp.address), amount)
        view.hold(tr)
        view.last_sent_seq = seq
        dst = self.directory.get(tr.rcv)
        if dst:
            net.send("receipt", self.name, dst, ReceiptMsg(view.chain_id, tr))
        return tr

    def on_receipt(self, net, msg):
        chain_id, tr = msg.data.chain_id, msg.data.tr
        ps = self.sessions.get(tr.session_id)
        side = None if ps is None else ps.sides[chain_id]
        view = None if side is None else side.views.get(tr.channel_path)
        if view is None:
            return
        my = self.address(chain_id)
        if tr.rcv != my or tr.snd != view.other(my):
            return
        if not tr.verify_sig():
            return
        if tr.seq in view.receipts:
            return  # refuse a reused sequence number
        if view.funder is not None and tr.snd != view.funder:
            return
        sender_bal = view.balances().get(tr.snd, 0)
        if tr.amount > sender_bal:
            return  # refuse overspend; sender's copy dies at settlement too
        view.hold(tr)
        side.received[tr.channel_path] = side.received.get(tr.channel_path, 0) + 1
        # payee side of a planned sub-channel funding receipt
        plan = side.plans.get(tr.channel_path + (tr.seq,))
        if plan is not None and plan.counterparty is not None:
            request = SrMsg(chain_id, SubChannelReceipt(plan.counterparty, tr))
            net.send("sr_request", self.name, self.directory[tr.snd], request)
        self._maybe_close(net, ps, side)

    # -- sub-channels -------------------------------------------------------------

    def on_sr_request(self, net, msg):
        """Payer side: authorize the payee to redeploy one receipt. The
        authorization embeds the receipt this party holds, never the
        requester's copy of it."""
        chain_id, tr = msg.data.chain_id, msg.data.sr.receipt
        kp = self.keys[chain_id]
        if tr.snd != kp.address:
            return
        side = self.side(chain_id, tr.session_id)
        view = None if side is None else side.views.get(tr.channel_path)
        held = None if view is None else view.receipts.get(tr.seq)
        if held != tr:
            return
        if tr.seq in view.delegated and not self.behavior.duplicate_sr:
            return  # one sub-channel receipt per receipt
        sr = make_sub_receipt(kp, msg.data.sr.counterparty, held)
        view.srs.append(sr)
        view.delegated.add(tr.seq)
        if self.behavior.duplicate_sr:
            shadow = make_sub_receipt(kp, kp.address + ":shadow", held)
            view.srs.append(shadow)
        net.send("sr_grant", self.name, msg.src, SrMsg(chain_id, sr))

    def on_sr_grant(self, net, msg):
        """Payee side: open the planned sub-channel, if not open yet, once its
        authorization checks out, embeds the receipt this party holds and
        names the counterparty the plan does."""
        chain_id, sr = msg.data.chain_id, msg.data.sr
        tr = sr.receipt
        if sr.funder != self.address(chain_id) or not sr.verify_sig():
            return
        side = self.side(chain_id, tr.session_id)
        plan = None if side is None else side.plans.get(sr.child_path)
        parent = None if plan is None else side.views.get(tr.channel_path)
        if parent is None or plan.counterparty != sr.counterparty or parent.receipts.get(tr.seq) != tr:
            return
        parent.delegated.add(tr.seq)
        parent.srs.append(sr)
        child = ChannelView.of_sub_receipt(chain_id, sr)
        side.views[child.path] = child
        plan.counterparty = None
        self._pump(net, side, child.path)
        dst = self.directory.get(sr.counterparty)
        if dst:
            net.send("subchannel_open", self.name, dst, msg.data)

    def on_subchannel_open(self, net, msg):
        """Counterparty side: verify the authorization chain, then track the
        channel if not tracked yet. Trusts nothing beyond the signatures it can check."""
        chain_id, sr = msg.data.chain_id, msg.data.sr
        joined = sr.receipt.session_id in self.sessions  # no state for a session never joined
        if not joined or sr.counterparty != self.address(chain_id) or sr.funder == sr.counterparty \
                or not sr.verify_sig():
            return
        view = ChannelView.of_sub_receipt(chain_id, sr)
        view.srs.append(sr)
        self.side(chain_id, view.session_id).views.setdefault(view.path, view)  # the first view held stays

    # -- timers -----------------------------------------------------------------

    def _pump(self, net, side: ChainSide, path):
        plan = side.plans.get(path)
        if plan is None or plan.pumping or plan.done():
            return
        plan.pumping = True
        net.wakeup(self.name, net.now + 1, Timer("pump", side.chain_id, side.session_id, path))

    def on_wakeup(self, net, msg):
        timer: Timer = msg.data
        ps = self.sessions.get(timer.session_id)
        if ps is not None:
            self.TIMERS[timer.kind](self, net, ps, ps.sides[timer.chain_id], timer.path)

    def _force_close(self, net, ps: PartySession, side: ChainSide):
        """Grace expired: close at whatever state exists rather than leave
        the deposits parked behind a silent counterpart."""
        if side.is_open() and () in side.views:
            self._close(net, side)

    def _pump_due(self, net, ps: PartySession, side: ChainSide, path):
        plan = side.plans.get(path)
        view = side.views.get(path)
        if plan is None or view is None:
            return
        plan.pumping = False
        for _ in range(RECEIPTS_PER_TICK[ps.mode]):
            if plan.done():
                break
            tr = self.send_receipt(net, view, plan.amounts[plan.sent])
            if tr is None:
                break  # insufficient in-channel balance; stop rather than cheat
            plan.sent += 1
        if not plan.done():
            self._pump(net, side, path)
        else:
            if self.behavior.overspend:
                bal = view.balances().get(self.address(side.chain_id), 0)
                self.send_receipt(net, view, bal + 1, force=True)
            self._maybe_close(net, ps, side)

    # -- fair exchange ------------------------------------------------------------

    def setup_exchange(self, chain_id, session_id, key, m_blocks, t, n, seed):
        st = ExchangeState(key=key, m_blocks=tuple(m_blocks), t=t, n=n, mac_key=self.backend.setup(seed))
        self.sessions[session_id].sides[chain_id].exchange = st
        return st.mac_key

    def _run_theta_share(self, net, side: ChainSide):
        """Deal the key, publish its hash and the per-share hashes."""
        st = side.exchange
        st.dealing = vss.share(st.key, st.t, st.n, self.rng, DEFAULT_GROUP)
        hashes = tuple(vss.share_hash(s) for s in st.dealing.shares)
        h_k = hash_bytes(key_to_bytes(st.key))
        payload = ct.UploadPayload(h_k=h_k, n=st.n, t=st.t, share_hashes=hashes)
        self._submit(net, side.chain_id, side.session_id, ct.UPLOAD_TX, payload)

    def _distribute_shares(self, net, side: ChainSide, bound: ct.Bound):
        st = side.exchange
        if st is None or st.dealing is None:
            return  # this party dealt no key here: the record is not of its upload
        kp = self.keys[side.chain_id]
        for b in bound.bindings:
            ks = st.dealing.shares[b.index - 1]
            if self.behavior.fake_key_share and b.index == 1:
                ks = replace(ks, s=(ks.s + 1) % DEFAULT_GROUP.q)
            sig = kp.sign(vss.share_message_bytes(ks, bound.sn))
            dst = self.directory.get(b.miner)
            if dst:
                net.send("share", self.name, dst, ShareMsg(side.chain_id, side.session_id, kp.address, ks,
                                                           st.dealing.public, bound.sn, sig))

    def _run_theta_exchange(self, net, ps: PartySession, side: ChainSide):
        """Send (proof, ciphertext, plaintext hash, key hash) across."""
        st = side.exchange
        if st.dealing is None:
            # FE never distributes shares; a local dealing feeds the witness
            st.dealing = vss.share(st.key, st.t, st.n, self.rng, DEFAULT_GROUP)
        x = proofs.make_public_inputs(st.m_blocks, st.key, st.t, st.n)
        w = proofs.RelationWitness(m=st.m_blocks, k_shares=st.dealing.shares)
        proof = self.backend.prove(st.mac_key, w, x)
        data = ExchangeMsg(side.chain_id, side.session_id, proof, x, self.address(side.chain_id))
        net.send("exchange", self.name, ps.counterpart, data)

    def on_exchange(self, net, msg):
        """Judge the counterpart's proof on a chain once: pay if it verifies, else abort."""
        ex: ExchangeMsg = msg.data
        ps = self.sessions.get(ex.session_id)
        side = None if ps is None or msg.src != ps.counterpart else ps.sides[ex.chain_id]
        if side is None or side.proof_ok is not None:
            return  # not from the counterpart, or not its first: the first verdict is final
        vk = side.counterpart_key
        if vk is not None and vk[0] == ex.owner and self.backend.verify(vk[1], ex.publics, ex.proof):
            side.counterpart_publics = ex.publics
            side.proof_ok = True
            for s in ps.sides.values():
                self._start_pumps(net, ps, s)
            self._maybe_close(net, ps, side)
        else:
            # abort before paying anything more: wind the session down at
            # whatever state both sides last agreed on
            side.proof_ok = False
            ps.aborted = True
            self._truncate_plans(ps)
            for s in ps.sides.values():
                self._maybe_close(net, ps, s)

    def _truncate_plans(self, ps: PartySession):
        """Pay nothing more: drop unopened sub-channels' plans, cut the rest."""
        for side in ps.sides.values():
            side.plans = {p: plan for p, plan in side.plans.items() if plan.counterparty is None}
            for plan in side.plans.values():
                plan.amounts = plan.amounts[: plan.sent]
            for path, want in side.expected.items():
                side.expected[path] = min(want, side.received.get(path, 0))

    def _start_pumps(self, net, ps: PartySession, side: ChainSide):
        if not all(s.proof_ok for s in ps.sides.values() if s.counterpart_key):
            return  # paying before every expected proof verified risks paying for nothing
        if side.is_open():
            self._pump(net, side, ())  # no-op while pumping, once done or with no plan

    # -- closing ------------------------------------------------------------------

    def _maybe_close(self, net, ps: PartySession, side: ChainSide):
        if net.now < self.close_after_tick:
            return  # the channel stays open until the agreed point
        if () not in side.views or not side.is_open():
            return  # sub-channel members close on the broadcast, not here
        if any(plan.counterparty is not None or not plan.done() for plan in side.plans.values()):
            return  # a sub-channel not open yet, or receipts still to pay
        if any(side.received.get(p, 0) < want for p, want in side.expected.items()):
            return
        if side.counterpart_key is not None and not side.proof_ok and not ps.aborted:
            return  # never enter close on a missing proof; a bad one aborted the session
        self._close(net, side)

    def _close(self, net, side: ChainSide):
        """One close transaction per channel this party belongs to, once."""
        if self.behavior.refuse_close or side.close_sent:
            return
        side.close_sent = True
        for path in sorted(side.views):
            view = side.views[path]
            trs = tuple(view.receipts[k] for k in sorted(view.receipts))
            payload = ct.ClosePayload(final=self.compute_final_state(view), srs=tuple(view.srs), trs=trs)
            self._submit(net, side.chain_id, side.session_id, ct.CLOSE_TX, payload)

    def compute_final_state(self, view: ChannelView) -> FinalState:
        balances = view.balances()
        if self.behavior.inflate_final_state:
            me = self.address(view.chain_id)
            balances = {**balances, me: balances.get(me, 0) + 1}
        return make_final_state(self.keys[view.chain_id], view.session_id, view.path, balances)

    # -- hash-time lock choreography ------------------------------------------------

    def submit_lock(self, net, chain_id, session_id):
        payload = ct.LockPayload(h_pre=self.sessions[session_id].h_pre)
        self._submit(net, chain_id, session_id, ct.LOCK_TX, payload)

    def _submit_update(self, net, ps: PartySession, chain_id):
        self._submit(net, chain_id, ps.session_id, *ct.update_payload(ps.pre, ps.sides[chain_id].uploads))

    def _lock_if_due(self, net, ps: PartySession, side: ChainSide):
        """The one lock rule: once side's chain is in Close, lock it if it is this
        party's lock chain and the hash lock is known (its own, or the first lock
        seen), or, aborted and knowing the preimage, to wind it down as settled."""
        if side.state != ct.CLOSE:
            return
        if (ps.lock_chain == side.chain_id and ps.h_pre is not None) or (ps.aborted and ps.pre is not None):
            self.submit_lock(net, side.chain_id, ps.session_id)

    # -- chain events -----------------------------------------------------------------

    def on_chain_event(self, net, msg):
        ev: ChainEvent = msg.data
        if (ps := self.sessions.get(ev.session_id)) is None:
            return  # a session this party never joined
        side = ps.sides[ev.chain_id]
        if ev.state is not None:
            side.state = ev.state
        handler = self.EVENTS.get(ev.result) if ev.ok else None
        if handler is not None:
            handler(self, net, ps, side, ev.detail)

    def _on_open(self, net, ps: PartySession, side: ChainSide, opened: ct.Opened):
        deposits = opened.deposits
        my = self.address(side.chain_id)
        if () not in side.views and my in deposits and len(deposits) == 2:
            members = tuple(sorted(deposits))
            side.views[()] = ChannelView(side.chain_id, side.session_id, (), members, dict(deposits))
        self._start_pumps(net, ps, side)
        if side.exchange is not None:
            if ps.mode == "EIE":
                self._run_theta_share(net, side)
            self._run_theta_exchange(net, ps, side)
        self._maybe_close(net, ps, side)

    def _on_close_window(self, net, ps: PartySession, side: ChainSide, detail):
        """Settlement was requested at the root: every sub-channel member
        uploads its channels' data inside the collection window."""
        if side.views and () not in side.views:  # root members close through _maybe_close
            self._close(net, side)

    def _on_upload(self, net, ps: PartySession, side: ChainSide, bound: ct.Bound):
        side.uploads[bound.owner] = bound
        if bound.owner == self.address(side.chain_id):
            self._distribute_shares(net, side, bound)

    def _on_lock(self, net, ps: PartySession, side: ChainSide, locked: ct.Locked):
        if ps.lock_chain in (None, side.chain_id):
            return  # no part in the lock choreography, or our own lock
        if ps.holder:
            if not self.behavior.withhold_pre:
                self._submit_update(net, ps, side.chain_id)
        else:
            # the first lock is on chain; mirror it once our side closed
            if ps.h_pre is None:
                ps.h_pre = locked.h_pre
            self._lock_if_due(net, ps, ps.sides[ps.lock_chain])

    def _on_success(self, net, ps: PartySession, side: ChainSide, unlocked: ct.Unlocked):
        # the preimage revealed on this party's lock chain unlocks the other
        if not ps.holder and ps.lock_chain == side.chain_id:
            ps.pre = unlocked.pre
            if ps.mode == "FE":
                # the preimage doubles as the decryption key; the ciphertext
                # may have been exchanged on either chain
                for s in ps.sides.values():
                    if s.counterpart_publics is not None:
                        self._decrypt(s, ps.pre)
            (other,) = (c for c in ps.sides if c != side.chain_id)
            self._submit_update(net, ps, other)

    def _on_shares_recorded(self, net, ps: PartySession, side: ChainSide, published: ct.Published | None):
        if published is None or published.owner == self.address(side.chain_id):
            return  # below threshold yet, or own key: nothing to recover
        upload = side.uploads.get(published.owner)
        if upload is None or side.counterpart_publics is None:
            return
        try:
            key = vss.recover(published.shares, upload.t, DEFAULT_GROUP)
        except ValueError:  # too few shares, or indices no interpolation separates
            key = None
        if key is None or hash_bytes(key_to_bytes(key)) != upload.h_k:
            side.mismatch = side.mismatch or "recovered-key-hash-mismatch"
        else:
            self._decrypt(side, key)

    def _decrypt(self, side: ChainSide, key):
        """Open the counterpart's ciphertext; keep it if it matches its hash."""
        x = side.counterpart_publics
        try:
            blocks = decrypt(key, x.m_bar)
        except ValueError:  # not a key at all (an FE preimage not 32 bytes long): as wrong as a wrong one
            blocks = None
        if blocks is not None and hash_blocks(blocks) == x.h_m:
            side.recovered = blocks
        else:
            side.mismatch = side.mismatch or "plaintext-hash-mismatch"

    def _on_terminated(self, net, ps: PartySession, side: ChainSide, detail):
        """Fair exchange aborted on one chain: wind down the other side at
        its last agreed state."""
        if ps.aborted:
            return
        ps.aborted = True
        self._truncate_plans(ps)
        for other in ps.sides.values():
            if other is side:
                continue
            if other.is_open():
                self._maybe_close(net, ps, other)
            else:
                self._lock_if_due(net, ps, other)

    # -- dispatch tables ----------------------------------------------------------------

    HANDLERS = {  # message kind -> (handler, the class its data must be)
        "chain_event": (on_chain_event, ChainEvent),
        "receipt": (on_receipt, ReceiptMsg),
        "sr_request": (on_sr_request, SrMsg),
        "sr_grant": (on_sr_grant, SrMsg),
        "subchannel_open": (on_subchannel_open, SrMsg),
        "exchange": (on_exchange, ExchangeMsg),
        "wakeup": (on_wakeup, Timer),
    }
    EVENTS = {  # result of a successful chain event -> handler
        ct.OPEN_CE: _on_open,
        ct.CLOSE_WINDOW_STARTED: _on_close_window,
        ct.BINDINGS_PUBLISHED: _on_upload,
        ct.CLOSE: lambda p, net, ps, side, _detail: p._lock_if_due(net, ps, side),
        ct.LOCK: _on_lock,
        ct.SUCCESS: _on_success,
        ct.SHARES_RECORDED: _on_shares_recorded,
        ct.TERMINATED: _on_terminated,
    }
    TIMERS = {  # timer kind -> handler(party, net, session, side, path)
        "try_close": lambda p, net, ps, side, _path: p._maybe_close(net, ps, side),
        "force_close": lambda p, net, ps, side, _path: p._force_close(net, ps, side),
        "pump": _pump_due,
    }


@dataclass(frozen=True)
class MinerBehavior(Shared):
    respond_recover: bool = True  # byzantine miners withhold shares
    stale_sn_replay: bool = False


class Miner:
    """Chain-local miner actor: share custody, appeals, recovery, assist."""

    def __init__(self, name, chain, kp: KeyPair, behavior: MinerBehavior | None = None):
        self.name = name
        self.chain = chain
        self.kp = kp
        self.behavior = behavior or MinerBehavior()
        self.stored: dict = {}  # (session, owner) -> the ShareMsg whose share checked out
        self.first_stored: ShareMsg | None = None  # the first such ShareMsg
        self.learned_pre: dict = {}  # session -> pre bytes
        self.assisted: set = set()
        self.rejected: Counter = Counter()  # reason -> messages dropped unread

    __deepcopy__ = copier("stored learned_pre assisted rejected")

    def on_message(self, net, msg: Message):
        dispatch(self, net, msg)

    def serves(self, chain_id: str) -> bool:
        return chain_id == self.chain.chain_id

    def on_share(self, net, msg):
        sm: ShareMsg = msg.data
        session = self.chain.read_session(sm.session_id)
        upload = None if session is None else session.uploads.get(sm.owner)
        if upload is None:
            return
        mine = [b for b in upload.bindings if b.miner == self.kp.address and b.index == sm.share.index]
        if not mine:
            return
        if self.behavior.stale_sn_replay and self.first_stored is not None:
            old = self.first_stored
            payload = ct.AppealPayload(owner_sig=old.sig, share=old.share, sn=old.sn)
            self._submit(net, sm.session_id, ct.APPEAL_TX, payload)
        ok = vss.share_hash(sm.share) == mine[0].share_hash and vss.verify_share(
            sm.share, sm.dealing_pub, DEFAULT_GROUP
        )
        if not ok:
            payload = ct.AppealPayload(owner_sig=sm.sig, share=sm.share, sn=sm.sn)
            self._submit(net, sm.session_id, ct.APPEAL_TX, payload)
            return
        self.stored[(sm.session_id, sm.owner)] = sm
        if self.first_stored is None:
            self.first_stored = sm

    def on_chain_event(self, net, msg):
        ev: ChainEvent = msg.data
        if ev.state != ct.SUCCESS:
            return
        if ev.chain_id == self.chain.chain_id:
            if ev.detail.recover_owner is not None:
                self._answer_recovery(net, ev.session_id, ev.detail.recover_owner)
        elif self.chain.timers.assist_window is not None:  # a preimage revealed on the other chain, to assist with
            self.learned_pre[ev.session_id] = ev.detail.pre
            self._consider_assist(net, ev.session_id)

    def _answer_recovery(self, net, session_id, owner):
        if not self.behavior.respond_recover:
            return
        rec = self.stored.get((session_id, owner))
        if rec is None:
            return
        self._submit(net, session_id, ct.RECOVER_TX, ct.RecoverPayload(rec.share))

    def _consider_assist(self, net, session_id):
        session = self.chain.read_session(session_id)
        if session is None or session.state != ct.LOCK or session_id in self.assisted:
            return
        if self.chain.now > session.lock_deadline:
            self._submit_assist(net, session_id)
        else:
            net.wakeup(self.name, session.lock_deadline + 1, Timer("assist", self.chain.chain_id, session_id))

    def on_wakeup(self, net, msg):
        session_id = msg.data.session_id
        session = self.chain.read_session(session_id)
        if session is not None and session.state == ct.LOCK and session_id in self.learned_pre:
            self._submit_assist(net, session_id)

    def _submit_assist(self, net, session_id):
        session = self.chain.read_session(session_id)
        if session.assist_deadline is None or self.chain.now > session.assist_deadline:
            return  # no assist window on this chain, or it has passed
        self.assisted.add(session_id)
        self._submit(net, session_id, *ct.update_payload(self.learned_pre[session_id], session.uploads))

    def _submit(self, net, session_id, kind, payload):
        tx = ct.make_tx(self.kp, self.chain.chain_id, session_id, kind, payload)
        net.send("tx", self.name, self.chain.chain_id, tx)

    HANDLERS = {  # message kind -> (handler, the class its data must be)
        "share": (on_share, ShareMsg),
        "chain_event": (on_chain_event, ChainEvent),
        "wakeup": (on_wakeup, Timer),
    }
    TIMERS = ("assist",)
