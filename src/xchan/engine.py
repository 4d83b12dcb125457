"""Off-chain participant logic.

Parties hold per-chain keypairs and channel views, exchange signed
receipts, open sub-channels by redeploying unsettled receipts, run the
threshold-shared fair exchange, and drive the hash-time-locked close.
Miners verify and store key shares, appeal fakes, answer recovery
requests, and may reveal a learned preimage on a stalled chain during
the assist window.

Honest actors re-derive every claim (receipt balances, sub-channel
authorizations, proofs) before acting. Adversarial deviations are
orthogonal behavior flags so tests can enumerate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import contract as ct
from . import proofs, vss
from .crypto import KeyPair, hash_bytes, key_to_bytes, decrypt, hash_blocks
from .receipts import (
    FinalState,
    Receipt,
    SubChannelReceipt,
    make_final_state,
    make_receipt,
    make_sub_receipt,
    replay_receipts,
)
from .simnet import Message, Rng, Simnet


@dataclass(frozen=True)
class BehaviorProfile:
    """Orthogonal adversarial deviations. Message delays are not a flag:
    they are targeted overrides in the network's latency model."""

    withhold_pre: bool = False
    fake_key_share: bool = False
    stale_sn_replay: bool = False
    inflate_final_state: bool = False
    overspend: bool = False
    refuse_close: bool = False
    duplicate_sr: bool = False

    def __deepcopy__(self, memo):
        return self


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
    next_seq: int = 1
    last_sent_seq: int = 0
    # balances() cache: the fold of _folded (receipts in insertion order,
    # highest seq _folded_seq) under the delegation set _folded_delegated
    _bal: dict | None = field(default=None, init=False, repr=False, compare=False)
    _folded: list = field(default_factory=list, init=False, repr=False, compare=False)
    _folded_seq: int = field(default=0, init=False, repr=False, compare=False)
    _folded_delegated: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)

    def balances(self) -> dict:
        """Current balances: replay_receipts over every held receipt.

        The result is cached with a snapshot of what it covers. When the
        receipts added since the last call all have a seq above every
        folded one, only they are folded onto the cache; any other change
        (a receipt inserted below the highest folded seq, a folded receipt
        replaced or removed, or a changed delegated set, including a
        direct ``delegated.add``) falls back to a full replay. initial and
        funder are fixed at construction. Returns a fresh dict each call;
        callers may mutate it.
        """
        trs = list(self.receipts.values())
        n = len(self._folded)
        if not (
            self._bal is not None
            and self.delegated == self._folded_delegated
            and trs[:n] == self._folded
            and all(tr.seq > self._folded_seq for tr in trs[n:])
        ):
            self._bal, self._folded_seq, n = dict(self.initial), 0, 0
            self._folded_delegated = frozenset(self.delegated)
        new = trs[n:]
        if new:
            self._bal, _ = replay_receipts(self._bal, new, self._folded_delegated, self.funder)
            self._folded_seq = max(tr.seq for tr in new)
        self._folded = trs
        return dict(self._bal)

    def other(self, addr: str) -> str:
        return self.members[1] if self.members[0] == addr else self.members[0]


@dataclass
class SendPlan:
    amounts: list
    rate: int
    sent: int = 0
    started: bool = False
    pumping: bool = False

    def done(self) -> bool:
        return self.sent >= len(self.amounts)


@dataclass
class SessionRole:
    """What a party does for one cross-chain session pair."""

    mode: str = "CE"  # CE | FE | EIE
    counterpart: str = ""  # actor name of the other side
    lock_chain: str | None = None  # chain where this party initiates the lock
    relay_lock_chain: str | None = None  # chain where this party locks after seeing the first
    update_chain: str | None = None  # chain where this party reveals the preimage
    relay_update_chain: str | None = None  # chain where this party relays a learned preimage
    pre: bytes | None = None  # preimage, holder only
    h_pre: bytes | None = None
    aborted: bool = False  # the other chain terminated; settle this one as-is


@dataclass
class ExchangeState:
    """One party's secret side of a fair exchange on one chain."""

    key: int
    m_blocks: tuple
    t: int
    n: int
    dealing: vss.Dealing | None = None
    crs: proofs.Crs | None = None
    sn: bytes | None = None


class Party:
    def __init__(self, name: str, keys: dict, behavior: BehaviorProfile = HONEST,
                 directory: dict | None = None, seed: int = 0, group=None):
        self.name = name
        self.keys = keys  # chain_id -> KeyPair
        self.behavior = behavior
        self.directory = directory if directory is not None else {}  # address -> actor name
        self.rng = Rng("party:%s:%d" % (name, seed))
        self.group = group
        self.views: dict = {}  # (chain_id, session_id, path) -> ChannelView
        self.roles: dict = {}  # session_id -> SessionRole
        self.exchange: dict = {}  # (chain_id, session_id) -> ExchangeState
        self.vk_registry: dict = {}  # (chain_id, session_id, owner_addr) -> VerifyKey
        self.backend: proofs.TransparentMacBackend | None = None
        self.send_plans: dict = {}  # (chain, session, path) -> SendPlan
        self.expect_counts: dict = {}  # (chain, session, path) -> int
        self.sub_requests: dict = {}  # (chain, session, path, seq) -> counterparty address
        self.child_plans: dict = {}  # (chain, session, path) -> SendPlan, armed on open
        # protocol knowledge picked up from events
        self.session_states: dict = {}  # (chain, session) -> last state string
        self.upload_meta: dict = {}  # (chain, session, owner) -> {t, n, h_k}
        self.counterpart_publics: dict = {}  # (chain, session) -> RelationPublicInputs
        self.exchange_verified: dict = {}  # (chain, session) -> bool
        self.exchange_failed: dict = {}
        self.recovered: dict = {}  # (chain, session) -> plaintext blocks
        self.violations: list = []
        self.closed_sent: set = set()
        self.received_counts: dict = {}
        self.granted_srs: dict = {}  # underlying tr bytes -> Sr
        self.close_after_tick: int = 0  # application-level close decision

    def address(self, chain_id: str) -> str:
        return self.keys[chain_id].address

    # -- workload wiring (installed by the scenario runner) --------------------

    def add_view(self, view: ChannelView):
        self.views[(view.chain_id, view.session_id, view.path)] = view

    def plan_sends(self, chain_id, session_id, path, amounts, rate):
        self.send_plans[(chain_id, session_id, tuple(path))] = SendPlan(list(amounts), rate)

    def expect(self, chain_id, session_id, path, count):
        self.expect_counts[(chain_id, session_id, tuple(path))] = count

    def plan_subchannel(self, chain_id, session_id, path, funding_seq, counterparty_addr,
                        amounts, rate):
        """When the funding receipt arrives, ask its payer to authorize a
        sub-channel and start paying the counterparty inside it."""
        self.sub_requests[(chain_id, session_id, tuple(path), funding_seq)] = counterparty_addr
        child = tuple(path) + (funding_seq,)
        self.child_plans[(chain_id, session_id, child)] = SendPlan(list(amounts), rate)

    def submit_open(self, net, chain_id, session_id, amount):
        kp = self.keys[chain_id]
        tx = ct.make_tx(kp, chain_id, session_id, ct.OPEN_TX, ct.OpenPayload(amount))
        net.submit_tx(self.name, chain_id, tx)

    # -- message dispatch -------------------------------------------------------

    def on_message(self, net: Simnet, msg: Message):
        if msg.kind == "chain_event":
            self.on_chain_event(net, msg.data)
        elif msg.kind == "receipt":
            self.on_receipt(net, msg)
        elif msg.kind == "sr_request":
            self.on_sr_request(net, msg)
        elif msg.kind == "sr_grant":
            self.on_sr_grant(net, msg)
        elif msg.kind == "subchannel_open":
            self.on_subchannel_open(net, msg)
        elif msg.kind == "exchange":
            self.on_exchange(net, msg)
        elif msg.kind == "wakeup":
            self.on_wakeup(net, msg.data)

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
        view.receipts[seq] = tr
        view.next_seq = seq + 1
        view.last_sent_seq = seq
        dst = self.directory.get(tr.rcv)
        if dst:
            net.send("receipt", self.name, dst, {"chain_id": view.chain_id, "tr": tr})
        return tr

    def on_receipt(self, net, msg):
        tr: Receipt = msg.data["tr"]
        chain_id = msg.data["chain_id"]
        key = (chain_id, tr.session_id, tr.channel_path)
        view = self.views.get(key)
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
        view.receipts[tr.seq] = tr
        view.next_seq = max(view.next_seq, tr.seq + 1)
        self.received_counts[key] = self.received_counts.get(key, 0) + 1
        # payee side of a planned sub-channel funding receipt
        sub_key = (chain_id, tr.session_id, tr.channel_path, tr.seq)
        if sub_key in self.sub_requests:
            dst = self.directory[tr.snd]
            net.send(
                "sr_request",
                self.name,
                dst,
                {"chain_id": chain_id, "tr": tr, "counterparty": self.sub_requests[sub_key]},
            )
        self.maybe_close(net, chain_id, tr.session_id)

    # -- sub-channels -------------------------------------------------------------

    def on_sr_request(self, net, msg):
        """Payer side: authorize the payee to redeploy one receipt."""
        tr: Receipt = msg.data["tr"]
        chain_id = msg.data["chain_id"]
        kp = self.keys[chain_id]
        if tr.snd != kp.address:
            return
        view = self.views.get((chain_id, tr.session_id, tr.channel_path))
        if view is None or view.receipts.get(tr.seq) != tr:
            return
        if tr.to_bytes() in self.granted_srs and not self.behavior.duplicate_sr:
            return  # one sub-channel receipt per receipt
        sr = make_sub_receipt(kp, msg.data["counterparty"], tr)
        self.granted_srs[tr.to_bytes()] = sr
        view.srs.append(sr)
        view.delegated.add(tr.seq)
        if self.behavior.duplicate_sr:
            shadow = make_sub_receipt(kp, kp.address + ":shadow", tr)
            view.srs.append(shadow)
        net.send("sr_grant", self.name, msg.src, {"chain_id": chain_id, "sr": sr})

    def on_sr_grant(self, net, msg):
        """Payee side: open the sub-channel once the authorization checks out."""
        sr: SubChannelReceipt = msg.data["sr"]
        chain_id = msg.data["chain_id"]
        tr = sr.receipt
        my = self.address(chain_id)
        if sr.funder != my or not sr.verify_sig():
            return
        parent = self.views.get((chain_id, tr.session_id, tr.channel_path))
        if parent is None:
            return
        parent.delegated.add(tr.seq)
        parent.srs.append(sr)
        child = ChannelView(
            chain_id=chain_id,
            session_id=tr.session_id,
            path=sr.child_path,
            members=(my, sr.counterparty),
            initial={my: tr.amount, sr.counterparty: 0},
            funder=my,
        )
        self.add_view(child)
        plan = self.child_plans.get((chain_id, tr.session_id, child.path))
        if plan is not None:
            self.send_plans[(chain_id, tr.session_id, child.path)] = plan
            plan.started = True
            self._pump(net, chain_id, tr.session_id, child.path)
        dst = self.directory.get(sr.counterparty)
        if dst:
            net.send("subchannel_open", self.name, dst, {"chain_id": chain_id, "sr": sr})

    def on_subchannel_open(self, net, msg):
        """Counterparty side: verify the authorization chain, then track
        the channel. Trusts nothing beyond the signatures it can check."""
        sr: SubChannelReceipt = msg.data["sr"]
        chain_id = msg.data["chain_id"]
        my = self.address(chain_id)
        if sr.counterparty != my or not sr.verify_sig():
            return
        tr = sr.receipt
        view = ChannelView(
            chain_id=chain_id,
            session_id=tr.session_id,
            path=sr.child_path,
            members=(sr.funder, my),
            initial={sr.funder: tr.amount, my: 0},
            funder=sr.funder,
        )
        view.srs.append(sr)
        self.add_view(view)

    # -- workload pump ----------------------------------------------------------

    def _pump(self, net, chain_id, session_id, path):
        plan = self.send_plans.get((chain_id, session_id, path))
        if plan is None or plan.pumping or plan.done():
            return
        plan.pumping = True
        net.wakeup(self.name, net.now + 1, {"pump": [chain_id, session_id, list(path)]})

    def on_wakeup(self, net, data):
        if "try_close" in data:
            chain_id, session_id = data["try_close"]
            self.maybe_close(net, chain_id, session_id)
            return
        if "force_close" in data:
            # grace expired: close at whatever state exists rather than
            # leave the deposits parked behind a silent counterpart
            chain_id, session_id = data["force_close"]
            if self.behavior.refuse_close:
                return
            if (chain_id, session_id) in self.closed_sent:
                return
            if self.session_states.get((chain_id, session_id)) not in (ct.OPEN_CE, ct.OPEN):
                return
            if (chain_id, session_id, ()) not in self.views:
                return
            self.closed_sent.add((chain_id, session_id))
            self.submit_closes(net, chain_id, session_id)
            return
        if "pump" in data:
            chain_id, session_id, path = data["pump"]
            path = tuple(path)
            plan = self.send_plans.get((chain_id, session_id, path))
            view = self.views.get((chain_id, session_id, path))
            if plan is None or view is None:
                return
            plan.pumping = False
            for _ in range(plan.rate):
                if plan.done():
                    break
                tr = self.send_receipt(net, view, plan.amounts[plan.sent])
                if tr is None:
                    break  # insufficient in-channel balance; stop rather than cheat
                plan.sent += 1
            if not plan.done():
                self._pump(net, chain_id, session_id, path)
            else:
                if self.behavior.overspend:
                    bal = view.balances().get(self.address(chain_id), 0)
                    self.send_receipt(net, view, bal + 1, force=True)
                self.maybe_close(net, chain_id, session_id)

    # -- fair exchange ------------------------------------------------------------

    def setup_exchange(self, chain_id, session_id, key, m_blocks, t, n, backend, seed):
        self.backend = backend
        crs = backend.setup(128, seed)
        self.exchange[(chain_id, session_id)] = ExchangeState(
            key=key, m_blocks=tuple(m_blocks), t=t, n=n, crs=crs
        )
        return crs.vk

    def run_theta_share(self, net, chain_id, session_id):
        """Deal the key, publish its hash and the per-share hashes."""
        st = self.exchange[(chain_id, session_id)]
        st.dealing = vss.share(st.key, st.t, st.n, self.rng, self.group)
        hashes = tuple(vss.share_hash(s) for s in st.dealing.shares)
        payload = ct.UploadPayload(
            h_k=hash_bytes(key_to_bytes(st.key)), n=st.n, t=st.t, share_hashes=hashes
        )
        kp = self.keys[chain_id]
        net.submit_tx(self.name, chain_id, ct.make_tx(kp, chain_id, session_id, ct.UPLOAD_TX, payload))

    def _distribute_shares(self, net, chain_id, session_id, detail):
        st = self.exchange[(chain_id, session_id)]
        st.sn = bytes.fromhex(detail["sn"])
        kp = self.keys[chain_id]
        for miner_addr, index, _h in detail["bindings"]:
            ks = st.dealing.shares[index - 1]
            if self.behavior.fake_key_share and index == 1:
                ks = replace(ks, s=(ks.s + 1) % self.group.q)
            sig = kp.sign(vss.share_message_bytes(ks, st.sn))
            dst = self.directory.get(miner_addr)
            if dst:
                net.send(
                    "share",
                    self.name,
                    dst,
                    {
                        "chain_id": chain_id,
                        "session_id": session_id,
                        "owner": kp.address,
                        "share": ks,
                        "dealing_pub": st.dealing.public,
                        "sn": st.sn,
                        "sig": sig,
                    },
                )

    def run_theta_exchange(self, net, chain_id, session_id):
        """Send (proof, ciphertext, plaintext hash, key hash) across."""
        st = self.exchange[(chain_id, session_id)]
        if st.dealing is None:
            # FE never distributes shares; a local dealing feeds the witness
            st.dealing = vss.share(st.key, st.t, st.n, self.rng, self.group)
        x = proofs.make_public_inputs(st.m_blocks, st.key, st.t, st.n)
        w = proofs.RelationWitness(m=st.m_blocks, k_shares=st.dealing.shares)
        proof = self.backend.prove(st.crs.pk, w, x)
        net.send(
            "exchange",
            self.name,
            self.roles[session_id].counterpart,
            {"chain_id": chain_id, "session_id": session_id, "proof": proof, "publics": x,
             "owner": self.address(chain_id)},
        )

    def on_exchange(self, net, msg):
        chain_id = msg.data["chain_id"]
        session_id = msg.data["session_id"]
        x = msg.data["publics"]
        vk = self.vk_registry.get((chain_id, session_id, msg.data["owner"]))
        ok = vk is not None and self.backend.verify(vk, x, msg.data["proof"])
        if ok:
            self.counterpart_publics[(chain_id, session_id)] = x
            self.exchange_verified[(chain_id, session_id)] = True
            for c in self.keys:
                self._start_pumps(net, c, session_id)
            self.maybe_close(net, chain_id, session_id)
        else:
            # abort before paying anything more: wind the session down at
            # whatever state both sides last agreed on
            self.exchange_failed[(chain_id, session_id)] = True
            role = self.roles.get(session_id)
            if role is not None:
                role.aborted = True
            self._truncate_session_plans(session_id)
            for c in self.keys:
                self.maybe_close(net, c, session_id)

    def _truncate_session_plans(self, session_id):
        for (c, s, _p), plan in self.send_plans.items():
            if s == session_id:
                plan.amounts = plan.amounts[: plan.sent]
        for key in list(self.expect_counts):
            if key[1] == session_id:
                self.expect_counts[key] = min(
                    self.expect_counts[key], self.received_counts.get(key, 0)
                )
        for key in list(self.child_plans):
            if key[1] == session_id and key not in self.send_plans:
                del self.child_plans[key]
        for key in list(self.sub_requests):
            if key[1] == session_id:
                del self.sub_requests[key]

    def _proofs_ok(self, session_id) -> bool:
        """Every counterpart proof this party expects for the session has
        verified; paying before that would risk paying for nothing."""
        role = self.roles.get(session_id)
        if role is None or role.mode == "CE":
            return True
        for (c, s, owner) in self.vk_registry:
            if s != session_id or owner == self.address(c):
                continue
            if self.exchange_failed.get((c, s)):
                return False
            if not self.exchange_verified.get((c, s)):
                return False
        return True

    def _start_pumps(self, net, chain_id, session_id):
        if not self._proofs_ok(session_id):
            return
        if self.session_states.get((chain_id, session_id)) not in (ct.OPEN_CE, ct.OPEN):
            return
        for (c, s, path), plan in self.send_plans.items():
            if c == chain_id and s == session_id and path == () and not plan.started:
                plan.started = True
                self._pump(net, chain_id, session_id, path)

    # -- closing ------------------------------------------------------------------

    def _plans_done(self, chain_id, session_id):
        for (c, s, _p), plan in self.send_plans.items():
            if c == chain_id and s == session_id and not plan.done():
                return False
        for (c, s, p), want in self.expect_counts.items():
            if c == chain_id and s == session_id:
                if self.received_counts.get((c, s, p), 0) < want:
                    return False
        for (c, s, p), _plan in self.child_plans.items():
            if c == chain_id and s == session_id and (c, s, p) not in self.send_plans:
                return False  # sub-channel not open yet
        return True

    def _exchange_gate(self, chain_id, session_id):
        role = self.roles.get(session_id)
        if role is None or role.mode == "CE" or role.aborted:
            return True
        if self.exchange_failed.get((chain_id, session_id)):
            return False  # abort: never enter close on a bad proof
        my = self.address(chain_id)
        expects_proof = any(
            c == chain_id and s == session_id and o != my for (c, s, o) in self.vk_registry
        )
        if expects_proof and not self.exchange_verified.get((chain_id, session_id)):
            return False
        return True

    def maybe_close(self, net, chain_id, session_id):
        if self.behavior.refuse_close:
            return
        if (chain_id, session_id) in self.closed_sent:
            return
        if net.now < self.close_after_tick:
            return  # the channel stays open until the agreed point
        root = self.views.get((chain_id, session_id, ()))
        if root is None:
            return  # sub-channel members close on the broadcast, not here
        if self.session_states.get((chain_id, session_id)) not in (ct.OPEN_CE, ct.OPEN):
            return
        if not self._plans_done(chain_id, session_id):
            return
        if not self._exchange_gate(chain_id, session_id):
            return
        self.closed_sent.add((chain_id, session_id))
        self.submit_closes(net, chain_id, session_id)

    def compute_final_state(self, view: ChannelView) -> FinalState:
        balances = view.balances()
        if self.behavior.inflate_final_state:
            me = self.address(view.chain_id)
            balances[me] = balances.get(me, 0) + 1
        return make_final_state(self.keys[view.chain_id], view.session_id, view.path, balances)

    def submit_closes(self, net, chain_id, session_id):
        """One close transaction per channel this party belongs to."""
        kp = self.keys[chain_id]
        for (c, s, path) in sorted(k for k in self.views if k[0] == chain_id and k[1] == session_id):
            view = self.views[(c, s, path)]
            payload = ct.ClosePayload(
                final=self.compute_final_state(view),
                srs=tuple(view.srs),
                trs=tuple(view.receipts[k] for k in sorted(view.receipts)),
            )
            net.submit_tx(self.name, chain_id, ct.make_tx(kp, chain_id, session_id, ct.CLOSE_TX, payload))

    # -- hash-time lock choreography ------------------------------------------------

    def _submit_lock(self, net, chain_id, session_id):
        role = self.roles[session_id]
        payload = ct.LockPayload(h_pre=role.h_pre)
        kp = self.keys[chain_id]
        net.submit_tx(self.name, chain_id, ct.make_tx(kp, chain_id, session_id, ct.LOCK_TX, payload))

    def _submit_update(self, net, chain_id, session_id):
        role = self.roles[session_id]
        kp = self.keys[chain_id]
        if role.mode == "EIE":
            owner = [
                o for (c, s, o) in self.upload_meta if c == chain_id and s == session_id
            ]
            if owner:
                h_k = self.upload_meta[(chain_id, session_id, owner[0])]["h_k"]
                payload = ct.UpdateEiePayload(pre=role.pre, h_k=h_k)
                tx = ct.make_tx(kp, chain_id, session_id, ct.UPDATE_EIE_TX, payload)
                net.submit_tx(self.name, chain_id, tx)
                return
        payload = ct.UpdatePayload(pre=role.pre)
        net.submit_tx(self.name, chain_id, ct.make_tx(kp, chain_id, session_id, ct.UPDATE_TX, payload))

    def _ready_to_relay_lock(self, session_id):
        role = self.roles[session_id]
        chain = role.relay_lock_chain
        return (
            role.h_pre is not None
            and self.session_states.get((chain, session_id)) == ct.CLOSE
        )

    # -- chain events -----------------------------------------------------------------

    def on_chain_event(self, net, ev: dict):
        chain_id = ev["chain_id"]
        session_id = ev["session_id"]
        result = ev.get("result", "")
        detail = ev.get("detail") or {}
        role = self.roles.get(session_id)
        if result.startswith("state:"):
            self.session_states[(chain_id, session_id)] = result.split(":", 1)[1]

        if result == "state:%s" % ct.OPEN_CE:
            self._on_open(net, chain_id, session_id, detail)
        elif result == "close window started":
            self._on_close_window(net, chain_id, session_id)
        elif ev["tx_kind"] == ct.UPLOAD_TX and "owner" in detail:
            self.upload_meta[(chain_id, session_id, detail["owner"])] = {
                "t": detail["t"],
                "n": detail["n"],
                "h_k": bytes.fromhex(detail["h_k"]),
            }
            if detail["owner"] == self.address(chain_id):
                self._distribute_shares(net, chain_id, session_id, detail)
        elif result == "state:%s" % ct.CLOSE:
            if role and role.aborted and role.pre is not None:
                # unilateral wind-down of the surviving chain at its
                # settled state; this party knows the preimage
                self._submit_lock(net, chain_id, session_id)
            elif role and role.lock_chain == chain_id:
                self._submit_lock(net, chain_id, session_id)
            if role and role.relay_lock_chain == chain_id and self._ready_to_relay_lock(session_id):
                self._submit_lock(net, chain_id, session_id)
        elif result == "state:%s" % ct.LOCK:
            if role and role.relay_lock_chain and chain_id != role.relay_lock_chain:
                # the first lock is on chain; mirror it once our side closed
                if role.h_pre is None:
                    role.h_pre = bytes.fromhex(detail["h_pre"])
                if self._ready_to_relay_lock(session_id):
                    self._submit_lock(net, role.relay_lock_chain, session_id)
            if role and role.update_chain == chain_id and not self.behavior.withhold_pre:
                self._submit_update(net, chain_id, session_id)
        elif result == "state:%s" % ct.SUCCESS:
            if "pre" in detail and role and role.relay_update_chain and chain_id != role.relay_update_chain:
                role.pre = bytes.fromhex(detail["pre"])
                self._on_learned_pre(net, session_id, chain_id)
                self._submit_update(net, role.relay_update_chain, session_id)
            if "published_owner" in detail:
                self._on_shares_published(net, chain_id, session_id, detail)
        elif ev["tx_kind"] == ct.RECOVER_TX and "published_owner" in detail:
            self._on_shares_published(net, chain_id, session_id, detail)
        elif result == "state:%s" % ct.TERMINATED:
            self._on_terminated(net, chain_id, session_id)

    def _on_close_window(self, net, chain_id, session_id):
        """Settlement was requested at the root: every sub-channel member
        uploads its channels' data inside the collection window."""
        if self.behavior.refuse_close:
            return
        if (chain_id, session_id) in self.closed_sent:
            return
        mine = [k for k in self.views if k[0] == chain_id and k[1] == session_id]
        if not mine or any(k[2] == () for k in mine):
            return  # root members submit through maybe_close
        self.closed_sent.add((chain_id, session_id))
        self.submit_closes(net, chain_id, session_id)

    def _on_open(self, net, chain_id, session_id, detail):
        deposits = detail.get("deposits", {})
        key = (chain_id, session_id, ())
        my = self.address(chain_id)
        if key not in self.views and my in deposits and len(deposits) == 2:
            members = sorted(deposits)
            self.add_view(
                ChannelView(
                    chain_id=chain_id,
                    session_id=session_id,
                    path=(),
                    members=(members[0], members[1]),
                    initial=dict(deposits),
                )
            )
        role = self.roles.get(session_id)
        self._start_pumps(net, chain_id, session_id)
        if role and role.mode in ("FE", "EIE"):
            st = self.exchange.get((chain_id, session_id))
            if st is not None:
                if role.mode == "EIE":
                    self.run_theta_share(net, chain_id, session_id)
                self.run_theta_exchange(net, chain_id, session_id)
        self.maybe_close(net, chain_id, session_id)

    def _on_learned_pre(self, net, session_id, chain_id):
        role = self.roles[session_id]
        if role.mode == "FE":
            # the preimage doubles as the decryption key; the ciphertext
            # may have been exchanged on either chain
            for c in self.keys:
                x = self.counterpart_publics.get((c, session_id))
                if x is None:
                    continue
                blocks = decrypt(role.pre, x.m_bar)
                if hash_blocks(blocks) == x.h_m:
                    self.recovered[(c, session_id)] = blocks
                else:
                    self.violations.append(("plaintext-hash-mismatch", c, session_id))

    def _on_shares_published(self, net, chain_id, session_id, detail):
        owner = detail["published_owner"]
        if owner == self.address(chain_id):
            return  # own key; nothing to recover
        meta = self.upload_meta.get((chain_id, session_id, owner))
        x = self.counterpart_publics.get((chain_id, session_id))
        if meta is None or x is None:
            return
        key = vss.recover(detail["shares"], meta["t"], self.group)
        if hash_bytes(key_to_bytes(key)) != meta["h_k"]:
            self.violations.append(("recovered-key-hash-mismatch", chain_id, session_id))
            return
        blocks = decrypt(key, x.m_bar)
        if hash_blocks(blocks) == x.h_m:
            self.recovered[(chain_id, session_id)] = blocks
        else:
            self.violations.append(("plaintext-hash-mismatch", chain_id, session_id))

    def _on_terminated(self, net, chain_id, session_id):
        """Fair exchange aborted on one chain: wind down the other side at
        its last agreed state."""
        role = self.roles.get(session_id)
        if role is None or role.aborted:
            return
        role.aborted = True
        self._truncate_session_plans(session_id)
        for other_chain in self.keys:
            if other_chain == chain_id:
                continue
            state = self.session_states.get((other_chain, session_id))
            if state in (ct.OPEN_CE, ct.OPEN):
                self.maybe_close(net, other_chain, session_id)
            elif state == ct.CLOSE and role.pre is not None:
                self._submit_lock(net, other_chain, session_id)


@dataclass
class MinerBehavior:
    respond_recover: bool = True  # byzantine miners withhold shares
    report_fake: bool = True
    stale_sn_replay: bool = False
    assist: bool = True


class Miner:
    """Chain-local miner actor: share custody, appeals, recovery, assist."""

    def __init__(self, name, chain, kp: KeyPair, behavior: MinerBehavior | None = None,
                 group=None):
        self.name = name
        self.chain = chain
        self.kp = kp
        self.behavior = behavior or MinerBehavior()
        self.group = group
        self.stored: dict = {}  # (session, owner) -> dict(share, sn, sig, ...)
        self.old_stored: list = []
        self.learned_pre: dict = {}  # session -> pre bytes
        self.assisted: set = set()

    def on_message(self, net, msg: Message):
        if msg.kind == "share":
            self.on_share(net, msg)
        elif msg.kind == "chain_event":
            self.on_chain_event(net, msg.data)
        elif msg.kind == "wakeup":
            self.on_wakeup(net, msg.data)

    def on_share(self, net, msg):
        data = msg.data
        session_id = data["session_id"]
        owner = data["owner"]
        share: vss.KeyShare = data["share"]
        session = self.chain.read_session(session_id)
        if session is None or owner not in session.bindings:
            return
        mine = [b for b in session.bindings[owner] if b[0] == self.kp.address and b[1] == share.index]
        if not mine:
            return
        if self.behavior.stale_sn_replay and self.old_stored:
            old = self.old_stored[0]
            payload = ct.AppealPayload(owner_sig=old["sig"], share=old["share"], sn=old["sn"])
            tx = ct.make_tx(self.kp, self.chain.chain_id, session_id, ct.APPEAL_TX, payload)
            net.submit_tx(self.name, self.chain.chain_id, tx)
        bound_hash = mine[0][2]
        ok = vss.share_hash(share) == bound_hash and vss.verify_share(
            share, data["dealing_pub"], self.group
        )
        if not ok:
            if self.behavior.report_fake:
                payload = ct.AppealPayload(owner_sig=data["sig"], share=share, sn=data["sn"])
                tx = ct.make_tx(self.kp, self.chain.chain_id, session_id, ct.APPEAL_TX, payload)
                net.submit_tx(self.name, self.chain.chain_id, tx)
            return
        rec = {"share": share, "sn": data["sn"], "sig": data["sig"], "owner": owner}
        self.stored[(session_id, owner)] = rec
        self.old_stored.append(rec)

    def on_chain_event(self, net, ev):
        detail = ev.get("detail") or {}
        session_id = ev["session_id"]
        if ev["chain_id"] == self.chain.chain_id:
            if "recover_owner" in detail:
                self._answer_recovery(net, session_id, detail["recover_owner"])
            return
        # cross-chain observation: a revealed preimage on the other chain
        if "pre" in detail and ev.get("result", "").startswith("state:%s" % ct.SUCCESS):
            if not self.behavior.assist:
                return
            self.learned_pre[session_id] = bytes.fromhex(detail["pre"])
            self._consider_assist(net, session_id)

    def _answer_recovery(self, net, session_id, owner):
        if not self.behavior.respond_recover:
            return
        rec = self.stored.get((session_id, owner))
        if rec is None:
            return
        session = self.chain.read_session(session_id)
        slot_s = session.parties and owner == session.parties[0]
        payload = ct.RecoverPayload(
            share_s=rec["share"] if slot_s else None,
            share_r=None if slot_s else rec["share"],
        )
        tx = ct.make_tx(self.kp, self.chain.chain_id, session_id, ct.RECOVER_TX, payload)
        net.submit_tx(self.name, self.chain.chain_id, tx)

    def _consider_assist(self, net, session_id):
        session = self.chain.read_session(session_id)
        if session is None or session.state != ct.LOCK or session_id in self.assisted:
            return
        if self.chain.now > session.lock_deadline:
            self._submit_assist(net, session_id)
        else:
            net.wakeup(self.name, session.lock_deadline + 1, {"assist": session_id})

    def on_wakeup(self, net, data):
        if "assist" in data:
            session_id = data["assist"]
            session = self.chain.read_session(session_id)
            if (
                session is not None
                and session.state == ct.LOCK
                and session.assist_deadline is not None
                and self.chain.now <= session.assist_deadline
                and session_id in self.learned_pre
            ):
                self._submit_assist(net, session_id)

    def _submit_assist(self, net, session_id):
        session = self.chain.read_session(session_id)
        if session.assist_deadline is None or self.chain.now > session.assist_deadline:
            return
        self.assisted.add(session_id)
        pre = self.learned_pre[session_id]
        if session.uploaded:
            owner = sorted(session.uploaded)[0]
            payload = ct.UpdateEiePayload(pre=pre, h_k=session.uploaded[owner].h_k)
            kind = ct.UPDATE_EIE_TX
        else:
            payload = ct.UpdatePayload(pre=pre)
            kind = ct.UPDATE_TX
        tx = ct.make_tx(self.kp, self.chain.chain_id, session_id, kind, payload)
        net.submit_tx(self.name, self.chain.chain_id, tx)
