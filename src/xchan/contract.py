"""Per-session on-chain contract.

Each channel session is a state machine

    INIT -> Open_CE -> (Open) -> Close -> Lock -> (Success | Refunded)

with Terminated reachable from Open_CE/Open via a successful appeal.
The contract escrows deposits at open, books key-share bindings at
upload, arbitrates share appeals, settles the hierarchical channel tree
level by level when the close window expires, and finalizes with a
hash-time lock: parties may reveal the preimage within the unlock
window, miners within the assist window after it, and expiry refunds the
original deposits. ChannelContract.TIMED_EXITS lists every timed transition.

Handlers are validate-then-apply: a failed transaction is included in
its block but leaves session state untouched.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from . import vss
from .crypto import hash_bytes, verify
from .forking import copier
from .receipts import FinalState, Receipt, Signed, SubChannelReceipt, replay_receipts
from .wire import U64, Checked, declared, enc_str

# session states
INIT = "INIT"
OPEN_CE = "Open_CE"
OPEN = "Open"
CLOSE = "Close"
LOCK = "Lock"
SUCCESS = "Success"
TERMINATED = "Terminated"
REFUNDED = "Refunded"

TERMINAL_STATES = (SUCCESS, TERMINATED, REFUNDED)
STATES = frozenset((INIT, OPEN_CE, OPEN, CLOSE, LOCK, SUCCESS, TERMINATED, REFUNDED))

# results other than a new state that parties act on
CLOSE_WINDOW_STARTED = "close window started"
BINDINGS_PUBLISHED = "bindings published"
SHARES_RECORDED = "shares recorded"


# What an ok event reports besides its result: the record DETAILS declares
# for a result an actor acts on, and None for every other result.
@declared
class Binding(Checked):  # the miner holding share number index of a key
    miner: str
    index: U64
    share_hash: bytes


@declared
class Opened(Checked):  # Open_CE
    deposits: Mapping[str, U64]


@declared
class Bound(Checked):  # bindings published: owner's shares go to these miners
    owner: str
    sn: bytes
    bindings: tuple[Binding, ...]
    t: U64
    h_k: bytes


@declared
class Locked(Checked):  # Lock
    h_pre: bytes


@declared
class Unlocked(Checked):  # Success; an UpdateEIE names the key to recover
    pre: bytes
    recover_owner: str | None


@declared
class Published(Checked):  # shares recorded, once owner's threshold is reached
    owner: str
    shares: tuple[vss.KeyShare, ...]


DETAILS = {OPEN_CE: Opened, BINDINGS_PUBLISHED: Bound, LOCK: Locked, SUCCESS: Unlocked,
           SHARES_RECORDED: Published | None}

# transaction kinds
OPEN_TX = "Open"
UPLOAD_TX = "Upload"
APPEAL_TX = "Appeal"
CLOSE_TX = "Close"
LOCK_TX = "Lock"
UPDATE_TX = "Update"
UPDATE_EIE_TX = "UpdateEIE"
RECOVER_TX = "Recover"

class InvariantViolation(AssertionError):
    pass


# ---------------------------------------------------------------------------
# Transaction payloads


@declared
class OpenPayload(Checked):
    amount: U64


@declared
class UploadPayload(Checked):
    h_k: bytes
    n: U64
    t: U64
    share_hashes: tuple[bytes, ...]


@declared
class AppealPayload(Checked):
    owner_sig: bytes
    share: vss.KeyShare
    sn: bytes


@declared
class ClosePayload(Checked):
    final: FinalState
    srs: tuple[SubChannelReceipt, ...]
    trs: tuple[Receipt, ...]


@declared
class LockPayload(Checked):
    h_pre: bytes


@declared
class UpdatePayload(Checked):
    pre: bytes


@declared
class UpdateEiePayload(Checked):
    pre: bytes
    h_k: bytes


@declared
class RecoverPayload(Checked):
    share: vss.KeyShare


@declared
class OnChainTx(Signed):
    chain_id: str
    session_id: str
    sender: str
    kind: str
    payload: object
    sig: bytes = b""

    @property
    def signer(self) -> str:
        return self.sender


def make_tx(kp, chain_id, session_id, kind, payload) -> OnChainTx:
    return OnChainTx(chain_id, session_id, kp.address, kind, payload).signed_by(kp)


def update_payload(pre: bytes, uploads: Mapping) -> tuple[str, Checked]:
    """The one reveal rule, a party's and an assisting miner's: the (kind,
    payload) revealing pre to a session with uploads (owner address -> Bound),
    an UpdateEIE naming the lowest uploader's key hash if any, else an Update."""
    if uploads:
        return UPDATE_EIE_TX, UpdateEiePayload(pre=pre, h_k=uploads[min(uploads)].h_k)
    return UPDATE_TX, UpdatePayload(pre=pre)


# ---------------------------------------------------------------------------
# Hierarchical settlement


@dataclass
class SettleResult:
    ok: bool
    allocations: dict
    cutoff_level: int | None
    detail: str = ""


def settle_levels(session_id: str, deposits: dict, parties, submissions) -> SettleResult:
    """Recompute every channel's balances from the submitted receipts.

    submissions is a list of (sender, ClosePayload). Claimed final states
    are advisory only; balances come from replaying the receipts. Level
    verification walks the tree top-down: a level fails if some accepted
    sub-channel receipt has no covering submission or two sub-channel
    receipts spend the same receipt; the failing level and everything
    below it are discarded, and each discarded channel's funding amount
    reverts to the funding receipt's payee at the deepest surviving
    level. ``parties`` is unused: each channel's members are the keys of
    its starting balances.

    Signatures are checked on demand, when the walk reaches a decision
    that reads them:

    * the receipts and sub-channel receipts offered for a channel path
      (a sub-channel receipt under its embedded receipt's path), when the
      walk reaches that path and before its pool is built, so sequence
      conflicts count only signed receipts;
    * a child path's final states, in submission order up to the first
      that verifies, when a sub-channel receipt's coverage is tested.

    A value the walk never reads is never checked: the root's final
    states, receipts below a cutoff or on a path no funding receipt
    reaches, and later final states of an already covered path. Since
    nothing else reads them, their signatures cannot change the result,
    and no unchecked signature reaches an allocation. Before the walk,
    only field checks that need no signature drop a value: its session
    id, a final state's submitter against the sender, and a sub-channel
    receipt whose counterparty is its own funder.

    Each signed object remembers its own signature check (see
    ``receipts``), so an object the payee or the close admission already
    checked is not verified again here. The receipt pools are keyed by
    canonical bytes (``to_bytes()``), which cover every signed field and
    the signature: equal-bytes copies pool as one receipt, and distinct
    receipts sharing a sequence number conflict.
    """
    finals: dict[tuple, list[FinalState]] = {}
    # path -> [(receipt, the sub-channel receipt embedding it or None)]
    offered: dict[tuple, list[tuple[Receipt, SubChannelReceipt | None]]] = {}
    for sender, payload in submissions:
        f = payload.final
        if f.session_id == session_id and f.submitter == sender:
            finals.setdefault(f.channel_path, []).append(f)
        for tr in payload.trs:
            if tr.session_id == session_id:
                offered.setdefault(tr.channel_path, []).append((tr, None))
        for sr in payload.srs:
            tr = sr.receipt
            if tr.session_id == session_id and sr.counterparty != sr.funder:
                offered.setdefault(tr.channel_path, []).append((tr, sr))

    allocations: dict[str, int] = {}

    def credit(addr, amount):
        allocations[addr] = allocations.get(addr, 0) + amount

    # (path, initial, funder) per instantiated channel
    current = [((), dict(deposits), None)]
    cutoff = None
    level = 0
    while current:
        spawn = []  # children proposed by this level
        failed = False
        for path, initial, funder in current:
            pool: dict[bytes, Receipt] = {}
            sr_groups: dict[bytes, dict[bytes, SubChannelReceipt]] = {}
            for tr, sr in offered.get(path, ()):
                if not (tr if sr is None else sr).verify_sig():
                    continue
                tr_bytes = tr.to_bytes()
                pool[tr_bytes] = tr  # an embedded receipt counts as submitted
                if sr is not None:
                    sr_groups.setdefault(tr_bytes, {})[sr.to_bytes()] = sr
            # drop seq conflicts: distinct receipts sharing a sequence number
            by_seq: dict[int, list[tuple[bytes, Receipt]]] = {}
            for tr_bytes, tr in pool.items():
                by_seq.setdefault(tr.seq, []).append((tr_bytes, tr))
            candidates = {seq: v[0] for seq, v in by_seq.items() if len(v) == 1}
            delegated = {seq for seq, (tr_bytes, _tr) in candidates.items() if tr_bytes in sr_groups}
            balances, included = replay_receipts(
                initial, [tr for _b, tr in candidates.values()], delegated, funder=funder
            )
            for addr in sorted(balances):
                credit(addr, balances[addr])
            for tr in included:
                if tr.seq not in delegated:
                    continue
                group = sr_groups[candidates[tr.seq][0]]
                if len(group) > 1:
                    failed = True  # double authorization of one receipt
                    spawn.append((tr, None))
                    continue
                (sr,) = group.values()
                child = path + (tr.seq,)
                if not any(f.verify_sig() for f in finals.get(child, ())):
                    failed = True
                    spawn.append((tr, None))
                else:
                    spawn.append((tr, sr))
        if failed:
            cutoff = level + 1
            # every proposed child is discarded; funding reverts to payee
            for tr, _sr in spawn:
                credit(tr.rcv, tr.amount)
            break
        current = [
            (tr.channel_path + (tr.seq,), {sr.funder: tr.amount, sr.counterparty: 0}, sr.funder)
            for tr, sr in spawn
        ]
        level += 1

    total = sum(allocations.values())
    expected = sum(deposits.values())
    if total != expected:
        return SettleResult(
            ok=False,
            allocations=dict(deposits),
            cutoff_level=cutoff,
            detail="conservation violated: %d != %d" % (total, expected),
        )
    return SettleResult(ok=True, allocations=allocations, cutoff_level=cutoff)


# ---------------------------------------------------------------------------
# Sessions


@dataclass
class ContractSession:
    session_id: str
    state: str = INIT
    deposits: dict = field(default_factory=dict)  # fills as each opens; from Open_CE its keys are the parties
    escrow: int = 0
    sn: bytes | None = None
    uploads: dict = field(default_factory=dict)  # owner address -> the Bound record of its upload
    appeal_deadline: int | None = None
    close_deadline: int | None = None
    collected_closes: dict = field(default_factory=dict)  # (sender, path) -> ClosePayload
    locked_allocations: dict | None = None
    settle_cutoff: int | None = None
    h_pre: bytes | None = None
    lock_deadline: int | None = None
    assist_deadline: int | None = None
    recovery_requested: list = field(default_factory=list)  # owner addresses
    collected_shares: dict = field(default_factory=dict)  # owner -> {index: share}
    assist_reward_paid: int = 0
    transitions: list = field(default_factory=list)  # (from, to, tick)

    __deepcopy__ = copier("deposits uploads collected_closes locked_allocations recovery_requested transitions")

    def set_state(self, new_state: str, tick: int):
        edge = (self.state, new_state)
        if edge not in VALID_EDGES:
            raise InvariantViolation("illegal transition %s -> %s" % edge)
        self.transitions.append((self.state, new_state, tick))
        self.state = new_state

    @property
    def refund_deadline(self):  # the end of the last reveal window
        return self.lock_deadline if self.assist_deadline is None else self.assist_deadline


class ChannelContract:
    """Executes transactions against sessions. The chain that runs it is
    passed into each call and provides tick time, miners, block
    randomness, and account balances; the contract keeps no reference to
    it, so a chain and its contract form no reference cycle."""

    def __init__(self):
        self.sessions: dict[str, ContractSession] = {}

    __deepcopy__ = copier()

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _pay_out(s: ContractSession, amounts: dict, chain):
        """Empty the escrow: the deposits back, or the locked allocations."""
        for addr in sorted(amounts):
            chain.credit(addr, amounts[addr])
        s.escrow = 0

    # -- dispatch -----------------------------------------------------------

    def execute(self, tx: OnChainTx, chain):
        """Returns (ok, result, detail) without raising on bad input; detail
        is the record DETAILS declares for an ok result, or None. Each
        handler gets tx's session, or None before its first Open."""
        handler, _payload = self.HANDLERS.get(tx.kind, (None, None))
        if handler is None:
            return False, "unknown kind", None
        return handler(self, self.sessions.get(tx.session_id), tx, chain)

    # -- handlers -----------------------------------------------------------

    def handle_open(self, s, tx, chain):
        if s is None:
            s = self.sessions[tx.session_id] = ContractSession(session_id=tx.session_id)
        if tx.sender in s.deposits:
            return False, "duplicate open", None
        if s.state != INIT:  # both parties have opened
            return False, "session full", None
        amount = tx.payload.amount
        if chain.balance(tx.sender) < amount:
            return False, "insufficient balance", None
        chain.debit(tx.sender, amount)
        s.escrow += amount
        s.deposits[tx.sender] = amount
        if len(s.deposits) == 2:
            s.set_state(OPEN_CE, chain.now)
            return True, OPEN_CE, Opened(dict(s.deposits))
        return True, "open pending", None

    def handle_upload(self, s, tx, chain):
        if s is None or s.state != OPEN_CE:
            return False, "not open", None
        if tx.sender not in s.deposits:
            return False, "not a channel party", None
        if tx.sender in s.uploads:
            return False, "already uploaded", None
        p = tx.payload
        if p.n > len(chain.miners):
            return False, "n exceeds miner count", None
        if p.t < 1 or p.t > p.n or len(p.share_hashes) != p.n:
            return False, "invalid threshold parameters", None
        rng_seed = hash_bytes(chain.prev_block_hash() + enc_str(tx.session_id) + enc_str(tx.sender))
        picks = chain.pick_miners(p.n, rng_seed)
        if s.sn is None:
            s.sn = hash_bytes(chain.prev_block_hash() + enc_str(tx.session_id) + b"sn")[:16]
        bindings = tuple(map(Binding, picks, range(1, p.n + 1), p.share_hashes))
        bound = s.uploads[tx.sender] = Bound(tx.sender, s.sn, bindings, p.t, p.h_k)
        deadline = chain.now + chain.timers.appeal_window
        s.appeal_deadline = max(s.appeal_deadline or 0, deadline)
        return True, BINDINGS_PUBLISHED, bound

    def handle_appeal(self, s, tx, chain):
        if s is None or s.state not in (OPEN_CE, OPEN):
            return False, "no session to appeal", None
        if s.appeal_deadline is None:
            return False, "no upload to appeal", None
        if chain.now > s.appeal_deadline:
            return False, "appeal window closed", None
        p = tx.payload
        if p.sn != s.sn:
            return False, "stale serial number", None
        saw_binding = False
        for owner in sorted(s.uploads):
            for b in s.uploads[owner].bindings:
                if b.miner != tx.sender or b.index != p.share.index:
                    continue
                saw_binding = True
                if not verify(owner, vss.share_message_bytes(p.share, p.sn), p.owner_sig):
                    continue
                if vss.share_hash(p.share) == b.share_hash:
                    return False, "share matches binding", None
                # proven: owner signed a share differing from its commitment
                self._pay_out(s, s.deposits, chain)
                s.set_state(TERMINATED, chain.now)
                return True, TERMINATED, None
        if saw_binding:
            return False, "owner signature invalid", None
        return False, "no matching binding", None

    def handle_close(self, s, tx, chain):
        if s is None or s.state not in (OPEN_CE, OPEN):
            return False, "not open", None
        if s.close_deadline is not None and chain.now > s.close_deadline:
            return False, "close window expired", None
        p = tx.payload
        f = p.final
        if f.submitter != tx.sender or not f.verify_sig():
            return False, "bad final-state signature", None
        if f.session_id != tx.session_id:
            return False, "wrong session", None
        s.collected_closes[(tx.sender, f.channel_path)] = p
        if s.close_deadline is None:
            if all((party, ()) in s.collected_closes for party in s.deposits):
                s.close_deadline = chain.now + chain.timers.close_window
                return True, CLOSE_WINDOW_STARTED, None
        return True, "close recorded", None

    def handle_lock(self, s, tx, chain):
        if s is None:
            return False, "not in close", None
        if s.h_pre is not None:
            return False, "already locked", None
        if s.state != CLOSE:
            return False, "not in close", None
        if tx.sender not in s.deposits:
            return False, "not a channel party", None
        s.h_pre = tx.payload.h_pre
        s.lock_deadline = chain.now + chain.timers.unlock_window
        if chain.timers.assist_window is not None:
            s.assist_deadline = chain.now + chain.timers.assist_window
        s.set_state(LOCK, chain.now)
        return True, LOCK, Locked(s.h_pre)

    def _check_update_window(self, s, sender, chain):
        if sender in s.deposits:
            if chain.now > s.lock_deadline:
                return "party past unlock deadline"
            return None
        if sender in chain.miners:
            if s.assist_deadline is None:
                return "no assist window on this chain"
            if not (s.lock_deadline < chain.now <= s.assist_deadline):
                return "outside assist window"
            return None
        return "sender is neither party nor miner"

    def _finalize_update(self, s, sender, chain):
        self._pay_out(s, s.locked_allocations, chain)
        if sender not in s.deposits:
            # miner assist: reward comes out of the assisted party's allocation
            gains = {p: s.locked_allocations.get(p, 0) - s.deposits[p] for p in s.deposits}
            beneficiary = max(sorted(gains), key=lambda p: gains[p])
            reward = s.locked_allocations.get(beneficiary, 0) * chain.assist_reward_percent // 100
            if reward > 0:
                chain.debit(beneficiary, reward)
                chain.credit(sender, reward)
            s.assist_reward_paid = reward
        s.set_state(SUCCESS, chain.now)

    def handle_update(self, s, tx, chain):
        """Update and UpdateEIE. An UpdateEIE also names an uploaded key by
        its hash; the miners holding its shares are asked to publish them."""
        if s is None or s.state != LOCK:
            return False, "not locked", None
        why = self._check_update_window(s, tx.sender, chain)
        if why:
            return False, why, None
        if hash_bytes(tx.payload.pre) != s.h_pre:
            return False, "wrong preimage", None
        owner = None
        if tx.kind == UPDATE_EIE_TX:
            owner = next((a for a in sorted(s.uploads) if s.uploads[a].h_k == tx.payload.h_k), None)
            if owner is None:
                return False, "unknown key hash", None
        self._finalize_update(s, tx.sender, chain)
        if owner is not None and owner not in s.recovery_requested:
            s.recovery_requested.append(owner)
        return True, SUCCESS, Unlocked(tx.payload.pre, owner)

    def handle_recover(self, s, tx, chain):
        if s is None or not s.recovery_requested:
            return False, "no recovery requested", None
        accepted = False
        published = None
        ks = tx.payload.share
        for owner in s.recovery_requested:
            upload = s.uploads[owner]
            match = [b for b in upload.bindings if b.miner == tx.sender and b.index == ks.index]
            if not match or vss.share_hash(ks) != match[0].share_hash:
                continue
            store = s.collected_shares.setdefault(owner, {})
            if ks.index in store:
                continue  # duplicate index ignored
            store[ks.index] = ks
            accepted = True
            if len(store) == upload.t:  # published once, at the threshold share
                published = Published(owner, tuple(store[i] for i in sorted(store)))
        if not accepted:
            return False, "no share accepted", None
        return True, SHARES_RECORDED, published

    HANDLERS = {  # tx kind -> (handler, the class its payload must be)
        OPEN_TX: (handle_open, OpenPayload),
        UPLOAD_TX: (handle_upload, UploadPayload),
        APPEAL_TX: (handle_appeal, AppealPayload),
        CLOSE_TX: (handle_close, ClosePayload),
        LOCK_TX: (handle_lock, LockPayload),
        UPDATE_TX: (handle_update, UpdatePayload),
        UPDATE_EIE_TX: (handle_update, UpdateEiePayload),
        RECOVER_TX: (handle_recover, RecoverPayload),
    }

    # -- timed exits ------------------------------------------------------------

    def process_timers(self, chain):
        """Run at every block: each session, in id order, takes in table order
        each row of TIMED_EXITS that leaves its current state and whose
        deadline has passed. Returns the (session_id, state entered) of each."""
        events = []
        now = chain.now
        for sid in sorted(self.sessions):
            s = self.sessions[sid]
            for frm, deadline, action, to in self.TIMED_EXITS:
                due = getattr(s, deadline)
                if s.state in frm and due is not None and now > due:
                    state = to[0] if action is None else action(self, s, chain)
                    s.set_state(state, now)
                    events.append((sid, state))
        return events

    def _settle(self, s, chain):  # the tree's allocations locked in, or the deposits back
        result = settle_levels(
            s.session_id,
            s.deposits,
            list(s.deposits),
            [(sender, p) for (sender, _path), p in sorted(s.collected_closes.items())],
        )
        if not result.ok:
            self._pay_out(s, s.deposits, chain)
            return TERMINATED
        s.locked_allocations = result.allocations
        s.settle_cutoff = result.cutoff_level
        return CLOSE

    def _refund(self, s, chain):
        self._pay_out(s, s.deposits, chain)
        return REFUNDED

    # Every timed transition, as (frm: the states it leaves, the session
    # attribute holding its deadline, action: acts and returns the state
    # entered, or None to enter the one state of to, to: the states it may
    # enter). Tried in this order, so one block past the appeal and the close
    # deadline chains Open_CE -> Open -> Close.
    TIMED_EXITS = (
        ((OPEN_CE,), "appeal_deadline", None, (OPEN,)),
        ((OPEN_CE, OPEN), "close_deadline", _settle, (CLOSE, TERMINATED)),
        ((LOCK,), "refund_deadline", _refund, (REFUNDED,)),
    )

    # -- sessions that start settled ---------------------------------------------

    def start_settled(self, chain, session_id, deposits: dict, allocations: dict) -> ContractSession:
        """A session that starts at Close, as if its parties had opened with
        deposits and settled to allocations: each deposit is debited from
        its depositor and escrowed, and the allocations are locked in.
        Worlds that exercise only the hash-time lock start here: the
        plain-HTLC baseline and the close-phase enumeration."""
        if session_id in self.sessions:
            raise ValueError("session exists: %s" % session_id)
        for addr, amount in deposits.items():
            chain.debit(addr, amount)
        s = self.sessions[session_id] = ContractSession(
            session_id, CLOSE, deposits=dict(deposits),
            escrow=sum(deposits.values()), locked_allocations=dict(allocations))
        return s


# the handlers' edges (open, appeal, lock, update) and the timed exits'
VALID_EDGES = {(INIT, OPEN_CE), (OPEN_CE, TERMINATED), (OPEN, TERMINATED), (CLOSE, LOCK), (LOCK, SUCCESS)} | {
    (a, b) for frm, _deadline, _action, to in ChannelContract.TIMED_EXITS for a in frm for b in to}
