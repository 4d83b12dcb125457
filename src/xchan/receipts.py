"""Off-chain receipts, sub-channel receipts, and final states.

A receipt (Tr) is a signed transfer inside one channel. A sub-channel
receipt (Sr) is the paying side's authorization to redeploy one receipt's
amount as the funding of a new channel one level down; the receipt's
payee becomes the funder of that child channel. Channels are identified
by paths: the root channel is (), the child funded through the receipt
with sequence number s in channel P is P + (s,).

Each signed object remembers the result of its first signature check in
a declared field that takes no part in ``==``, ``hash`` or ``repr``.
Objects cross the simulated network by reference, so the payee's check
on arrival and the contract's checks at close and settlement share one
verification. ``dataclasses.replace`` builds a fresh, unchecked object,
so a tampered copy is always verified anew.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .crypto import KeyPair, verify
from .wire import enc_balances, enc_bytes, enc_path, enc_str, enc_u64


@dataclass(frozen=True)
class Receipt:
    session_id: str
    channel_path: tuple[int, ...]
    seq: int
    snd: str
    rcv: str
    amount: int
    sig: bytes = b""
    _sig_ok: bool | None = field(default=None, init=False, repr=False, compare=False)

    def signing_bytes(self) -> bytes:
        return (
            enc_str(self.session_id)
            + enc_path(self.channel_path)
            + enc_u64(self.seq)
            + enc_str(self.snd)
            + enc_str(self.rcv)
            + enc_u64(self.amount)
        )

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + enc_bytes(self.sig)

    def verify_sig(self) -> bool:
        if self._sig_ok is None:
            object.__setattr__(self, "_sig_ok", verify(self.snd, self.signing_bytes(), self.sig))
        return self._sig_ok


def make_receipt(kp: KeyPair, session_id, channel_path, seq, rcv, amount) -> Receipt:
    tr = Receipt(
        session_id=session_id,
        channel_path=tuple(channel_path),
        seq=seq,
        snd=kp.address,
        rcv=rcv,
        amount=amount,
    )
    return replace(tr, sig=kp.sign(tr.signing_bytes()))


@dataclass(frozen=True)
class SubChannelReceipt:
    counterparty: str
    receipt: Receipt
    sig: bytes = b""
    _sig_ok: bool | None = field(default=None, init=False, repr=False, compare=False)

    def signing_bytes(self) -> bytes:
        return enc_str(self.counterparty) + enc_bytes(self.receipt.to_bytes())

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + enc_bytes(self.sig)

    @property
    def child_path(self) -> tuple[int, ...]:
        return self.receipt.channel_path + (self.receipt.seq,)

    @property
    def funder(self) -> str:
        # the receipt's payee funds the child channel with the amount
        return self.receipt.rcv

    def verify_sig(self) -> bool:
        return self.receipt.verify_sig() and self.verify_own_sig()

    def verify_own_sig(self) -> bool:
        """The authorization's own signature, without re-checking the
        embedded receipt's: issued and signed by that receipt's payer."""
        if self._sig_ok is None:
            ok = verify(self.receipt.snd, self.signing_bytes(), self.sig)
            object.__setattr__(self, "_sig_ok", ok)
        return self._sig_ok


def make_sub_receipt(payer_kp: KeyPair, counterparty: str, tr: Receipt) -> SubChannelReceipt:
    if payer_kp.address != tr.snd:
        raise ValueError("sub-channel receipt must be issued by the receipt's payer")
    sr = SubChannelReceipt(counterparty=counterparty, receipt=tr)
    return replace(sr, sig=payer_kp.sign(sr.signing_bytes()))


@dataclass(frozen=True)
class FinalState:
    session_id: str
    channel_path: tuple[int, ...]
    balances: dict
    submitter: str
    sig: bytes = b""
    # (signing bytes, result): balances is a dict, so the result holds
    # only while the signed bytes are unchanged
    _sig_ok: tuple[bytes, bool] | None = field(default=None, init=False, repr=False, compare=False)

    def signing_bytes(self) -> bytes:
        return (
            enc_str(self.session_id)
            + enc_path(self.channel_path)
            + enc_balances(self.balances)
            + enc_str(self.submitter)
        )

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + enc_bytes(self.sig)

    def verify_sig(self) -> bool:
        msg = self.signing_bytes()
        if self._sig_ok is None or self._sig_ok[0] != msg:
            object.__setattr__(self, "_sig_ok", (msg, verify(self.submitter, msg, self.sig)))
        return self._sig_ok[1]


def make_final_state(kp: KeyPair, session_id, channel_path, balances) -> FinalState:
    f = FinalState(
        session_id=session_id,
        channel_path=tuple(channel_path),
        balances=dict(balances),
        submitter=kp.address,
    )
    return replace(f, sig=kp.sign(f.signing_bytes()))


def replay_receipts(initial: dict, receipts, delegated_seqs, funder=None):
    """Fold receipts in sequence order against starting balances.

    Returns (balances, included) where balances reflect all debits plus
    credits for non-delegated receipts; delegated receipts (their amount
    escrowed to a child channel) debit the sender but credit nothing
    here. Receipts that would overdraw the sender are skipped, as is
    anything not between channel members; in a sub-channel only the
    funder may pay.

    The fold checks no signature. settle_levels pools only receipts it
    has verified; a ChannelView holds receipts its party signed or
    verified on arrival. Folding receipts whose seqs all exceed those
    of an earlier fold onto that fold's balances gives the same balances
    as one fold over both sets; ChannelView.balances relies on this.
    """
    balances = dict(initial)
    members = set(initial)
    included = []
    for tr in sorted(receipts, key=lambda t: t.seq):
        if tr.amount < 0 or tr.seq < 1:
            continue
        if tr.snd == tr.rcv or tr.snd not in members or tr.rcv not in members:
            continue
        if funder is not None and tr.snd != funder:
            continue
        if balances[tr.snd] < tr.amount:
            continue
        balances[tr.snd] -= tr.amount
        if tr.seq not in delegated_seqs:
            balances[tr.rcv] += tr.amount
        included.append(tr)
    return balances, included
