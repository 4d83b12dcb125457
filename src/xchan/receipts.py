"""Off-chain receipts, sub-channel receipts, and final states, and the
``Signed`` base they share with on-chain transactions.

A receipt (Tr) is a signed transfer inside one channel. A sub-channel
receipt (Sr) is the paying side's authorization to redeploy one receipt's
amount as the funding of a new channel one level down; the receipt's
payee becomes the funder of that child channel. Channels are identified
by paths: the root channel is (), the child funded through the receipt
with sequence number s in channel P is P + (s,).

Every signed value derives from ``Signed``, which defines once its byte
form (the signing bytes, which ``wire.enc_value`` derives from the
declared field types, followed by the length-prefixed signature), the
step that signs it, and its signature check. The signing bytes and the
check's result are kept in declared fields that take no part in ``==``,
``hash`` or ``repr``. Signed values are immutable (a final state's
balances are read-only), so both hold for the value's lifetime. Values
cross the simulated network by reference and deep-copy to themselves, so
the payee's check on arrival, the contract's checks at close and
settlement, and the same checks in every world fork share one encoding
and one verification. ``dataclasses.replace`` builds a fresh, unchecked
value, so a tampered copy is always encoded and verified anew.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from .crypto import KeyPair, verify
from .forking import Shared
from .wire import U64, Encoded, enc_bytes, enc_value


@dataclass(frozen=True)
class Signed(Shared, Encoded):
    """A value signed by ``signer`` over ``signing_bytes()``: every field
    declared before ``sig``, which subclasses declare last."""

    _sig_ok: bool | None = field(default=None, init=False, repr=False, compare=False)
    _signing: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def signing_bytes(self) -> bytes:
        if self._signing is None:
            object.__setattr__(self, "_signing", enc_value(self, stop="sig"))
        return self._signing

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + enc_bytes(self.sig)

    def signed_by(self, kp: KeyPair):
        """A copy carrying kp's signature; kp must be the signer's key."""
        if kp.address != self.signer:
            raise ValueError("%s must be signed by its signer" % type(self).__name__)
        signed = replace(self, sig=kp.sign(self.signing_bytes()))
        # the copy differs only in sig, which its signing bytes exclude
        object.__setattr__(signed, "_signing", self._signing)
        return signed

    def verify_sig(self) -> bool:
        if self._sig_ok is None:
            object.__setattr__(self, "_sig_ok", verify(self.signer, self.signing_bytes(), self.sig))
        return self._sig_ok


@dataclass(frozen=True)
class Receipt(Signed):
    session_id: str
    channel_path: tuple[U64, ...]
    seq: U64
    snd: str
    rcv: str
    amount: U64
    sig: bytes = b""

    @property
    def signer(self) -> str:
        return self.snd


def make_receipt(kp: KeyPair, session_id, channel_path, seq, rcv, amount) -> Receipt:
    return Receipt(session_id, tuple(channel_path), seq, kp.address, rcv, amount).signed_by(kp)


@dataclass(frozen=True)
class SubChannelReceipt(Signed):
    counterparty: str
    receipt: Receipt
    sig: bytes = b""

    @property
    def signer(self) -> str:
        # issued by the embedded receipt's payer
        return self.receipt.snd

    @property
    def child_path(self) -> tuple[int, ...]:
        return self.receipt.channel_path + (self.receipt.seq,)

    @property
    def funder(self) -> str:
        # the receipt's payee funds the child channel with the amount
        return self.receipt.rcv

    def verify_sig(self) -> bool:
        """The embedded receipt's signature, then this authorization's own."""
        return self.receipt.verify_sig() and super().verify_sig()


def make_sub_receipt(payer_kp: KeyPair, counterparty: str, tr: Receipt) -> SubChannelReceipt:
    return SubChannelReceipt(counterparty, tr).signed_by(payer_kp)


@dataclass(frozen=True)
class FinalState(Signed):
    session_id: str
    channel_path: tuple[U64, ...]
    balances: Mapping[str, U64]  # a read-only copy of the balances given
    submitter: str
    sig: bytes = b""

    def __post_init__(self):
        object.__setattr__(self, "balances", MappingProxyType(dict(self.balances)))

    @property
    def signer(self) -> str:
        return self.submitter


def make_final_state(kp: KeyPair, session_id, channel_path, balances) -> FinalState:
    return FinalState(session_id, tuple(channel_path), balances, kp.address).signed_by(kp)


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
