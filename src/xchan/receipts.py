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
step that signs it, and its signature check; it is ``wire.Checked``, so
its field types are checked once, when it is built. The signing bytes
and the check's result are kept in declared fields that take no part in
``==``, ``hash`` or ``repr``. Signed values are immutable (a final
state's balances are read-only), so both hold for the value's lifetime.
Values cross the simulated network by reference and deep-copy to
themselves, so the payee's checks on arrival, the chain's and the
contract's checks at close and settlement, and the same checks in every
world fork share one encoding and one verification.
``dataclasses.replace`` builds a fresh value, so a tampered copy is
always type-checked, encoded and verified anew.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import field
from types import MappingProxyType

from .crypto import KeyPair, verify
from .wire import U64, Checked, Encoded, declared, enc_bytes, enc_value


@declared
class Signed(Checked, Encoded):
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
        """A copy carrying kp's signature; kp must be the signer's key. It
        equals ``replace(self, sig=...)`` without that call's cost: it keeps
        the signing bytes (they exclude sig), no check's verdict, and is not
        type-checked again, since only sig (bytes) differs."""
        if kp.address != self.signer:
            raise ValueError("%s must be signed by its signer" % type(self).__name__)
        signed = object.__new__(type(self))
        signed.__dict__.update(self.__dict__, sig=kp.sign(self.signing_bytes()), _sig_ok=None)
        return signed

    def verify_sig(self) -> bool:
        if self._sig_ok is None:
            object.__setattr__(self, "_sig_ok", verify(self.signer, self.signing_bytes(), self.sig))
        return self._sig_ok


@declared
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


@declared
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


@declared
class FinalState(Signed):
    session_id: str
    channel_path: tuple[U64, ...]
    balances: Mapping[str, U64]  # a read-only copy of the balances given
    submitter: str
    sig: bytes = b""

    def __post_init__(self):  # after the check that balances is a Mapping of the declared types
        object.__setattr__(self, "balances", MappingProxyType(dict(self.balances)))

    @property
    def signer(self) -> str:
        return self.submitter


def make_final_state(kp: KeyPair, session_id, channel_path, balances) -> FinalState:
    return FinalState(session_id, tuple(channel_path), balances, kp.address).signed_by(kp)


def fold_receipt(balances: dict, tr: Receipt, delegated_seqs, funder=None) -> bool:
    """One step of the fold: apply tr to balances (keyed by the channel's
    members) in place, and say whether it was applied. A delegated
    receipt (its amount escrowed to a child channel) debits the sender
    but credits nothing here. A receipt that would overdraw the sender is
    skipped, as is anything not between channel members; in a sub-channel
    only the funder may pay."""
    if tr.seq < 1 or tr.snd == tr.rcv or tr.snd not in balances or tr.rcv not in balances:
        return False
    if funder is not None and tr.snd != funder:
        return False
    if balances[tr.snd] < tr.amount:
        return False
    balances[tr.snd] -= tr.amount
    if tr.seq not in delegated_seqs:
        balances[tr.rcv] += tr.amount
    return True


def replay_receipts(initial: dict, receipts, delegated_seqs, funder=None):
    """Fold receipts in sequence order against starting balances, one
    ``fold_receipt`` step each.

    Returns (balances, included): the final balances and the receipts
    the fold applied.

    The fold checks no signature. settle_levels pools only receipts it
    has verified; a ChannelView holds receipts its party signed or
    verified on arrival. One step of a receipt whose seq exceeds every
    folded one, applied to a fold's balances, gives the balances of one
    fold over both: ChannelView.hold relies on this to fold each receipt
    once, as it arrives.
    """
    balances = dict(initial)
    included = [tr for tr in sorted(receipts, key=lambda t: t.seq)
                if fold_receipt(balances, tr, delegated_seqs, funder)]
    return balances, included
