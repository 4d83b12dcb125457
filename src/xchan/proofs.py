"""The proof system for the fair-exchange relation.

The relation ties together a ciphertext, the hash of its plaintext, the
hash of the encryption key, and a threshold sharing of that key: a
witness (plaintext, shares) satisfies public inputs (h_m, m_bar, h_k)
iff the shares recover a key hashing to h_k that encrypts the plaintext
to exactly m_bar, and the plaintext hashes to h_m.

One transparent MAC backend models completeness and soundness: prove
evaluates the relation and only on success emits an HMAC of the public
inputs under a key both sides hold, which verify checks. Proofs are
constant size and carry no witness data.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from . import vss
from .crypto import Ciphertext, GroupParams, encrypt, hash_blocks, hash_bytes, key_to_bytes
from .forking import Shared
from .wire import U64, Checked, declared, enc_bytes, enc_u64, enc_value


class RelationUnsatisfied(Exception):
    """prove() refuses to prove public inputs with no satisfying witness."""


@declared
class RelationPublicInputs(Checked):
    h_m: bytes
    m_bar: Ciphertext
    h_k: bytes
    t: U64
    n: U64


@dataclass(frozen=True)
class RelationWitness:
    m: tuple[bytes, ...]
    k_shares: tuple[vss.KeyShare, ...]


def eval_relation(w: RelationWitness, x: RelationPublicInputs, group: GroupParams) -> bool:
    """Direct evaluation of the relation; False on any mismatch."""
    try:
        key = vss.recover(w.k_shares, x.t, group)
    except ValueError:
        return False
    if hash_bytes(key_to_bytes(key)) != x.h_k:
        return False
    if hash_blocks(w.m) != x.h_m:
        return False
    try:
        return encrypt(key, w.m) == x.m_bar
    except ValueError:
        return False


@declared
class Proof(Checked):
    binding: bytes


@dataclass(frozen=True)
class TransparentMacBackend(Shared):
    """An HMAC over the public inputs, gated on the relation actually
    holding. Zero-knowledge holds vacuously (proofs carry nothing derived
    from the witness). It holds nothing but its group, so world forks
    share it."""

    group: GroupParams

    def setup(self, seed: bytes) -> bytes:
        """The one MAC key that proves and verifies; the security level,
        128 bits, is part of its derivation."""
        return hash_bytes(b"crs-binding" + enc_u64(128) + enc_bytes(seed))

    def prove(self, key: bytes, w: RelationWitness, x: RelationPublicInputs) -> Proof:
        if not eval_relation(w, x, self.group):
            raise RelationUnsatisfied("witness does not satisfy the public inputs")
        return Proof(binding=hmac.new(key, enc_value(x), "sha256").digest())

    def verify(self, key: bytes, x: RelationPublicInputs, proof: Proof) -> bool:
        expect = hmac.new(key, enc_value(x), "sha256").digest()
        return hmac.compare_digest(expect, proof.binding)


def make_public_inputs(m_blocks, key, t: int, n: int) -> RelationPublicInputs:
    """Convenience: compute the public side from the secret side."""
    m_blocks = tuple(m_blocks)
    return RelationPublicInputs(
        h_m=hash_blocks(m_blocks),
        m_bar=encrypt(key, m_blocks),
        h_k=hash_bytes(key_to_bytes(key)),
        t=t,
        n=n,
    )
