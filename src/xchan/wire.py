"""Canonical byte serialization.

Every signed or hashed message in the system is serialized the same way:
length-prefixed big-endian fields concatenated in declared field order.
These helpers are the single definition of that byte form; signatures and
digests are always computed over it, never over ad-hoc string renderings.
"""

from __future__ import annotations

from typing import Annotated

# Unsigned field types bounded by what their encoder carries, for the
# declared fields of values received from other actors
U64 = Annotated[int, 1 << 64]  # enc_u64
Scalar = Annotated[int, 1 << 256]  # enc_scalar


def enc_u64(n: int) -> bytes:
    if n < 0:
        raise ValueError("unsigned field is negative: %d" % n)
    return n.to_bytes(8, "big")


def enc_bytes(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


def enc_scalar(v: int) -> bytes:
    """Field elements and group elements travel as 32-byte big-endian."""
    return v.to_bytes(32, "big")


def enc_path(path: tuple[int, ...]) -> bytes:
    return enc_u64(len(path)) + b"".join(enc_u64(p) for p in path)


def enc_balances(balances: dict[str, int]) -> bytes:
    """Address->amount maps serialize sorted by address for stability."""
    out = [enc_u64(len(balances))]
    for addr in sorted(balances):
        out.append(enc_str(addr))
        out.append(enc_u64(balances[addr]))
    return b"".join(out)


def enc_seq(items) -> bytes:
    """Sequence of pre-encoded byte chunks."""
    items = list(items)
    return enc_u64(len(items)) + b"".join(enc_bytes(i) for i in items)
