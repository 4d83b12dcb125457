"""Deterministic cryptographic building blocks.

Hashing, Ed25519 signatures, Pedersen commitments over a prime-order
subgroup of Z_p*, and a deterministic block cipher. One hash function is
used everywhere a digest is needed. The commitment group is swappable:
DEFAULT_GROUP is a 256-bit safe-prime group for normal runs, TINY_GROUP a
101-order subgroup small enough for brute-force oracles.

Ed25519 runs in libsodium (``libsodium.so.23``, 1.0.18 or later) through
one ctypes binding loaded at import; importing this module raises
ImportError when the library is missing. Signatures are RFC 8032's
deterministic ones, byte for byte. Verification applies libsodium's
rules on top of RFC 8032's: S must be below the group order, and R and
the public key must be canonical and not of small order, so a signature
under a small-order key (such as the identity, under which one signature
would verify for every message) is rejected.

Everything here is pure and immutable after construction. The state kept
between calls is public and immutable: each group lazily builds its
fixed-base exponentiation tables (8-bit windows, ~1.1 MB for the default
group) on its first commitment and keeps them, and each key label's
keypair is derived once and kept for the life of the process.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
from dataclasses import dataclass
from functools import cache, cached_property

from .forking import Shared
from .wire import U64, Checked, declared, enc_scalar, enc_seq, enc_u64

def hash_bytes(data: bytes) -> bytes:
    """32-byte SHA-256 digest; the h(.) used for every hash in the system."""
    return hashlib.sha256(data).digest()


# ---------------------------------------------------------------------------
# Commitment group

# Fixed-base tables with one row of 256 powers per byte of an exponent: the
# default group's two tables hold 16k ints (~1.1 MB), and a commitment costs
# one lookup in each and one reduction per exponent byte.
WindowTable = tuple[tuple[int, ...], ...]


def _window_table(base: int, p: int, q: int) -> WindowTable:
    """Row i holds base^(j * 256^i) mod p for j < 256, with one row per
    byte of an exponent below q."""
    rows = []
    for _ in range(-(-q.bit_length() // 8)):
        row = [1]
        for _ in range(255):
            row.append(row[-1] * base % p)
        rows.append(tuple(row))
        base = row[-1] * base % p
    return tuple(rows)


@dataclass(frozen=True)
class GroupParams(Shared):
    """Prime-order subgroup of Z_p* with two independent generators.

    q is the (prime) subgroup order, p the field modulus, and g, h
    generators whose discrete-log relation is unknown (h is derived by
    hashing into the subgroup).
    """

    p: int
    q: int
    g: int
    h: int

    def __post_init__(self):
        if not (1 < self.g < self.p and 1 < self.h < self.p):
            raise ValueError("generators must lie in 2..p-1")
        if self.g == self.h:
            raise ValueError("generators must differ")
        if pow(self.g, self.q, self.p) != 1 or pow(self.h, self.q, self.p) != 1:
            raise ValueError("generator order is not q")

    @cached_property
    def window_tables(self) -> tuple[WindowTable, WindowTable]:
        """Fixed-base tables for g and h, built on first use.

        Kept in the instance dict, so they stay out of ==, hash and repr.
        """
        return _window_table(self.g, self.p, self.q), _window_table(self.h, self.p, self.q)

    def rand_scalar(self, rng) -> int:
        return rng.randrange(self.q)


def derive_generator(seed: bytes, p: int, q: int, avoid=()) -> int:
    """Hash into the order-q subgroup; nobody learns a discrete log."""
    cofactor = (p - 1) // q
    ctr = 0
    while True:
        u = int.from_bytes(hash_bytes(seed + ctr.to_bytes(4, "big")), "big") % p
        cand = pow(u, cofactor, p)
        if cand != 1 and cand not in avoid:
            return cand
        ctr += 1


_P = 78177405508330598267849903035634465555221869467241016437008985922639218557339
_Q = (_P - 1) // 2

DEFAULT_GROUP = GroupParams(p=_P, q=_Q, g=4, h=derive_generator(b"generator-h", _P, _Q, avoid=(4,)))

# Small group for exhaustive desk-scale checks: order-101 subgroup of Z_607*.
TINY_GROUP = GroupParams(p=607, q=101, g=64, h=derive_generator(b"generator-h", 607, 101, avoid=(64,)))


def pedersen_commit(s: int, r: int, params: GroupParams) -> int:
    """E(s, r) = g^s * h^r in the group; homomorphic in both exponents."""
    g_rows, h_rows = params.window_tables
    p, q, width = params.p, params.q, len(g_rows)
    acc = 1
    for g_row, h_row, a, b in zip(g_rows, h_rows, (s % q).to_bytes(width, "little"),
                                  (r % q).to_bytes(width, "little")):
        acc = acc * (g_row[a] * h_row[b]) % p
    return acc


# ---------------------------------------------------------------------------
# Signatures

SIGNATURE_SIZE = 64
PUBLIC_KEY_SIZE = 32


def _load_sodium():
    path = ctypes.util.find_library("sodium")
    if path is None:
        raise ImportError("xchan.crypto needs libsodium (libsodium.so.23) for Ed25519; it was not found")
    try:
        lib = ctypes.CDLL(path)
    except OSError as e:
        raise ImportError("xchan.crypto could not load libsodium from %s: %s" % (path, e)) from e
    if lib.sodium_init() < 0:
        raise ImportError("libsodium at %s failed to initialise" % path)
    buf, size = ctypes.c_char_p, ctypes.c_ulonglong
    for fn, args in ((lib.crypto_sign_seed_keypair, [buf, buf, buf]),
                     (lib.crypto_sign_detached, [buf, ctypes.c_void_p, buf, size, buf]),
                     (lib.crypto_sign_verify_detached, [buf, buf, size, buf])):
        fn.argtypes, fn.restype = args, ctypes.c_int
    return lib


_sodium = _load_sodium()
# Output buffer types, built once: a new array type per call would leave
# a reference cycle behind each signature.
_Buf32 = ctypes.c_char * PUBLIC_KEY_SIZE
_Buf64 = ctypes.c_char * SIGNATURE_SIZE


class KeyPair(Shared):
    """Ed25519 keypair derived deterministically from a 32-byte seed.

    The address is the hex of the public key, so any holder of an address
    can verify signatures without a key registry.
    """

    def __init__(self, seed: bytes):
        if type(seed) is not bytes or len(seed) != 32:
            raise ValueError("seed must be 32 bytes")
        self.seed = seed
        pk, sk = _Buf32(), _Buf64()
        _sodium.crypto_sign_seed_keypair(pk, sk, seed)
        self._sk = sk.raw  # seed || public key, libsodium's 64-byte secret form
        self.public_bytes = pk.raw
        self.address = self.public_bytes.hex()

    def sign(self, msg: bytes) -> bytes:
        if type(msg) is not bytes:  # libsodium reads len(msg) bytes
            raise TypeError("msg must be bytes")
        sig = _Buf64()
        _sodium.crypto_sign_detached(sig, None, msg, len(msg), self._sk)
        return sig.raw

    def __repr__(self):
        return "KeyPair(%s...)" % self.address[:8]


@cache
def keypair_from_label(label: str) -> KeyPair:
    """The keypair label names, derived once per process and then shared:
    a KeyPair is public and immutable, so every world built from the same
    label holds the same one (``cache_clear()`` drops them).

    Signature verdicts are not kept the same way: a verdict is a fact about
    what one world has admitted, so any verify memo lives in that world."""
    return KeyPair(hash_bytes(b"keypair:" + label.encode("utf-8")))


def verify(address: str, msg: bytes, sig: bytes) -> bool:
    """True iff sig is a valid signature by the key behind address.

    Anything libsodium could misread returns False and never raises: a
    sig that is not 64 bytes, an address that is not the hex of 32 bytes,
    a msg that is not bytes.
    """
    if not (type(sig) is bytes and len(sig) == SIGNATURE_SIZE and type(msg) is bytes):
        return False
    try:
        pk = bytes.fromhex(address)
    except (TypeError, ValueError):
        return False
    if len(pk) != PUBLIC_KEY_SIZE:
        return False
    return _sodium.crypto_sign_verify_detached(sig, msg, len(msg), pk) == 0


# ---------------------------------------------------------------------------
# Deterministic symmetric encryption


@declared
class Ciphertext(Checked):
    """Encrypted data blocks; block count always equals the plaintext's."""

    block_size: U64
    blocks: tuple[bytes, ...]


def key_to_bytes(key) -> bytes:
    """Accepts a 32-byte secret or a scalar; canonical 32-byte form."""
    if isinstance(key, int):
        return enc_scalar(key)
    if isinstance(key, bytes) and len(key) == 32:
        return key
    raise ValueError("key must be a scalar or 32 bytes")


def _keystream_block(key32: bytes, index: int, size: int) -> bytes:
    out = b""
    ctr = 0
    while len(out) < size:
        out += hash_bytes(key32 + enc_u64(index) + enc_u64(ctr))
        ctr += 1
    return out[:size]


def _xor(data: bytes, ks: bytes) -> bytes:
    """data XOR ks in one int operation, as long as the shorter of the two."""
    n = min(len(data), len(ks))
    return (int.from_bytes(data[:n], "little") ^ int.from_bytes(ks[:n], "little")).to_bytes(n, "little")


def encrypt(key, blocks) -> Ciphertext:
    """Deterministic per-block XOR keystream cipher.

    No nonce by design: the fair-exchange relation re-derives the
    ciphertext from (key, plaintext) and checks byte equality, which
    randomized encryption would break.
    """
    key32 = key_to_bytes(key)
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("plaintext must have at least one block")
    size = len(blocks[0])
    enc = []
    for i, blk in enumerate(blocks):
        if len(blk) != size:
            raise ValueError("blocks must be equal size")
        enc.append(_xor(blk, _keystream_block(key32, i, size)))
    return Ciphertext(blocks=tuple(enc), block_size=size)


def decrypt(key, ct: Ciphertext) -> tuple[bytes, ...]:
    """Inverse of encrypt; a wrong key yields garbage the caller detects
    by comparing the plaintext hash. A block longer or shorter than
    block_size yields as many bytes as the shorter of it and the keystream."""
    key32 = key_to_bytes(key)
    return tuple(_xor(blk, _keystream_block(key32, i, ct.block_size)) for i, blk in enumerate(ct.blocks))


def hash_blocks(blocks) -> bytes:
    """Digest of a block sequence in canonical serialized form."""
    return hash_bytes(enc_seq(blocks))
