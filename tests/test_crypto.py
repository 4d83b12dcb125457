import copy
import hashlib
import random

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from hypothesis import given, settings
from hypothesis import strategies as st

from xchan import atomicity, crypto
from xchan.crypto import (
    DEFAULT_GROUP,
    TINY_GROUP,
    Ciphertext,
    GroupParams,
    KeyPair,
    decrypt,
    derive_generator,
    encrypt,
    hash_blocks,
    hash_bytes,
    key_to_bytes,
    keypair_from_label,
    pedersen_commit,
    verify,
)
from oracles import pedersen_brute, pedersen_two_pow, xor_bytes

# order-524351 subgroup of Z_1048703*: q has 20 bits, not a whole number
# of fixed-base windows
_P20, _Q20 = 1048703, 524351
_G20 = derive_generator(b"generator-g", _P20, _Q20)
SMALL_GROUP = GroupParams(p=_P20, q=_Q20, g=_G20,
                          h=derive_generator(b"generator-h", _P20, _Q20, avoid=(_G20,)))
GROUPS = [DEFAULT_GROUP, TINY_GROUP, SMALL_GROUP]
GROUP_IDS = ["default", "tiny", "small"]

# published SHA-256 vector for the empty input
SHA256_EMPTY = bytes.fromhex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_hash_deterministic():
    assert hash_bytes(b"abc") == hash_bytes(b"abc")
    assert len(hash_bytes(b"abc")) == 32


def test_hash_bitflip_differs():
    a = bytearray(b"some payload")
    base = hash_bytes(bytes(a))
    a[0] ^= 0x01
    assert hash_bytes(bytes(a)) != base


def test_hash_empty_reference_vector():
    assert hash_bytes(b"") == SHA256_EMPTY


class TestGroups:
    def test_default_group_well_formed(self):
        g = DEFAULT_GROUP
        assert g.p.bit_length() >= 256
        assert pow(g.g, g.q, g.p) == 1
        assert pow(g.h, g.q, g.p) == 1
        assert g.g != g.h

    def test_tiny_group_well_formed(self):
        g = TINY_GROUP
        assert g.q == 101
        assert pow(g.g, g.q, g.p) == 1

    def test_bad_generator_rejected(self):
        with pytest.raises(ValueError):
            GroupParams(p=607, q=101, g=64, h=64)
        with pytest.raises(ValueError):
            GroupParams(p=607, q=101, g=3, h=356)  # 3 has the wrong order
        # each passes the order check but lies outside 2..p-1: the identity
        # (order 1 divides q) commits to nothing, and a non-canonical
        # representative would give the group a second base for its tables
        for g, h in [(1, 356), (64, 1), (0, 356), (64, 0), (607, 356), (64, 607),
                     (64 + 607, 356), (64 - 607, 356), (64, 356 + 607)]:
            with pytest.raises(ValueError):
                GroupParams(p=607, q=101, g=g, h=h)


class TestPedersen:
    def test_zero_exponents_identity(self):
        assert pedersen_commit(0, 0, TINY_GROUP) == 1
        assert pedersen_commit(0, 0, DEFAULT_GROUP) == 1

    def test_homomorphism(self):
        g = TINY_GROUP
        rng = random.Random(11)
        for _ in range(50):
            a, b, c, d = (rng.randrange(g.q) for _ in range(4))
            lhs = pedersen_commit(a, b, g) * pedersen_commit(c, d, g) % g.p
            assert lhs == pedersen_commit(a + c, b + d, g)

    def test_small_group_matches_brute_force(self):
        g = TINY_GROUP
        assert pedersen_commit(5, 7, g) == pedersen_brute(5, 7, g)
        rng = random.Random(7)
        for _ in range(25):
            s, r = rng.randrange(g.q), rng.randrange(g.q)
            assert pedersen_commit(s, r, g) == pedersen_brute(s, r, g)

    def test_binding_spot_check(self):
        # collisions only when exponent pairs are congruent mod q; the
        # sampling runs in the default group (the tiny group's range is
        # 101 values, where pigeonhole forces unrelated collisions)
        g = DEFAULT_GROUP
        rng = random.Random(13)
        seen = {}
        for _ in range(10_000):
            s, r = rng.randrange(g.q), rng.randrange(g.q)
            c = pedersen_commit(s, r, g)
            key = (s % g.q, r % g.q)
            if c in seen:
                assert seen[c] == key
            else:
                seen[c] = key

    def test_congruent_pairs_collide(self):
        g = TINY_GROUP
        assert pedersen_commit(5, 7, g) == pedersen_commit(5 + g.q, 7 + 3 * g.q, g)


def _edge_exponents(q):
    """Residue edges, byte-table edges (a byte's last and first value, the
    most a 32-byte exponent holds), exponents far above q, and negatives."""
    return [0, 1, q - 1, q, q + 1, 255, 256, 2**255, 2**256 - 1, 2**300, 2**300 + 7, 3**200,
            -1, -q, -(q + 1), -(2**256 - 1)]


class TestFixedBase:
    """pedersen_commit walks the exponents' bytes over fixed-base tables;
    pedersen_two_pow is the square-and-multiply reference it must equal."""

    @pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
    @settings(max_examples=150, deadline=None)
    @given(s=st.integers(min_value=-2**320, max_value=2**320),
           r=st.integers(min_value=-2**320, max_value=2**320))
    def test_matches_two_pow(self, group, s, r):
        assert pedersen_commit(s, r, group) == pedersen_two_pow(s, r, group)

    @pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
    def test_edge_exponents(self, group):
        edges = _edge_exponents(group.q)
        for e in edges:
            for f in edges:
                assert pedersen_commit(e, f, group) == pedersen_two_pow(e, f, group)

    def test_tiny_group_exhaustive(self):
        """q = 101 fits in one byte: every pair of residues, and each shifted
        by a multiple of q, gives the reference commitment."""
        g = TINY_GROUP
        for s in range(g.q):
            for r in range(g.q):
                assert pedersen_commit(s, r, g) == pedersen_two_pow(s, r, g)
        for s, r in [(-1, 0), (0, -1), (g.q, 2 * g.q), (255, 256), (-g.q - 3, 3 * g.q + 5)]:
            assert pedersen_commit(s, r, g) == pedersen_two_pow(s, r, g)

    def test_table_shape(self):
        """One row of 256 powers per byte of an exponent below q."""
        for group in GROUPS:
            for base, rows in zip((group.g, group.h), group.window_tables):
                assert len(rows) * 8 >= group.q.bit_length() > (len(rows) - 1) * 8
                for i, row in enumerate(rows):
                    assert len(row) == 256
                    assert row[1] == pow(base, 256**i, group.p)
                    assert row[255] == pow(base, 255 * 256**i, group.p)

    def test_table_built_once_per_group(self, monkeypatch):
        built = []
        build = crypto._window_table

        def counting(base, p, q):
            built.append((base, p, q))
            return build(base, p, q)

        monkeypatch.setattr(crypto, "_window_table", counting)
        group = GroupParams(p=_P20, q=_Q20, g=SMALL_GROUP.g, h=SMALL_GROUP.h)
        assert built == []  # nothing is built before the first commitment
        pedersen_commit(3, 5, group)
        tables = group.window_tables
        for s in range(20):
            pedersen_commit(s, s + 1, group)
        assert group.window_tables is tables
        assert built == [(group.g, _P20, _Q20), (group.h, _P20, _Q20)]

    def test_tables_not_shared_between_groups(self):
        other = GroupParams(p=607, q=101, g=TINY_GROUP.h, h=TINY_GROUP.g)  # bases swapped
        assert other != TINY_GROUP
        assert other.window_tables is not TINY_GROUP.window_tables
        assert other.window_tables == TINY_GROUP.window_tables[::-1]
        assert SMALL_GROUP.window_tables != TINY_GROUP.window_tables
        for group in (TINY_GROUP, other):
            assert pedersen_commit(5, 7, group) == pedersen_two_pow(5, 7, group)

    def test_tables_invisible_to_eq_hash_repr(self):
        fresh = GroupParams(p=_P20, q=_Q20, g=SMALL_GROUP.g, h=SMALL_GROUP.h)
        untouched = GroupParams(p=_P20, q=_Q20, g=SMALL_GROUP.g, h=SMALL_GROUP.h)
        before = repr(fresh), hash(fresh)
        pedersen_commit(1, 2, fresh)
        assert "window_tables" in vars(fresh) and "window_tables" not in vars(untouched)
        assert (repr(fresh), hash(fresh)) == before == (repr(untouched), hash(untouched))
        assert fresh == untouched
        assert fresh == untouched

    def test_deepcopy_shares_group_and_tables(self):
        tables = DEFAULT_GROUP.window_tables
        world = {"group": DEFAULT_GROUP}
        copied = copy.deepcopy(world)
        assert copied["group"] is DEFAULT_GROUP
        assert copied["group"].window_tables is tables


class TestSignatures:
    def test_round_trip(self):
        kp = keypair_from_label("alice")
        sig = kp.sign(b"message")
        assert verify(kp.address, b"message", sig)

    def test_wrong_key_fails(self):
        kp, other = keypair_from_label("a"), keypair_from_label("b")
        sig = kp.sign(b"message")
        assert not verify(other.address, b"message", sig)

    def test_deterministic_from_seed(self):
        a = keypair_from_label("same")
        b = KeyPair(a.seed)  # a second derivation; the label's is derived once
        assert a.address == b.address
        assert a.sign(b"x") == b.sign(b"x")

    def test_label_keypair_derived_once_per_process(self, monkeypatch):
        """keypair_from_label derives each label's keys once: the ten
        close-phase worlds, built twice, hold five keypairs between them;
        and a key derived again after cache_clear() is the same key."""
        kp = keypair_from_label("memo")
        assert keypair_from_label("memo") is kp
        keypair_from_label.cache_clear()
        again = keypair_from_label("memo")
        assert again is not kp and again.address == kp.address and again.sign(b"x") == kp.sign(b"x")

        keypair_from_label.cache_clear()
        built = []
        init = KeyPair.__init__

        def counted(self, seed):
            built.append(seed)
            init(self, seed)

        monkeypatch.setattr(KeyPair, "__init__", counted)
        for _ in range(2):
            for assist in (True, False):
                for profile in atomicity.PROFILES:
                    atomicity.build_close_phase_world(profile, assist)
        assert len(built) == len(set(built)) == 5

    def test_single_byte_flips_rejected(self):
        kp = keypair_from_label("flip")
        msg = b"short msg"
        sig = kp.sign(msg)
        for i in range(len(msg)):
            for bit in (0x01, 0x80):
                mutated = bytearray(msg)
                mutated[i] ^= bit
                assert not verify(kp.address, bytes(mutated), sig)
        for i in range(len(sig)):
            mutated = bytearray(sig)
            mutated[i] ^= 0x01
            assert not verify(kp.address, msg, bytes(mutated))

    def test_malformed_inputs_never_raise(self):
        """libsodium reads exactly 64 signature bytes, 32 key bytes and
        len(msg) message bytes: every other shape or type returns False
        before the call, even where the content is an honest signature's."""
        kp = keypair_from_label("robust")
        msg = b"honest message"
        sig = kp.sign(msg)
        assert verify(kp.address, msg, sig)
        key = kp.public_bytes
        probes = [
            (kp.address, b"m", b""),
            (kp.address, b"m", b"\x00" * 63),
            ("zz-not-hex", b"m", b"\x00" * 64),
            ("aabb", b"m", b"\x00" * 64),
            (kp.address, msg, sig[:63]),
            (kp.address, msg, sig + b"\x00"),
            (kp.address, msg, bytearray(sig)),
            (kp.address, msg, memoryview(sig)),
            (kp.address, msg, sig.hex()),
            (kp.address, msg, None),
            (key[:31].hex(), msg, sig),
            ((key + b"\x00").hex(), msg, sig),
            (None, msg, sig),
            (int.from_bytes(key, "big"), msg, sig),
            (key, msg, sig),
            (kp.address, msg.decode(), sig),
            (kp.address, bytearray(msg), sig),
            (kp.address, None, sig),
        ]
        for address, m, s in probes:
            assert verify(address, m, s) is False

    def test_sign_takes_bytes_only(self):
        kp = keypair_from_label("robust")
        for msg in ("text", bytearray(b"m"), memoryview(b"m"), None):
            with pytest.raises(TypeError):
                kp.sign(msg)
        for seed in (bytes(31), bytes(33), bytearray(32), "0" * 32):
            with pytest.raises(ValueError):
                KeyPair(seed)


# RFC 8032 section 7.1, TEST 1-3: (secret key, public key, message, signature)
RFC8032_VECTORS = [
    ("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
     "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"),
    ("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
     "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"),
    ("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"),
]

# order of the Ed25519 base point
_L = 2**252 + 27742317777372353535851937790883648493


def _reference_verify(address: str, msg: bytes, sig: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(bytes.fromhex(address)).verify(sig, msg)
        return True
    except InvalidSignature:
        return False


class TestBackend:
    """The libsodium backend against RFC 8032's known answers and against
    OpenSSL (through ``cryptography``) as a reference: the same keys and
    signature bytes, and the same verdicts on honest and tampered input."""

    @pytest.mark.parametrize("vector", RFC8032_VECTORS, ids=["test1", "test2", "test3"])
    def test_rfc8032_known_answers(self, vector):
        seed, public, msg, sig = (bytes.fromhex(x) for x in vector)
        kp = KeyPair(seed)
        assert kp.public_bytes == public
        assert kp.address == public.hex()
        assert kp.sign(msg) == sig
        assert verify(kp.address, msg, sig)

    def test_matches_reference(self):
        rng = random.Random(8032)
        keys = [KeyPair(rng.randbytes(32)) for _ in range(300)]
        for i, kp in enumerate(keys):
            ref = Ed25519PrivateKey.from_private_bytes(kp.seed)
            assert kp.public_bytes == ref.public_key().public_bytes_raw()
            msg = rng.randbytes(rng.choice((0, 1, 31, 64, 65, rng.randrange(400))))
            sig = kp.sign(msg)
            assert sig == ref.sign(msg)
            msg_flip = bytearray(msg or b"\x00")
            bit = rng.randrange(8 * len(msg_flip))
            msg_flip[bit // 8] ^= 1 << (bit % 8)
            sig_flip = bytearray(sig)
            bit = rng.randrange(512)
            sig_flip[bit // 8] ^= 1 << (bit % 8)
            other = keys[i - 1].address
            cases = [(kp.address, msg, sig), (kp.address, bytes(msg_flip), sig),
                     (kp.address, msg, bytes(sig_flip)), (other, msg, sig)]
            verdicts = [verify(*c) for c in cases]
            assert verdicts == [_reference_verify(*c) for c in cases]
            assert verdicts == [True, False, False, False]


class TestStrictVerify:
    """Signatures that satisfy RFC 8032's cofactorless equation only
    because a point of small order is involved are rejected (Chalkias,
    Garillot & Nikolaenko, "Taming the many EdDSAs", SSR 2020). OpenSSL
    (cryptography 48) accepts both signatures below."""

    IDENTITY = "01" + "00" * 31  # the neutral point, of order 1

    def test_identity_key_universal_forgery_rejected(self):
        # R = identity and S = 0 satisfy [S]B = R + [k]A for every message
        # when A is the identity: one signature for everything
        forged = b"\x01" + bytes(63)
        for msg in (b"", b"pay 100 to mallory", bytes(range(256))):
            assert not verify(self.IDENTITY, msg, forged)

    def test_small_order_r_rejected(self):
        # the key holder's own signature with R = identity and S = k * a:
        # [S]B = [k]A = R + [k]A holds, but R has small order
        seed = hash_bytes(b"small-order-r")
        kp = KeyPair(seed)
        digest = bytearray(hashlib.sha512(seed).digest()[:32])
        digest[0] &= 248
        digest[31] = (digest[31] & 127) | 64
        a = int.from_bytes(digest, "little")
        r = bytes.fromhex(self.IDENTITY)
        for msg in (b"", b"small order R"):
            k = int.from_bytes(hashlib.sha512(r + kp.public_bytes + msg).digest(), "little") % _L
            sig = r + (k * a % _L).to_bytes(32, "little")
            assert not verify(kp.address, msg, sig)
            assert verify(kp.address, msg, kp.sign(msg))


class TestCipher:
    def test_round_trip(self):
        blocks = [bytes([i] * 13) for i in range(10)]  # ten ~100-bit blocks
        key = 123456789
        ct = encrypt(key, blocks)
        assert isinstance(ct, Ciphertext)
        assert len(ct.blocks) == len(blocks)
        assert decrypt(key, ct) == tuple(blocks)

    def test_deterministic(self):
        blocks = (b"a" * 13, b"b" * 13)
        assert encrypt(99, blocks) == encrypt(99, blocks)

    def test_wrong_key_detected_by_hash(self):
        blocks = (b"payload-here!", b"more-payload!")
        ct = encrypt(1111, blocks)
        wrong = decrypt(2222, ct)
        assert hash_blocks(wrong) != hash_blocks(blocks)

    def test_bijection_per_key(self):
        # distinct plaintexts map to distinct ciphertexts under one key
        rng = random.Random(3)
        seen = set()
        for _ in range(200):
            blk = bytes(rng.randrange(256) for _ in range(8))
            ct = encrypt(42, [blk])
            assert ct.blocks not in seen
            seen.add(ct.blocks)

    def test_key_forms(self):
        assert key_to_bytes(5) == (5).to_bytes(32, "big")
        assert key_to_bytes(b"\x01" * 32) == b"\x01" * 32
        with pytest.raises(ValueError):
            key_to_bytes(b"short")

    def test_unequal_blocks_rejected(self):
        with pytest.raises(ValueError):
            encrypt(1, [b"aa", b"bbb"])

    @settings(max_examples=300, deadline=None)
    @given(key=st.one_of(st.integers(0, 2**256 - 1), st.binary(min_size=32, max_size=32)),
           size=st.integers(0, 70), count=st.integers(1, 4), block_size=st.integers(0, 70),
           blocks=st.lists(st.binary(max_size=80), min_size=1, max_size=4))
    def test_keystream_xor_matches_bytewise(self, key, size, count, block_size, blocks):
        """encrypt XORs each block with its keystream block as the bytewise
        reference does; decrypt of a counterparty's Ciphertext, whose
        blocks may be longer or shorter than its block_size (0 included),
        yields the shorter of each block and its keystream."""
        key32 = key_to_bytes(key)
        plain = [bytes([i + 1] * size) for i in range(count)]
        want = tuple(xor_bytes(blk, crypto._keystream_block(key32, i, size)) for i, blk in enumerate(plain))
        assert encrypt(key, plain).blocks == want
        ct = Ciphertext(block_size=block_size, blocks=tuple(blocks))
        assert decrypt(key, ct) == tuple(xor_bytes(blk, crypto._keystream_block(key32, i, block_size))
                                         for i, blk in enumerate(blocks))
