import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xchan import crypto
from xchan.crypto import (
    DEFAULT_GROUP,
    TINY_GROUP,
    Ciphertext,
    GroupParams,
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
from oracles import pedersen_brute, pedersen_two_pow

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
    w = crypto.WINDOW_BITS
    return [0, 1, -1, q - 1, q, q + 1, 2**w - 1, 2**w, 2**255, 2**300, 2**300 + 7, 3**200]


class TestFixedBase:
    """pedersen_commit reads fixed-base window tables; pedersen_two_pow is
    the square-and-multiply reference it must equal."""

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

    def test_table_shape(self):
        w = crypto.WINDOW_BITS
        for group in GROUPS:
            for base, rows in zip((group.g, group.h), group.window_tables):
                assert len(rows) * w >= group.q.bit_length() > (len(rows) - 1) * w
                for i, row in enumerate(rows):
                    assert len(row) == 2**w
                    assert row[1] == pow(base, 2 ** (w * i), group.p)

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
        b = keypair_from_label("same")
        assert a.address == b.address
        assert a.sign(b"x") == b.sign(b"x")

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
        kp = keypair_from_label("robust")
        assert not verify(kp.address, b"m", b"")
        assert not verify(kp.address, b"m", b"\x00" * 63)
        assert not verify("zz-not-hex", b"m", b"\x00" * 64)
        assert not verify("aabb", b"m", b"\x00" * 64)


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
