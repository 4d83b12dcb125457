import random
from dataclasses import replace

import pytest

from xchan import proofs, vss, wire
from xchan.crypto import TINY_GROUP, encrypt, hash_blocks, hash_bytes, key_to_bytes

G = TINY_GROUP


def honest_instance(seed=1, t=2, n=3, blocks=4):
    rng = random.Random(seed)
    key = rng.randrange(G.q)
    m = tuple(bytes(rng.randrange(256) for _ in range(13)) for _ in range(blocks))
    dealing = vss.share(key, t, n, rng, G)
    x = proofs.make_public_inputs(m, key, t, n)
    w = proofs.RelationWitness(m=m, k_shares=dealing.shares)
    return key, m, dealing, x, w


class TestRelation:
    def test_honest_satisfies(self):
        _, _, _, x, w = honest_instance()
        assert proofs.eval_relation(w, x, G)

    def test_ciphertext_block_replaced(self):
        _, m, d, x, w = honest_instance()
        bad_blocks = (b"\x00" * 13,) + x.m_bar.blocks[1:]
        x2 = replace(x, m_bar=replace(x.m_bar, blocks=bad_blocks))
        assert not proofs.eval_relation(w, x2, G)

    def test_shares_from_other_key(self):
        key, m, d, x, w = honest_instance(seed=2)
        other = vss.share((key + 1) % G.q, x.t, x.n, random.Random(5), G)
        w2 = replace(w, k_shares=other.shares)
        assert not proofs.eval_relation(w2, x, G)

    def test_too_few_shares(self):
        _, _, d, x, w = honest_instance(t=3, n=4)
        w2 = replace(w, k_shares=d.shares[:2])
        assert not proofs.eval_relation(w2, x, G)

    def test_accepts_any_t_subset(self):
        _, _, d, x, w = honest_instance(t=2, n=4)
        w2 = replace(w, k_shares=d.shares[2:])  # a different pair than dealt order
        assert proofs.eval_relation(w2, x, G)


class TestBackend:
    def setup_method(self):
        self.be = proofs.TransparentMacBackend(G)

    def test_setup_deterministic(self):
        a = self.be.setup(b"seed")
        assert a == self.be.setup(b"seed")
        assert len(a) == 32

    def test_prove_verify_round_trip(self):
        key = self.be.setup(b"s")
        _, _, _, x, w = honest_instance()
        proof = self.be.prove(key, w, x)
        assert self.be.verify(key, x, proof)

    def test_prove_refuses_false_statements(self):
        key = self.be.setup(b"s")
        _, _, _, x, w = honest_instance()
        bad = replace(x, h_k=hash_bytes(b"not-the-key"))
        with pytest.raises(proofs.RelationUnsatisfied):
            self.be.prove(key, w, bad)

    def test_binding_to_public_inputs(self):
        key = self.be.setup(b"s")
        _, _, _, x, w = honest_instance()
        proof = self.be.prove(key, w, x)
        altered = replace(x, h_k=hash_bytes(b"other"))
        assert not self.be.verify(key, altered, proof)

    def test_proof_under_another_key_rejected(self):
        _, _, _, x, w = honest_instance()
        proof = self.be.prove(self.be.setup(b"one"), w, x)
        assert not self.be.verify(self.be.setup(b"two"), x, proof)

    def test_truncated_proof_rejected(self):
        key = self.be.setup(b"s")
        _, _, _, x, w = honest_instance()
        proof = self.be.prove(key, w, x)
        cut = replace(proof, binding=proof.binding[:-4])
        assert not self.be.verify(key, x, cut)

    def test_proof_size_constant_in_plaintext(self):
        key = self.be.setup(b"s")
        sizes = set()
        for blocks in (10, 100, 1000, 10_000):
            _, _, _, x, w = honest_instance(seed=blocks, blocks=blocks)
            sizes.add(len(wire.enc_value(self.be.prove(key, w, x))))
        assert len(sizes) == 1

    def test_completeness_randomized(self):
        key = self.be.setup(b"s")
        for seed in range(30):
            _, _, _, x, w = honest_instance(seed=seed)
            assert self.be.verify(key, x, self.be.prove(key, w, x))
