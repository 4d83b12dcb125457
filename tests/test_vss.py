import random
from dataclasses import replace
from itertools import combinations

import pytest

from xchan import vss
from xchan.crypto import DEFAULT_GROUP, TINY_GROUP
from oracles import vandermonde_recover


def deal(s=5, t=2, n=3, seed=42, group=TINY_GROUP):
    return vss.share(s, t, n, random.Random(seed), group)


class TestShare:
    def test_constant_polynomial(self):
        d = deal(s=7, t=1, n=3)
        assert all(ks.s == 7 for ks in d.shares)
        for ks in d.shares:
            assert vss.recover([ks], 1, TINY_GROUP) == 7

    def test_structure(self):
        d = deal(s=5, t=4, n=9)
        assert len(d.shares) == 9
        assert len(d.public.coeff_commitments) == 3
        assert sorted(ks.index for ks in d.shares) == list(range(1, 10))

    def test_paper_scale_parameters(self):
        d = vss.share(1234, 11, 31, random.Random(1), DEFAULT_GROUP)
        assert len(d.shares) == 31
        assert len(d.public.coeff_commitments) == 10
        assert all(vss.verify_share(ks, d.public, DEFAULT_GROUP) for ks in d.shares)

    def test_bad_parameters(self):
        rng = random.Random(0)
        with pytest.raises(vss.VssParameterError):
            vss.share(1, 4, 3, rng, TINY_GROUP)
        with pytest.raises(vss.VssParameterError):
            vss.share(1, 0, 3, rng, TINY_GROUP)


class TestVerify:
    def test_honest_shares_verify(self):
        d = deal(s=11, t=3, n=6, seed=9)
        for ks in d.shares:
            assert vss.verify_share(ks, d.public, TINY_GROUP)

    def test_single_field_mutations_rejected(self):
        g = TINY_GROUP
        d = deal(s=11, t=3, n=6, seed=9)
        for ks in d.shares:
            assert not vss.verify_share(replace(ks, s=(ks.s + 1) % g.q), d.public, g)
            assert not vss.verify_share(replace(ks, r=(ks.r + 1) % g.q), d.public, g)
            wrong_idx = ks.index % d.public.n + 1
            assert not vss.verify_share(replace(ks, index=wrong_idx), d.public, g)

    def test_cross_dealing_rejected(self):
        a = deal(s=5, seed=1)
        b = deal(s=5, seed=2)
        for ks in a.shares:
            assert not vss.verify_share(ks, b.public, TINY_GROUP)


class TestRecover:
    def test_tiny_group_any_pair(self):
        d = deal(s=5, t=2, n=3, seed=7)
        for pair in combinations(d.shares, 2):
            assert vss.recover(pair, 2, TINY_GROUP) == 5

    def test_matches_vandermonde_oracle(self):
        g = TINY_GROUP
        for seed in range(20):
            rng = random.Random(seed)
            s = rng.randrange(g.q)
            t = rng.randint(1, 5)
            n = rng.randint(t, 8)
            d = vss.share(s, t, n, rng, g)
            picked = rng.sample(d.shares, t)
            expect = vandermonde_recover([(ks.index, ks.s) for ks in picked], g.q)
            assert expect == s
            assert vss.recover(picked, t, g) == s

    def test_tampered_share_changes_result(self):
        g = TINY_GROUP
        d = deal(s=5, t=2, n=3, seed=3)
        bad = replace(d.shares[0], s=(d.shares[0].s + 1) % g.q)
        assert vss.recover([bad, d.shares[1]], 2, g) != 5

    def test_threshold_not_met(self):
        d = deal(s=5, t=3, n=5, seed=4)
        with pytest.raises(vss.ThresholdNotMet):
            vss.recover(d.shares[:2], 3, TINY_GROUP)
        # duplicated indices do not count twice
        with pytest.raises(vss.ThresholdNotMet):
            vss.recover([d.shares[0], d.shares[0], d.shares[1]], 3, TINY_GROUP)


class TestProperties:
    def test_completeness_exhaustive_subsets(self):
        g = TINY_GROUP
        rng = random.Random(2024)
        for _ in range(12):
            t = rng.randint(1, 4)
            n = rng.randint(t, min(t + 4, 12))
            s = rng.randrange(g.q)
            d = vss.share(s, t, n, rng, g)
            for subset in combinations(d.shares, t):
                assert vss.recover(subset, t, g) == s

    def test_secrecy_below_threshold(self):
        # with t-1 shares, every candidate secret stays consistent with
        # some polynomial (enumerate the missing coefficient)
        g = TINY_GROUP
        d = deal(s=33, t=2, n=3, seed=5)
        ks = d.shares[0]
        for candidate in range(g.q):
            consistent = any(
                (candidate + a * ks.index) % g.q == ks.s for a in range(g.q)
            )
            assert consistent

    def test_share_hash_covers_values_only(self):
        """A share is its index and its two values, and each moves its hash."""
        d = deal(seed=6)
        ks = d.shares[0]
        q = TINY_GROUP.q
        changed = (replace(ks, index=ks.index + 1), replace(ks, s=(ks.s + 1) % q), replace(ks, r=(ks.r + 1) % q))
        assert vss.share_hash(ks) not in {vss.share_hash(c) for c in changed}
