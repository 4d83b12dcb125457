"""Pedersen (t, n) verifiable secret sharing.

A dealer splits a secret s into n shares, any t of which recover it by
Lagrange interpolation; published Pedersen commitments let each holder
check its share without learning anything about the others. A share
carries no mark of its dealing: the per-share hashes the dealer binds on
chain keep concurrent dealings apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import GroupParams, hash_bytes, pedersen_commit
from .forking import Shared
from .wire import U64, Checked, Scalar, declared, enc_u64, enc_value


class VssParameterError(ValueError):
    pass


class ThresholdNotMet(ValueError):
    pass


@declared
class KeyShare(Checked):
    """Share i of a dealing: the two polynomial evaluations at x = i."""

    index: U64
    s: Scalar
    r: Scalar


@declared
class DealingPublic(Checked):
    """The broadcast part of a dealing: E(s, r) plus one commitment per
    non-constant coefficient. Enough to verify any share."""

    t: U64
    n: U64
    e_sr: Scalar
    coeff_commitments: tuple[Scalar, ...]


@dataclass(frozen=True)
class Dealing(Shared):
    public: DealingPublic
    shares: tuple[KeyShare, ...]


def _poly_eval(coeffs, x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def share(s: int, t: int, n: int, rng, group: GroupParams) -> Dealing:
    """Deal secret s into n verifiable shares with threshold t.

    The blinding value and all polynomial coefficients come from rng and
    never leave this function; only their commitments are published.
    """
    if t < 1 or t > n:
        raise VssParameterError("threshold t=%d out of range for n=%d" % (t, n))
    q = group.q
    s = s % q
    r = group.rand_scalar(rng)
    f_coeffs = [s] + [group.rand_scalar(rng) for _ in range(t - 1)]
    g_coeffs = [r] + [group.rand_scalar(rng) for _ in range(t - 1)]
    e_sr = pedersen_commit(s, r, group)
    coeff_commitments = tuple(
        pedersen_commit(f_coeffs[j], g_coeffs[j], group) for j in range(1, t)
    )
    public = DealingPublic(t=t, n=n, e_sr=e_sr, coeff_commitments=coeff_commitments)
    shares = tuple(
        KeyShare(index=i, s=_poly_eval(f_coeffs, i, q), r=_poly_eval(g_coeffs, i, q)) for i in range(1, n + 1)
    )
    return Dealing(public=public, shares=shares)


def verify_share(ks: KeyShare, public: DealingPublic, group: GroupParams) -> bool:
    """Check E(s_i, r_i) against the product of commitments raised to i^j."""
    if ks.index < 1:
        return False
    lhs = pedersen_commit(ks.s, ks.r, group)
    rhs = 1
    commitments = (public.e_sr,) + public.coeff_commitments
    for j, e_j in enumerate(commitments):
        rhs = rhs * pow(e_j, pow(ks.index, j, group.q), group.p) % group.p
    return lhs == rhs


def recover(shares, t: int, group: GroupParams) -> int:
    """Lagrange interpolation at zero over any t distinct shares.

    Raises ThresholdNotMet with fewer than t distinct indices.
    """
    seen = {}
    for ks in shares:
        seen.setdefault(ks.index, ks)
    if len(seen) < t:
        raise ThresholdNotMet("have %d distinct shares, need %d" % (len(seen), t))
    picked = [seen[i] for i in sorted(seen)][:t]
    q = group.q
    secret = 0
    xs = [ks.index for ks in picked]
    for ks in picked:
        lam = 1
        for x in xs:
            if x != ks.index:
                lam = lam * x % q * pow(x - ks.index, -1, q) % q
        secret = (secret + ks.s * lam) % q
    return secret


def share_hash(ks: KeyShare) -> bytes:
    """The per-share digest published on-chain and bound to a miner."""
    return hash_bytes(enc_value(ks))


def share_message_bytes(ks: KeyShare, sn: bytes) -> bytes:
    """Signing preimage for a distributed (share, serial-number) pair."""
    return enc_value(ks) + enc_u64(len(sn)) + sn
