"""Seeded hierarchical channel trees with sampled adversarial corruptions.

Input generator for the ``settle_adversarial`` workload. Each tree is a
root channel with up to two sub-channels and one third-level channel,
a receipt history, and the close submissions its members send, built
only from the package's public constructors (``make_receipt``,
``make_sub_receipt``, ``make_final_state``, ``ClosePayload``).

Tree shapes and the corruption kind cycle with the tree index, so every
kind appears equally often and a batch costs about the same on every
seed; amounts, victims and upload choices come from the seed. The kinds
are the ones the test suite's generator samples: overspends, forged
receipt and sub-channel signatures, sequence conflicts, duplicate
sub-channel authorizations, withheld child submissions, inflated final
state claims, wrong-direction sub-channel receipts, receipts on unknown
paths and partial uploads. Kept separate from the test generator so an
edit to the tests cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random
from dataclasses import replace

from xchan import contract, crypto, receipts

NAMES = ("S", "R", "D", "Q", "E")
KINDS = (
    "honest",
    "overspend",
    "forged_receipt",
    "seq_conflict",
    "duplicate_sr",
    "missing_child",
    "inflate_claim",
    "wrong_direction",
    "forged_sr",
    "bogus_path",
    "partial_upload",
)
NEEDS_CHILD = ("duplicate_sr", "missing_child", "wrong_direction")


def _forge(signed):
    """Same object with one signature bit flipped: a signature that does
    not verify, as a forger without the key would produce."""
    return replace(signed, sig=bytes([signed.sig[0] ^ 1]) + signed.sig[1:])


class TreeGenerator:
    def __init__(self, seed: int, part: int = 0):
        self.rng = random.Random("settle-trees:%d:%d" % (seed, part))
        self.keys = {n: crypto.keypair_from_label("bench-settle:%s" % n) for n in NAMES}
        self.addr = {n: kp.address for n, kp in self.keys.items()}

    def trees(self, count: int) -> list:
        """count trees as (session_id, deposits, parties, submissions, kind)."""
        return [self.tree(i) for i in range(count)]

    def tree(self, index: int):
        rng, keys, addr = self.rng, self.keys, self.addr
        kind = KINDS[index % len(KINDS)]
        session = "tree-%06d" % rng.randrange(10**6)
        deposits = {addr["S"]: rng.randint(40, 150), addr["R"]: rng.randint(40, 150)}
        n_root = 2 + index % 3
        n_sub = max(index % 3, 1 if kind in NEEDS_CHILD else 0)
        third = index % 4 == 0 and n_sub > 0

        # path -> [members, funder name, receipts, srs]
        channels = {(): [("S", "R"), None, [], []]}
        free = ["D", "Q", "E"]
        root = channels[()]
        for seq in range(1, n_root + 1):
            payer = rng.choice(("S", "R"))
            payee = "R" if payer == "S" else "S"
            tr = receipts.make_receipt(keys[payer], session, (), seq, addr[payee], rng.randint(0, 60))
            root[2].append(tr)
            if len(channels) - 1 >= n_sub or seq < n_root - n_sub + 1:
                continue
            cp = free.pop(0)
            root[3].append(receipts.make_sub_receipt(keys[payer], addr[cp], tr))
            if kind == "duplicate_sr" and len(channels) == 1:
                other = next(n for n in NAMES if n not in (payer, payee, cp))
                root[3].append(receipts.make_sub_receipt(keys[payer], addr[other], tr))
            path = (seq,)
            child = channels.setdefault(path, [(payee, cp), payee, [], []])
            for cseq in range(1, 2 + (index // 3) % 3):
                snd, rcv = payee, cp
                if kind == "wrong_direction" and cseq == 1:
                    snd, rcv = rcv, snd
                child[2].append(receipts.make_receipt(
                    keys[snd], session, path, cseq, addr[rcv], rng.randint(0, max(1, tr.amount))))
            if third and free and len(channels) == 2:
                base = next((t for t in child[2] if t.snd == addr[payee]), None)
                if base is not None:
                    gcp = free.pop(0)
                    child[3].append(receipts.make_sub_receipt(keys[payee], addr[gcp], base))
                    gpath = path + (base.seq,)
                    grand = channels.setdefault(gpath, [(cp, gcp), cp, [], []])
                    for gseq in range(1, 2 + index % 2):
                        grand[2].append(receipts.make_receipt(
                            keys[cp], session, gpath, gseq, addr[gcp],
                            rng.randint(0, max(1, base.amount))))

        seq = n_root
        if kind == "overspend":
            payer = rng.choice(("S", "R"))
            payee = "R" if payer == "S" else "S"
            root[2].append(receipts.make_receipt(
                keys[payer], session, (), seq + 1, addr[payee], deposits[addr[payer]] + 500))
        elif kind == "forged_receipt":
            root[2].append(_forge(receipts.make_receipt(
                keys["S"], session, (), seq + 1, addr["R"], rng.randint(1, 30))))
        elif kind == "seq_conflict":
            victim = rng.choice(root[2])
            payer = next(n for n in NAMES if addr[n] == victim.snd)
            root[2].append(receipts.make_receipt(
                keys[payer], session, (), victim.seq, victim.rcv, victim.amount + 1))
        elif kind == "forged_sr":
            tr = rng.choice(root[2])
            payer = next(n for n in NAMES if addr[n] == tr.snd)
            root[3].append(_forge(receipts.make_sub_receipt(keys[payer], addr["E"], tr)))
        elif kind == "bogus_path":
            root[2].append(receipts.make_receipt(
                keys["S"], session, (77,), 1, addr["R"], rng.randint(1, 20)))

        skipped = None
        children = sorted(p for p in channels if p != ())
        if kind == "missing_child":
            skipped = rng.choice(children)
        submissions = []
        for path in sorted(channels):
            if path == skipped:
                continue
            members, _funder, trs, srs = channels[path]
            for i, member in enumerate(members):
                if path != () and i > 0 and rng.random() < 0.5:
                    continue  # one covering upload per sub-channel suffices
                claimed = {addr[m]: 0 for m in members}
                if kind == "inflate_claim":
                    claimed[addr[member]] += 7
                sent = list(trs)
                if kind == "partial_upload" and len(sent) > 1 and rng.random() < 0.5:
                    sent = rng.sample(sent, rng.randint(1, len(sent)))
                final = receipts.make_final_state(keys[member], session, path, claimed)
                submissions.append(
                    (addr[member], contract.ClosePayload(final=final, srs=tuple(srs), trs=tuple(sent))))
        return session, deposits, [addr["S"], addr["R"]], submissions, kind
