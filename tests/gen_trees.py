"""Randomized channel-tree generator for settlement testing.

Builds a root channel with optional sub-channels (up to three levels,
up to five participants), a receipt history, and the close submissions
every member would send, then sprinkles in sampled adversarial
corruptions: overspends, forged signatures, conflicting sequence
numbers, duplicate sub-channel authorizations, withheld submissions,
inflated final-state claims, wrong-direction sub-channel receipts.

The same submission list feeds the contract and the oracle.
"""

import random
from dataclasses import replace

from xchan.contract import ClosePayload
from xchan.crypto import keypair_from_label
from xchan.receipts import (
    FinalState,
    Receipt,
    make_final_state,
    make_receipt,
    make_sub_receipt,
)

NAMES = ["S", "R", "D", "Q", "E"]
KEYS = {name: keypair_from_label("settle:%s" % name) for name in NAMES}
ADDR = {name: KEYS[name].address for name in NAMES}
BY_ADDR = {v: k for k, v in ADDR.items()}


def _signed_receipt(payer_name, session, path, seq, rcv_addr, amount, forged=False):
    kp = KEYS[payer_name]
    tr = Receipt(
        session_id=session,
        channel_path=tuple(path),
        seq=seq,
        snd=kp.address,
        rcv=rcv_addr,
        amount=amount,
    )
    signer = KEYS["E"] if forged else kp
    return replace(tr, sig=signer.sign(tr.signing_bytes()))


def gen_case(rng: random.Random):
    """Returns (session_id, deposits, parties, submissions, flags)."""
    session = "sess-%d" % rng.randrange(10**9)
    flags = {
        "overspend": rng.random() < 0.25,
        "forged_receipt": rng.random() < 0.2,
        "seq_conflict": rng.random() < 0.2,
        "duplicate_sr": rng.random() < 0.15,
        "missing_child": rng.random() < 0.2,
        "inflate_claim": rng.random() < 0.3,
        "wrong_direction": rng.random() < 0.2,
        "forged_sr": rng.random() < 0.15,
        "bogus_path": rng.random() < 0.1,
        "partial_upload": rng.random() < 0.3,
    }
    deposits = {ADDR["S"]: rng.randint(40, 150), ADDR["R"]: rng.randint(40, 150)}
    parties = [ADDR["S"], ADDR["R"]]

    channels = {}  # path -> dict

    def new_channel(path, members, funder):
        channels[path] = {
            "members": members,
            "funder": funder,
            "receipts": [],
            "srs": [],
        }

    new_channel((), ["S", "R"], None)

    root = channels[()]
    n_root = rng.randint(0, 10)
    seq = 0
    free = ["D", "Q", "E"]
    sub_count = 0
    for _ in range(n_root):
        seq += 1
        payer = rng.choice(["S", "R"])
        payee = "R" if payer == "S" else "S"
        amount = rng.randint(0, 60)
        tr = _signed_receipt(payer, session, (), seq, ADDR[payee], amount)
        root["receipts"].append(tr)
        # maybe delegate this receipt into a sub-channel
        if free and sub_count < 2 and rng.random() < 0.35:
            cp = free.pop(0)
            sub_count += 1
            sr = make_sub_receipt(KEYS[payer], ADDR[cp], tr)
            root["srs"].append(sr)
            child_path = (seq,)
            new_channel(child_path, [payee, cp], payee)
            if flags["duplicate_sr"] and rng.random() < 0.6:
                other_cp = rng.choice([n for n in NAMES if n not in (payer, payee, cp)])
                root["srs"].append(make_sub_receipt(KEYS[payer], ADDR[other_cp], tr))
            # child receipts
            child = channels[child_path]
            cseq = 0
            for _ in range(rng.randint(0, 5)):
                cseq += 1
                amt = rng.randint(0, max(1, amount))
                snd = child["funder"]
                rcv = cp
                if flags["wrong_direction"] and rng.random() < 0.3:
                    snd, rcv = rcv, snd
                child["receipts"].append(
                    _signed_receipt(snd, session, child_path, cseq, ADDR[rcv], amt)
                )
            # sometimes a third level under the first child
            if sub_count == 1 and child["receipts"] and rng.random() < 0.4:
                base = next(
                    (t for t in child["receipts"] if BY_ADDR[t.snd] == child["funder"]), None
                )
                if base is not None and free:
                    gcp = free.pop(0)
                    sub_count += 1
                    child["srs"].append(make_sub_receipt(KEYS[BY_ADDR[base.snd]], ADDR[gcp], base))
                    gpath = base.channel_path + (base.seq,)
                    new_channel(gpath, [BY_ADDR[base.rcv], gcp], BY_ADDR[base.rcv])
                    gseq = 0
                    for _ in range(rng.randint(0, 3)):
                        gseq += 1
                        channels[gpath]["receipts"].append(
                            _signed_receipt(
                                BY_ADDR[base.rcv], session, gpath, gseq, ADDR[gcp],
                                rng.randint(0, max(1, base.amount)),
                            )
                        )

    if flags["overspend"] and root["receipts"]:
        seq += 1
        payer = rng.choice(["S", "R"])
        payee = "R" if payer == "S" else "S"
        root["receipts"].append(
            _signed_receipt(payer, session, (), seq, ADDR[payee], deposits[ADDR[payer]] + 500)
        )
    if flags["forged_receipt"] and root["receipts"]:
        seq += 1
        root["receipts"].append(
            _signed_receipt("S", session, (), seq, ADDR["R"], rng.randint(1, 30), forged=True)
        )
    if flags["seq_conflict"] and root["receipts"]:
        victim = rng.choice(root["receipts"])
        payer = BY_ADDR[victim.snd]
        root["receipts"].append(
            _signed_receipt(payer, session, (), victim.seq, victim.rcv, victim.amount + 1)
        )
    if flags["forged_sr"] and root["receipts"]:
        tr = rng.choice(root["receipts"])
        sr = make_sub_receipt(KEYS[BY_ADDR[tr.snd]], ADDR["E"], tr)
        root["srs"].append(replace(sr, sig=KEYS["E"].sign(sr.signing_bytes())))
    if flags["bogus_path"]:
        root["receipts"].append(
            _signed_receipt("S", session, (77,), 1, ADDR["R"], rng.randint(1, 20))
        )

    # close submissions: every member of every channel uploads, unless the
    # missing_child flag withholds one sub-channel entirely
    submissions = []
    skipped_child = None
    child_paths = [p for p in channels if p != ()]
    if flags["missing_child"] and child_paths:
        skipped_child = rng.choice(child_paths)
    for path in sorted(channels):
        ch = channels[path]
        if path == skipped_child:
            continue
        for member in ch["members"]:
            if path != () and rng.random() < 0.3:
                continue  # not everyone bothers; one covering upload suffices
            claimed = {ADDR[m]: 0 for m in ch["members"]}
            if flags["inflate_claim"] and rng.random() < 0.5:
                claimed[ADDR[member]] = claimed.get(ADDR[member], 0) + 7
            final = make_final_state(KEYS[member], session, path, claimed)
            trs = list(ch["receipts"])
            if flags["partial_upload"] and len(trs) > 1 and rng.random() < 0.5:
                trs = rng.sample(trs, rng.randint(1, len(trs)))
            submissions.append(
                (
                    ADDR[member],
                    ClosePayload(final=final, srs=tuple(ch["srs"]), trs=tuple(trs)),
                )
            )
    # make sure the root is always covered by someone
    if not any(p.final.channel_path == () for _s, p in submissions):
        final = make_final_state(KEYS["S"], session, (), {ADDR["S"]: 0, ADDR["R"]: 0})
        submissions.append((ADDR["S"], ClosePayload(final=final, srs=(), trs=())))
    return session, deposits, parties, submissions, flags
