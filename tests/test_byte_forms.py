"""Known-answer pins of every canonical byte form: the SHA-256 of the
signed and hashed bytes of one fixed instance of each signed value, of a
transaction of each payload kind, of the VSS share digest and signed share,
of a plaintext block digest and of one proof binding.

Signatures, block hashes (and through them miner selection) and proof
bindings are computed over these bytes, so a change to any field's
encoding or order must change a pin here. Re-record only for a change
meant to alter a byte form.
"""

import hashlib
import random

import pytest

from xchan import contract as ct
from xchan import proofs, vss
from xchan.crypto import TINY_GROUP, hash_blocks, keypair_from_label
from xchan.receipts import make_final_state, make_receipt, make_sub_receipt

A = keypair_from_label("pin:A")
B = keypair_from_label("pin:B")
C = keypair_from_label("pin:C")
SID = "pin-1"

TR = make_receipt(A, SID, (1, 2), 3, B.address, 7)
TR_ROOT = make_receipt(B, SID, (), 4, A.address, 2)
SR = make_sub_receipt(A, C.address, TR)
FINAL = make_final_state(A, SID, (1,), {B.address: 4, A.address: 3})
SHARE = vss.KeyShare(index=2, s=12345, r=67890)
SN = bytes(range(16))

PAYLOADS = {
    ct.OPEN_TX: ct.OpenPayload(100),
    ct.UPLOAD_TX: ct.UploadPayload(h_k=b"k" * 32, n=3, t=2, share_hashes=(b"a" * 32, b"b" * 32)),
    ct.APPEAL_TX: ct.AppealPayload(owner_sig=b"o" * 64, share=SHARE, sn=SN),
    ct.CLOSE_TX: ct.ClosePayload(final=FINAL, srs=(SR,), trs=(TR, TR_ROOT)),
    ct.LOCK_TX: ct.LockPayload(h_pre=b"h" * 32),
    ct.UPDATE_TX: ct.UpdatePayload(pre=b"p" * 32),
    ct.UPDATE_EIE_TX: ct.UpdateEiePayload(pre=b"p" * 32, h_k=b"k" * 32),
    ct.RECOVER_TX: ct.RecoverPayload(share=SHARE),
}


def byte_forms() -> dict:
    """name -> the bytes each pin covers."""
    forms = {}
    signed = [("Receipt", TR), ("SubChannelReceipt", SR), ("FinalState", FINAL)]
    signed += [("OnChainTx." + kind, ct.make_tx(A, "alpha", SID, kind, payload))
               for kind, payload in PAYLOADS.items()]
    for name, value in signed:
        forms[name + ".signing_bytes"] = value.signing_bytes()
        forms[name + ".to_bytes"] = value.to_bytes()
    forms["vss.share_hash"] = vss.share_hash(SHARE)
    forms["vss.share_message_bytes"] = vss.share_message_bytes(SHARE, SN)
    forms["hash_blocks"] = hash_blocks((b"block-0", b"block-1", b""))
    rng = random.Random(7)
    key = rng.randrange(TINY_GROUP.q)
    m = tuple(bytes(rng.randrange(256) for _ in range(13)) for _ in range(3))
    dealing = vss.share(key, 2, 3, rng, TINY_GROUP)
    backend = proofs.TransparentMacBackend(TINY_GROUP)
    mac_key = backend.setup(b"pin-crs")
    x = proofs.make_public_inputs(m, key, 2, 3)
    w = proofs.RelationWitness(m=m, k_shares=dealing.shares)
    forms["TransparentMacBackend.prove"] = backend.prove(mac_key, w, x).binding
    return forms


FORMS = byte_forms()

PINS = {
    "Receipt.signing_bytes":
        "d28947619f1a69cef35db71afcc071e5dace5282ab25c1df4f5b052c2b547b27",
    "Receipt.to_bytes":
        "788cc882d5ea79fa9c70cda81b7b53a606910d5deb77ba8e131ac67c08652a88",
    "SubChannelReceipt.signing_bytes":
        "2f5cd0ba5543d3c11e1fa3ae9894a86568bcc6555a8f1aef51097e75a7571b7e",
    "SubChannelReceipt.to_bytes":
        "8533ad428f522cb1900e22e099bb8f6e9e0e3b6d3ab5bb01101931c618d981a0",
    "FinalState.signing_bytes":
        "f88260bf8e66f93cce528f11ab1f32b5f46e167b9901b0f9c22d542a9ee292a1",
    "FinalState.to_bytes":
        "50bebc3aa766fea853dcd2cea92e52b228d8c8a8c927fdfdebb4142362357100",
    "OnChainTx.Open.signing_bytes":
        "0c56d9d70ed4453be02c212178fd890bfeb165662aa67fecfb5069b765634243",
    "OnChainTx.Open.to_bytes":
        "ab053d0c0061972ec2417e8e23daa97a754b5c5c8475bb094ff2f5209b5c9759",
    "OnChainTx.Upload.signing_bytes":
        "cf052a3375e35335695dd43d632147b555eef7ef14d722e7779efa12f0c2d847",
    "OnChainTx.Upload.to_bytes":
        "4b0b6bf41629813114d020aaf446cbf9eadc9c52074aa7477c63490a3a5ceed5",
    "OnChainTx.Appeal.signing_bytes":
        "e435f74970a032fde0cb8d939a71f16fabeeb3cec2523e4cafb709db754d6345",
    "OnChainTx.Appeal.to_bytes":
        "1ad648c1585081d3a297710346d9b0a571838a04f232ec300d989f8d8f37f13d",
    "OnChainTx.Close.signing_bytes":
        "610e5eef11644663dc41322a71354ade6378990c375d5359a06559890fea2a4f",
    "OnChainTx.Close.to_bytes":
        "64c431c071118acc42a31e345ddaea2992f0ae10f5815d69f40f7b346cbf351e",
    "OnChainTx.Lock.signing_bytes":
        "debf88c0d696f18eb5872f8fe0f968ff6e59004d41b90852c9bce6792165d318",
    "OnChainTx.Lock.to_bytes":
        "81f95701d429aeecb06c2bcec63abc972322b14b3a6455b2adfa7f2a20b34bcd",
    "OnChainTx.Update.signing_bytes":
        "10143ee117ab2b4863f9a7bdee7629c9e1fa6e9bcb6dca15357805809a9643eb",
    "OnChainTx.Update.to_bytes":
        "eb52c5fd5a746994070be860b264a3638bda24bdd2cd1c6c01bd7a68ba3bc7d7",
    "OnChainTx.UpdateEIE.signing_bytes":
        "6505bc607bd0d6189cd32c2c8659f28a2464d5c139a3fd0dbba8ec62d5b3fb22",
    "OnChainTx.UpdateEIE.to_bytes":
        "d1a79e4bf03e72efcd66ce8157e30e9a4502f0903c229fed9dad6d8759aea4e8",
    "OnChainTx.Recover.signing_bytes":
        "b3f4b87806896af9ffd6107ae358d8fd405a884af230c648aebff1eb49373193",
    "OnChainTx.Recover.to_bytes":
        "291c04ce2e57229829152376f88bf8cbf68a8a1608348c27b72bea378e63b172",
    "vss.share_hash":
        "7f8490664dce7284c124ce9681ef3ebcac29e44856e8c76ac9a189586f5ee398",
    "vss.share_message_bytes":
        "d03f12a7d606d35e67398e907f1f78539eab387a0a927ccb418b1dcbf8ce9da7",
    "hash_blocks":
        "832787be6ffcd3e71189eeab71a866c77f9e1030e1e932bdcc714d64bb59e0cf",
    "TransparentMacBackend.prove":
        "daece00af5c47b6c8d7fd03c75d988beb37e6c3a299214d492b094302de7661d",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_byte_form_pinned(name):
    assert hashlib.sha256(FORMS[name]).hexdigest() == PINS[name]


def test_every_byte_form_pinned():
    assert sorted(FORMS) == sorted(PINS)
