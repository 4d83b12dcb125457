import pytest

from xchan import contract, crypto, receipts


@pytest.fixture
def verify_calls(monkeypatch):
    """Route every signature check receipts and the contract make through
    a list of (address, msg, sig) triples."""
    calls = []

    def counting(address, msg, sig):
        calls.append((address, msg, sig))
        return crypto.verify(address, msg, sig)

    monkeypatch.setattr(receipts, "verify", counting)
    monkeypatch.setattr(contract, "verify", counting)
    return calls
