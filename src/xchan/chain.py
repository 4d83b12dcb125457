"""Deterministic in-memory blockchain.

Two instances (alpha and beta) share one global tick clock but keep
independent block intervals. A chain drains its mempool at every block
boundary in submission order, executes each transaction against the
channel contract, runs window-expiry processing, and emits events that
reach off-chain actors only through the network fabric. Reads expose
block-committed state only; nothing acts on the mempool.

All timer windows are tick counts anchored at the block in which the
triggering transaction committed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .contract import DETAILS, STATES, ChannelContract, InvariantViolation, OnChainTx
from .crypto import hash_bytes
from .forking import Shared, copier
from .wire import U64, Checked, declared, enc_bytes, enc_str, enc_u64


@dataclass(frozen=True)
class TimerConfig(Shared):
    appeal_window: int  # report window after share bindings publish
    close_window: int  # collection window after both parties request close
    unlock_window: int  # parties may reveal the preimage this long after lock
    assist_window: int | None = None  # miners may reveal after unlock until this


@declared
class ChainEvent(Checked):
    """What one transaction or timer did in a block: ``result`` is the state
    entered, a note, or, when ``ok`` is false, why the transaction failed;
    ``detail`` is the record ``contract.DETAILS`` declares for it, or None."""

    tick: U64
    chain_id: str
    block: U64
    tx_kind: str
    session_id: str
    result: str
    ok: bool
    detail: object | None  # the record DETAILS names for result

    def __post_init__(self):  # checked once, where the chain builds it, for its receivers
        if self.ok and not isinstance(self.detail, DETAILS.get(self.result, type(None))):
            raise TypeError("detail is not the record its result declares")

    @property
    def state(self) -> str | None:
        """The contract state the session entered, or None."""
        return self.result if self.ok and self.result in STATES else None

    def trace_entry(self) -> dict:
        """The run trace's record of the event: its result marked, no detail."""
        mark = "state:" if self.state else "" if self.ok else "failed:"
        return {"tick": self.tick, "chain_id": self.chain_id, "block": self.block,
                "tx_kind": self.tx_kind, "session_id": self.session_id, "result": mark + self.result}


GENESIS_HASH = hash_bytes(b"genesis")


class Chain:
    def __init__(self, chain_id: str, block_interval: int, timers: TimerConfig,
                 assist_reward_percent: int = 1):
        if block_interval < 1:
            raise ValueError("block interval must be >= 1")
        self.chain_id = chain_id
        self.block_interval = block_interval
        self.timers = timers
        self.assist_reward_percent = assist_reward_percent
        self.now = 0
        self.accounts: dict[str, int] = {}
        self.miners: list[str] = []
        self.mempool: list[OnChainTx] = []
        self.blocks: list[bytes] = []  # each block's hash, in height order
        self.contract = ChannelContract()
        self.committed: Counter = Counter()  # tx kind -> transactions executed without failing
        # (actor name, event kinds or None for all), in event fan-out order
        self.subscribers: list[tuple[str, frozenset | None]] = []

    __deepcopy__ = copier("accounts miners mempool blocks subscribers committed")

    # -- account plumbing ---------------------------------------------------

    def create_account(self, address: str, balance: int = 0):
        if address in self.accounts:
            raise ValueError("account exists")
        self.accounts[address] = balance

    def balance(self, address: str) -> int:
        return self.accounts.get(address, 0)

    def credit(self, address: str, amount: int):
        self.accounts[address] = self.accounts.get(address, 0) + amount

    def debit(self, address: str, amount: int):
        if self.accounts.get(address, 0) < amount:
            raise InvariantViolation("overdraft on %s" % address)
        self.accounts[address] -= amount

    def register_miner(self, address: str):
        if address not in self.accounts:
            self.create_account(address, 0)
        self.miners.append(address)

    def pick_miners(self, n: int, seed: bytes) -> list[str]:
        rng = random.Random(seed)
        return rng.sample(self.miners, n)

    def total_value(self) -> int:
        escrow = sum(s.escrow for s in self.contract.sessions.values())
        return sum(self.accounts.values()) + escrow

    # -- mempool ------------------------------------------------------------

    def submit_tx(self, tx: OnChainTx):
        """Chain, sender, payload class and signature checks happen at admission
        (field types, when the tx was built); the rest is judged in a block."""
        if tx.chain_id != self.chain_id:
            return False, "wrong chain"
        if tx.sender not in self.accounts:
            return False, "unknown sender"
        declared = ChannelContract.HANDLERS.get(tx.kind)  # (handler, payload class)
        if declared is None or type(tx.payload) is not declared[1]:
            return False, "unknown kind"
        if not tx.verify_sig():
            return False, "bad signature"
        self.mempool.append(tx)
        return True, "queued"

    def prev_block_hash(self) -> bytes:
        return self.blocks[-1] if self.blocks else GENESIS_HASH

    def is_boundary(self, tick: int) -> bool:
        return tick > 0 and tick % self.block_interval == 0

    # -- block production ---------------------------------------------------

    def produce_block(self, tick: int) -> list[ChainEvent]:
        """Drain the mempool, execute, expire timers; returns the block's
        events, transactions in submission order, then timers."""
        self.now = tick
        height, prev_hash = len(self.blocks) + 1, self.prev_block_hash()
        events = []
        before = self.total_value()
        txs, self.mempool = self.mempool, []
        body = []
        for tx in txs:
            ok, result, detail = self.contract.execute(tx, self)
            if ok:
                self.committed[tx.kind] += 1
            body.append(enc_bytes(tx.to_bytes()))
            events.append(ChainEvent(tick, self.chain_id, height, tx.kind, tx.session_id, result, ok, detail))
        for sid, state in self.contract.process_timers(self):
            events.append(ChainEvent(tick, self.chain_id, height, "Timer", sid, state, True, None))
        block_hash = hash_bytes(
            enc_str(self.chain_id)
            + enc_u64(height)
            + enc_u64(tick)
            + enc_bytes(prev_hash)
            + b"".join(body)
        )
        self.blocks.append(block_hash)
        if self.total_value() != before:
            raise InvariantViolation(
                "conservation broken on %s at tick %d" % (self.chain_id, tick)
            )
        return events

    # -- committed reads ------------------------------------------------------

    def read_session(self, session_id: str):
        """Committed view of a session; None before it exists."""
        return self.contract.sessions.get(session_id)
