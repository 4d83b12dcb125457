"""Hierarchical off-chain channels with atomic cross-chain settlement.

The package splits into deterministic crypto primitives (crypto, vss,
proofs), the on-chain side (chain, contract), the off-chain side
(receipts, engine), the discrete-event fabric (simnet), and the scenario
harness (scenario, cli).
"""

from .crypto import DEFAULT_GROUP, TINY_GROUP, GroupParams, hash_bytes, pedersen_commit
from .scenario import ScenarioConfig, run_scaling_sweep, run_scenario

__all__ = [
    "DEFAULT_GROUP",
    "TINY_GROUP",
    "GroupParams",
    "hash_bytes",
    "pedersen_commit",
    "ScenarioConfig",
    "run_scenario",
    "run_scaling_sweep",
]
