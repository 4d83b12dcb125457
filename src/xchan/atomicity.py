"""Exhaustive atomicity checking of the cross-chain close phase.

Builds a minimal two-chain world whose sessions are already settled and
waiting to lock, its two parties built by scenario.add_party, then
enumerates every delivery interleaving of the lock/update message flow
under a chosen adversary profile. The profiles,
one table of latency and adversary in the scenario file's form,
constrain delivery windows (targeted delays) or drop the preimage
reveal entirely; everything else runs the real contract and actor code.

An outcome is the pair of terminal session states. Atomicity holds when
every reachable outcome is atomic by scenario.atomic, the rule a run's
invariants read: the session ended in the same state on both chains.
"""

from __future__ import annotations

from .chain import Chain, TimerConfig
from .crypto import hash_bytes, keypair_from_label
from .engine import Miner
from .scenario import add_party, atomic, behavior_for, session_states, start_at_close, terminal
from .simnet import EnumResult, LatencyModel, Simnet, enumerate_schedules

# windows sized so every deadline is a small number of block boundaries
ALPHA_INTERVAL = 4
BETA_INTERVAL = 4
ALPHA_UNLOCK = 12
ALPHA_ASSIST = 24
BETA_UNLOCK = 8
HORIZON = 64
SESSION = "c0"

# R's unlock transaction toward alpha lands only after the party window there is long gone
R_LATE = {"src": "R", "dst": "alpha", "kind": "uniform", "lo": 28, "hi": 34}
# S's reveal toward beta misses the beta unlock window
S_LATE = {"src": "S", "dst": "beta", "kind": "uniform", "lo": 14, "hi": 18}
WITHHOLD = {"S": ["withhold_pre"]}

# name -> (latency, adversary), each in the scenario file's form, the latency parsed once
PROFILES = {
    name: (LatencyModel.from_config({"kind": "uniform", "lo": 1, "hi": 2, "overrides": overrides}), adversary)
    for name, overrides, adversary in (
        ("honest", [], {}),
        ("withhold_pre", [], WITHHOLD),
        ("delay_r", [R_LATE], {}),
        ("delay_s", [S_LATE], {}),
        ("withhold_delay", [R_LATE], WITHHOLD),
    )
}


def build_close_phase_world(profile: str, assist_enabled: bool, seed: int = 1,
                            mode: str = "enumerate") -> Simnet:
    """Both sessions settled (state Close) with swapped allocations
    pending; S's lock submission is already in flight."""
    if profile not in PROFILES:
        raise ValueError("unknown profile %r" % profile)
    latency, adversary = PROFILES[profile]
    net = Simnet(seed=seed, latency=latency, mode=mode)
    alpha = Chain(
        "alpha",
        ALPHA_INTERVAL,
        TimerConfig(4, 4, ALPHA_UNLOCK, ALPHA_ASSIST if assist_enabled else None),
    )
    beta = Chain("beta", BETA_INTERVAL, TimerConfig(4, 4, BETA_UNLOCK, None))
    net.add_chain(alpha)
    net.add_chain(beta)

    directory: dict = {}
    S, R = (add_party(net, directory, name, "%s:atom:%d" % (name, seed), 1_000,
                      behavior_for(adversary, name), seed) for name in ("S", "R"))

    miner = Miner("M", alpha, keypair_from_label("M.atom:%d" % seed))
    net.register("M", miner)
    alpha.register_miner(miner.kp.address)

    # sessions already settled on 100 + 100: alpha pays 60 S->R, beta pays 60 R->S
    start_at_close(alpha, beta, S, R, SESSION, (100, 100), 60, hash_bytes(b"atom-pre:%d" % seed))

    # narrow event fan-out: only the deliveries the protocol needs
    net.subscribe(alpha, "R", kinds=("Lock",))
    net.subscribe(beta, "S", kinds=("Lock",))
    net.subscribe(beta, "R", kinds=("Update",))
    net.subscribe(beta, "M", kinds=("Update",))

    S.submit_lock(net, "alpha", SESSION)
    return net


def outcome_of(net: Simnet):
    """The session's states on both chains once it ended on both, else None."""
    return states if terminal(states := session_states(net, SESSION)) else None


def enumerate_close_phase(profile: str, assist_enabled: bool = True, seed: int = 1,
                          bound: int = 12) -> EnumResult:
    return enumerate_schedules(
        lambda: build_close_phase_world(profile, assist_enabled, seed),
        outcome_of,
        bound=bound,
        horizon=HORIZON,
    )


def atomic_outcomes_only(result: EnumResult) -> bool:
    return all(atomic(o) for o in result.outcomes)
