"""Scenario configuration and execution.

A scenario describes two chains, a set of channel pairs between one
sender and one receiver, a receipt workload, timer windows, the
threshold-sharing parameters, latency, and adversarial behavior flags.
run_scenario drives the full four-phase flow (initialize, open,
exchange, close) end to end and reports metrics; run_scaling_sweep
repeats it across channel counts and fits the throughput line.
build_world and atomicity's close phase both use add_chains and add_party.

Everything derives from the config seed: replaying a config yields a
byte-identical trace.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, field, fields, replace

from . import contract as ct
from .chain import Chain, TimerConfig
from .crypto import DEFAULT_GROUP, hash_bytes, key_to_bytes, keypair_from_label
from .engine import HONEST, RECEIPTS_PER_TICK, BehaviorProfile, Miner, MinerBehavior, Party, SendPlan, Timer
from .simnet import LatencyModel, Rng, Simnet
from .wire import plan

MODES = ("CE", "FE", "EIE")
BASELINES = ("cross_channel", "plain_htlc")


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ScenarioConfig:
    mode: str = "CE"
    baseline: str = "cross_channel"
    seed: int = 1
    channels: int = 1
    receipts_n: int = 10  # workload receipts per channel pair
    amount_hi: int = 3  # receipt amounts are drawn from 1..amount_hi
    funding: int = 10_000  # per party per chain
    block_interval_alpha: int = 4
    block_interval_beta: int = 3
    appeal_window: int = 8  # fake-share report window after bindings publish
    close_window: int = 12  # settlement data collection window
    alpha_unlock: int = 30  # preimage deadline on alpha (the longer one)
    beta_unlock: int = 20  # preimage deadline on beta
    assist_window: int | None = 45  # miner assist deadline on alpha; None: no assist
    assist_reward_percent: int = 1
    vss_t: int = 2
    vss_n: int = 3
    byzantine_ell: int = 1
    byzantine_miners: int = 0  # miners that withhold recovery shares
    levels: int = 1  # alpha-side channel tree depth
    sub_funding: tuple[int, ...] = ()
    sub_receipts: tuple[int, ...] = ()
    latency: dict = field(default_factory=lambda: {"kind": "fixed", "fixed": 1})
    adversary: dict = field(default_factory=dict)  # party name -> [flag, ...]
    max_ticks: int = 4000

    def __post_init__(self):
        if isinstance(self.sub_funding, list):  # JSON has no tuples
            self.sub_funding = tuple(self.sub_funding)
        if isinstance(self.sub_receipts, list):
            self.sub_receipts = tuple(self.sub_receipts)

    @property
    def n_node(self) -> int:
        """Miners per chain, 3 * ell + 1."""
        return 3 * self.byzantine_ell + 1

    def validate(self) -> list[str]:
        v = ["%s must be of type %s" % (name, ScenarioConfig.__annotations__[name])
             for name, accepts in plan(ScenarioConfig) if not accepts(getattr(self, name))]
        if v:
            return v  # the checks below compare values of the declared types
        if self.mode not in MODES:
            v.append("mode must be one of %s" % (MODES,))
        if self.baseline not in BASELINES:
            v.append("baseline must be one of %s" % (BASELINES,))
        if not self.alpha_unlock > self.beta_unlock:
            v.append("alpha_unlock > beta_unlock violated (%d <= %d)" % (self.alpha_unlock, self.beta_unlock))
        if self.assist_window is not None and not self.assist_window > self.alpha_unlock:
            v.append("assist_window > alpha_unlock violated (%d <= %d)" % (self.assist_window, self.alpha_unlock))
        if not self.vss_t > self.byzantine_ell:
            v.append("t > ell violated (%d <= %d)" % (self.vss_t, self.byzantine_ell))
        if not self.vss_n >= self.vss_t + self.byzantine_ell:
            v.append("n >= t + ell violated (%d < %d + %d)" % (self.vss_n, self.vss_t, self.byzantine_ell))
        if not 1 <= self.vss_t <= self.vss_n:
            v.append("1 <= t <= n violated")
        if not self.vss_n <= self.n_node:
            v.append("n <= n_node violated (%d > %d)" % (self.vss_n, self.n_node))
        if self.block_interval_alpha < 1 or self.block_interval_beta < 1:
            v.append("block intervals must be >= 1")
        for name in ("appeal_window", "close_window", "alpha_unlock", "beta_unlock"):
            if getattr(self, name) < 1:
                v.append("%s must be >= 1" % name)
        if self.channels < 1:
            v.append("channels must be >= 1")
        for name in ("receipts_n", "max_ticks"):
            if getattr(self, name) < 0:
                v.append("%s must be >= 0" % name)
        if self.funding >= 1 << 64:  # the U64 an Open transaction carries
            v.append("funding must be below 2**64")
        if self.amount_hi < 1:
            v.append("amount_hi must be >= 1")
        if self.levels < 1 or self.levels > 3:
            v.append("levels must be in 1..3")
        if len(self.sub_funding) != self.levels - 1 or len(self.sub_receipts) != self.levels - 1:
            v.append("sub_funding/sub_receipts must list one entry per level beyond the first")
        else:
            # level i+2 pays sub_receipts[i] receipts of 1 and funds level i+3, if any
            for i, funding in enumerate(self.sub_funding):
                if self.sub_receipts[i] + sum(self.sub_funding[i + 1:i + 2]) > funding:
                    v.append("sub-channel %d cannot spend more than its funding" % (i + 2))
        if not 0 <= self.assist_reward_percent <= 100:
            v.append("assist_reward_percent must be in 0..100")
        if self.byzantine_miners > self.byzantine_ell:
            v.append("byzantine_miners <= ell violated")
        flags = {f.name for f in fields(BehaviorProfile)}
        for name, wanted in self.adversary.items():
            if name not in _party_names(self):
                v.append("adversary names unknown party %r" % (name,))
            elif not isinstance(wanted, (list, tuple)) or not all(
                isinstance(f, str) and f in flags for f in wanted
            ):
                v.append("adversary flags for %s must be a list drawn from %s" % (name, sorted(flags)))
        try:
            LatencyModel.from_config(self.latency)
        except ValueError as exc:
            v.append("latency: %s" % exc)
        return v

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(["unknown config keys: %s" % sorted(unknown)])
        cfg = cls(**raw)
        violations = cfg.validate()
        if violations:
            raise ConfigError(violations)
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            raise ConfigError(["cannot read config: %s" % exc]) from None
        if not isinstance(raw, dict):
            raise ConfigError(["config file must hold a JSON object"])
        return cls.from_dict(raw)


@dataclass
class RunMetrics:
    onchain_tx_count: dict
    receipts_processed: int
    outcomes: dict  # "chain:session" -> terminal state
    ticks_elapsed: int
    receipts_per_tick: float
    invariants_ok: bool = True

    def total_txs(self) -> int:
        return sum(self.onchain_tx_count.values())

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


@dataclass
class World:
    config: ScenarioConfig
    net: Simnet
    alpha: Chain
    beta: Chain
    parties: dict
    expected_receipts: int  # the workload's planned receipts; an abort lowers only what parties expect


def _close_barrier(config: ScenarioConfig, latency: LatencyModel, longest: int, subs: list[int]) -> int:
    """Tick at which the parties agree to start closing: late enough for
    every planned receipt (longest: the longer root plan; subs: each
    sub-channel's plan length) and sub-channel round trip to have
    happened, at latency's own delay bound (its overrides aside)."""
    max_lat = latency.fixed if latency.kind == "fixed" else latency.hi
    rate = RECEIPTS_PER_TICK[config.mode]
    sub_total = sum((n + rate - 1) // rate + 6 * max_lat + 4 for n in subs)
    open_ticks = 2 * max(config.block_interval_alpha, config.block_interval_beta) + max_lat + 2
    pump_ticks = (longest + rate - 1) // rate + max_lat + 3
    return open_ticks + pump_ticks + sub_total


def _party_names(config: ScenarioConfig) -> list[str]:
    return ["S", "R"] + (["D"] if config.levels >= 2 else []) + (["Q"] if config.levels >= 3 else [])


def behavior_for(adversary: dict, name: str) -> BehaviorProfile:
    """Party name's behavior under an adversary mapping {party: [flag, ...]}."""
    return BehaviorProfile(**{f: True for f in adversary.get(name, ())})


def build_world(config: ScenarioConfig) -> World:
    """Chains, parties and miners for config, and the sessions its baseline
    starts: channel pairs for cross_channel, hash-time-locked pairs settled
    at Close for plain_htlc. Each session's first move is start_sessions'."""
    violations = config.validate()
    if violations:
        raise ConfigError(violations)
    net = Simnet(seed=config.seed, latency=LatencyModel.from_config(config.latency))
    alpha, beta = add_chains(net, config)

    directory = {}
    parties = {}
    for name in _party_names(config):
        funded = config.funding * config.channels if name in ("S", "R") else 0
        parties[name] = add_party(net, directory, name, "%s:%d" % (name, config.seed), funded,
                                  behavior_for(config.adversary, name), config.seed)
        for c in (alpha, beta):
            net.subscribe(c, name)

    for c in (alpha, beta):
        for i in range(config.n_node):
            mname = "M.%s.%d" % (c.chain_id, i + 1)
            m = Miner(mname, c, keypair_from_label("%s:%d" % (mname, config.seed)),
                      MinerBehavior(respond_recover=i >= config.byzantine_miners))
            net.register(mname, m)
            c.register_miner(m.kp.address)
            directory[m.kp.address] = mname
            net.subscribe(c, mname)
            if c is alpha:
                # alpha miners watch beta for revealed preimages (assist)
                net.subscribe(beta, mname, kinds=(ct.UPDATE_TX, ct.UPDATE_EIE_TX))

    start = _htlc_sessions if config.baseline == "plain_htlc" else _channel_sessions
    return World(config, net, alpha, beta, parties, expected_receipts=start(config, net, parties))


def add_chains(net: Simnet, config: ScenarioConfig) -> tuple[Chain, Chain]:
    """Chains alpha and beta, added to net in that order, with config's
    block intervals, windows and assist reward; beta has no assist window."""
    timers_a = TimerConfig(config.appeal_window, config.close_window, config.alpha_unlock, config.assist_window)
    timers_b = TimerConfig(config.appeal_window, config.close_window, config.beta_unlock)
    alpha = Chain("alpha", config.block_interval_alpha, timers_a, config.assist_reward_percent)
    beta = Chain("beta", config.block_interval_beta, timers_b, config.assist_reward_percent)
    net.add_chain(alpha)
    net.add_chain(beta)
    return alpha, beta


def add_party(net: Simnet, directory: dict, name: str, label: str, funding: int,
              behavior: BehaviorProfile, seed: int) -> Party:
    """Party name, registered on net, with a key on each of net's chains
    derived from label and the chain id, an account holding funding there,
    and each of its addresses entered in directory, the world's one."""
    keys = {c.chain_id: keypair_from_label("%s:%s" % (label, c.chain_id)) for c in net.chains}
    p = Party(name, keys, behavior=behavior, directory=directory, seed=seed)
    net.register(name, p)
    for c in net.chains:
        c.create_account(p.address(c.chain_id), funding)
        directory[p.address(c.chain_id)] = name
    return p


def _channel_sessions(config: ScenarioConfig, net: Simnet, parties: dict) -> int:
    """One channel pair per channel, with its receipt plans, sub-channels,
    exchanges and close timers; returns the receipts expected."""
    group = DEFAULT_GROUP
    rng = Rng("workload:%d" % config.seed)
    session_ids = ["c%d" % i for i in range(config.channels)]
    expected = longest = 0
    names = list(parties)
    S, R = parties["S"], parties["R"]
    # level i + 2's plan: fund level i + 3, if any, then pay sub_receipts[i] receipts of 1
    subs = [list(config.sub_funding[i + 1:i + 2]) + [1] * n for i, n in enumerate(config.sub_receipts)]

    for sid in session_ids:
        n_alpha = (config.receipts_n + 1) // 2
        n_beta = config.receipts_n // 2
        alpha_amounts = [rng.between(1, config.amount_hi) for _ in range(n_alpha)]
        beta_amounts = [rng.between(1, config.amount_hi) for _ in range(n_beta)]
        if config.levels >= 2:
            alpha_amounts = [config.sub_funding[0]] + alpha_amounts
        if sum(alpha_amounts) > config.funding or sum(beta_amounts) > config.funding:
            raise ConfigError(["workload exceeds channel funding"])
        longest = max(longest, len(alpha_amounts), len(beta_amounts))

        pre = hash_bytes(b"pre:%s:%d" % (sid.encode(), config.seed))
        key_s = int.from_bytes(hash_bytes(b"key:S:%s:%d" % (sid.encode(), config.seed)), "big") % group.q
        key_r = int.from_bytes(hash_bytes(b"key:R:%s:%d" % (sid.encode(), config.seed)), "big") % group.q
        if config.mode == "FE":
            pre = key_to_bytes(key_s)
        h_pre = hash_bytes(pre)

        S.join(sid, mode=config.mode, counterpart="R", lock_chain="alpha", holder=True,
               pre=pre, h_pre=h_pre)
        R.join(sid, mode=config.mode, counterpart="S", lock_chain="beta")

        S.side("alpha", sid).plans[()] = SendPlan(alpha_amounts)
        R.side("alpha", sid).expected[()] = len(alpha_amounts)
        R.side("beta", sid).plans[()] = SendPlan(beta_amounts)
        S.side("beta", sid).expected[()] = len(beta_amounts)
        expected += len(alpha_amounts) + len(beta_amounts)

        # level i + 2, the channel at path (1,) * (i + 1): the payee of receipt 1
        # one level up opens a sub-channel on it and pays the next party there
        for i, sub in enumerate(subs):
            payer, payee = parties[names[i + 1]], parties[names[i + 2]]
            path = (1,) * (i + 1)
            payee.join(sid, mode=config.mode, counterpart=payer.name)
            payer.side("alpha", sid).plans[path] = SendPlan(list(sub), counterparty=payee.address("alpha"))
            payee.side("alpha", sid).expected[path] = len(sub)
            expected += len(sub)

        if config.mode in ("FE", "EIE"):
            # S sells its plaintext on alpha; in EIE, R sells its own on beta
            sales = ((S, R, "alpha", key_s), (R, S, "beta", key_r))[: 1 if config.mode == "FE" else 2]
            for seller, buyer, chain_id, key in sales:
                label = b"%s:%s" % (seller.name.encode(), sid.encode())
                blocks = tuple(hash_bytes(b"m:%s:%d:%d" % (label, config.seed, i))[:13] for i in range(4))
                mac_key = seller.setup_exchange(chain_id, sid, key, blocks, config.vss_t, config.vss_n,
                                                hash_bytes(b"crs:" + label))
                buyer.side(chain_id, sid).counterpart_key = (seller.address(chain_id), mac_key)

    barrier = _close_barrier(config, net.latency, longest, [len(sub) for sub in subs])
    for p in parties.values():
        p.close_after_tick = barrier
    for sid in session_ids:
        for name in ("S", "R"):
            for chain_id in ("alpha", "beta"):
                net.wakeup(name, barrier, Timer("try_close", chain_id, sid))
                net.wakeup(name, barrier + 30, Timer("force_close", chain_id, sid))
    return expected


def _htlc_sessions(config: ScenarioConfig, net: Simnet, parties: dict) -> int:
    """Baseline: one bare hash-time-locked pair per exchange, no channels,
    settled at Close with S paying on alpha and R on beta. Every exchange
    costs lock + update on each chain, and no receipt is expected."""
    rng = Rng("htlc:%d" % config.seed)
    session_ids = ["h%d" % j for j in range(config.receipts_n)]
    amounts = [rng.between(1, config.amount_hi) for _ in session_ids]
    if sum(amounts) > config.funding * config.channels:
        raise ConfigError(["workload exceeds channel funding"])
    for sid, amount in zip(session_ids, amounts):
        start_at_close(*net.chains, parties["S"], parties["R"], sid, (amount, 0), amount,
                       hash_bytes(b"pre:%s:%d" % (sid.encode(), config.seed)))
    return 0


def start_at_close(alpha: Chain, beta: Chain, S: Party, R: Party, sid: str, deposits: tuple[int, int],
                   paid: int, pre: bytes):
    """The one settled start: session sid at Close on both chains (see
    ChannelContract.start_settled), where each chain's payer (S on alpha, R
    on beta) deposited deposits[0], its payee deposits[1], and the payer pays
    paid. S holds pre and locks alpha first; R mirrors that lock on beta."""
    for chain, payer, payee in ((alpha, S, R), (beta, R, S)):
        lose, gain = payer.address(chain.chain_id), payee.address(chain.chain_id)
        held = dict(sorted({lose: deposits[0], gain: deposits[1]}.items()))  # in address order
        chain.contract.start_settled(chain, sid, held, {gain: deposits[1] + paid, lose: deposits[0] - paid})
    S.join(sid, mode="CE", counterpart="R", lock_chain="alpha", holder=True, pre=pre, h_pre=hash_bytes(pre))
    R.join(sid, mode="CE", counterpart="S", lock_chain="beta")
    for p in (S, R):
        for side in p.sessions[sid].sides.values():
            side.state = ct.CLOSE


def start_sessions(world: World):
    """Each session's first move: the four opens of a channel pair, or S's
    lock on a plain-HTLC pair, which build_world starts at Close."""
    for sid in sessions(world.net):
        if world.config.baseline == "plain_htlc":
            world.parties["S"].submit_lock(world.net, "alpha", sid)
        else:
            for name in ("S", "R"):
                for chain in (world.alpha, world.beta):
                    world.parties[name].submit_open(world.net, chain.chain_id, sid, world.config.funding)


# -- the checked properties, defined once for the run, the explorer, the CLI and
# the tests. Each reads only net.chains and net.actors, so a bare Simnet or a
# fork of a run is judged as the run is.

def sessions(net: Simnet) -> list[str]:
    """The session ids the world's parties joined, in the order first joined."""
    return list(dict.fromkeys(sid for a in net.actors.values() if isinstance(a, Party) for sid in a.sessions))


def session_states(net: Simnet, session_id: str) -> tuple:
    """A session's state on each chain, in net.chains order; None on a chain without it."""
    return tuple(getattr(c.contract.sessions.get(session_id), "state", None) for c in net.chains)


def terminal(states: tuple) -> bool:
    """Whether a session ended on every chain; one missing on a chain has not."""
    return all(s in ct.TERMINAL_STATES for s in states)


def atomic(states: tuple) -> bool:
    """Whether a session ended in the same state on every chain: all commit
    or all abort (Terminated on both chains counts: the exchange aborted)."""
    return terminal(states) and len(set(states)) == 1


def owed(net: Simnet, session_id: str):
    """(payee, side) for each plaintext a session owes: each party's side
    that expects a counterpart's proof, once its chain took the session to
    Success and, in EIE, a key recovery was requested there. A plain-HTLC
    session expects no proof."""
    for a in net.actors.values():
        ps = a.sessions.get(session_id) if isinstance(a, Party) else None
        for side in ps.sides.values() if ps is not None else ():
            s = net.actors[side.chain_id].chain.contract.sessions.get(session_id)
            if (side.counterpart_key is not None and s is not None and s.state == ct.SUCCESS
                    and (ps.mode != "EIE" or s.recovery_requested)):
                yield a, side


def recovered(net: Simnet) -> bool:
    """Whether each payee owed a plaintext recovered it."""
    return all(side.recovered is not None for sid in sessions(net) for _, side in owed(net, sid))


def resolved(side) -> bool:
    """Whether a payee's side recovered the plaintext owed there, or
    recorded a mismatch, which no later event undoes."""
    return side.recovered is not None or side.mismatch is not None


def settled(net: Simnet) -> bool:
    """Whether a world has nothing left to wait for: every joined session
    terminal, and each owed plaintext resolved. The scan stops at the first
    session that is not, so a run reads it every tick."""
    sids = sessions(net)
    return (all(terminal(session_states(net, sid)) for sid in sids)
            and all(resolved(side) for sid in sids for _, side in owed(net, sid)))


def collect_metrics(world: World) -> RunMetrics:
    receipts = sum(count for p in world.parties.values() for ps in p.sessions.values()
                   for side in ps.sides.values() for count in side.received.values())
    outcomes = {"%s:%s" % (chain.chain_id, sid): s.state
                for chain in (world.alpha, world.beta) for sid, s in sorted(chain.contract.sessions.items())}
    return RunMetrics(onchain_tx_count=dict(world.alpha.committed + world.beta.committed),
                      receipts_processed=receipts, outcomes=outcomes, ticks_elapsed=world.net.now,
                      receipts_per_tick=receipts / max(world.net.now, 1))


def run_scenario(config: ScenarioConfig):
    """Execute one scenario end to end; returns (metrics, trace). The run
    stops once its world settled. The metrics' invariants hold when it
    settled with every owed plaintext recovered, every planned receipt
    arrived and, unless a party's behavior carries an adversary flag,
    every session is atomic."""
    world = build_world(config)
    net = world.net
    start_sessions(world)
    trace = net.run_until(lambda: settled(net), max_tick=config.max_ticks)
    metrics = collect_metrics(world)
    flagged = any(p.behavior != HONEST for p in world.parties.values())
    metrics.invariants_ok = (settled(net) and recovered(net)
                             and metrics.receipts_processed == world.expected_receipts
                             and (flagged or all(atomic(session_states(net, sid)) for sid in sessions(net))))
    return metrics, trace


@dataclass
class SweepRow:
    channels: int
    receipts: int
    ticks: int
    receipts_per_tick: float


@dataclass
class SweepResult:
    rows: list
    slope: float
    intercept: float
    r_squared: float
    single_channel_rate: float


def run_scaling_sweep(config: ScenarioConfig, channel_counts) -> SweepResult:
    """Throughput over channel count, plus a least-squares line fit."""
    rows = []
    base = replace(config, channels=1)
    base_metrics, _ = run_scenario(base)
    for count in channel_counts:
        metrics, _ = run_scenario(replace(config, channels=count))
        rows.append(SweepRow(channels=count, receipts=metrics.receipts_processed, ticks=metrics.ticks_elapsed,
                             receipts_per_tick=metrics.receipts_per_tick))
    xs = [r.channels for r in rows]
    ys = [r.receipts_per_tick for r in rows]
    fit = statistics.linear_regression(xs, ys)
    r2 = statistics.correlation(xs, ys) ** 2 if len(set(ys)) > 1 else 1.0
    return SweepResult(rows=rows, slope=fit.slope, intercept=fit.intercept, r_squared=r2,
                       single_channel_rate=base_metrics.receipts_per_tick)


def trace_bytes(trace) -> bytes:
    return "\n".join(json.dumps(e, sort_keys=False) for e in trace).encode()
