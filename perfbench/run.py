"""xchan benchmark: five seeded workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload ce_wide --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Each workload is a closed batch in one single-threaded process: a batch
is built from the seed (set-up), run through the public ``xchan`` API,
and checked; batches repeat until ``--seconds`` have passed. Host cost is
process CPU time, because the simulator is single-threaded and
deterministic and CPU time does not carry the scheduler's steal. The
end-to-end times are scaled to a reference host speed measured in the
same run (see ``REFERENCE_S``); the report shows the raw figures too.

``--trace 0`` reports the end-to-end metrics (medians over batches).
``--trace 1`` alternates untraced batches with traced ones, in which
every layer boundary is wrapped from outside (see tracer.py), and
reports per-layer counts, self-time shares and the tracing overhead. It
fails the run if a traced output differs from the untraced one or a
count does not repeat exactly between traced batches.

The last line of standard output is the result object; the lines before
it are a readable report with the workload-specific figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ce_deep", "ce_wide", "eie_exchange", "settle_adversarial", "close_enum")
MIN_BATCHES = 3
MIN_TRACED_BATCHES = 2
TREES_PER_BATCH = 125
TREE_PARTS = 8  # consecutive batches settle different trees: 1000 per run
END_TO_END = (("setup_s", "s"), ("cpu_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MiB"))
# On a shared host the CPU time of identical work drifts by tens of percent
# within minutes. A fixed reference computation is timed before every
# batch, and end-to-end times are reported at the host speed at which it
# takes REFERENCE_S seconds (the raw figures are in the report).
REFERENCE_S = 0.05


def load_program():
    """Import xchan from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "xchan" / "__init__.py").is_file():
        raise SystemExit("perfbench: no xchan sources under %s" % src)
    sys.path.insert(0, str(src))
    import xchan

    if Path(xchan.__file__).resolve().parent != (src / "xchan").resolve():
        raise SystemExit("perfbench: imported xchan from %s, not %s" % (xchan.__file__, src))


@dataclass
class Batch:
    setup_cpu: float
    cpu: float
    wall: float
    ops: int
    failed: int
    digest: str
    part: int = 0  # batches of one seed and part have the same inputs
    items_ms: list = field(default_factory=list)  # per-operation CPU, where separable
    exact: dict = field(default_factory=dict)  # simulated figures that must repeat exactly


class Reference:
    """A computation that does not touch xchan, split like the simulator's
    own time between Ed25519 verification and interpreter work on dicts."""

    def __init__(self):
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
        self.public = key.public_key().public_bytes_raw()
        self.signed = [(key.sign(b"reference %d" % i), b"reference %d" % i) for i in range(64)]

    def cpu(self) -> float:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

        c0 = time.process_time()
        for _ in range(3):
            for sig, msg in self.signed:
                Ed25519PublicKey.from_public_bytes(self.public).verify(sig, msg)
        table = {}
        for i in range(15000):
            key = ("k%d" % (i % 997), i % 7)
            table[key] = table.get(key, 0) + i
        sorted(table.items())
        return time.process_time() - c0


def _clock():
    return time.process_time(), time.perf_counter()


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads


class ScenarioWorkload:
    """One ``run_scenario`` per batch; set-up is the ``build_world`` inside it."""

    def __init__(self, name, **config):
        self.name = name
        self.config = config

    def batch(self, seed, tracer=None, index=0) -> Batch:
        from xchan import scenario

        cfg = scenario.ScenarioConfig(seed=seed, **self.config)
        build_world = scenario.build_world
        setup = [0.0]

        def timed_build_world(*args, **kwargs):
            c0 = time.process_time()
            try:
                return build_world(*args, **kwargs)
            finally:
                setup[0] += time.process_time() - c0

        scenario.build_world = timed_build_world
        try:
            c0, w0 = _clock()
            metrics, trace = scenario.run_scenario(cfg)
            c1, w1 = _clock()
        finally:
            scenario.build_world = build_world

        # per session pair: both sides terminal and atomic, and the run as a
        # whole kept its invariants and delivered every planned receipt
        planned = cfg.channels * (cfg.receipts_n + sum(cfg.sub_receipts)
                                  + (cfg.levels >= 2) + (cfg.levels >= 3))
        run_ok = metrics.invariants_ok and metrics.receipts_processed == planned
        sessions = sorted({key.split(":", 1)[1] for key in metrics.outcomes})
        failed = 0 if len(sessions) == cfg.channels else cfg.channels
        for sid in sessions:
            pair = (metrics.outcomes.get("alpha:" + sid), metrics.outcomes.get("beta:" + sid))
            if not run_ok or pair not in (("Success", "Success"), ("Refunded", "Refunded")):
                failed += 1
        return Batch(
            setup_cpu=setup[0],
            cpu=c1 - c0 - setup[0],
            wall=w1 - w0,
            ops=cfg.channels,
            failed=min(failed, cfg.channels),
            digest=_sha(scenario.trace_bytes(trace), metrics.to_json().encode()),
            exact={
                "scenario.sim_ticks": metrics.ticks_elapsed,
                "scenario.onchain_txs": metrics.total_txs(),
                "scenario.receipts_processed": metrics.receipts_processed,
                "scenario.sim_receipts_per_tick": metrics.receipts_per_tick,
            },
        )


class SettleWorkload:
    """``settle_levels`` called directly on generated adversarial trees."""

    name = "settle_adversarial"

    def batch(self, seed, tracer=None, index=0) -> Batch:
        from xchan import contract
        from settle_trees import TreeGenerator

        part = index % TREE_PARTS
        c0 = time.process_time()
        trees = TreeGenerator(seed, part).trees(TREES_PER_BATCH)
        setup = time.process_time() - c0

        results, items = [], []
        c0, w0 = _clock()
        for i, (sid, deposits, parties, submissions, _kind) in enumerate(trees):
            if tracer is not None:
                tracer.op = i
            t0 = time.process_time_ns()
            results.append(contract.settle_levels(sid, deposits, parties, submissions))
            items.append((time.process_time_ns() - t0) / 1e6)
        c1, w1 = _clock()

        failed = 0
        for (sid, deposits, *_), res in zip(trees, results):
            if not res.ok or sum(res.allocations.values()) != sum(deposits.values()):
                failed += 1
        outputs = [[sorted(res.allocations.items()), res.cutoff_level] for res in results]
        return Batch(setup_cpu=setup, cpu=c1 - c0, wall=w1 - w0, ops=len(trees), failed=failed,
                     digest=_sha(json.dumps(outputs).encode()), part=part, items_ms=items)


# The documented close-phase outcome sets: the assist window keeps every
# profile atomic; without it, a relay delayed past the party deadline
# splits the outcome (README, and acceptance criterion 1).
SS, RR, RS = ("Success", "Success"), ("Refunded", "Refunded"), ("Refunded", "Success")
EXPECTED_OUTCOMES = {
    ("honest", True): {SS}, ("withhold_pre", True): {RR}, ("delay_r", True): {SS},
    ("delay_s", True): {RR}, ("withhold_delay", True): {RR},
    ("honest", False): {SS}, ("withhold_pre", False): {RR}, ("delay_r", False): {RS},
    ("delay_s", False): {RR}, ("withhold_delay", False): {RR},
}


class EnumWorkload:
    """Every close-phase profile enumerated with assist on and off."""

    name = "close_enum"

    def batch(self, seed, tracer=None, index=0) -> Batch:
        from xchan import atomicity

        cases = [(p, a) for a in (True, False) for p in atomicity.PROFILES]
        c0 = time.process_time()
        for profile, assist in cases:
            atomicity.build_close_phase_world(profile, assist, seed)
        setup = time.process_time() - c0

        results, items = [], []
        c0, w0 = _clock()
        for profile, assist in cases:
            if tracer is not None:
                tracer.op = "%s/%s" % (profile, "assist" if assist else "no-assist")
            t0 = time.process_time_ns()
            results.append(atomicity.enumerate_close_phase(profile, assist_enabled=assist, seed=seed))
            items.append((time.process_time_ns() - t0) / 1e6)
        c1, w1 = _clock()

        failed = 0
        for (profile, assist), res in zip(cases, results):
            if res.outcomes != EXPECTED_OUTCOMES.get((profile, assist)) or (
                    assist and not atomicity.atomic_outcomes_only(res)):
                failed += 1
        outputs = [[p, a, sorted(r.outcomes)] for (p, a), r in zip(cases, results)]
        return Batch(setup_cpu=setup, cpu=c1 - c0, wall=w1 - w0, ops=len(cases), failed=failed,
                     digest=_sha(json.dumps(outputs).encode()), items_ms=items,
                     exact={"enum.nodes": sum(r.nodes for r in results),
                            "enum.schedules": sum(r.schedules for r in results)})


def make_workload(name):
    return {
        # one session, a 3-level tree, thousands of receipts: O(n^2) replay
        "ce_deep": lambda: ScenarioWorkload(
            "ce_deep", mode="CE", receipts_n=1000, levels=3, sub_funding=(40, 15), sub_receipts=(5, 3)),
        # half the ROADMAP's 100-channel config: dispatch, blocks, timers, verifies
        "ce_wide": lambda: ScenarioWorkload("ce_wide", mode="CE", receipts_n=20, channels=50),
        # fair exchange: VSS, proofs, Pedersen, recovery with a withholding miner
        "eie_exchange": lambda: ScenarioWorkload(
            "eie_exchange", mode="EIE", receipts_n=2, channels=40, byzantine_miners=1,
            latency={"kind": "uniform", "lo": 1, "hi": 2}),
        "settle_adversarial": SettleWorkload,
        "close_enum": EnumWorkload,
    }[name]()


# ---------------------------------------------------------------------------
# Runs


def expected_digest(workload, seed):
    with open(HERE / "baseline.json") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def _quantiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _percentile(values, p):
    """Nearest-rank percentile, reported only when at least ten samples lie
    beyond it."""
    ordered = sorted(values)
    if len(ordered) * (100 - p) / 100 < 10:
        return None
    return ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]


def check_batches(workload, seed, batches):
    """Problems with the outputs: batches with the same inputs disagreeing,
    or the first part's outputs not matching the digest recorded for the seed."""
    problems = []
    digests = {}
    for b in batches:
        digests.setdefault(b.part, set()).add(b.digest)
    if any(len(d) > 1 for d in digests.values()):
        problems.append("outputs differ between batches with the same inputs")
    want = expected_digest(workload, seed)
    if want is not None and digests[0] != {want}:
        problems.append("outputs differ from the digest recorded for seed %d" % seed)
    return problems


def measured_run(wl, seed, seconds):
    reference = Reference()
    batches, refs = [], []
    deadline = time.perf_counter() + seconds
    while len(batches) < MIN_BATCHES or time.perf_counter() < deadline:
        refs.append(reference.cpu())
        batches.append(wl.batch(seed, index=len(batches)))
    problems = check_batches(wl.name, seed, batches)
    failed = sum(b.failed for b in batches)
    if problems:
        failed = sum(b.ops for b in batches)
    ops = batches[0].ops
    speed = REFERENCE_S / statistics.median(refs)  # > 1 while the host runs slow
    samples = {
        "setup_s": [b.setup_cpu for b in batches],
        "cpu_s": [b.cpu for b in batches],
        "wall_s": [b.wall for b in batches],
        "ops_per_s": [b.ops / b.cpu for b in batches],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
    }
    scale = {"setup_s": speed, "cpu_s": speed, "wall_s": speed, "ops_per_s": 1 / speed,
             "peak_rss_mb": 1}
    metrics = {name: {"value": statistics.median(samples[name]) * scale[name], "unit": unit}
               for name, unit in END_TO_END}

    print("workload %s seed %d: %d batches of %d ops; reference %.6g s (median), scale %.4f" % (
        wl.name, seed, len(batches), ops, statistics.median(refs), speed))
    for name, unit in END_TO_END:
        q1, q3 = _quantiles(samples[name])
        print("  %-24s %12.6g %-5s raw median %.6g (q1 %.6g, q3 %.6g)" % (
            name, metrics[name]["value"], unit, statistics.median(samples[name]), q1, q3))
    cpu = metrics["cpu_s"]["value"]
    extra = {}
    first = batches[0]
    if "scenario.sim_ticks" in first.exact:
        extra["host_receipts_per_s"] = (first.exact["scenario.receipts_processed"] / cpu, "1/s")
        extra["sessions_per_s"] = (ops / cpu, "1/s")
        extra["sim_receipts_per_tick"] = (first.exact["scenario.sim_receipts_per_tick"], "receipts/tick")
        extra["sim_ticks"] = (first.exact["scenario.sim_ticks"], "ticks")
        extra["onchain_txs"] = (first.exact["scenario.onchain_txs"], "count")
    if wl.name == "settle_adversarial":
        extra["settles_per_s"] = (ops / cpu, "1/s")
    if "enum.nodes" in first.exact:
        extra["enum_nodes_per_s"] = (first.exact["enum.nodes"] / cpu, "1/s")
    items = [ms for b in batches for ms in b.items_ms]
    if items:
        label = "settle" if wl.name == "settle_adversarial" else "enum_profile"
        extra[label + "_p50_ms"] = (statistics.median(items), "ms")
        for p in (99, 90):
            v = _percentile(items, p)
            if v is not None:
                extra["%s_p%d_ms" % (label, p)] = (v, "ms (n=%d)" % len(items))
                break
    extra["failed_ops_ratio"] = (failed / sum(b.ops for b in batches), "ratio")
    for name, (value, unit) in extra.items():
        print("  %-24s %12.6g %s" % (name, value, unit))
    for problem in problems:
        print("  FAILED: " + problem)
    return {"correct": failed == 0, "attempted": sum(b.ops for b in batches), "failed": failed,
            "metrics": metrics}


def traced_run(wl, seed, seconds):
    from tracer import COUNTS, PER_LAYER, Tracer, installed

    # untraced and traced batches alternate, so the overhead compares like with like
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    plain, runs = [], []  # runs: (batch, layer metrics, wall ns)
    while len(runs) < MIN_TRACED_BATCHES or time.perf_counter() < deadline:
        plain.append(wl.batch(seed))
        tracer.reset()
        with installed(tracer):
            w0 = time.perf_counter_ns()
            b = wl.batch(seed, tracer)
            wall = time.perf_counter_ns() - w0
        tracer.counts.update(b.exact)
        runs.append((b, tracer.layer_metrics(wall), wall))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / ("spans-%s-seed%d.jsonl" % (wl.name, seed)))

    traced = [b for b, _m, _w in runs]
    batches = plain + traced
    problems = check_batches(wl.name, seed, batches)
    layers = [m for _b, m, _w in runs]
    unsteady = [n for n in COUNTS if any(m[n] != layers[0][n] for m in layers)]
    if unsteady:
        problems.append("counts did not repeat exactly: " + ", ".join(unsteady))
    failed = sum(b.failed for b in batches)
    if problems:
        failed = sum(b.ops for b in batches)

    values = {}
    for name, unit in PER_LAYER:
        if name == "trace.wall_s":
            v = statistics.median(w for _b, _m, w in runs) / 1e9
        elif name == "trace.overhead_s":
            v = (statistics.median(b.setup_cpu + b.cpu for b in traced)
                 - statistics.median(b.setup_cpu + b.cpu for b in plain))
        elif unit == "ratio" and name.endswith(".self_share"):
            v = statistics.median(m[name] for m in layers)
        else:
            v = layers[0][name]
        values[name] = {"value": v, "unit": unit}

    print("workload %s seed %d: traced %d batches, %d spans in the last" % (
        wl.name, seed, len(runs), len(tracer.spans)))
    for name, ns in sorted(tracer.self_ns.items(), key=lambda kv: -kv[1]):
        print("  self %-32s %10.4f s" % (name, ns / 1e9))
    for name, v in values.items():
        print("  %-40s %14.6g %s" % (name, v["value"], v["unit"]))
    for problem in problems:
        print("  FAILED: " + problem)
    return {"correct": failed == 0, "attempted": sum(b.ops for b in batches), "failed": failed,
            "metrics": values}


def run_all(args):
    """Each workload in its own process, so peak memory belongs to it."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = v
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        wl = make_workload(args.workload)
        run = traced_run if args.trace else measured_run
        result = run(wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
