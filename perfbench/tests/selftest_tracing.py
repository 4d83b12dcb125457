"""Self-tests of the benchmark's tracing and result contract.

    python3 -m pytest -q perfbench/tests/selftest_tracing.py

The file name keeps it out of the repository's default test run: the
counted baseline it reproduces belongs to the commit that introduced the
benchmark, and a change that removes repeated verifies is meant to move it.
"""

import cProfile
import json
import pstats
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from tracer import PER_LAYER, Tracer, installed  # noqa: E402
from xchan import crypto, receipts, scenario  # noqa: E402

CE_LEVELS = dict(mode="CE", receipts_n=6, levels=3, sub_funding=(30, 10), sub_receipts=(3, 2))
EIE_SMALL = dict(mode="EIE", receipts_n=2, channels=2, byzantine_miners=1,
                 latency={"kind": "uniform", "lo": 1, "hi": 2})
COUNTED = {
    "crypto.verify.calls": crypto.verify,
    "receipts.replay.calls": receipts.replay_receipts,
    "crypto.sign.calls": crypto.KeyPair.sign,
}


def _small_workloads():
    return [
        ("ce_levels", run.ScenarioWorkload("ce_levels", **CE_LEVELS)),
        ("eie_small", run.ScenarioWorkload("eie_small", **EIE_SMALL)),
        ("settle", run.SettleWorkload()),
        ("enum", run.EnumWorkload()),
    ]


@pytest.fixture
def few_trees(monkeypatch):
    monkeypatch.setattr(run, "TREES_PER_BATCH", 40)


def _profiled_counts(fn):
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    out = {}
    for name, target in COUNTED.items():
        code = target.__code__
        out[name] = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
    return out


def _traced(fn):
    tracer = Tracer()
    with installed(tracer):
        result = fn(tracer)
    return tracer, result


@pytest.mark.parametrize("index", range(4))
def test_wrapper_counts_match_cprofile(index, few_trees):
    name, wl = _small_workloads()[index]
    profiled = _profiled_counts(lambda: wl.batch(7))
    tracer, _ = _traced(lambda t: wl.batch(7, t))
    assert {n: tracer.counts[n] for n in COUNTED} == profiled, name
    assert profiled["crypto.verify.calls"] > 0


def test_wrappers_are_removed_on_exit():
    originals = {n: f for n, f in vars(crypto).items() if callable(f)}
    _traced(lambda t: scenario.run_scenario(scenario.ScenarioConfig(**CE_LEVELS)))
    assert {n: f for n, f in vars(crypto).items() if callable(f)} == originals
    assert receipts.verify is crypto.verify
    assert crypto.KeyPair.__dict__["sign"].__name__ == "sign"


@pytest.mark.parametrize("index", range(4))
def test_traced_outputs_equal_untraced(index, few_trees):
    name, wl = _small_workloads()[index]
    plain = wl.batch(3)
    tracer, traced = _traced(lambda t: wl.batch(3, t))
    assert traced.digest == plain.digest, name
    assert traced.exact == plain.exact
    assert traced.failed == plain.failed == 0
    assert tracer.spans and all(end >= start for _i, _n, start, end, _p, _o in tracer.spans)


def test_self_time_excludes_children():
    tracer, _ = _traced(lambda t: scenario.run_scenario(scenario.ScenarioConfig(**CE_LEVELS)))
    by_id = {s[0]: s for s in tracer.spans}
    child_ns = {}
    for _sid, _name, start, end, parent, _op in tracer.spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    total = {}
    for sid, name, start, end, _parent, _op in by_id.values():
        total[name] = total.get(name, 0) + (end - start) - child_ns.get(sid, 0)
    assert total == dict(tracer.self_ns)
    assert all(v >= 0 for v in total.values())
    ops = {op for *_rest, op in tracer.spans}
    assert "c0" in ops


def test_roadmap_counted_baseline():
    """The ROADMAP's 100-channel run: 8,000 verifies of 3,600 distinct
    (address, message, signature) triples. ce_wide is this config at half
    the channels."""
    wl = run.ScenarioWorkload("roadmap_100", mode="CE", receipts_n=20, channels=100)
    tracer, _ = _traced(lambda t: wl.batch(66, t))
    tracer.layer_metrics(1)
    assert tracer.counts["crypto.verify.calls"] == 8000
    assert tracer.counts["crypto.verify.distinct"] == 3600


def test_benchmark_file_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
