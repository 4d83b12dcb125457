"""Command-line surface."""

import json

import pytest

from xchan.cli import main
from xchan.scenario import ScenarioConfig, run_scenario, trace_bytes

CONFIG = {
    "mode": "CE",
    "seed": 2,
    "receipts_n": 6,
    "funding": 1000,
}


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(CONFIG))
    return str(p)


def test_run_writes_metrics_and_trace(config_path, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    rc = main(["run", "--config", config_path, "--trace", str(trace), "--metrics", str(metrics)])
    assert rc == 0
    lines = trace.read_text().strip().splitlines()
    assert lines and all(json.loads(line) for line in lines)
    data = json.loads(metrics.read_text())
    assert data["receipts_processed"] == 6
    assert data["invariants_ok"]
    out = json.loads(capsys.readouterr().out)
    assert out["outcomes"] == {"alpha:c0": "Success", "beta:c0": "Success"}


def test_run_trace_file_is_trace_bytes(config_path, tmp_path):
    """run --trace writes the run's one trace byte form and a final newline."""
    trace = tmp_path / "trace.jsonl"
    assert main(["run", "--config", config_path, "--trace", str(trace)]) == 0
    _metrics, entries = run_scenario(ScenarioConfig.from_json(config_path))
    assert trace.read_bytes() == trace_bytes(entries) + b"\n"


def test_run_seed_override_changes_nothing_structural(config_path, capsys):
    rc = main(["run", "--config", config_path, "--seed", "9"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["invariants_ok"]


def test_fe_plain_htlc_run_exits_0(tmp_path, capsys):
    p = tmp_path / "fe_htlc.json"
    p.write_text(json.dumps({"mode": "FE", "baseline": "plain_htlc", "receipts_n": 3}))
    assert main(["run", "--config", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["invariants_ok"] and set(out["outcomes"].values()) == {"Success"}


def test_invalid_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"alpha_unlock": 10, "beta_unlock": 10}))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(p)])
    assert exc.value.code == 2
    assert "alpha_unlock > beta_unlock" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"receipts_n": "5"}))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "receipts_n must be of type int" in err


def test_sweep_prints_fit(config_path, capsys):
    rc = main(["sweep", "--config", config_path, "--channels", "2:6:2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "receipts_per_tick" in out and "fit:" in out


def test_enumerate_honest_profile(capsys):
    rc = main(["enumerate", "--seed", "2", "--profile", "honest", "--bound", "12"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"profile": "honest", "assist_enabled": True, "outcomes": ["Success,Success"], "schedules": 2}


def test_enumerate_detects_split_without_assist(capsys):
    rc = main(["enumerate", "--seed", "2", "--no-assist", "--profile", "delay_r"])
    assert rc == 1  # the split outcome is an atomicity violation
    data = json.loads(capsys.readouterr().out)
    assert data["assist_enabled"] is False and data["outcomes"] == ["Refunded,Success"]


def test_enumerate_takes_no_config_file(config_path, capsys):
    """enumerate explores atomicity's profiles, not a scenario file."""
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--config", config_path])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_run_exits_1_on_an_honest_split(tmp_path, capsys):
    """R sees beta's events 68 ticks late: alpha refunds while beta pays.
    No party is adversarial, so the split breaks the run's invariants."""
    p = tmp_path / "slow_link.json"
    p.write_text(json.dumps({"mode": "CE", "seed": 327, "receipts_n": 2, "latency": {
        "kind": "fixed", "fixed": 2, "overrides": [{"src": "beta", "dst": "R", "fixed": 68}]}}))
    assert main(["run", "--config", str(p)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["outcomes"] == {"alpha:c0": "Refunded", "beta:c0": "Success"} and not out["invariants_ok"]


@pytest.mark.parametrize("content", [None, b"{not json", b"\xff\xfe"], ids=["missing", "not-json", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, content):
    """A config file that does not exist, is not JSON or is not text is a
    config error, not a traceback."""
    p = tmp_path / "bad.json"
    if content is not None:
        p.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(p)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config: ")


@pytest.mark.parametrize("option", ["--trace", "--metrics"])
def test_unwritable_output_exits_2_before_the_run(config_path, tmp_path, capsys, option):
    """An output path that cannot be opened is a usage error found before
    the run, not a traceback after it: exit 1 means an invariant failed."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", config_path, option, str(tmp_path / "missing" / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument %s: can't open " % option in captured.err and captured.out == ""


@pytest.mark.parametrize("channels", ["1:2", "1:2:0", "0:1:1", "1:1:1", "a:b:c"])
def test_sweep_bad_channels_exits_2(config_path, capsys, channels):
    """--channels needs lo:hi:step with 1 <= lo, step >= 1 and at least two
    counts to fit; anything else is a usage error, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", config_path, "--channels", channels])
    assert exc.value.code == 2
    assert "argument --channels: " in capsys.readouterr().err


@pytest.mark.parametrize("command, raw, error", [
    ("run", {"funding": 1}, "workload exceeds channel funding"),  # found when the world is built
    ("sweep", {"funding": 1}, "workload exceeds channel funding"),
    ("run", {"assist_reward_percent": 101}, "assist_reward_percent must be in 0..100"),
    ("run", {"max_ticks": -1}, "max_ticks must be >= 0"),
    ("run", {"latency": {"lo": 1, "hi": 9}}, "latency: kind fixed reads no lo or hi"),
])
def test_config_error_from_a_run_exits_2(tmp_path, capsys, command, raw, error):
    """A config that passes the file checks but cannot be run is a config
    error, not a traceback."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(p)] + (["--channels", "1:2:1"] if command == "sweep" else []))
    assert exc.value.code == 2
    assert capsys.readouterr().err == "config error: %s\n" % error


@pytest.mark.parametrize("raw, error", [
    ({"funding": 18446744073709551616}, "funding must be below 2**64"),
    ({"baseline": "plain_htlc", "funding": 10, "receipts_n": 10}, "workload exceeds channel funding"),
])
def test_config_that_crashed_a_run_exits_2(tmp_path, capsys, raw, error):
    """Each of these once ended a run with a traceback: a mistyped Open
    amount, an overdraft escrowing HTLC deposits."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(p)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "config error: %s\n" % error


@pytest.mark.parametrize("bound", ["0", "-1", "x"])
def test_enumerate_bad_bound_exits_2(capsys, bound):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--bound=" + bound])
    assert exc.value.code == 2
    assert "argument --bound: " in capsys.readouterr().err


def test_enumerate_bound_exceeded_exits_2(capsys):
    """delay_r has two messages in flight at once, more than a bound of 1."""
    rc = main(["enumerate", "--seed", "2", "--bound", "1", "--profile", "delay_r"])
    assert rc == 2
    assert capsys.readouterr().err == "enumerate: 2 messages in flight exceeds bound 1\n"
