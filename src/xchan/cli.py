"""Command-line harness.

    xchan run --config scenario.json [--seed N] [--trace out.jsonl] [--metrics out.json]
    xchan sweep --config scenario.json --channels 10:100:10
    xchan enumerate [--profile P] [--seed N] [--no-assist] [--bound 12]

Exit code 0 means the run's invariants held (see run_scenario), or every
enumerated outcome is atomic, by the rule the run reads (scenario.atomic);
2 means the config or an option cannot be run, with the reason on stderr;
an output path that cannot be written is refused before the run starts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .atomicity import PROFILES, atomic_outcomes_only, enumerate_close_phase
from .scenario import (
    ConfigError,
    ScenarioConfig,
    run_scaling_sweep,
    run_scenario,
    trace_bytes,
)
from .simnet import BoundExceeded


def cmd_run(args) -> int:
    config = ScenarioConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    metrics, trace = run_scenario(config)
    if args.trace:
        with args.trace as fh:
            fh.write(trace_bytes(trace) + b"\n")
    if args.metrics:
        with args.metrics as fh:
            fh.write(metrics.to_json())
    print(metrics.to_json())
    return 0 if metrics.invariants_ok else 1


def channel_counts(text: str) -> range:
    """--channels lo:hi:step: two or more channel counts from 1 up, to fit a line to."""
    lo, hi, step = map(int, text.split(":"))  # a ValueError is argparse's usage error
    if 1 <= lo and step >= 1 and lo + step <= hi:
        return range(lo, hi + 1, step)
    raise ValueError(text)


def positive(text: str) -> int:
    """--bound: a count of 1 or more."""
    n = int(text)  # a ValueError is argparse's usage error
    if n >= 1:
        return n
    raise ValueError(text)


def cmd_sweep(args) -> int:
    config = ScenarioConfig.from_json(args.config)
    result = run_scaling_sweep(config, args.channels)
    print("channels  receipts  ticks  receipts_per_tick")
    for row in result.rows:
        print("%8d  %8d  %5d  %17.4f" % (row.channels, row.receipts, row.ticks, row.receipts_per_tick))
    print(
        "fit: slope=%.5f intercept=%.5f r2=%.5f single_channel_rate=%.5f"
        % (result.slope, result.intercept, result.r_squared, result.single_channel_rate)
    )
    return 0


def cmd_enumerate(args) -> int:
    try:
        result = enumerate_close_phase(args.profile, args.assist, args.seed, args.bound)
    except BoundExceeded as e:
        print("enumerate: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps({
        "profile": args.profile,
        "assist_enabled": args.assist,
        "outcomes": sorted(",".join(o) for o in result.outcomes),
        "schedules": result.schedules,
    }, indent=2))
    return 0 if atomic_outcomes_only(result) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="xchan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trace", type=argparse.FileType("wb"), default=None)
    p_run.add_argument("--metrics", type=argparse.FileType("w"), default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="throughput over channel counts")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--channels", type=channel_counts, default="10:100:10", help="lo:hi:step")
    p_sweep.set_defaults(func=cmd_sweep)

    p_enum = sub.add_parser("enumerate", help="every close-phase schedule of a CE profile")
    p_enum.add_argument("--profile", default="honest", choices=PROFILES)
    p_enum.add_argument("--seed", type=int, default=1)
    p_enum.add_argument("--no-assist", dest="assist", action="store_false", help="no miner assist on alpha")
    p_enum.add_argument("--bound", type=positive, default=12)
    p_enum.set_defaults(func=cmd_enumerate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:  # from the config file, or from building its world
        for v in e.violations:
            print("config error: %s" % v, file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":
    raise SystemExit(main())
