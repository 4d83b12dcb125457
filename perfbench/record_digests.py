"""Record each workload's output digest for seeds 0-15 in baseline.json.

    python3 perfbench/record_digests.py

A run whose seed has a recorded digest fails when its outputs differ, so a
change to the program must keep traces, metrics, allocations and outcome
sets byte-identical. Re-record only when the benchmark's inputs change.
"""

import json

import run

SEEDS = range(16)


def main():
    run.load_program()
    path = run.HERE / "baseline.json"
    baseline = json.loads(path.read_text())
    baseline["digests"] = {
        name: {str(seed): run.make_workload(name).batch(seed).digest for seed in SEEDS}
        for name in run.WORKLOADS
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
