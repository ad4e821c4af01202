#!/usr/bin/env python3
"""Native end-to-end benchmark of SI-Rep (see README.md in this directory).

Builds perfbench/sirep_perf from source into .bench_build/perfbench, runs
one workload in several fresh processes (each measures an equal share of
--seconds), and prints the medians as the last line of stdout:

  python3 perfbench/run.py --workload tpcw --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
ledger instead (half of its processes traced, the rest untraced for
trace.overhead). Exits non-zero without a result if the build or a run
fails, and with "correct": false if a replica check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "sirep_perf")

WORKLOADS = ("tpcw", "update_intensive", "partial_rf1")
# Fresh processes per run: every measured window starts from a freshly
# loaded cluster (back-to-back windows in one process drift upwards).
PROCESSES = 10
WARMUP_MS = 400
PROCESS_TIMEOUT_S = 60

END_TO_END = {
    "tps": "1/s",
    "update_p50_us": "us",
    "read_p99_us": "us",
    "cpu_us_per_txn": "us",
    "commit_ratio": "ratio",
    "setup_s": "s",
}

PER_LAYER = {
    "client.execute_us.p50": "us",
    "client.execute_us.p99": "us",
    "client.commit_us.p50": "us",
    "client.commit_us.p99": "us",
    "client.failovers": "count",
    "client.update_p95_us": "us",
    "client.update_p99_us": "us",
    "client.read_p50_us": "us",
    "client.update_samples": "count",
    "client.read_samples": "count",
    "mw.begin_wait_us.p50": "us",
    "mw.begin_wait_us.p99": "us",
    "mw.lock.holes.wait_us.p99": "us",
    "mw.lock.tocommit.wait_us.p99": "us",
    "mw.lock.wsindex.wait_us.p99": "us",
    **{f"mw.stage.{stage}_us.{q}": "us"
       for stage in ("execute", "extract", "local_validate", "multicast",
                     "global_validate", "commit")
       for q in ("p50", "p99")},
    "mw.header_only_share": "ratio",
    "mw.read_only_share": "ratio",
    "mw.val_abort_ratio": "ratio",
    "mw.apply_retries_per_txn": "count",
    "mw.apply_parallelism.mean": "count",
    "mw.remote_apply_lag_us.p50": "us",
    "mw.remote_apply_lag_us.p99": "us",
    "mw.snapshot_staleness_us.p50": "us",
    "mw.snapshot_staleness_us.p99": "us",
    "mw.catchup_ms": "ms",
    "gcs.multicast_us.p50": "us",
    "gcs.multicast_us.p99": "us",
    "gcs.delivery_lag_us.p50": "us",
    "gcs.delivery_lag_us.p99": "us",
    "gcs.msgs_per_frame": "count",
    "engine.stmt_us.p50": "us",
    "engine.stmt_us.p99": "us",
    "engine.replay_us_per_txn": "us",
    "sql.parse_us.p50": "us",
    "storage.lock_wait_us.p99": "us",
    "storage.ww_conflicts_per_txn": "count",
    "storage.deadlocks": "count",
    "storage.version_chain_len.mean": "count",
    "proc.sys_cpu_share": "ratio",
    "proc.ctx_switches_per_txn": "count",
    "proc.threads": "count",
    "ledger.residual_share": "ratio",
    "trace.overhead": "ratio",
}


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sirep_perf",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")


def run_process(workload, seed, window_ms, trace):
    """One fresh benchmark process; returns its (config, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--window-ms", str(window_ms), "--warmup-ms", str(WARMUP_MS),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    found = {}
    for line in proc.stdout.splitlines():
        tag, _, body = line.partition(" ")
        if tag in ("config", "result"):
            found[tag] = json.loads(body)
    # Exit code 3 is a failed replica check: the result is still valid
    # and says "correct": false.
    if proc.returncode not in (0, 3) or len(found) != 2:
        sys.exit(f"benchmark process failed with exit code {proc.returncode}")
    return found["config"], found["result"]


def median(results, name):
    return statistics.median(r["metrics"][name] for r in results)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    window_ms = max(100, args.seconds * 1000 // PROCESSES)
    traced = [args.trace == 1 and i % 2 == 0 for i in range(PROCESSES)]
    runs = []
    for i, trace in enumerate(traced):
        seed = (args.seed * PROCESSES + i) % (1 << 62)
        config, result = run_process(args.workload, seed, window_ms, trace)
        if i == 0:
            config.update(seed=args.seed, processes=PROCESSES)
            print("config " + json.dumps(config))
        runs.append((trace, result))

    results = [r for _, r in runs]
    plain = [r for t, r in runs if not t]
    print(f"samples per process (median): "
          f"update={median(results, 'client.update_samples'):.0f} "
          f"read={median(results, 'client.read_samples'):.0f}")
    if args.trace:
        layered = [r for t, r in runs if t]
        values = {name: median(layered, name)
                  for name in PER_LAYER if name != "trace.overhead"}
        values["trace.overhead"] = (
            1 - median(layered, "tps") / median(plain, "tps"))
        units = PER_LAYER
    else:
        values = {name: median(results, name) for name in END_TO_END}
        units = END_TO_END
    correct = all(r["correct"] for r in results)
    for r in results:
        if not r["correct"]:
            print(f"correctness check failed: {r['check']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
