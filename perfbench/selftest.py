#!/usr/bin/env python3
"""Self-test of the native benchmark (see README.md in this directory).

For every workload: a short untraced and a short traced run must pass
their correctness checks and report exactly the metrics BENCHMARK.json
declares, each with its unit; a run whose replica 1 is corrupted after
quiescence must be caught. A SIREP_* override must be refused.

  python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (run.py in this directory)

SEED = 3


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def short_run(workload, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "2",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n"
             f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: unexpected result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result}")
    return result


def expect_metrics(workload, result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(n for n in set(got) & set(declared)
                       if got[n] != declared[n])
        fail(f"{workload}: missing {missing}, extra {extra}, "
             f"wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            fail(f"{workload}: {name} = {m['value']!r}")


def run_binary(workload, extra_args=(), env=None):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(SEED),
           "--window-ms", "300", "--warmup-ms", "100", *extra_args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          env=env)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in run.WORKLOADS:
        expect_metrics(workload, short_run(workload, 0), end_to_end)
        expect_metrics(workload, short_run(workload, 1), per_layer)
        corrupted = run_binary(workload, ["--corrupt"])
        if corrupted.returncode != 3 or \
                '"correct": false' not in corrupted.stdout:
            fail(f"{workload}: corrupted replica not caught "
                 f"(exit {corrupted.returncode})")
        print(f"selftest: {workload} ok "
              f"({corrupted.stderr.strip().splitlines()[-1]})")

    refused = run_binary("tpcw", env={**os.environ,
                                      "SIREP_APPLY_THREADS": "2"})
    if refused.returncode != 2:
        fail(f"SIREP_APPLY_THREADS not refused (exit {refused.returncode})")
    print("selftest: ok")


if __name__ == "__main__":
    main()
