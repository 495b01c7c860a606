#!/usr/bin/env python3
"""Self-check of the nmdt benchmark.

For every workload and each seed given (two by default, so a claim can
be re-tested on a seed it was not developed on):

1. the deterministic work ledger (modelled ns, L2 / DRAM / tile /
   comparator counts, reference CRCs) is printed three times — twice
   at T threads, once at 1 thread — and all three must be identical;
2. a short untraced run must pass its output checks and print every
   end-to-end metric BENCHMARK.json names, with its unit;
3. unless --no-trace, a traced run must pass its output checks and
   print every per-layer metric BENCHMARK.json names.

Run from the root of a checkout:

    python3 perfbench/check.py [--seeds 1 2] [--threads 4] [--no-trace]

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def ledger_of(lines):
    for line in lines:
        if line.startswith('{"ledger"'):
            return json.loads(line)["ledger"]
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--no-trace", action="store_true")
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = spec["command"][2:]  # fixed arguments after "python3 perfbench/run.py"
    units = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    for w in spec["workloads"]:
        name = w["name"]
        for seed in opts.seeds:
            common = [*base, "--workload", name, "--seed", str(seed),
                      "--seconds", str(opts.seconds)]
            ledgers = []
            for threads in (opts.threads, opts.threads, 1):
                rc, lines, err = run([*common, "--trace", "0", "--ledger-only",
                                      "--threads", str(threads)])
                ledger = ledger_of(lines)
                if rc != 0 or ledger is None:
                    failures.append(f"{name} seed {seed}: ledger run failed (rc {rc}): {err[-500:]}")
                ledgers.append(ledger)
            if ledgers[0] != ledgers[1]:
                failures.append(f"{name} seed {seed}: ledger differs between two runs")
            if ledgers[0] != ledgers[2]:
                failures.append(f"{name} seed {seed}: ledger differs between "
                                f"{opts.threads} threads and 1")
            print(f"{name} seed {seed}: ledger {'ok' if ledgers[0] == ledgers[1] == ledgers[2] else 'MISMATCH'}"
                  f" {json.dumps(ledgers[0])}")

            for trace in ("0", "1"):
                if trace == "1" and opts.no_trace:
                    continue
                rc, lines, err = run([*common, "--trace", trace])
                try:
                    result = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    failures.append(f"{name} seed {seed} trace {trace}: no result line (rc {rc}): "
                                    f"{err[-500:]}")
                    continue
                if rc != 0 or not result["correct"] or result["failed"] != 0:
                    failures.append(f"{name} seed {seed} trace {trace}: output check failed: "
                                    f"{err[-500:]}")
                metrics = result["metrics"]
                for metric, unit in units[trace].items():
                    got = metrics.get(metric)
                    if got is None or got.get("unit") != unit:
                        failures.append(f"{name} seed {seed} trace {trace}: metric {metric} "
                                        f"missing or not in {unit}")
                extra = set(metrics) - set(units[trace])
                if extra:
                    failures.append(f"{name} seed {seed} trace {trace}: unlisted metrics "
                                    f"{sorted(extra)}")
                print(f"{name} seed {seed} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")

    for f in failures:
        print("FAIL:", f)
    print("perfbench check:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
