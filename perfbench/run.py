#!/usr/bin/env python3
"""Builds and runs the Talus serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds perfbench/ (CMake, Release) into .bench_build/ at the
root of the checkout if needed, runs one workload, and passes the binary's
output through: the last line of stdout is the JSON result. Build output goes
to stderr. The exit code is the binary's, or 2 when the build fails.

--selftest runs every workload in BENCHMARK.json, and the two left out of
it, at a small size on a held-out seed, with tracing off and on. It asserts
that each run passes its checks and prints every metric BENCHMARK.json names,
with its unit; that zipf_serve_t2 serves exactly zipf_serve's hits; and that
the exact metrics and the reconfiguration count repeat bit for bit across
runs.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170
HELD_OUT_SEED = 7919
# Exact end-to-end metrics; the printed reconfiguration count is compared
# beside them.
EXACT_METRICS = ("miss_ratio", "hull_gap")
# Served by the binary but left out of BENCHMARK.json as too unsteady on a
# shared machine (NOTES.md). The self-test still runs them; zipf_serve_t2's
# hits must equal zipf_serve's.
SELFTEST_EXTRA_WORKLOADS = ("zipf_serve_t2", "scan_storm_serial")
# Per-layer metrics only these workloads' paths cross, and so left out of
# BENCHMARK.json's list: {workload: {metric: unit}}.
EXTRA_PER_LAYER = {"zipf_serve_t2": {"shard.handoff_us_per_batch": "us"},
                   "scan_storm_serial": {"api.access_ns_per_acc": "ns"}}
RECONFIGS = re.compile(r"(\d+) reconfigurations/pass")


def build():
    """Configures once and builds incrementally; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: binary timed out after %ds" % timeout,
              file=sys.stderr)
        return 3, exc.stdout or ""
    return proc.returncode, proc.stdout


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    hits = {}
    reconfig_counts = {}

    def check(cond, msg):
        if not cond:
            failures.append(msg)
        return cond

    names = [w["name"] for w in spec["workloads"]]
    names += [n for n in SELFTEST_EXTRA_WORKLOADS if n not in names]
    for name in names:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            exact = []
            for attempt in range(2 if trace == 0 else 1):
                args = ["--workload", name, "--seed", str(HELD_OUT_SEED),
                        "--seconds", "1", "--trace", str(trace),
                        "--size", "small"]
                code, out = run_binary(args)
                tag = "%s trace=%d" % (name, trace)
                lines = out.strip().splitlines()
                if not check(code == 0 and lines, "%s: exit %d" % (tag, code)):
                    continue
                result = json.loads(lines[-1])
                check(set(result) == {"correct", "attempted", "failed",
                                      "metrics"}, tag + ": result keys")
                check(result["correct"] is True and result["failed"] == 0 and
                      result["attempted"] >= 1, tag + ": checks failed")
                metrics = result["metrics"]
                want = {m["name"]: m["unit"] for m in spec[group]}
                if trace == 1:
                    want.update(EXTRA_PER_LAYER.get(name, {}))
                for metric, unit in want.items():
                    got = metrics.get(metric)
                    if check(got is not None, "%s: no %s" % (tag, metric)):
                        check(got["unit"] == unit,
                              "%s: %s unit %s, want %s" % (tag, metric,
                                                           got["unit"], unit))
                        check(math.isfinite(got["value"]),
                              "%s: %s not finite" % (tag, metric))
                check(set(metrics) <= set(want),
                      tag + ": unexpected extra metrics")
                found = re.search(r"hits (\d+)", out)
                if check(found is not None, tag + ": no hit count printed"):
                    hits.setdefault(name, set()).add(int(found.group(1)))
                found = RECONFIGS.search(out)
                if not check(found is not None,
                             tag + ": no reconfiguration count printed"):
                    continue
                reconfigs = int(found.group(1))
                if trace == 0:
                    exact.append(tuple(metrics[k]["value"]
                                       for k in EXACT_METRICS
                                       if k in metrics) + (reconfigs,))
                elif "control.reconfigs" in metrics:
                    check(metrics["control.reconfigs"]["value"] == reconfigs,
                          tag + ": control.reconfigs differs from the "
                          "printed count")
                    reconfig_counts.setdefault(name, set()).add(reconfigs)
            if trace == 0 and len(exact) == 2:
                check(exact[0] == exact[1],
                      "%s: exact metrics differ between runs: %s" %
                      (name, exact))
                reconfig_counts.setdefault(name, set()).add(exact[0][-1])
        print("selftest: %s done" % name, file=sys.stderr)

    for name, seen in hits.items():
        check(len(seen) == 1, "%s: hit counts differ: %s" % (name, seen))
    for name, seen in reconfig_counts.items():
        check(len(seen) == 1,
              "%s: reconfiguration counts differ: %s" % (name, seen))
    if "zipf_serve" in hits and "zipf_serve_t2" in hits:
        check(hits["zipf_serve"] == hits["zipf_serve_t2"],
              "zipf_serve_t2 hits %s != zipf_serve hits %s" %
              (hits["zipf_serve_t2"], hits["zipf_serve"]))
    for f in failures:
        print("selftest FAILED: " + f)
    print("selftest: %s (%d workloads, seed %d)" %
          ("ok" if not failures else "FAILED", len(names), HELD_OUT_SEED))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not build():
        return 2
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    started = time.monotonic()
    code, out = run_binary(["--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)])
    sys.stdout.write(out)
    print("perfbench: %s run took %.1fs" %
          (args.workload, time.monotonic() - started), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
