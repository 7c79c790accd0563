#!/usr/bin/env python3
"""Compare two google-benchmark JSON outputs and gate on regressions.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--threshold 0.15]
                     [--benchmarks name1,name2,...]

Exits non-zero if any tracked benchmark's throughput (items_per_second,
falling back to 1/real_time) dropped by more than --threshold relative
to the baseline, or if a tracked benchmark is missing from the current
run (a silently deleted/renamed hot-path bench must not pass the
gate). Tracked benchmarks missing from the *baseline* only warn, so a
new bench can land before the baseline is refreshed.

A file that carries repetition aggregates (--benchmark_repetitions=N)
is read through its _median rows, so one noisy repetition cannot fail
or pass the gate; a file without them is read row by row.

Rows whose work runs on worker threads (threads:N with N >= 1, and the
pipelined dispatch row) depend on how many CPUs the host has. When the
two files' context.num_cpus differ, those rows and the scaling
invariants below are reported but not gated.

Also enforces the no-negative-scaling invariant on the CURRENT run
alone (no baseline needed): threaded sharded dispatch must not be
slower than inline dispatch of the same configuration — the
regression that motivated the persistent shard-pinned workers.
Skipped with a warning on hosts with too few CPUs to make the
threaded row meaningful; --skip-scaling-check disables it explicitly.

The checked-in baseline (bench/BENCH_baseline.json) was recorded on one
reference machine; absolute numbers vary across hosts, which is why the
CI perf job is opt-in (workflow_dispatch) rather than part of every PR.
Refresh the baseline alongside any intentional perf-relevant change:

    ./build/bench/perf_micro --benchmark_format=json \
        --benchmark_min_time=0.5 > bench/BENCH_baseline.json
"""

import argparse
import json
import os
import re
import sys

# Hot-path benchmarks the gate tracks by default; must stay in sync
# with the optimized paths listed in README "Performance".
DEFAULT_TRACKED = [
    "BM_H3Hash",
    "BM_ShadowRouterRoute",
    "BM_FullyAssocLru",
    "BM_UmonAccess",
    "BM_CombinedUMonAccess",
    "BM_TalusFacadeAccess",
    "BM_TalusBatchedAccess",
    "BM_TalusMonitorOffAccess",
    "BM_TalusRoutedAccess",
    # The batched shadow route at an unpredictable and a predictable
    # alpha/beta split, over the same all-hit kernel; held to each
    # other by OVERHEAD_INVARIANTS below.
    "BM_TalusRoutedBlock/rho:50",
    "BM_TalusRoutedBlock/rho:99",
    # Sharded serving engine (inline dispatch: deterministic and
    # meaningful on any core count; threaded variants are reported
    # but not tracked). The sweep uses UseRealTime — work runs on
    # pool threads — which suffixes the names.
    "BM_ShardedBatchedAccess/shards:1/threads:0/real_time",
    "BM_ShardedBatchedAccess/shards:4/threads:0/real_time",
    # Single-worker dispatch (PR 10): the smallest threaded
    # configuration, tracked so ring-dispatch overhead regressions
    # show up without needing a many-core host.
    "BM_ShardedBatchedAccess/shards:4/threads:1/real_time",
    # Double-buffered pipelined dispatch (PR 10): multi-block batches
    # on one worker. Tracked against the baseline; the expectation
    # that it beats single-block dispatch of the same engine is a
    # SCALING_INVARIANTS entry, gated on >= 2 CPUs (on one core the
    # producer and worker just time-slice).
    "BM_ShardedPipelinedAccess/real_time",
    # Control plane (PR 5): the pure compute stage and the all-shard
    # reconfiguration sweep. As above, only the inline-dispatch row of
    # the sweep is tracked; the threaded rows depend on core count.
    "BM_ControlPlaneStep",
    "BM_ShardedReconfigure/shards:8/threads:0/real_time",
    # One reconfiguration as the served path pays it: prepare + apply
    # + the next access, so work apply defers to the data path (a
    # kernel rebuild after re-targeting) cannot hide from the gate.
    "BM_ReconfigureResume",
    # Serving harness (PR 6): the closed-loop driver end to end
    # (scatter, ring dispatch, gather, latency bookkeeping). Inline
    # row only, as above. BM_ServingOpenLoop is deliberately NOT
    # tracked: its wall time is dominated by the fixed arrival
    # schedule, so items/s reflects the offered rate, not the code.
    "BM_ServingClosedLoop/shards:4/threads:0/real_time",
    # Observability layer (PR 9): the batched facade with metrics
    # publishing on. Tracked against the baseline like any hot path,
    # and additionally held to the metrics-off row by
    # OVERHEAD_INVARIANTS below.
    "BM_MetricsOverhead/metrics:0",
    "BM_MetricsOverhead/metrics:1",
    # Fused kernel geometry: the L2-resident rows at 16 and Table I's
    # 32 ways, tracked so the 32-vs-16 invariant below cannot lose a
    # row silently. The 128K- and 1M-line rows are reported only.
    "BM_KernelGeometry/ways:16/lines:16384",
    "BM_KernelGeometry/ways:32/lines:16384",
    # Fused kernel partition count: the victim scans at 2 and 32
    # partitions, tracked so per-set state that grows with the
    # partition count shows up as a regression.
    "BM_KernelPartitions/parts:2",
    "BM_KernelPartitions/parts:32",
    # Workload generation: the guide-table Zipf draw one at a time and
    # in blocks, and a four-tenant mixture's tiled block path. Every
    # figure, test and perfbench set-up replays these generators.
    "BM_ZipfNext",
    "BM_ZipfNextBlock/lines:65536",
    "BM_MixNextBlock",
]

# No-negative-scaling invariants, checked on the current run alone:
# each (inline, threaded, min_cpus) row pair must satisfy
# throughput(threaded) >= throughput(inline). min_cpus is the fewest
# host CPUs at which expecting the threaded row to win is fair (the
# caller thread mostly yields during a batch, so workers == cores is
# enough). The pairs pin the fix for the ROADMAP's negative-scaling
# bug: per-batch pool dispatch used to make threads:4 ~20% SLOWER
# than threads:0.
SCALING_INVARIANTS = [
    ("BM_ShardedBatchedAccess/shards:4/threads:0/real_time",
     "BM_ShardedBatchedAccess/shards:4/threads:4/real_time", 4),
    ("BM_ServingClosedLoop/shards:4/threads:0/real_time",
     "BM_ServingClosedLoop/shards:4/threads:4/real_time", 4),
    # Pipelined dispatch (PR 10): overlapping the caller's scatter of
    # block k+1 with the worker's drain of block k must not lose to
    # the same engine and geometry dispatched one 4096-address block
    # at a time. Needs two CPUs — producer and worker time-slice on
    # one core, making the comparison noise.
    ("BM_ShardedBatchedAccess/shards:4/threads:1/real_time",
     "BM_ShardedPipelinedAccess/real_time", 2),
]

# Bounded-overhead invariants, checked on the current run alone: each
# (off, on, max_overhead) pair must satisfy
# throughput(on) >= throughput(off) * (1 - max_overhead). Pins the
# observability layer's advertised <= 2% cost on the batched facade
# path; the margin above 2% absorbs run-to-run noise on shared CI
# hosts (single runs swing a few percent either way — the budget
# claim itself comes from repetition medians).
OVERHEAD_INVARIANTS = [
    ("BM_MetricsOverhead/metrics:0", "BM_MetricsOverhead/metrics:1",
     0.05),
    # Batched >= serial, no slack: a block of accesses runs the same
    # single-access kernel as the facade's serial path plus a set-index
    # and prefetch prologue, so the batched facade must not lose to one
    # access() per address.
    ("BM_TalusFacadeAccess", "BM_TalusBatchedAccess", 0.0),
    # Table I's 32 ways within 1.25x of 16 ways per access: the rank
    # row kernels loop over 16-way chunks, so doubling the ways must
    # not fall back to scalar loops or double the rows touched.
    ("BM_KernelGeometry/ways:16/lines:16384",
     "BM_KernelGeometry/ways:32/lines:16384", 0.2),
    # The shadow route is branch-free: a 50/50 alpha/beta split must
    # cost within 10% of a 99/1 split over the same all-hit kernel.
    # A conditional jump on the limit compare mispredicts on about
    # half the rho:50 accesses and put that row at ~0.6x of rho:99.
    ("BM_TalusRoutedBlock/rho:99", "BM_TalusRoutedBlock/rho:50", 0.1),
]


def throughput(entry):
    """Items/sec of one benchmark entry (1/real_time fallback)."""
    if "items_per_second" in entry:
        return float(entry["items_per_second"])
    real_time = float(entry["real_time"])
    # google-benchmark reports per-iteration time in time_unit.
    scale = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}
    return scale[entry.get("time_unit", "ns")] / real_time


def threaded(name):
    """True for rows whose work runs on worker threads."""
    m = re.search(r"threads:(\d+)", name)
    return ((m is not None and int(m.group(1)) > 0) or
            name.startswith("BM_ShardedPipelinedAccess"))


def load(path):
    """Returns ({name: items/s}, num_cpus or None, read medians?)."""
    with open(path) as f:
        data = json.load(f)
    rows = data.get("benchmarks", [])
    medians = {}
    for entry in rows:
        if (entry.get("run_type") == "aggregate" and
                entry.get("aggregate_name") == "median"):
            name = entry.get("run_name", entry["name"][:-len("_median")])
            medians[name] = throughput(entry)
    if medians:
        out = medians
    else:
        out = {e["name"]: throughput(e) for e in rows
               if e.get("run_type") != "aggregate"}
    return out, data.get("context", {}).get("num_cpus"), bool(medians)


def check_scaling(curr, skip, cpus, gated):
    """No-negative-scaling: threaded rows must beat inline rows.

    Returns the list of violated (inline, threaded, ratio) tuples;
    when gated is false, violations are printed but not returned.
    Pairs whose rows are absent from the current run are ignored here
    (the tracked-benchmark missing check already covers deletions of
    the inline rows)."""
    failures = []
    for inline_name, threaded_name, min_cpus in SCALING_INVARIANTS:
        if inline_name not in curr or threaded_name not in curr:
            continue
        if skip:
            print(f"scaling check SKIPPED (--skip-scaling-check): "
                  f"{threaded_name}")
            continue
        if cpus < min_cpus:
            print(f"scaling check SKIPPED (host has {cpus} CPUs, "
                  f"needs >= {min_cpus}): {threaded_name}")
            continue
        ratio = curr[threaded_name] / curr[inline_name]
        flag = ""
        if ratio < 1.0:
            flag = ("  << NEGATIVE SCALING" if gated
                    else "  (negative scaling, not gated)")
        print(f"scaling {threaded_name}: {ratio:.2f}x of inline{flag}")
        if ratio < 1.0 and gated:
            failures.append((inline_name, threaded_name, ratio))
    return failures


def check_overhead(curr):
    """Bounded overhead: each row must stay near (or above) its
    reference row. Returns violated (off, on, ratio, budget)
    tuples; pairs with absent rows are ignored (the tracked-benchmark
    missing check covers deletions)."""
    failures = []
    for off_name, on_name, budget in OVERHEAD_INVARIANTS:
        if off_name not in curr or on_name not in curr:
            continue
        ratio = curr[on_name] / curr[off_name]
        flag = "" if ratio >= 1.0 - budget else "  << OVER BUDGET"
        print(f"overhead {on_name}: {ratio:.3f}x of {off_name} "
              f"(budget {budget:.0%}){flag}")
        if ratio < 1.0 - budget:
            failures.append((off_name, on_name, ratio, budget))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max allowed fractional drop (default 0.15)")
    parser.add_argument("--benchmarks", default=",".join(DEFAULT_TRACKED),
                        help="comma-separated tracked benchmark names")
    parser.add_argument("--skip-scaling-check", action="store_true",
                        help="skip the no-negative-scaling invariant")
    args = parser.parse_args()

    base, base_cpus, base_medians = load(args.baseline)
    curr, curr_cpus, curr_medians = load(args.current)
    tracked = [b for b in args.benchmarks.split(",") if b]
    for label, medians, cpus in (("baseline", base_medians, base_cpus),
                                 ("current", curr_medians, curr_cpus)):
        rows = "repetition medians" if medians else "single runs"
        print(f"{label}: {rows}, num_cpus {cpus}")
    # Threaded rows compare only between runs on equal CPU counts.
    same_cpus = (base_cpus is None or curr_cpus is None or
                 base_cpus == curr_cpus)
    if not same_cpus:
        print(f"num_cpus differ ({base_cpus} vs {curr_cpus}): threaded "
              f"rows and scaling invariants are reported, not gated")
    print()

    failures = []
    missing = []
    print(f"{'benchmark':<54} {'baseline':>14} {'current':>14} "
          f"{'ratio':>7}")
    for name in tracked:
        if name not in curr:
            # A tracked bench that did not run is a gate failure: a
            # rename/delete must not silently drop perf coverage.
            missing.append(name)
            print(f"{name:<54} {'—':>14} {'—':>14} {'—':>7}  "
                  f"<< MISSING from current run")
            continue
        if name not in base:
            print(f"{name:<54} {'—':>14} {curr[name]:>12.3e}/s "
                  f"{'—':>7}  (missing from baseline; warned only)")
            continue
        ratio = curr[name] / base[name]
        flag = ""
        if not same_cpus and threaded(name):
            flag = "  (threaded, not gated)"
        elif ratio < 1.0 - args.threshold:
            failures.append((name, ratio))
            flag = "  << REGRESSION"
        print(f"{name:<54} {base[name]:>12.3e}/s {curr[name]:>12.3e}/s "
              f"{ratio:>6.2f}x{flag}")

    print()
    scaling_failures = check_scaling(
        curr, args.skip_scaling_check, curr_cpus or os.cpu_count() or 1,
        same_cpus)
    overhead_failures = check_overhead(curr)

    if failures or missing or scaling_failures or overhead_failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more "
              f"than {args.threshold:.0%}, {len(missing)} tracked "
              f"benchmark(s) missing from the current run, "
              f"{len(scaling_failures)} scaling invariant(s) "
              f"violated, {len(overhead_failures)} overhead "
              f"invariant(s) violated:")
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x of baseline")
        for name in missing:
            print(f"  {name}: missing from current run")
        for inline_name, threaded_name, ratio in scaling_failures:
            print(f"  {threaded_name}: {ratio:.2f}x of {inline_name} "
                  f"(threaded dispatch must not lose to inline)")
        for off_name, on_name, ratio, budget in overhead_failures:
            print(f"  {on_name}: {ratio:.3f}x of {off_name} "
                  f"(budget {budget:.0%})")
        return 1
    print(f"\nOK: no tracked benchmark regressed more than "
          f"{args.threshold:.0%}; scaling and overhead invariants "
          f"hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
