/**
 * @file
 * Shared plumbing for the benchmark harness: environment knobs, size
 * grids in paper-MB, miss-ratio-to-MPKI conversion, and random mix
 * sampling for the Fig. 12 methodology.
 */

#ifndef TALUS_SIM_EXPERIMENT_UTIL_H
#define TALUS_SIM_EXPERIMENT_UTIL_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/miss_curve.h"
#include "sim/scale.h"

namespace talus {

/** Environment/CLI configuration common to all bench binaries. */
struct BenchEnv
{
    Scale scale{Scale::kDefaultLinesPerMb};
    bool csv = false;            //!< --csv flag: emit CSV not tables.
    uint64_t instrPerApp = 0;    //!< Fixed work (TALUS_INSTR).
    uint32_t mixes = 0;          //!< Fig. 12 mix count (TALUS_MIXES).
    uint64_t measureAccesses = 0; //!< Sweep measurement (TALUS_ACCESSES).
    uint64_t seed = 0;           //!< Global seed (TALUS_SEED).
    uint32_t shards = 0;         //!< Shard count for sharded benches
                                 //!< (TALUS_SHARDS); 0 = bench default
                                 //!< (typically a sweep).
    uint32_t threads = 0;        //!< Worker threads for sharded
                                 //!< benches (TALUS_THREADS); 0 =
                                 //!< inline execution.
    uint64_t reconfig = 0;       //!< Accesses between control-plane
                                 //!< reconfigurations
                                 //!< (TALUS_RECONFIG); 0 = bench
                                 //!< default.
    std::string tracePath;       //!< Trace file to replay instead of
                                 //!< a synthetic workload
                                 //!< (TALUS_TRACE); "" = none.
    uint32_t monitorSample = 1;  //!< Monitor every Nth access
                                 //!< (TALUS_MONITOR_SAMPLE); 1 =
                                 //!< every access, the exact-curve
                                 //!< default. Maps to
                                 //!< Config::monitorSamplePeriod.
    bool monitorSampleSet = false; //!< True when --monitor-sample or
                                   //!< TALUS_MONITOR_SAMPLE was given
                                   //!< explicitly; lets binaries with
                                   //!< a non-1 default (see
                                   //!< monitorSampleOr()) still honor
                                   //!< an explicit --monitor-sample=1.
    std::string metricsPath;     //!< Dump a global-registry metrics
                                 //!< snapshot here at process exit
                                 //!< (TALUS_METRICS); "" = no dump.
                                 //!< `.json`/`.jsonl` paths get JSON
                                 //!< lines, anything else Prometheus
                                 //!< text. Binaries should also set
                                 //!< Config::metricsEnabled from
                                 //!< metricsWanted().

    /** True when --metrics/TALUS_METRICS asked for a dump: the knob
     *  binaries map to TalusCache::Config::metricsEnabled. */
    bool metricsWanted() const { return !metricsPath.empty(); }

    /**
     * The monitor sampling period a binary with default
     * @p binary_default should run at: the explicit
     * --monitor-sample/TALUS_MONITOR_SAMPLE value when one was given,
     * @p binary_default otherwise. Figure binaries use
     * env.monitorSample directly (default 1, exact curves); serving
     * binaries pass kServingMonitorSamplePeriod here so they default
     * to sampled monitoring while --monitor-sample=1 still opts back
     * into exact curves.
     */
    uint32_t monitorSampleOr(uint32_t binary_default) const
    {
        return monitorSampleSet ? monitorSample : binary_default;
    }

    /**
     * Parses the common bench command line over environment-variable
     * defaults (flags win over env vars). Accepted flags: --csv,
     * --full, --scale=N, --instr=N, --mixes=N, --accesses=N, --seed=N,
     * --shards=N, --threads=N, --reconfig=N, --trace=PATH, and
     * --help/-h (prints usage() and exits 0). Any other `--` argument
     * is an error: usage goes to stderr and the process exits 1.
     * --trace/TALUS_TRACE is validated like the shard knobs: a
     * missing, unreadable, or corrupt trace file is a usage error
     * (the validateTraceFile() message is printed), so replay runs
     * fail before any simulation starts. --metrics/TALUS_METRICS is
     * validated the same way (an unwritable path fails here, not
     * after the run) and additionally installs a process-exit hook
     * that dumps a snapshot of the global MetricRegistry to the
     * path, so every bench/example exports its metrics without
     * per-binary wiring. Non-flag positional arguments are left for
     * the binary to interpret.
     */
    static BenchEnv init(int argc, char** argv);

    /** The usage text printed by --help and on flag errors. */
    static const char* usage();
};

/**
 * An evenly spaced size grid from @p step_mb to @p max_mb inclusive
 * (paper-MB), converted to lines. Never includes size 0.
 */
std::vector<uint64_t> sizeGridLines(const Scale& scale, double max_mb,
                                    double step_mb);

/** Converts a miss-ratio curve to MPKI given the app's APKI. */
MissCurve toMpki(const MissCurve& ratio_curve, double apki);

/**
 * Samples @p num_mixes random app mixes of @p apps_per_mix names from
 * the memory-intensive pool (with repetition across mixes, without
 * repetition within a mix when the pool allows).
 */
std::vector<std::vector<std::string>>
sampleMixes(uint32_t num_mixes, uint32_t apps_per_mix, uint64_t seed);

} // namespace talus

#endif // TALUS_SIM_EXPERIMENT_UTIL_H
