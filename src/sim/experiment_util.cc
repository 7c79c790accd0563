#include "sim/experiment_util.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "obs/exporters.h"
#include "obs/registry.h"
#include "shard/sharded_cache.h"
#include "trace/trace_file.h"
#include "util/env.h"
#include "util/log.h"
#include "util/rng.h"
#include "workload/spec_suite.h"

namespace talus {

namespace {

/**
 * If @p arg is "--<name>=<value>", parses the value into @p out and
 * returns true. A malformed value is a usage error: exits 1.
 */
bool
matchValueFlag(const char* binary, const std::string& arg,
               const char* name, std::optional<uint64_t>* out)
{
    const std::string prefix = std::string("--") + name + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    const std::string value = arg.substr(prefix.size());
    // strtoull alone would accept (and wrap) negative values; demand
    // pure digits so "-5" is an error, not 2^64-5.
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed =
        std::strtoull(value.c_str(), &end, 10);
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos ||
        end == nullptr || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr,
                     "%s: flag %s needs an unsigned integer, got "
                     "'%s'\n\n%s",
                     binary, (std::string("--") + name).c_str(),
                     value.c_str(), BenchEnv::usage());
        std::exit(1);
    }
    *out = static_cast<uint64_t>(parsed);
    return true;
}

// Where the process-exit metrics dump goes. File-static (not a
// BenchEnv member) because std::atexit handlers take no arguments;
// init() sets it and registers dumpMetricsAtExit() exactly once.
std::string&
metricsDumpPath()
{
    static std::string path;
    return path;
}

void
dumpMetricsAtExit()
{
    const std::string err = writeMetricsFile(
        globalMetricRegistry().snapshot(), metricsDumpPath());
    if (!err.empty())
        std::fprintf(stderr, "--metrics/TALUS_METRICS dump failed: %s\n",
                     err.c_str());
}

} // namespace

const char*
BenchEnv::usage()
{
    return
        "usage: <bench> [--csv] [--full] [--scale=N] [--instr=N]\n"
        "               [--mixes=N] [--accesses=N] [--seed=N]\n"
        "               [--shards=N] [--threads=N] [--reconfig=N]\n"
        "               [--monitor-sample=N] [--trace=PATH]\n"
        "               [--metrics=PATH]\n"
        "\n"
        "  --csv         emit CSV instead of aligned tables\n"
        "  --full        paper-true scale and run lengths (slow);\n"
        "                same as TALUS_FULL=1\n"
        "  --scale=N     cache lines per paper-MB (default 1024;\n"
        "                TALUS_SCALE)\n"
        "  --instr=N     fixed work per app in instructions\n"
        "                (TALUS_INSTR)\n"
        "  --mixes=N     random mixes for the multiprogram figures\n"
        "                (TALUS_MIXES)\n"
        "  --accesses=N  measured accesses per sweep point\n"
        "                (TALUS_ACCESSES)\n"
        "  --seed=N      global seed (TALUS_SEED)\n"
        "  --shards=N    shard count for sharded benches\n"
        "                (TALUS_SHARDS; 0 = bench default)\n"
        "  --threads=N   worker threads for sharded benches\n"
        "                (TALUS_THREADS; 0 = inline)\n"
        "  --reconfig=N  accesses between control-plane\n"
        "                reconfigurations (TALUS_RECONFIG;\n"
        "                0 = bench default)\n"
        "  --monitor-sample=N  monitor every Nth access\n"
        "                (TALUS_MONITOR_SAMPLE; default 1 =\n"
        "                every access, the exact-curve setting;\n"
        "                serving binaries default to 8 instead —\n"
        "                pass --monitor-sample=1 there for exact\n"
        "                curves)\n"
        "  --trace=PATH  replay the trace file at PATH (binary or\n"
        "                CSV; see tools/trace_convert) instead of a\n"
        "                synthetic workload (TALUS_TRACE)\n"
        "  --metrics=PATH  dump a metrics-registry snapshot to PATH\n"
        "                at exit (TALUS_METRICS): Prometheus text\n"
        "                format, or JSON lines for .json/.jsonl\n"
        "                paths; also enables cache metrics in\n"
        "                binaries that honor metricsWanted()\n"
        "  --help, -h    this text\n"
        "\n"
        "Environment variables provide the same knobs; flags win.\n";
}

BenchEnv
BenchEnv::init(int argc, char** argv)
{
    const char* binary = argc > 0 ? argv[0] : "bench";
    BenchEnv env;
    bool full = envFlag("TALUS_FULL");
    std::optional<uint64_t> scale_f, instr_f, mixes_f, accesses_f,
        seed_f, shards_f, threads_f, reconfig_f, monitor_sample_f;
    std::optional<std::string> trace_f, metrics_f;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf("%s", usage());
            std::exit(0);
        } else if (arg == "--csv") {
            env.csv = true;
        } else if (arg == "--full") {
            full = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_f = arg.substr(std::string("--trace=").size());
            if (trace_f->empty()) {
                std::fprintf(stderr,
                             "%s: flag --trace needs a file path\n\n%s",
                             binary, usage());
                std::exit(1);
            }
        } else if (arg.rfind("--metrics=", 0) == 0) {
            metrics_f = arg.substr(std::string("--metrics=").size());
            if (metrics_f->empty()) {
                std::fprintf(stderr,
                             "%s: flag --metrics needs a file path\n\n"
                             "%s",
                             binary, usage());
                std::exit(1);
            }
        } else if (matchValueFlag(binary, arg, "scale", &scale_f) ||
                   matchValueFlag(binary, arg, "instr", &instr_f) ||
                   matchValueFlag(binary, arg, "mixes", &mixes_f) ||
                   matchValueFlag(binary, arg, "accesses",
                                  &accesses_f) ||
                   matchValueFlag(binary, arg, "seed", &seed_f) ||
                   matchValueFlag(binary, arg, "shards", &shards_f) ||
                   matchValueFlag(binary, arg, "threads",
                                  &threads_f) ||
                   matchValueFlag(binary, arg, "reconfig",
                                  &reconfig_f) ||
                   matchValueFlag(binary, arg, "monitor-sample",
                                  &monitor_sample_f)) {
            // Parsed into its optional above.
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "%s: unrecognized flag '%s'\n\n%s",
                         binary, arg.c_str(), usage());
            std::exit(1);
        }
        // Non-flag positional arguments are the binary's business.
    }

    if (scale_f.has_value()) {
        if (*scale_f < 1) {
            std::fprintf(stderr, "%s: --scale must be >= 1\n\n%s",
                         binary, usage());
            std::exit(1);
        }
        env.scale = Scale(*scale_f);
    } else {
        env.scale = full ? Scale(Scale::kFullLinesPerMb)
                         : Scale::fromEnv();
    }
    env.instrPerApp = instr_f.value_or(static_cast<uint64_t>(
        envInt("TALUS_INSTR", full ? 50'000'000 : 4'000'000)));
    if (mixes_f.has_value() &&
        *mixes_f > std::numeric_limits<uint32_t>::max()) {
        std::fprintf(stderr, "%s: --mixes must fit 32 bits\n\n%s",
                     binary, usage());
        std::exit(1);
    }
    env.mixes = static_cast<uint32_t>(mixes_f.value_or(
        static_cast<uint64_t>(envInt("TALUS_MIXES", full ? 100 : 24))));
    env.measureAccesses = accesses_f.value_or(static_cast<uint64_t>(
        envInt("TALUS_ACCESSES", full ? 4'000'000 : 400'000)));
    env.seed = seed_f.value_or(
        static_cast<uint64_t>(envInt("TALUS_SEED", 20150207)));
    // Shard-layer and control-plane knobs are range-checked — from
    // the flag OR the env var — here, so they fail as usage errors,
    // not as cache ConfigErrors (or integer wraparounds) later.
    // Flags win; a negative env value must not wrap to a huge count.
    const auto rangedKnob = [&](const std::optional<uint64_t>& flag,
                                const char* env_name, uint64_t max,
                                const char* range_msg) -> uint64_t {
        uint64_t value;
        if (flag.has_value()) {
            value = *flag;
        } else {
            const int64_t raw = envInt(env_name, 0);
            if (raw < 0) {
                std::fprintf(stderr, "%s: %s must be >= 0\n\n%s",
                             binary, env_name, usage());
                std::exit(1);
            }
            value = static_cast<uint64_t>(raw);
        }
        if (value > max) {
            std::fprintf(stderr, "%s: %s\n\n%s", binary, range_msg,
                         usage());
            std::exit(1);
        }
        return value;
    };
    // The shard knobs share the 32-bit ranges of their consumers
    // (ShardedTalusCache::Config).
    env.shards = static_cast<uint32_t>(
        rangedKnob(shards_f, "TALUS_SHARDS",
                   ShardedTalusCache::kMaxShards,
                   "--shards/TALUS_SHARDS must be <= 1024"));
    env.threads = static_cast<uint32_t>(
        rangedKnob(threads_f, "TALUS_THREADS",
                   ShardedTalusCache::kMaxShards,
                   "--threads/TALUS_THREADS must be <= 1024"));
    // The control-plane frequency knob is a full-width access count
    // with no upper bound.
    env.reconfig =
        rangedKnob(reconfig_f, "TALUS_RECONFIG",
                   std::numeric_limits<uint64_t>::max(), "unreachable");
    // The sampling period is validated like the shard knobs, but its
    // floor is 1, not 0: period 0 is meaningless (Config::validate
    // would also reject it, but catching it here makes it a usage
    // error with the flag name, not a ConfigError mid-construction).
    {
        uint64_t value;
        if (monitor_sample_f.has_value()) {
            value = *monitor_sample_f;
        } else {
            const int64_t raw = envInt("TALUS_MONITOR_SAMPLE", 1);
            if (raw < 1) {
                std::fprintf(stderr,
                             "%s: TALUS_MONITOR_SAMPLE must be >= 1\n"
                             "\n%s",
                             binary, usage());
                std::exit(1);
            }
            value = static_cast<uint64_t>(raw);
        }
        if (value < 1 ||
            value > std::numeric_limits<uint32_t>::max()) {
            std::fprintf(stderr,
                         "%s: --monitor-sample/TALUS_MONITOR_SAMPLE "
                         "must be in [1, 2^32-1]\n\n%s",
                         binary, usage());
            std::exit(1);
        }
        env.monitorSample = static_cast<uint32_t>(value);
        // Record explicitness so serving binaries (default period 8
        // via monitorSampleOr()) can still honor an explicit
        // --monitor-sample=1 opt-out back to exact curves.
        env.monitorSampleSet =
            monitor_sample_f.has_value() ||
            std::getenv("TALUS_MONITOR_SAMPLE") != nullptr;
    }
    // The trace knob is validated like the shard knobs — from the
    // flag OR the env var — so a missing or corrupt trace file is a
    // usage error here, not a mid-run fatal after minutes of warmup.
    {
        const char* env_trace = std::getenv("TALUS_TRACE");
        env.tracePath = trace_f.has_value()
                            ? *trace_f
                            : (env_trace != nullptr ? env_trace : "");
        if (!env.tracePath.empty()) {
            const std::string error = validateTraceFile(env.tracePath);
            if (!error.empty()) {
                std::fprintf(stderr, "%s: --trace/TALUS_TRACE: %s\n\n%s",
                             binary, error.c_str(), usage());
                std::exit(1);
            }
        }
    }
    // The metrics knob is validated eagerly too: an unwritable dump
    // path fails as a usage error before the run, not after the
    // measurement has been paid for. A successful check also installs
    // the process-exit dump hook (once), so every binary that calls
    // init() exports its global-registry snapshot with no further
    // wiring.
    {
        const char* env_metrics = std::getenv("TALUS_METRICS");
        env.metricsPath =
            metrics_f.has_value()
                ? *metrics_f
                : (env_metrics != nullptr ? env_metrics : "");
        if (!env.metricsPath.empty()) {
            std::FILE* f = std::fopen(env.metricsPath.c_str(), "ab");
            if (f == nullptr) {
                std::fprintf(stderr,
                             "%s: --metrics/TALUS_METRICS: cannot open "
                             "'%s' for writing: %s\n\n%s",
                             binary, env.metricsPath.c_str(),
                             std::strerror(errno), usage());
                std::exit(1);
            }
            std::fclose(f);
            const bool first = metricsDumpPath().empty();
            metricsDumpPath() = env.metricsPath;
            if (first) {
                // Exit-time teardown runs in reverse registration
                // order, so the registry singleton must be
                // constructed (registering its destructor) BEFORE
                // the dump handler: destroyed after the dump reads
                // it, not before.
                (void)globalMetricRegistry();
                std::atexit(dumpMetricsAtExit);
            }
        }
    }
    return env;
}

std::vector<uint64_t>
sizeGridLines(const Scale& scale, double max_mb, double step_mb)
{
    talus_assert(max_mb > 0 && step_mb > 0, "bad size grid");
    std::vector<uint64_t> sizes;
    for (double mb = step_mb; mb <= max_mb * (1 + 1e-9); mb += step_mb)
        sizes.push_back(scale.lines(mb));
    // Guard against rounding-induced duplicates at coarse scales.
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    return sizes;
}

MissCurve
toMpki(const MissCurve& ratio_curve, double apki)
{
    talus_assert(apki > 0, "APKI must be > 0");
    return ratio_curve.scaled(1.0, apki);
}

std::vector<std::vector<std::string>>
sampleMixes(uint32_t num_mixes, uint32_t apps_per_mix, uint64_t seed)
{
    const std::vector<std::string> pool = memIntensiveAppNames();
    talus_assert(apps_per_mix >= 1, "mixes need at least one app");

    Rng rng(seed);
    std::vector<std::vector<std::string>> mixes;
    mixes.reserve(num_mixes);
    for (uint32_t m = 0; m < num_mixes; ++m) {
        // Sample without replacement when possible (Fisher-Yates
        // prefix); fall back to replacement if the mix is larger than
        // the pool.
        std::vector<std::string> mix;
        if (apps_per_mix <= pool.size()) {
            std::vector<std::string> shuffled = pool;
            for (size_t i = 0; i < apps_per_mix; ++i) {
                const size_t j =
                    i + rng.below(shuffled.size() - i);
                std::swap(shuffled[i], shuffled[j]);
                mix.push_back(shuffled[i]);
            }
        } else {
            for (uint32_t i = 0; i < apps_per_mix; ++i)
                mix.push_back(pool[rng.below(pool.size())]);
        }
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

} // namespace talus
