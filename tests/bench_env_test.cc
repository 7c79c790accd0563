/**
 * @file
 * Tests for the shared bench command line (BenchEnv::init): value
 * flags override environment defaults, --help exits cleanly, and
 * unrecognized `--` flags are an error instead of being silently
 * ignored.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/experiment_util.h"
#include "sim/serving_harness.h"
#include "trace/trace_file.h"

namespace talus {
namespace {

/** Runs BenchEnv::init over a fake argv. */
BenchEnv
initWith(std::vector<const char*> args)
{
    args.insert(args.begin(), "bench_test");
    return BenchEnv::init(static_cast<int>(args.size()),
                          const_cast<char**>(args.data()));
}

TEST(BenchEnv, DefaultsWithoutFlags)
{
    const BenchEnv env = initWith({});
    EXPECT_FALSE(env.csv);
    EXPECT_GT(env.instrPerApp, 0u);
    EXPECT_GT(env.mixes, 0u);
    EXPECT_GT(env.measureAccesses, 0u);
}

TEST(BenchEnv, ValueFlagsOverrideDefaults)
{
    const BenchEnv env = initWith({"--csv", "--scale=128", "--instr=5000",
                                   "--mixes=3", "--accesses=777",
                                   "--seed=42", "--shards=8",
                                   "--threads=2", "--reconfig=25000"});
    EXPECT_TRUE(env.csv);
    EXPECT_EQ(env.scale.linesPerMb(), 128u);
    EXPECT_EQ(env.instrPerApp, 5000u);
    EXPECT_EQ(env.mixes, 3u);
    EXPECT_EQ(env.measureAccesses, 777u);
    EXPECT_EQ(env.seed, 42u);
    EXPECT_EQ(env.shards, 8u);
    EXPECT_EQ(env.threads, 2u);
    EXPECT_EQ(env.reconfig, 25000u);
}

TEST(BenchEnv, ShardKnobsDefaultToZero)
{
    // 0 means "bench default" (shards, reconfig) / inline execution
    // (threads).
    const BenchEnv env = initWith({});
    EXPECT_EQ(env.shards, 0u);
    EXPECT_EQ(env.threads, 0u);
    EXPECT_EQ(env.reconfig, 0u);
}

TEST(BenchEnv, FullSelectsPaperScaleUnlessOverridden)
{
    EXPECT_EQ(initWith({"--full"}).scale.linesPerMb(),
              Scale::kFullLinesPerMb);
    // An explicit --scale wins over --full.
    EXPECT_EQ(initWith({"--full", "--scale=256"}).scale.linesPerMb(),
              256u);
    // --full also lengthens the default run.
    EXPECT_GT(initWith({"--full"}).instrPerApp,
              initWith({}).instrPerApp);
}

TEST(BenchEnv, PositionalArgumentsAreLeftAlone)
{
    const BenchEnv env = initWith({"omnetpp", "8"});
    EXPECT_FALSE(env.csv);
}

TEST(BenchEnvDeathTest, HelpPrintsUsageAndExitsZero)
{
    EXPECT_EXIT(initWith({"--help"}), ::testing::ExitedWithCode(0),
                "");
    EXPECT_EXIT(initWith({"-h"}), ::testing::ExitedWithCode(0), "");
}

TEST(BenchEnvDeathTest, UnknownFlagFailsWithUsage)
{
    EXPECT_EXIT(initWith({"--not-a-flag"}),
                ::testing::ExitedWithCode(1), "unrecognized flag");
    EXPECT_EXIT(initWith({"--cvs"}), ::testing::ExitedWithCode(1),
                "unrecognized flag");
    EXPECT_EXIT(initWith({"--pipeline=0"}),
                ::testing::ExitedWithCode(1), "unrecognized flag");
}

TEST(BenchEnvDeathTest, MalformedValueFailsWithUsage)
{
    EXPECT_EXIT(initWith({"--seed=abc"}), ::testing::ExitedWithCode(1),
                "unsigned integer");
    EXPECT_EXIT(initWith({"--scale=0"}), ::testing::ExitedWithCode(1),
                "--scale must be >= 1");
    // strtoull would happily wrap negatives to 2^64-n; reject them.
    EXPECT_EXIT(initWith({"--seed=-1"}), ::testing::ExitedWithCode(1),
                "unsigned integer");
    EXPECT_EXIT(initWith({"--instr=99999999999999999999999"}),
                ::testing::ExitedWithCode(1), "unsigned integer");
    // --mixes is stored in 32 bits; an out-of-range value must not
    // silently truncate to 0 mixes.
    EXPECT_EXIT(initWith({"--mixes=4294967296"}),
                ::testing::ExitedWithCode(1), "32 bits");
    // The shard knobs keep the same failure behavior: malformed or
    // out-of-range values are usage errors, not silent truncations.
    EXPECT_EXIT(initWith({"--shards=abc"}), ::testing::ExitedWithCode(1),
                "unsigned integer");
    EXPECT_EXIT(initWith({"--shards=2000"}),
                ::testing::ExitedWithCode(1), "must be <= 1024");
    EXPECT_EXIT(initWith({"--threads=-2"}), ::testing::ExitedWithCode(1),
                "unsigned integer");
    EXPECT_EXIT(initWith({"--threads=2000"}),
                ::testing::ExitedWithCode(1), "must be <= 1024");
    // The control-plane frequency knob shares the validation pattern:
    // malformed or negative values are usage errors.
    EXPECT_EXIT(initWith({"--reconfig=abc"}),
                ::testing::ExitedWithCode(1), "unsigned integer");
    EXPECT_EXIT(initWith({"--reconfig=-5"}),
                ::testing::ExitedWithCode(1), "unsigned integer");
}

TEST(BenchEnvDeathTest, EnvVarShardKnobsAreRangeCheckedToo)
{
    // The TALUS_* env path must hit the same range checks as the
    // flags — a negative TALUS_SHARDS must not wrap to 4 billion
    // shards.
    ::setenv("TALUS_SHARDS", "-1", 1);
    EXPECT_EXIT(initWith({}), ::testing::ExitedWithCode(1),
                "TALUS_SHARDS must be >= 0");
    ::unsetenv("TALUS_SHARDS");

    ::setenv("TALUS_THREADS", "2000", 1);
    EXPECT_EXIT(initWith({}), ::testing::ExitedWithCode(1),
                "must be <= 1024");
    // Flags win over env vars, so an explicit --threads sidesteps
    // the out-of-range env value.
    EXPECT_EQ(initWith({"--threads=3"}).threads, 3u);
    ::unsetenv("TALUS_THREADS");

    // TALUS_RECONFIG follows the same rules: negatives are usage
    // errors, valid values land in env.reconfig, flags win.
    ::setenv("TALUS_RECONFIG", "-1", 1);
    EXPECT_EXIT(initWith({}), ::testing::ExitedWithCode(1),
                "TALUS_RECONFIG must be >= 0");
    ::setenv("TALUS_RECONFIG", "12345", 1);
    EXPECT_EQ(initWith({}).reconfig, 12345u);
    EXPECT_EQ(initWith({"--reconfig=99"}).reconfig, 99u);
    ::unsetenv("TALUS_RECONFIG");
}

TEST(BenchEnv, MonitorSampleDefaultsToOne)
{
    // 1 = monitor every access, the exact-curve default. The figure
    // binaries (fig08/09/12/13) consume env.monitorSample directly,
    // so this pins them at period 1 unless the user asks otherwise.
    EXPECT_EQ(initWith({}).monitorSample, 1u);
    EXPECT_FALSE(initWith({}).monitorSampleSet);
}

TEST(BenchEnv, MonitorSampleOrGivesServingBinariesTheirOwnDefault)
{
    // Serving binaries default to sampled monitoring (period 8, the
    // throughput-first setting) via monitorSampleOr(); an explicit
    // --monitor-sample — including =1, the exact-curve opt-out —
    // always wins. Figure binaries read env.monitorSample directly
    // and are untouched by the serving default.
    EXPECT_EQ(kServingMonitorSamplePeriod, 8u);
    const BenchEnv dflt = initWith({});
    EXPECT_EQ(dflt.monitorSampleOr(kServingMonitorSamplePeriod), 8u);
    EXPECT_EQ(dflt.monitorSample, 1u); // The figure-binary view.

    const BenchEnv opt_out = initWith({"--monitor-sample=1"});
    EXPECT_TRUE(opt_out.monitorSampleSet);
    EXPECT_EQ(opt_out.monitorSampleOr(kServingMonitorSamplePeriod),
              1u);

    EXPECT_EQ(initWith({"--monitor-sample=32"})
                  .monitorSampleOr(kServingMonitorSamplePeriod),
              32u);

    // The env-var spelling counts as explicit too.
    ::setenv("TALUS_MONITOR_SAMPLE", "1", 1);
    EXPECT_EQ(initWith({}).monitorSampleOr(kServingMonitorSamplePeriod),
              1u);
    ::unsetenv("TALUS_MONITOR_SAMPLE");
}

TEST(BenchEnv, MonitorSampleFlagAndEnvVar)
{
    EXPECT_EQ(initWith({"--monitor-sample=64"}).monitorSample, 64u);

    ::setenv("TALUS_MONITOR_SAMPLE", "16", 1);
    EXPECT_EQ(initWith({}).monitorSample, 16u);
    // Flags win over env vars, as for every other knob.
    EXPECT_EQ(initWith({"--monitor-sample=4"}).monitorSample, 4u);
    ::unsetenv("TALUS_MONITOR_SAMPLE");
}

TEST(BenchEnvDeathTest, MonitorSampleRejectsZeroAndGarbage)
{
    // Period 0 is meaningless: the floor is 1, not 0 as for the
    // shard knobs.
    EXPECT_EXIT(initWith({"--monitor-sample=0"}),
                ::testing::ExitedWithCode(1), "must be in \\[1,");
    EXPECT_EXIT(initWith({"--monitor-sample=abc"}),
                ::testing::ExitedWithCode(1), "unsigned integer");
    EXPECT_EXIT(initWith({"--monitor-sample=-3"}),
                ::testing::ExitedWithCode(1), "unsigned integer");
    // The period is stored in 32 bits; out-of-range must not
    // silently truncate.
    EXPECT_EXIT(initWith({"--monitor-sample=4294967296"}),
                ::testing::ExitedWithCode(1), "must be in \\[1,");

    // The env path hits the same checks: zero and negatives are
    // usage errors, not wraparounds.
    ::setenv("TALUS_MONITOR_SAMPLE", "0", 1);
    EXPECT_EXIT(initWith({}), ::testing::ExitedWithCode(1),
                "TALUS_MONITOR_SAMPLE must be >= 1");
    ::setenv("TALUS_MONITOR_SAMPLE", "-1", 1);
    EXPECT_EXIT(initWith({}), ::testing::ExitedWithCode(1),
                "TALUS_MONITOR_SAMPLE must be >= 1");
    ::unsetenv("TALUS_MONITOR_SAMPLE");
}

/** Writes a small valid binary trace and returns its path. */
std::string
writeValidTrace(const std::string& name)
{
    const std::string path = ::testing::TempDir() + name;
    TraceWriter writer(path);
    for (Addr a = 0; a < 16; ++a)
        writer.append(a * 64);
    writer.close();
    return path;
}

TEST(BenchEnv, TraceDefaultsToEmpty)
{
    EXPECT_TRUE(initWith({}).tracePath.empty());
}

TEST(BenchEnv, TraceFlagAcceptsValidFiles)
{
    // Binary format.
    const std::string bin = writeValidTrace("bench_env_ok.trace");
    EXPECT_EQ(initWith({("--trace=" + bin).c_str()}).tracePath, bin);

    // CSV format, via the same flag (sniffed by content).
    const std::string csv = ::testing::TempDir() + "bench_env_ok.csv";
    {
        CsvTraceWriter writer(csv);
        writer.append(1);
        writer.append(2);
        writer.close();
    }
    EXPECT_EQ(initWith({("--trace=" + csv).c_str()}).tracePath, csv);
}

TEST(BenchEnv, TraceEnvVarProvidesDefaultAndFlagWins)
{
    const std::string env_trace =
        writeValidTrace("bench_env_env.trace");
    const std::string flag_trace =
        writeValidTrace("bench_env_flag.trace");
    ::setenv("TALUS_TRACE", env_trace.c_str(), 1);
    EXPECT_EQ(initWith({}).tracePath, env_trace);
    EXPECT_EQ(initWith({("--trace=" + flag_trace).c_str()}).tracePath,
              flag_trace);
    ::unsetenv("TALUS_TRACE");
}

TEST(BenchEnvDeathTest, TraceFlagValidatesTheFile)
{
    // An empty value is a usage error, like --trace alone would be.
    EXPECT_EXIT(initWith({"--trace="}), ::testing::ExitedWithCode(1),
                "needs a file path");

    // A missing file fails at init, not minutes into a replay.
    EXPECT_EXIT(initWith({"--trace=/nonexistent/no.trace"}),
                ::testing::ExitedWithCode(1), "--trace/TALUS_TRACE");

    // A corrupt binary trace (truncated record region) is rejected
    // with the validator's message.
    const std::string path =
        ::testing::TempDir() + "bench_env_corrupt.trace";
    {
        TraceWriter writer(path);
        for (Addr a = 0; a < 8; ++a)
            writer.append(a);
        writer.close();
    }
    {
        std::FILE* f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        // Claim more records than the file holds.
        ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
        const unsigned char big[8] = {0xFF, 0xFF, 0, 0, 0, 0, 0, 0};
        ASSERT_EQ(std::fwrite(big, 1, 8, f), 8u);
        std::fclose(f);
    }
    EXPECT_EXIT(initWith({("--trace=" + path).c_str()}),
                ::testing::ExitedWithCode(1), "--trace/TALUS_TRACE");
}

TEST(BenchEnvDeathTest, TraceEnvVarIsValidatedToo)
{
    // The TALUS_TRACE path hits the same validation as the flag.
    ::setenv("TALUS_TRACE", "/nonexistent/no.trace", 1);
    EXPECT_EXIT(initWith({}), ::testing::ExitedWithCode(1),
                "--trace/TALUS_TRACE");
    // ...and a valid --trace flag sidesteps the broken env value.
    const std::string good = writeValidTrace("bench_env_good.trace");
    EXPECT_EQ(initWith({("--trace=" + good).c_str()}).tracePath, good);
    ::unsetenv("TALUS_TRACE");
}

TEST(BenchEnv, MetricsDefaultsToOff)
{
    const BenchEnv env = initWith({});
    EXPECT_TRUE(env.metricsPath.empty());
    EXPECT_FALSE(env.metricsWanted());
}

TEST(BenchEnv, MetricsFlagAndEnvVarWithFlagPrecedence)
{
    const std::string flag_path =
        ::testing::TempDir() + "bench_env_flag.prom";
    const std::string env_path =
        ::testing::TempDir() + "bench_env_env.prom";

    const BenchEnv from_flag =
        initWith({("--metrics=" + flag_path).c_str()});
    EXPECT_EQ(from_flag.metricsPath, flag_path);
    EXPECT_TRUE(from_flag.metricsWanted());

    ::setenv("TALUS_METRICS", env_path.c_str(), 1);
    EXPECT_EQ(initWith({}).metricsPath, env_path);
    // Flags win over env vars, as for every other knob.
    EXPECT_EQ(initWith({("--metrics=" + flag_path).c_str()}).metricsPath,
              flag_path);
    ::unsetenv("TALUS_METRICS");
}

TEST(BenchEnvDeathTest, MetricsFlagValidatesWritability)
{
    // An empty value is a usage error, like --trace.
    EXPECT_EXIT(initWith({"--metrics="}), ::testing::ExitedWithCode(1),
                "needs a file path");

    // An unwritable dump path fails at init, not after the run has
    // been paid for — and the message names both spellings.
    EXPECT_EXIT(initWith({"--metrics=/nonexistent-dir/out.prom"}),
                ::testing::ExitedWithCode(1),
                "--metrics/TALUS_METRICS");

    // The env path hits the same check.
    ::setenv("TALUS_METRICS", "/nonexistent-dir/out.prom", 1);
    EXPECT_EXIT(initWith({}), ::testing::ExitedWithCode(1),
                "--metrics/TALUS_METRICS");
    ::unsetenv("TALUS_METRICS");
}

} // namespace
} // namespace talus
