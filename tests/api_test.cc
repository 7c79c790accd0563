/**
 * @file
 * Tests for the TalusCache facade (src/api/): configuration
 * validation with actionable errors, the self-managed
 * monitor -> hull -> allocate -> configure loop (manual and
 * automatic), external configuration via applyCurves, and per
 * partition stats.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "api/talus.h"
#include "util/rng.h"
#include "workload/cyclic_scan.h"

namespace talus {
namespace {

/** A small always-valid baseline config the cases perturb. */
TalusCache::Config
baseConfig()
{
    TalusCache::Config cfg;
    cfg.llcLines = 1024;
    cfg.ways = 16;
    cfg.scheme = SchemeKind::Ideal;
    cfg.policyName = "LRU";
    cfg.numParts = 1;
    cfg.seed = 7;
    return cfg;
}

/** The ConfigError message for @p cfg; "" if construction succeeds. */
std::string
errorOf(const TalusCache::Config& cfg)
{
    try {
        TalusCache cache(cfg);
    } catch (const ConfigError& e) {
        return e.what();
    }
    return "";
}

// ------------------------------------------------------- validation

TEST(TalusCacheConfig, DefaultAndBaseConfigsAreValid)
{
    EXPECT_EQ(TalusCache::Config{}.validate(), "");
    EXPECT_EQ(baseConfig().validate(), "");
}

TEST(TalusCacheConfig, ValidateNamesTheBadFieldActionably)
{
    TalusCache::Config cfg = baseConfig();
    cfg.llcLines = 0;
    EXPECT_NE(cfg.validate().find("llcLines"), std::string::npos);

    cfg = baseConfig();
    cfg.ways = 0;
    EXPECT_NE(cfg.validate().find("ways"), std::string::npos);

    cfg = baseConfig();
    cfg.ways = 4096; // > llcLines.
    EXPECT_NE(cfg.validate().find("exceeds llcLines"),
              std::string::npos);

    cfg = baseConfig();
    cfg.numParts = 0;
    EXPECT_NE(cfg.validate().find("numParts"), std::string::npos);

    cfg = baseConfig();
    cfg.margin = std::nan("");
    EXPECT_NE(cfg.validate().find("margin"), std::string::npos);

    cfg = baseConfig();
    cfg.margin = 1.5;
    EXPECT_NE(cfg.validate().find("margin"), std::string::npos);

    cfg = baseConfig();
    cfg.routerBits = 0;
    EXPECT_NE(cfg.validate().find("routerBits"), std::string::npos);

    cfg = baseConfig();
    cfg.umonCoverage = 0;
    EXPECT_NE(cfg.validate().find("umonCoverage"), std::string::npos);
}

TEST(TalusCacheConfig, UnknownNamesListTheKnownOnes)
{
    TalusCache::Config cfg = baseConfig();
    cfg.policyName = "NotAPolicy";
    std::string err = cfg.validate();
    EXPECT_NE(err.find("NotAPolicy"), std::string::npos);
    EXPECT_NE(err.find("LRU"), std::string::npos); // Lists known names.

    cfg = baseConfig();
    cfg.allocatorName = "NotAnAllocator";
    err = cfg.validate();
    EXPECT_NE(err.find("NotAnAllocator"), std::string::npos);
    EXPECT_NE(err.find("HillClimb"), std::string::npos);
}

TEST(TalusCacheConfig, CrossFieldRulesAreChecked)
{
    // Ideal partitioning models exact LRU stacks only.
    TalusCache::Config cfg = baseConfig();
    cfg.policyName = "SRRIP";
    EXPECT_NE(cfg.validate().find("Ideal"), std::string::npos);

    // Talus over an unpartitioned cache has no shadow partitions.
    cfg = baseConfig();
    cfg.scheme = SchemeKind::Unpartitioned;
    EXPECT_NE(cfg.validate().find("talus=false"), std::string::npos);

    // An allocator has nothing to apply to an unpartitioned cache.
    cfg = baseConfig();
    cfg.talus = false;
    cfg.scheme = SchemeKind::Unpartitioned;
    cfg.allocatorName = "HillClimb";
    EXPECT_NE(cfg.validate().find("unpartitioned"), std::string::npos);

    // Automatic reconfiguration needs an allocator to run.
    cfg = baseConfig();
    cfg.allocatorName = "";
    cfg.reconfigInterval = 1000;
    EXPECT_NE(cfg.validate().find("allocator"), std::string::npos);

    // The reconfiguration loop reads the built-in monitors.
    cfg = baseConfig();
    cfg.monitoring = false;
    cfg.allocatorName = "HillClimb";
    EXPECT_NE(cfg.validate().find("monitoring"), std::string::npos);

    // Way partitioning: 2*numParts shadow partitions need that many
    // ways; caught at validation, not by a scheme assert.
    cfg = baseConfig();
    cfg.scheme = SchemeKind::Way;
    cfg.ways = 8;
    cfg.numParts = 8; // 16 physical partitions > 8 ways.
    EXPECT_NE(cfg.validate().find("ways"), std::string::npos);

    // Set partitioning: physical partitions need that many sets.
    cfg = baseConfig();
    cfg.scheme = SchemeKind::Set;
    cfg.llcLines = 64;
    cfg.ways = 32; // 2 sets, but 2*numParts = 4 physical partitions.
    cfg.numParts = 2;
    EXPECT_NE(cfg.validate().find("sets"), std::string::npos);
}

TEST(TalusCacheConfig, SetAssociativeGeometryLimitsAreChecked)
{
    // Beyond 256 ways the set-associative array cannot be built; the
    // constructor validates before it allocates anything.
    for (const bool talus : {true, false}) {
        TalusCache::Config cfg = baseConfig();
        cfg.scheme = SchemeKind::Vantage;
        cfg.talus = talus;
        cfg.llcLines = 8192;
        cfg.ways = 512;
        std::string err = cfg.validate();
        EXPECT_NE(err.find("ways"), std::string::npos) << err;
        EXPECT_NE(err.find("256"), std::string::npos) << err;
        EXPECT_NE(errorOf(cfg).find("ways"), std::string::npos);
        cfg.scheme = SchemeKind::Ideal; // No sets: any associativity.
        EXPECT_EQ(cfg.validate(), "");
    }

    // Vantage's exact victim order holds below 2^26 lines, counted
    // after rounding down to whole sets. Validation only: never build
    // a cache this large in a test.
    TalusCache::Config cfg = baseConfig();
    cfg.scheme = SchemeKind::Vantage;
    cfg.llcLines = (uint64_t{1} << 26) + 15; // Rounds to 2^26.
    std::string err = cfg.validate();
    EXPECT_NE(err.find("llcLines"), std::string::npos) << err;
    EXPECT_NE(err.find("67108863"), std::string::npos) << err;
    cfg.llcLines = (uint64_t{1} << 26) + 15 - 16; // 2^26 - 16 lines.
    EXPECT_EQ(cfg.validate(), "");

    // Set-associative schemes address a 32-bit line space; a larger
    // geometry would be narrowed to the wrong size.
    for (const SchemeKind scheme : {SchemeKind::Way, SchemeKind::Set,
                                    SchemeKind::Futility}) {
        cfg = baseConfig();
        cfg.scheme = scheme;
        cfg.llcLines = uint64_t{1} << 32;
        err = cfg.validate();
        EXPECT_NE(err.find("llcLines"), std::string::npos) << err;
        EXPECT_NE(err.find("4294967295"), std::string::npos) << err;
        cfg.llcLines = (uint64_t{1} << 32) - 1; // Rounds below 2^32.
        EXPECT_EQ(cfg.validate(), "");
    }
    cfg.scheme = SchemeKind::Ideal;
    cfg.llcLines = uint64_t{1} << 32;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(TalusCacheDeathTest, CurvesFatalWhenMonitoringDisabled)
{
    TalusCache::Config cfg = baseConfig();
    cfg.monitoring = false;
    cfg.allocatorName = "";
    TalusCache cache(cfg);
    EXPECT_DEATH((void)cache.curves(), "monitoring");
}

TEST(TalusCacheConfig, ConstructorThrowsConfigErrorWithTheMessage)
{
    TalusCache::Config cfg = baseConfig();
    cfg.ways = 0;
    EXPECT_THROW(TalusCache cache(cfg), ConfigError);
    const std::string err = errorOf(cfg);
    EXPECT_NE(err.find("TalusCache::Config"), std::string::npos);
    EXPECT_NE(err.find("ways"), std::string::npos);
    // ConfigError is an invalid_argument, catchable generically.
    EXPECT_THROW(TalusCache cache(cfg), std::invalid_argument);
}

// ------------------------------------------------- basic operation

TEST(TalusCache, AccessesHitAfterWarmupOnSmallWorkingSet)
{
    TalusCache::Config cfg = baseConfig();
    cfg.allocatorName = "";
    TalusCache cache(cfg);
    // 256 distinct lines in a 1024-line cache: everything fits.
    for (int round = 0; round < 4; ++round)
        for (Addr a = 0; a < 256; ++a)
            cache.access(a, 0);
    cache.resetStats();
    for (Addr a = 0; a < 256; ++a)
        EXPECT_TRUE(cache.access(a, 0));
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.0);
    EXPECT_EQ(cache.stats(0).accesses, 256u);
    EXPECT_EQ(cache.stats(0).misses, 0u);
}

TEST(TalusCache, ApplyCurvesConfiguresShadowPartitions)
{
    TalusCache::Config cfg = baseConfig();
    cfg.llcLines = 512;
    cfg.allocatorName = "";
    cfg.margin = 0.0;
    cfg.routerBits = 16;
    TalusCache cache(cfg);

    // Cliff at 400 lines; at 300 Talus splits alpha=0 / beta=400.
    const MissCurve cliff({{0, 1.0}, {100, 0.9}, {200, 0.9},
                           {300, 0.9}, {400, 0.1}, {512, 0.1}});
    cache.applyCurves({cliff}, {300});

    const TalusCache::PartStats s = cache.stats(0);
    ASSERT_FALSE(s.shadow.degenerate);
    EXPECT_DOUBLE_EQ(s.shadow.alpha, 0.0);
    EXPECT_DOUBLE_EQ(s.shadow.beta, 400.0);
    EXPECT_NEAR(s.shadow.rho, 0.25, 1e-9);
    EXPECT_NEAR(s.rho, 0.25, 1e-3);
    EXPECT_EQ(s.targetLines, 300u);
}

TEST(TalusCacheDeathTest, ApplyCurvesRejectsWrongCounts)
{
    TalusCache::Config cfg = baseConfig();
    cfg.allocatorName = "";
    TalusCache cache(cfg);
    const MissCurve flat({{0.0, 1.0}});
    EXPECT_DEATH(cache.applyCurves({flat, flat}, {512}), "expected 1");
}

TEST(TalusCacheDeathTest, ReconfigureWithoutAllocatorIsFatal)
{
    TalusCache::Config cfg = baseConfig();
    cfg.allocatorName = "";
    TalusCache cache(cfg);
    EXPECT_DEATH(cache.reconfigure(), "allocator");
}

// ------------------------------------- the self-managed Talus loop

TEST(TalusCache, ManualReconfigureRunsTheLoop)
{
    TalusCache::Config cfg = baseConfig();
    cfg.allocatorName = "HillClimb";
    TalusCache cache(cfg);
    CyclicScan scan(2048);
    for (int i = 0; i < 50000; ++i)
        cache.access(scan.next(), 0);
    EXPECT_EQ(cache.reconfigurations(), 0u);
    cache.reconfigure();
    EXPECT_EQ(cache.reconfigurations(), 1u);
    // The monitored curve is live and non-trivial after the interval.
    const MissCurve curve = cache.curve(0);
    EXPECT_GT(curve.numPoints(), 2u);
    EXPECT_GT(curve.at(0.0), curve.at(curve.maxSize()) - 1e-12);
}

TEST(TalusCache, AutoReconfigureFiresEveryInterval)
{
    TalusCache::Config cfg = baseConfig();
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 10'000;
    TalusCache cache(cfg);
    Rng rng(11);
    for (int i = 0; i < 35'000; ++i)
        cache.access(rng.below(4096), 0);
    EXPECT_EQ(cache.reconfigurations(), 3u);
}

TEST(TalusCache, SelfManagedLoopRemovesTheScanCliff)
{
    // The paper's headline property, end to end through the facade:
    // a cyclic scan over W lines on a W/2-line LLC misses ~always
    // under plain LRU; Talus with its own monitors and allocator must
    // land near the convex hull (~0.5 miss ratio + margins/noise).
    const uint64_t w = 2048;
    TalusCache::Config cfg = baseConfig();
    cfg.llcLines = w / 2;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 8192;
    cfg.umonCoverage = 4; // Monitors see past the cliff at W.
    TalusCache cache(cfg);

    CyclicScan scan(w);
    for (uint64_t i = 0; i < w * 40; ++i)
        cache.access(scan.next(), 0);
    EXPECT_GT(cache.reconfigurations(), 4u);

    cache.resetStats();
    for (uint64_t i = 0; i < w * 40; ++i)
        cache.access(scan.next(), 0);
    const double talus_ratio = cache.stats(0).missRatio();

    // Plain LRU baseline on the same scan.
    TalusCache::Config plain_cfg = baseConfig();
    plain_cfg.llcLines = w / 2;
    plain_cfg.talus = false;
    plain_cfg.scheme = SchemeKind::Unpartitioned;
    plain_cfg.allocatorName = "";
    TalusCache plain(plain_cfg);
    CyclicScan plain_scan(w);
    for (uint64_t i = 0; i < w * 10; ++i)
        plain.access(plain_scan.next(), 0);
    plain.resetStats();
    for (uint64_t i = 0; i < w * 20; ++i)
        plain.access(plain_scan.next(), 0);

    EXPECT_GT(plain.missRatio(), 0.95); // LRU thrashes the scan.
    EXPECT_LT(talus_ratio, 0.75);       // Talus traces the hull.
    EXPECT_FALSE(cache.stats(0).shadow.degenerate);
}

// ----------------------------------------------- stats and curves

TEST(TalusCache, PerPartitionStatsAreIsolated)
{
    TalusCache::Config cfg = baseConfig();
    cfg.numParts = 2;
    cfg.allocatorName = "";
    TalusCache cache(cfg);

    for (Addr a = 0; a < 3000; ++a)
        cache.access(a % 700, 0);
    for (Addr a = 0; a < 1000; ++a)
        cache.access((1ull << 30) + (a % 100), 1);

    EXPECT_EQ(cache.stats(0).accesses, 3000u);
    EXPECT_EQ(cache.stats(1).accesses, 1000u);
    EXPECT_GT(cache.stats(0).misses, 0u);
    const double ratio0 = cache.stats(0).missRatio();
    EXPECT_GE(ratio0, 0.0);
    EXPECT_LE(ratio0, 1.0);

    const auto curves = cache.curves();
    ASSERT_EQ(curves.size(), 2u);
    for (const MissCurve& c : curves)
        EXPECT_GT(c.numPoints(), 0u);
}

TEST(TalusCache, TargetsNeverExceedCapacityAcrossReconfigs)
{
    TalusCache::Config cfg = baseConfig();
    cfg.numParts = 2;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 5000;
    TalusCache cache(cfg);

    Rng rng(5);
    for (int i = 0; i < 60'000; ++i) {
        cache.access(rng.below(900), 0);
        cache.access((1ull << 30) + rng.below(3000), 1);
    }
    EXPECT_GT(cache.reconfigurations(), 10u);
    const uint64_t total =
        cache.stats(0).targetLines + cache.stats(1).targetLines;
    EXPECT_LE(total, cache.capacityLines());
}

TEST(TalusCache, DeterministicForSameConfig)
{
    auto run = [] {
        TalusCache::Config cfg = baseConfig();
        cfg.allocatorName = "HillClimb";
        cfg.reconfigInterval = 4000;
        TalusCache cache(cfg);
        CyclicScan scan(1500);
        for (int i = 0; i < 30'000; ++i)
            cache.access(scan.next(), 0);
        return cache.stats(0);
    };
    const TalusCache::PartStats a = run();
    const TalusCache::PartStats b = run();
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.targetLines, b.targetLines);
    EXPECT_DOUBLE_EQ(a.rho, b.rho);
}

TEST(TalusCache, NonTalusModeAllocatesPlainPartitions)
{
    TalusCache::Config cfg = baseConfig();
    cfg.scheme = SchemeKind::Vantage;
    cfg.policyName = "LRU";
    cfg.talus = false;
    cfg.numParts = 2;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 5000;
    TalusCache cache(cfg);
    EXPECT_EQ(cache.controller(), nullptr);

    Rng rng(9);
    for (int i = 0; i < 40'000; ++i) {
        cache.access(rng.below(600), 0);
        cache.access((1ull << 30) + rng.below(600), 1);
    }
    EXPECT_GT(cache.reconfigurations(), 5u);
    EXPECT_EQ(cache.stats(0).accesses, 40'000u);
    EXPECT_GT(cache.stats(0).targetLines + cache.stats(1).targetLines,
              0u);
}

} // namespace
} // namespace talus
