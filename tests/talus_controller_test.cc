/**
 * @file
 * Integration tests for TalusController: shadow routing, configure()
 * post-processing, way-partitioning coarsening, and the headline
 * end-to-end property — Talus on idealized partitioning lands on the
 * convex hull in the middle of a cliff (Lemma 5 made real).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/talus_controller.h"
#include "monitor/mattson_curve.h"
#include "tests/test_util.h"
#include "workload/cyclic_scan.h"

namespace talus {
namespace {

std::unique_ptr<TalusController>
makeIdealTalus(uint64_t capacity, uint32_t logical_parts,
               double margin = 0.05)
{
    auto phys = makePartitionedCache(SchemeKind::Ideal, capacity, 16, "LRU",
                                     2 * logical_parts, 11);
    TalusController::Config cfg;
    cfg.numLogicalParts = logical_parts;
    cfg.margin = margin;
    cfg.routerBits = 16; // Fine quantization for exact math checks.
    TalusController::Config c = cfg;
    return std::make_unique<TalusController>(std::move(phys), c);
}

/** Exact LRU miss-ratio curve of a scan over `w` lines. */
MissCurve
scanCurve(uint64_t w, uint64_t max_lines)
{
    MattsonCurve mattson(max_lines);
    CyclicScan scan(w);
    for (uint64_t i = 0; i < w * 60; ++i)
        mattson.access(scan.next());
    return mattson.curve(std::max<uint64_t>(1, w / 32));
}

TEST(TalusController, RequiresDoubledPartitions)
{
    auto phys = makePartitionedCache(SchemeKind::Ideal, 128, 8, "LRU", 2, 1);
    TalusController::Config cfg;
    cfg.numLogicalParts = 1;
    TalusController ctl(std::move(phys), cfg); // 2 phys / 1 logical: OK.
    EXPECT_EQ(ctl.numLogicalParts(), 1u);
}

TEST(TalusController, DegenerateConfigOnHullVertex)
{
    auto ctl = makeIdealTalus(512, 1);
    // Allocation exactly on a hull vertex: no split needed.
    const MissCurve convex({{0, 1.0}, {256, 0.5}, {512, 0.25}});
    ctl->configure({convex}, {256});
    EXPECT_TRUE(ctl->configOf(0).degenerate);
    EXPECT_DOUBLE_EQ(ctl->routedRho(0), 1.0);
    // All capacity in the alpha shadow partition.
    EXPECT_EQ(ctl->cache().targetOf(0), 256u);
    EXPECT_EQ(ctl->cache().targetOf(1), 0u);
}

TEST(TalusController, ConvexCurveSplitStillMatchesCurve)
{
    // Between vertices of an already-convex curve Talus still splits,
    // but the interpolation equals the curve itself — no change in
    // promised performance (hull == curve).
    auto ctl = makeIdealTalus(512, 1);
    const MissCurve convex({{0, 1.0}, {256, 0.5}, {512, 0.25}});
    ctl->configure({convex}, {300});
    const TalusConfig& cfg = ctl->configOf(0);
    EXPECT_FALSE(cfg.degenerate);
    EXPECT_NEAR(cfg.predictedMisses(convex), convex.at(300), 1e-9);
}

TEST(TalusController, SplitsAcrossCliff)
{
    auto ctl = makeIdealTalus(512, 1, 0.0);
    // Cliff at 400 lines.
    const MissCurve cliff(
        {{0, 1.0}, {100, 0.9}, {200, 0.9}, {300, 0.9}, {400, 0.1},
         {512, 0.1}});
    ctl->configure({cliff}, {300});
    const TalusConfig& cfg = ctl->configOf(0);
    EXPECT_FALSE(cfg.degenerate);
    EXPECT_DOUBLE_EQ(cfg.alpha, 0.0);
    EXPECT_DOUBLE_EQ(cfg.beta, 400.0);
    // rho = (400-300)/400 = 0.25; s1 = 0, s2 = 300.
    EXPECT_NEAR(cfg.rho, 0.25, 1e-9);
    EXPECT_EQ(ctl->cache().targetOf(0), 0u);
    EXPECT_EQ(ctl->cache().targetOf(1), 300u);
}

TEST(TalusController, EndToEndScanLandsOnHull)
{
    // The flagship check: a cyclic scan of W=1024 lines under LRU has
    // a hard cliff at W. At s = W/2 plain LRU gets ~0 hits; Talus
    // must land near the hull: miss ratio ~ 1 - s/W (+ margin).
    const uint64_t w = 1024;
    const MissCurve curve = scanCurve(w, 2048);

    auto ctl = makeIdealTalus(/*capacity=*/512, 1, 0.05);
    ctl->configure({curve}, {512});

    CyclicScan scan(w);
    // Warmup.
    for (uint64_t i = 0; i < w * 20; ++i)
        ctl->access(scan.next(), 0);
    ctl->cache().stats().reset();
    // Measure.
    for (uint64_t i = 0; i < w * 40; ++i)
        ctl->access(scan.next(), 0);

    const double measured =
        static_cast<double>(ctl->logicalMisses(0)) /
        static_cast<double>(ctl->logicalAccesses(0));
    const double promised = ConvexHull(curve).at(512);
    // Within a few points of the hull (margin costs a little).
    EXPECT_NEAR(measured, promised, 0.08);
    // And dramatically better than plain LRU (miss ratio ~1).
    EXPECT_LT(measured, 0.65);
}

TEST(TalusController, EndToEndInterpolationAcrossSizes)
{
    // Sweep several sizes along the cliff; measured miss ratios must
    // decrease roughly linearly (the hull is the diagonal).
    const uint64_t w = 512;
    const MissCurve curve = scanCurve(w, 1024);

    double prev = 1.1;
    for (uint64_t s : {128u, 256u, 384u}) {
        auto ctl = makeIdealTalus(s, 1, 0.05);
        ctl->configure({curve}, {s});
        CyclicScan scan(w);
        for (uint64_t i = 0; i < w * 15; ++i)
            ctl->access(scan.next(), 0);
        ctl->cache().stats().reset();
        for (uint64_t i = 0; i < w * 30; ++i)
            ctl->access(scan.next(), 0);
        const double measured =
            static_cast<double>(ctl->logicalMisses(0)) /
            static_cast<double>(ctl->logicalAccesses(0));
        const double promised = ConvexHull(curve).at(
            static_cast<double>(s));
        EXPECT_NEAR(measured, promised, 0.1) << "s=" << s;
        EXPECT_LT(measured, prev);
        prev = measured;
    }
}

TEST(TalusController, TwoLogicalPartitionsIsolated)
{
    auto ctl = makeIdealTalus(1024, 2);
    const MissCurve convex({{0, 1.0}, {512, 0.3}, {1024, 0.1}});
    ctl->configure({convex, convex}, {512, 512});

    Rng rng(3);
    for (int i = 0; i < 50000; ++i) {
        ctl->access(rng.below(600), 0);
        ctl->access((1ull << 30) + rng.below(600), 1);
    }
    EXPECT_GT(ctl->logicalAccesses(0), 0u);
    EXPECT_GT(ctl->logicalAccesses(1), 0u);
    // Both partitions behave the same (same curve, same allocation).
    const double mr0 = static_cast<double>(ctl->logicalMisses(0)) /
                       static_cast<double>(ctl->logicalAccesses(0));
    const double mr1 = static_cast<double>(ctl->logicalMisses(1)) /
                       static_cast<double>(ctl->logicalAccesses(1));
    EXPECT_NEAR(mr0, mr1, 0.05);
}

TEST(TalusController, WayCoarseningRecomputesRho)
{
    // Way partitioning rounds shadow sizes to whole ways; the routed
    // rho must be recomputed as s1_coarse / alpha (Sec. VI-B).
    auto phys = makePartitionedCache(SchemeKind::Way, 1024, 16, "LRU", 2,
                                     13);
    TalusController::Config cfg;
    cfg.numLogicalParts = 1;
    cfg.margin = 0.0;
    cfg.recomputeFromCoarsened = true;
    TalusController ctl(std::move(phys), cfg);

    // A convex knee at 128 lines followed by a cliff at 768 so that
    // alpha > 0 (with alpha = 0 the recompute is undefined and Talus
    // keeps the analytic rho).
    const MissCurve cliff({{0, 1.0}, {128, 0.5}, {256, 0.45},
                           {512, 0.44}, {768, 0.1}, {1024, 0.09}});
    ctl.configure({cliff}, {600});
    const TalusConfig& tc = ctl.configOf(0);
    ASSERT_FALSE(tc.degenerate);
    EXPECT_DOUBLE_EQ(tc.alpha, 128.0);
    EXPECT_DOUBLE_EQ(tc.beta, 768.0);
    // Coarsened s1 is a multiple of 64 lines (1024/16 ways).
    EXPECT_EQ(ctl.cache().targetOf(0) % 64, 0u);
    EXPECT_GT(ctl.cache().targetOf(0), 0u);
    // rho recomputed from the achieved way-granular size (margin 0).
    EXPECT_NEAR(tc.rho,
                static_cast<double>(ctl.cache().targetOf(0)) / tc.alpha,
                1e-9);
}

TEST(TalusController, LogicalStatsSumShadows)
{
    auto ctl = makeIdealTalus(256, 1);
    const MissCurve cliff({{0, 1.0}, {128, 0.9}, {200, 0.1}, {256, 0.1}});
    ctl->configure({cliff}, {160});
    for (Addr a = 0; a < 5000; ++a)
        ctl->access(a % 300, 0);
    const CacheStats& stats = ctl->cache().stats();
    EXPECT_EQ(ctl->logicalAccesses(0),
              stats.accesses(0) + stats.accesses(1));
    EXPECT_EQ(ctl->logicalAccesses(0), 5000u);
}

TEST(TalusController, OneToOneLayoutIsThePlainPartitionedCache)
{
    // N physical partitions for N logical ones: each logical partition
    // is its physical partition, configure() sets the allocation as
    // the targets, and the routers stay at rho = 1.
    auto phys =
        makePartitionedCache(SchemeKind::Vantage, 1024, 16, "LRU", 2, 5);
    TalusController::Config cfg;
    cfg.numLogicalParts = 2;
    cfg.usableFraction = 0.9; // Shadow sizing only; unused here.
    TalusController ctl(std::move(phys), cfg);
    const MissCurve cliff({{0, 1.0}, {128, 0.9}, {200, 0.1}, {1024, 0.1}});
    ctl.configure({cliff, cliff}, {600, 300});
    EXPECT_EQ(ctl.cache().targetOf(0), 600u);
    EXPECT_EQ(ctl.cache().targetOf(1), 300u);

    std::vector<Addr> block(257);
    for (uint64_t i = 0; i < 20'000; ++i)
        ctl.access(i * 7 % 1500, static_cast<PartId>(i % 2));
    for (uint64_t r = 0; r < 20; ++r) {
        for (uint64_t i = 0; i < block.size(); ++i)
            block[i] = (r * block.size() + i) % 900 + (Addr{1} << 30);
        ctl.accessBlock(block.data(), block.size(),
                        static_cast<PartId>(r % 2));
    }
    const PartitionedCacheBase& c = ctl.cache();
    EXPECT_EQ(c.stats().accesses(0) + c.stats().accesses(1),
              20'000u + 20u * block.size());
    for (PartId p = 0; p < 2; ++p) {
        EXPECT_TRUE(ctl.router(p).alwaysAlpha());
        EXPECT_DOUBLE_EQ(ctl.routedRho(p), 1.0);
        EXPECT_EQ(ctl.logicalAccesses(p), c.stats().accesses(p));
        EXPECT_EQ(ctl.logicalMisses(p), c.stats().misses(p));
        EXPECT_GT(ctl.logicalOccupancy(p), 0u);
        EXPECT_EQ(ctl.logicalOccupancy(p), c.occupancy(p));
        EXPECT_EQ(ctl.logicalTarget(p), c.targetOf(p));
    }
}

TEST(TalusController, RoutedBlockMatchesPerAddressAccess)
{
    // A convex knee at 256 lines and a hull vertex at 1024: with
    // margin 0, an allocation s in (256, 1024) routes rho =
    // (1024 - s) / 768 to alpha. Two logical partitions, so the
    // block path's alpha + offset runs with alpha != 0 too.
    const MissCurve knee({{0, 1.0}, {256, 0.5}, {1024, 0.1},
                          {2048, 0.09}});
    auto make = [] {
        TalusController::Config cfg;
        cfg.numLogicalParts = 2;
        cfg.margin = 0.0;
        return std::make_unique<TalusController>(
            makePartitionedCache(SchemeKind::Vantage, 2048, 16, "LRU", 4,
                                 17),
            cfg);
    };
    for (double rho : {0.2, 0.5, 0.9}) {
        SCOPED_TRACE(rho);
        const uint64_t s =
            static_cast<uint64_t>(std::llround(1024 - rho * 768));
        auto blocked = make();
        auto serial = make();
        blocked->configure({knee, knee}, {s, s});
        serial->configure({knee, knee}, {s, s});
        EXPECT_NEAR(blocked->routedRho(0), rho, 1.0 / 256 + 0.002);

        // Physical-partition tally of the per-address toAlpha().
        std::vector<uint64_t> tally(4, 0);
        Rng rng(41);
        std::vector<Addr> block(4096);
        for (uint32_t r = 0; r < 4; ++r) {
            const PartId part = r % 2;
            for (Addr& a : block)
                a = (Addr{part + 1} << 40) | rng.below(1200);
            uint64_t serial_hits = 0;
            for (Addr a : block) {
                serial_hits += serial->access(a, part);
                const bool alpha = serial->router(part).toAlpha(a);
                ++tally[2 * part + (alpha ? 0 : 1)];
            }
            EXPECT_EQ(blocked->accessBlock(block.data(), block.size(), part),
                      serial_hits)
                << "block " << r;
        }
        const CacheStats& bs = blocked->cache().stats();
        const CacheStats& ss = serial->cache().stats();
        for (PartId q = 0; q < 4; ++q) {
            EXPECT_GT(tally[q], 0u) << "phys " << q;
            EXPECT_EQ(bs.accesses(q), tally[q]) << "phys " << q;
            EXPECT_EQ(ss.accesses(q), tally[q]) << "phys " << q;
            EXPECT_EQ(bs.misses(q), ss.misses(q)) << "phys " << q;
        }
    }
}

TEST(TalusControllerDeathTest, ConfigureRejectsWrongAllocationCount)
{
    auto ctl = makeIdealTalus(512, 2);
    const MissCurve convex({{0, 1.0}, {256, 0.5}, {512, 0.25}});
    // Two logical partitions need two allocations.
    EXPECT_DEATH(ctl->configure({convex, convex}, {256}),
                 "allocations");
}

TEST(TalusControllerDeathTest, ConfigureRejectsOverCommittedSum)
{
    auto ctl = makeIdealTalus(512, 2);
    const MissCurve convex({{0, 1.0}, {256, 0.5}, {512, 0.25}});
    // 300 + 300 = 600 > 512 lines of capacity.
    EXPECT_DEATH(ctl->configure({convex, convex}, {300, 300}),
                 "exceed capacity");
}

TEST(TalusController, ConvexHullsHelper)
{
    const MissCurve cliff({{0, 10}, {1, 9}, {2, 9}, {3, 1}, {4, 1}});
    const auto hulls = TalusController::convexHulls({cliff, cliff});
    ASSERT_EQ(hulls.size(), 2u);
    EXPECT_TRUE(hulls[0].isConvex(1e-9));
    EXPECT_TRUE(hulls[1].isConvex(1e-9));
}

} // namespace
} // namespace talus
