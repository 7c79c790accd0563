/**
 * @file
 * Tests for partitioning schemes: way, set, Vantage, ideal, and the
 * PartitionedCacheBase factory. The key property throughout is
 * Assumption 2: a partition's miss rate must be governed by its size,
 * which requires schemes to actually enforce sizes and isolate
 * partitions.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "partition/ideal_partition.h"
#include "partition/partitioned_cache.h"
#include "partition/set_partition.h"
#include "partition/vantage.h"
#include "partition/way_partition.h"
#include "policy/lru.h"
#include "policy/policy_factory.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace talus {
namespace {

// --------------------------------------------------------------- Way

TEST(WayPartition, CoarsensToWholeWays)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 64;
    cfg.numWays = 16;
    auto scheme = std::make_unique<WayPartition>(2);
    WayPartition* way = scheme.get();
    SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                        std::move(scheme));

    // 25% / 75% split in lines -> 4 / 12 ways.
    cache.setTargets({256, 768});
    EXPECT_EQ(way->ways(0), 4u);
    EXPECT_EQ(way->ways(1), 12u);
    EXPECT_EQ(way->target(0), 4u * 64);
    EXPECT_EQ(way->target(1), 12u * 64);
}

TEST(WayPartition, UnevenTargetsRoundSensibly)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 64;
    cfg.numWays = 16;
    auto scheme = std::make_unique<WayPartition>(3);
    WayPartition* way = scheme.get();
    SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                        std::move(scheme));
    cache.setTargets({300, 300, 424});
    EXPECT_EQ(way->ways(0) + way->ways(1) + way->ways(2), 16u);
    EXPECT_GE(way->ways(0), 4u);
    EXPECT_GE(way->ways(2), 6u);
}

TEST(WayPartition, IsolatesPartitions)
{
    // Partition 1's thrashing scan must not evict partition 0's hot
    // working set: part 0's hit ratio with the thrasher present must
    // match its hit ratio running alone.
    auto hot = test::randomTrace(20000, 100, 1);

    auto part0_hit_ratio = [&](bool with_thrasher) {
        SetAssocCache::Config cfg;
        cfg.numSets = 32;
        cfg.numWays = 8;
        SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                            std::make_unique<WayPartition>(2));
        cache.setTargets({128, 128}); // 4 ways each.
        for (Addr a : hot)
            cache.access(a, 0);
        if (with_thrasher) {
            for (Addr a : test::scanTrace(50000, 4096))
                cache.access(a + (1ull << 30), 1);
        }
        cache.stats().reset();
        for (Addr a : hot)
            cache.access(a, 0);
        return static_cast<double>(cache.stats().totalHits()) /
               static_cast<double>(cache.stats().totalAccesses());
    };

    const double solo = part0_hit_ratio(false);
    const double contended = part0_hit_ratio(true);
    EXPECT_GT(solo, 0.7); // Sanity: the hot set mostly fits.
    EXPECT_NEAR(contended, solo, 0.02);
}

TEST(WayPartition, ZeroWaysBypasses)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 8;
    cfg.numWays = 4;
    SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                        std::make_unique<WayPartition>(2));
    cache.setTargets({0, 32});
    for (Addr a = 0; a < 100; ++a)
        cache.access(a, 0);
    EXPECT_EQ(cache.stats().totalHits(), 0u);
    EXPECT_GT(cache.stats().bypasses(), 0u);
    EXPECT_EQ(cache.countLines(0), 0u);
}

TEST(WayPartition, OccupancyTracksInsertions)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 16;
    cfg.numWays = 8;
    auto scheme = std::make_unique<WayPartition>(2);
    WayPartition* way = scheme.get();
    SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                        std::move(scheme));
    cache.setTargets({64, 64});
    for (Addr a = 0; a < 1000; ++a)
        cache.access(a, a % 2);
    EXPECT_EQ(way->occupancy(0), cache.countLines(0));
    EXPECT_EQ(way->occupancy(1), cache.countLines(1));
    EXPECT_LE(way->occupancy(0), way->target(0));
}

// --------------------------------------------------------------- Set

TEST(SetPartition, SetIndexStaysInRange)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 64;
    cfg.numWays = 4;
    auto scheme = std::make_unique<SetPartition>(2);
    SetPartition* sp = scheme.get();
    SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                        std::move(scheme));
    cache.setTargets({64, 192}); // 16 / 48 sets.
    EXPECT_EQ(sp->sets(0), 16u);
    EXPECT_EQ(sp->sets(1), 48u);
    for (Addr a = 0; a < 5000; ++a) {
        EXPECT_LT(sp->setIndex(a, 0), 16u);
        const uint32_t s1 = sp->setIndex(a, 1);
        EXPECT_GE(s1, 16u);
        EXPECT_LT(s1, 64u);
    }
}

TEST(SetPartition, IsolatesPartitions)
{
    auto hot = test::randomTrace(20000, 100, 2);

    auto part0_hit_ratio = [&](bool with_thrasher) {
        SetAssocCache::Config cfg;
        cfg.numSets = 64;
        cfg.numWays = 4;
        SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                            std::make_unique<SetPartition>(2));
        cache.setTargets({128, 128});
        for (Addr a : hot)
            cache.access(a, 0);
        if (with_thrasher) {
            for (Addr a : test::scanTrace(50000, 4096))
                cache.access(a + (1ull << 30), 1);
        }
        cache.stats().reset();
        for (Addr a : hot)
            cache.access(a, 0);
        return static_cast<double>(cache.stats().totalHits()) /
               static_cast<double>(cache.stats().totalAccesses());
    };

    const double solo = part0_hit_ratio(false);
    const double contended = part0_hit_ratio(true);
    EXPECT_GT(solo, 0.7);
    EXPECT_NEAR(contended, solo, 0.02);
}

TEST(SetPartition, WorkedExampleRatioFromPaper)
{
    // Fig. 2: Talus splits a 4MB cache by sets at a 1:2 ratio
    // (2/3MB : 10/3MB scaled). Check the apportionment math at the
    // same ratio: 1/6 and 5/6 of capacity.
    SetAssocCache::Config cfg;
    cfg.numSets = 96;
    cfg.numWays = 4;
    auto scheme = std::make_unique<SetPartition>(2);
    SetPartition* sp = scheme.get();
    SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                        std::move(scheme));
    cache.setTargets({64, 320}); // 1/6 and 5/6 of 384 lines.
    EXPECT_EQ(sp->sets(0), 16u);
    EXPECT_EQ(sp->sets(1), 80u);
}

// ----------------------------------------------------------- Vantage

TEST(Vantage, TracksOccupancyNearTargets)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 64;
    cfg.numWays = 16; // 1024 lines.
    auto scheme = std::make_unique<VantageScheme>(2);
    VantageScheme* v = scheme.get();
    SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                        std::move(scheme));
    // 90% managed: 614 / 307 lines.
    cache.setTargets({614, 307});

    Rng rng(3);
    for (int i = 0; i < 200000; ++i) {
        cache.access(rng.below(4096), 0);
        cache.access((1ull << 30) + rng.below(4096), 1);
    }
    // Managed partitions should sit near their targets (within 15%).
    EXPECT_NEAR(static_cast<double>(v->occupancy(0)), 614.0, 614 * 0.15);
    EXPECT_NEAR(static_cast<double>(v->occupancy(1)), 307.0, 307 * 0.15);
    // The unmanaged region absorbs the rest.
    EXPECT_GT(v->unmanagedLines(), 0u);
}

TEST(Vantage, AsymmetricSizesGiveAsymmetricHitRates)
{
    // Two identical random streams; the bigger partition must hit
    // more (Assumption 2: size determines miss rate).
    SetAssocCache::Config cfg;
    cfg.numSets = 64;
    cfg.numWays = 16;
    SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                        std::make_unique<VantageScheme>(2));
    cache.setTargets({768, 153});

    Rng rng(7);
    for (int i = 0; i < 300000; ++i) {
        cache.access(rng.below(1024), 0);
        cache.access((1ull << 30) + rng.below(1024), 1);
    }
    const auto& stats = cache.stats();
    const double hr0 = static_cast<double>(stats.hits(0)) /
                       static_cast<double>(stats.accesses(0));
    const double hr1 = static_cast<double>(stats.hits(1)) /
                       static_cast<double>(stats.accesses(1));
    EXPECT_GT(hr0, hr1 + 0.1);
}

TEST(Vantage, PromotionRecoversUnmanagedLines)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 16;
    cfg.numWays = 8;
    auto scheme = std::make_unique<VantageScheme>(1);
    VantageScheme* v = scheme.get();
    SetAssocCache cache(cfg, std::make_unique<LruPolicy>(),
                        std::move(scheme));
    cache.setTargets({64}); // Half the cache managed.
    // Touch a working set bigger than the target so demotions happen,
    // then re-touch: promotions must occur without inflating
    // occupancy beyond bounds.
    for (int round = 0; round < 50; ++round) {
        for (Addr a = 0; a < 96; ++a)
            cache.access(a, 0);
    }
    EXPECT_LE(v->occupancy(0), 64u + cfg.numWays);
    EXPECT_EQ(v->occupancy(0), cache.countLines(0));
}

/** LRU bookkeeping with an MRU victim rule: what a derived policy
 *  that overrides only victim() looks like. */
class MruVictimLru : public LruPolicy
{
  public:
    uint32_t victim(const uint32_t* cands, uint32_t n) override
    {
        uint32_t best = cands[0];
        for (uint32_t i = 1; i < n; ++i) {
            if (rank(cands[i]) > rank(best))
                best = cands[i];
        }
        return best;
    }
};

TEST(Vantage, EvictsThePolicysVictim)
{
    // One 4-way set, target 4: the fills never push the partition
    // over target, so nothing is demoted and the miss must evict
    // whatever the policy's victim() picks, here the MRU line (4).
    SetAssocCache::Config cfg;
    cfg.numSets = 1;
    cfg.numWays = 4;
    SetAssocCache cache(cfg, std::make_unique<MruVictimLru>(),
                        std::make_unique<VantageScheme>(1));
    cache.setTargets({4});
    for (Addr a = 1; a <= 4; ++a)
        cache.access(a, 0);
    EXPECT_FALSE(cache.access(5, 0));
    EXPECT_LT(cache.probe(4, 0), 0) << "MRU line survived";
    for (Addr a : {1, 2, 3, 5})
        EXPECT_GE(cache.probe(a, 0), 0) << "line " << a << " evicted";
}

/** The double-divide order VantageScheme used before
 *  moreOverTarget(): occ / target, a zero target scored 1e18, and the
 *  earlier first way winning ties. */
bool
doubleDivideOrder(uint64_t occ_a, uint64_t tgt_a, uint32_t first_a,
                  uint64_t occ_b, uint64_t tgt_b, uint32_t first_b)
{
    const auto ratio = [](uint64_t occ, uint64_t tgt) {
        return tgt == 0 ? 1e18
                        : static_cast<double>(occ) /
                              static_cast<double>(tgt);
    };
    const double ra = ratio(occ_a, tgt_a);
    const double rb = ratio(occ_b, tgt_b);
    return ra > rb || (ra == rb && first_a < first_b);
}

TEST(Vantage, MoreOverTargetEdgeCases)
{
    constexpr uint64_t kMax = kVantageMaxLines - 1;
    // A zero target is +infinity: above any finite ratio, whatever
    // the occupancies, and two zero targets tie on the first way.
    EXPECT_TRUE(moreOverTarget(1, 0, 9, kMax, 1, 0));
    EXPECT_FALSE(moreOverTarget(kMax, 1, 0, 1, 0, 9));
    EXPECT_TRUE(moreOverTarget(1, 0, 2, 7, 0, 3));
    EXPECT_FALSE(moreOverTarget(7, 0, 3, 1, 0, 2));
    // Equal ratios in different terms tie on the first way.
    EXPECT_TRUE(moreOverTarget(2, 4, 1, 3, 6, 5));
    EXPECT_FALSE(moreOverTarget(3, 6, 5, 2, 4, 1));
    EXPECT_FALSE(moreOverTarget(0, 5, 4, 0, 9, 4));
    // The closest distinct ratios at the size bound: x/(x-1) falls as
    // x grows, so (x-1)/(x-2) is the more over target.
    EXPECT_TRUE(moreOverTarget(kMax - 1, kMax - 2, 5, kMax, kMax - 1, 0));
    EXPECT_FALSE(moreOverTarget(kMax, kMax - 1, 0, kMax - 1, kMax - 2, 5));
}

TEST(Vantage, MoreOverTargetMatchesDoubleDivideOrder)
{
    constexpr uint64_t kMax = kVantageMaxLines - 1;
    const uint64_t edge[] = {0,        1,        2,        3,
                             kMax / 3, kMax / 2, kMax - 1, kMax};
    const uint32_t firsts[][2] = {{0, 1}, {1, 0}, {3, 3}};
    for (uint64_t oa : edge)
        for (uint64_t ta : edge)
            for (uint64_t ob : edge)
                for (uint64_t tb : edge)
                    for (const auto& f : firsts)
                        ASSERT_EQ(moreOverTarget(oa, ta, f[0], ob, tb, f[1]),
                                  doubleDivideOrder(oa, ta, f[0], ob, tb,
                                                    f[1]))
                            << oa << "/" << ta << " vs " << ob << "/" << tb;

    Rng rng(0x0CC);
    for (int i = 0; i < 200000; ++i) {
        uint64_t oa = rng.below(kMax + 1), ta = rng.below(kMax + 1);
        uint64_t ob = rng.below(kMax + 1), tb = rng.below(kMax + 1);
        switch (i % 4) {
          case 1: {
            // Equal ratios in different terms.
            oa = rng.below(1 << 13);
            ta = rng.below(1 << 13) + 1;
            const uint64_t k = 1 + rng.below(kMax / std::max(oa, ta));
            ob = oa * k;
            tb = ta * k;
            break;
          }
          case 2:
            // Near-equal large ratios: neighbouring fractions.
            ta = kMax - rng.below(1 << 10);
            tb = ta - 1 - rng.below(4);
            oa = kMax - rng.below(1 << 10);
            ob = oa - 1 - rng.below(4);
            break;
          case 3:
            // Small values and zero targets.
            oa = rng.below(8);
            ta = rng.below(4);
            ob = rng.below(8);
            tb = rng.below(4);
            break;
          default:
            break;
        }
        const uint32_t fa = static_cast<uint32_t>(rng.below(4));
        const uint32_t fb = static_cast<uint32_t>(rng.below(4));
        ASSERT_EQ(moreOverTarget(oa, ta, fa, ob, tb, fb),
                  doubleDivideOrder(oa, ta, fa, ob, tb, fb))
            << oa << "/" << ta << " (way " << fa << ") vs " << ob << "/"
            << tb << " (way " << fb << ")";
    }
}

// ------------------------------------------------------------- Ideal

TEST(Ideal, ExactCapacities)
{
    IdealPartitionedCache cache(1000, 2);
    cache.setTargets({100, 900});
    EXPECT_EQ(cache.targetOf(0), 100u);
    EXPECT_EQ(cache.targetOf(1), 900u);
    for (Addr a = 0; a < 5000; ++a) {
        cache.access(a % 150, 0);
        cache.access((1ull << 20) + a % 150, 1);
    }
    EXPECT_EQ(cache.occupancy(0), 100u);
    EXPECT_EQ(cache.occupancy(1), 150u);
    // Partition 1 fits its working set entirely; partition 0 does not.
    EXPECT_GT(cache.stats().hits(1), cache.stats().hits(0));
}

TEST(Ideal, RetargetingMovesCapacity)
{
    IdealPartitionedCache cache(100, 2);
    cache.setTargets({90, 10});
    for (Addr a = 0; a < 90; ++a)
        cache.access(a, 0);
    EXPECT_EQ(cache.occupancy(0), 90u);
    cache.setTargets({10, 90});
    EXPECT_EQ(cache.occupancy(0), 10u); // Shrink evicts immediately.
}

// ----------------------------------------------------------- Factory

TEST(Factory, ParsesSchemeNames)
{
    EXPECT_EQ(parseSchemeKind("Way"), SchemeKind::Way);
    EXPECT_EQ(parseSchemeKind("Set"), SchemeKind::Set);
    EXPECT_EQ(parseSchemeKind("Vantage"), SchemeKind::Vantage);
    EXPECT_EQ(parseSchemeKind("Ideal"), SchemeKind::Ideal);
    EXPECT_EQ(parseSchemeKind("Unpartitioned"),
              SchemeKind::Unpartitioned);
}

class FactorySchemeTest : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(FactorySchemeTest, BuildsWorkingCache)
{
    auto cache = makePartitionedCache(GetParam(), 1024, 16, "LRU", 2, 9);
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->numPartitions(), 2u);
    EXPECT_EQ(cache->capacityLines(), 1024u);
    cache->setTargets({512, 256});
    for (Addr a = 0; a < 10000; ++a)
        cache->access(a % 400, a % 2);
    EXPECT_EQ(cache->stats().totalAccesses(), 10000u);
    EXPECT_GT(cache->stats().totalHits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, FactorySchemeTest,
                         ::testing::Values(SchemeKind::Unpartitioned,
                                           SchemeKind::Way, SchemeKind::Set,
                                           SchemeKind::Vantage,
                                           SchemeKind::Ideal));

TEST(Factory, SchemeNamesExposed)
{
    EXPECT_STREQ(makePartitionedCache(SchemeKind::Way, 256, 8, "LRU", 2)
                     ->schemeName(),
                 "Way");
    EXPECT_STREQ(makePartitionedCache(SchemeKind::Ideal, 256, 8, "LRU", 2)
                     ->schemeName(),
                 "Ideal");
}

} // namespace
} // namespace talus
