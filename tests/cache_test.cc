/**
 * @file
 * Tests for src/cache: SetAssocCache mechanics, FullyAssocLru, and
 * CacheStats accounting.
 */

#include <gtest/gtest.h>

#include "cache/fully_assoc_lru.h"
#include "cache/set_assoc_cache.h"
#include "policy/lru.h"
#include "tests/test_util.h"

namespace talus {
namespace {

SetAssocCache::Config
smallConfig(uint32_t sets, uint32_t ways)
{
    SetAssocCache::Config cfg;
    cfg.numSets = sets;
    cfg.numWays = ways;
    return cfg;
}

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache cache(smallConfig(4, 2),
                        std::make_unique<LruPolicy>());
    EXPECT_FALSE(cache.access(100));
    EXPECT_TRUE(cache.access(100));
    EXPECT_EQ(cache.stats().totalAccesses(), 2u);
    EXPECT_EQ(cache.stats().totalMisses(), 1u);
}

TEST(SetAssocCache, EvictsWithinSet)
{
    // 1 set x 2 ways, identity indexing: three conflicting lines.
    SetAssocCache cache(smallConfig(1, 2),
                        std::make_unique<LruPolicy>());
    cache.access(1);
    cache.access(2);
    cache.access(3); // Evicts 1 (LRU).
    EXPECT_TRUE(cache.access(2));
    EXPECT_TRUE(cache.access(3));
    EXPECT_FALSE(cache.access(1));
    EXPECT_EQ(cache.stats().evictions(), 2u);
}

TEST(SetAssocCache, ProbeHasNoSideEffects)
{
    SetAssocCache cache(smallConfig(2, 2),
                        std::make_unique<LruPolicy>());
    cache.access(5);
    const auto before = cache.stats().totalAccesses();
    EXPECT_GE(cache.probe(5), 0);
    EXPECT_EQ(cache.probe(999), -1);
    EXPECT_EQ(cache.stats().totalAccesses(), before);
}

TEST(SetAssocCache, PerPartitionStats)
{
    SetAssocCache cache(smallConfig(8, 4),
                        std::make_unique<LruPolicy>());
    cache.access(1, 0);
    cache.access(2, 1);
    cache.access(2, 1);
    EXPECT_EQ(cache.stats().accesses(0), 1u);
    EXPECT_EQ(cache.stats().accesses(1), 2u);
    EXPECT_EQ(cache.stats().hits(1), 1u);
    EXPECT_EQ(cache.stats().misses(0), 1u);
}

TEST(SetAssocCache, CountLinesTracksOwnership)
{
    SetAssocCache cache(smallConfig(8, 4),
                        std::make_unique<LruPolicy>());
    for (Addr a = 0; a < 10; ++a)
        cache.access(a, a % 2);
    EXPECT_EQ(cache.countLines(0) + cache.countLines(1), 10u);
}

TEST(SetAssocCache, InvalidateLine)
{
    SetAssocCache cache(smallConfig(1, 2),
                        std::make_unique<LruPolicy>());
    cache.access(1);
    const int64_t line = cache.probe(1);
    ASSERT_GE(line, 0);
    cache.invalidateLine(static_cast<uint32_t>(line));
    EXPECT_EQ(cache.probe(1), -1);
    EXPECT_FALSE(cache.lineValid(static_cast<uint32_t>(line)));
}

TEST(SetAssocCache, InvalidateAllEmptiesCache)
{
    SetAssocCache cache(smallConfig(4, 4),
                        std::make_unique<LruPolicy>());
    for (Addr a = 0; a < 16; ++a)
        cache.access(a);
    cache.invalidateAll();
    for (Addr a = 0; a < 16; ++a)
        EXPECT_EQ(cache.probe(a), -1);
}

TEST(SetAssocCache, NonPowerOfTwoSets)
{
    SetAssocCache cache(smallConfig(12, 2),
                        std::make_unique<LruPolicy>());
    for (Addr a = 0; a < 100; ++a)
        EXPECT_LT(cache.defaultSetIndex(a), 12u);
    // Still functions as a cache.
    cache.access(7);
    EXPECT_TRUE(cache.access(7));
}

// ------------------------------------------------------ FullyAssocLru

TEST(SetAssocCache, SingleSetSingleWayHoldsOneLine)
{
    // Degenerate 1x1 geometry: a one-line cache.
    SetAssocCache cache(smallConfig(1, 1),
                        std::make_unique<LruPolicy>());
    EXPECT_FALSE(cache.access(1));
    EXPECT_TRUE(cache.access(1));
    EXPECT_FALSE(cache.access(2)); // Evicts 1.
    EXPECT_FALSE(cache.access(1)); // Evicts 2.
    EXPECT_EQ(cache.stats().evictions(), 2u);
}

TEST(FullyAssocLru, BasicHitMiss)
{
    FullyAssocLru cache(2);
    EXPECT_FALSE(cache.access(1));
    EXPECT_TRUE(cache.access(1));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.accesses(), 2u);
}

TEST(FullyAssocLru, EvictsLeastRecentlyUsed)
{
    FullyAssocLru cache(2);
    cache.access(1);
    cache.access(2);
    cache.access(1); // 2 is now LRU.
    cache.access(3); // Evicts 2.
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
}

TEST(FullyAssocLru, ZeroCapacityAlwaysMisses)
{
    FullyAssocLru cache(0);
    EXPECT_FALSE(cache.access(1));
    EXPECT_FALSE(cache.access(1));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(FullyAssocLru, ShrinkEvictsFromLruEnd)
{
    FullyAssocLru cache(4);
    for (Addr a = 1; a <= 4; ++a)
        cache.access(a);
    cache.access(1); // Order (MRU->LRU): 1,4,3,2.
    cache.setCapacity(2);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(4));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_FALSE(cache.contains(3));
}

TEST(FullyAssocLru, GrowKeepsContents)
{
    FullyAssocLru cache(2);
    cache.access(1);
    cache.access(2);
    cache.setCapacity(8);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
}

TEST(FullyAssocLru, ClearAndResetStats)
{
    FullyAssocLru cache(2);
    cache.access(1);
    cache.access(1);
    cache.resetStats();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_TRUE(cache.contains(1));
    cache.clear();
    EXPECT_FALSE(cache.contains(1));
}

TEST(FullyAssocLru, HitRateOnScanMatchesTheory)
{
    // Scan of W lines in a cache of C >= W: all hits after warmup.
    FullyAssocLru cache(64);
    auto trace = test::scanTrace(64 * 10, 64);
    for (Addr a : trace)
        cache.access(a);
    // First 64 are cold; the rest hit.
    EXPECT_EQ(cache.hits(), trace.size() - 64);
}

TEST(FullyAssocLru, ScanThrashesWhenTooSmall)
{
    // Scan of W lines in a cache of C < W under LRU: zero hits.
    FullyAssocLru cache(63);
    auto trace = test::scanTrace(64 * 10, 64);
    for (Addr a : trace)
        cache.access(a);
    EXPECT_EQ(cache.hits(), 0u);
}

// --------------------------------------------------------- CacheStats

TEST(CacheStats, Accumulates)
{
    CacheStats stats;
    stats.record(0, true);
    stats.record(0, false);
    stats.record(3, false);
    EXPECT_EQ(stats.totalAccesses(), 3u);
    EXPECT_EQ(stats.totalHits(), 1u);
    EXPECT_EQ(stats.totalMisses(), 2u);
    EXPECT_EQ(stats.accesses(3), 1u);
    EXPECT_EQ(stats.accesses(2), 0u);
    EXPECT_EQ(stats.numParts(), 4u);
}

TEST(CacheStats, ResetZeroes)
{
    CacheStats stats;
    stats.record(1, true);
    stats.recordBypass();
    stats.recordEviction();
    stats.reset();
    EXPECT_EQ(stats.totalAccesses(), 0u);
    EXPECT_EQ(stats.bypasses(), 0u);
    EXPECT_EQ(stats.evictions(), 0u);
}

} // namespace
} // namespace talus
