/**
 * @file
 * Tests for DIP (bimodal insertion + dueling) and PDP (protecting
 * distances + bypass).
 */

#include <gtest/gtest.h>

#include "cache/set_assoc_cache.h"
#include "policy/dip.h"
#include "policy/pdp.h"
#include "policy/policy_factory.h"
#include "tests/test_util.h"

namespace talus {
namespace {

SetAssocCache::Config
plainConfig(uint32_t sets, uint32_t ways)
{
    SetAssocCache::Config cfg;
    cfg.numSets = sets;
    cfg.numWays = ways;
    return cfg;
}

TEST(Dip, ThrashResistantOnCyclicScan)
{
    // Scan 1.5x the cache size: LRU gets 0 steady-state hits, DIP
    // (via BIP) retains a resident fraction.
    auto trace = test::scanTrace(150000, 192);

    auto run = [&](const std::string& policy) {
        SetAssocCache cache(plainConfig(16, 8), makePolicy(policy, 3));
        for (Addr a : trace)
            cache.access(a);
        return cache.stats().totalHits();
    };
    const uint64_t lru = run("LRU");
    const uint64_t dip = run("DIP");
    EXPECT_LT(lru, 1000u);        // LRU thrashes.
    EXPECT_GT(dip, lru + 20000u); // DIP keeps a big resident set.
}

TEST(Dip, MatchesLruOnLruFriendlyWorkload)
{
    // Small reused working set: DIP should follow LRU insertion and
    // match LRU hits closely.
    auto trace = test::randomTrace(60000, 64, 3);

    auto run = [&](const std::string& policy) {
        SetAssocCache cache(plainConfig(16, 8), makePolicy(policy, 3));
        for (Addr a : trace)
            cache.access(a);
        return cache.stats().totalHits();
    };
    const double lru = static_cast<double>(run("LRU"));
    const double dip = static_cast<double>(run("DIP"));
    EXPECT_GT(dip, lru * 0.95);
}

TEST(Pdp, ProtectsAndBypasses)
{
    PdpPolicy pdp;
    pdp.init(1, 4);
    // Fill the set; all lines freshly protected.
    for (uint32_t line = 0; line < 4; ++line)
        pdp.onInsert(line, line, 0);
    const uint32_t cands[] = {0, 1, 2, 3};
    // With dp = ways = 4 and no set accesses since insertion, all
    // lines are protected: PDP bypasses.
    EXPECT_EQ(pdp.victim(cands, 4), kBypassLine);
}

TEST(Pdp, EvictsOnceProtectionExpires)
{
    PdpPolicy pdp;
    pdp.init(1, 2);
    pdp.onInsert(0, 100, 0);
    pdp.onInsert(1, 101, 0);
    // Age the set well past dp (= ways = 2 until recompute).
    for (int i = 0; i < 10; ++i)
        pdp.onMiss(200 + i, 0, 0);
    const uint32_t cands[] = {0, 1};
    EXPECT_NE(pdp.victim(cands, 2), kBypassLine);
}

TEST(Pdp, BypassCountsReportedByCache)
{
    // 1 set x 4 ways with dp pinned above the hot lines' reuse
    // distance: the three cycling hot lines stay protected, the
    // fourth way's cold line stays protected for 16 set-accesses, so
    // most cold insertions find every candidate protected and bypass.
    PdpPolicy::Config cfg;
    cfg.recomputeEvery = ~0ull; // Never recompute.
    cfg.initialDp = 16;
    SetAssocCache cache(plainConfig(1, 4),
                        std::make_unique<PdpPolicy>(cfg));
    Addr cold = 1000;
    for (int round = 0; round < 2000; ++round) {
        cache.access(1);
        cache.access(2);
        cache.access(3);
        if (round % 4 == 3)
            cache.access(cold++);
    }
    EXPECT_GT(cache.stats().bypasses(), 100u);
    // The hot lines keep hitting.
    EXPECT_GT(cache.stats().totalHits(), 5000u);
}

TEST(Pdp, ThrashResistantOnCyclicScan)
{
    // Like DIP, PDP must beat LRU on a thrashing scan by holding a
    // protected fraction in place.
    auto trace = test::scanTrace(200000, 256);

    auto run = [&](const std::string& policy) {
        SetAssocCache cache(plainConfig(16, 8), makePolicy(policy, 3));
        for (Addr a : trace)
            cache.access(a);
        return cache.stats().totalHits();
    };
    const uint64_t lru = run("LRU");
    const uint64_t pdp = run("PDP");
    EXPECT_GT(pdp, lru + 10000u);
}

TEST(Pdp, RecomputeAdjustsDp)
{
    PdpPolicy::Config cfg;
    cfg.recomputeEvery = 4096;
    cfg.sampleMod = 1; // Sample everything for a fast test.
    PdpPolicy pdp(cfg);
    pdp.init(4, 4);
    const uint32_t initial_dp = pdp.protectingDistance();

    // Drive a tight reuse loop: reuse distance (set-local) is small,
    // so the optimal dp should be small and stable.
    for (int i = 0; i < 200000; ++i) {
        const Addr a = i % 8; // 8 hot lines over 4 sets.
        const uint32_t set = a % 4;
        pdp.onMiss(a, set, 0); // Tick + observe via miss path.
    }
    EXPECT_GE(pdp.protectingDistance(), 1u);
    EXPECT_LE(pdp.protectingDistance(), 256u);
    (void)initial_dp;
}

TEST(Pdp, NextIntervalForcesRecomputeWithoutCrash)
{
    PdpPolicy pdp;
    pdp.init(2, 2);
    pdp.nextInterval(); // No samples yet: must not crash or change dp.
    EXPECT_EQ(pdp.protectingDistance(), 2u);
}

} // namespace
} // namespace talus
