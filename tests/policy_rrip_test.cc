/**
 * @file
 * Tests for the RRIP family (SRRIP/BRRIP/DRRIP/TA-DRRIP) and the
 * set-dueling mechanism.
 */

#include <gtest/gtest.h>

#include "cache/set_assoc_cache.h"
#include "policy/policy_factory.h"
#include "policy/rrip.h"
#include "policy/set_dueling.h"
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

TEST(Srrip, InsertsAtLongReference)
{
    RripPolicy srrip(RripVariant::Srrip, 2);
    srrip.init(1, 4);
    srrip.onInsert(0, 0, 0);
    EXPECT_EQ(srrip.rrpv(0), 2); // max-1 with M=2 (max=3).
}

TEST(Srrip, PromotesToZeroOnHit)
{
    RripPolicy srrip(RripVariant::Srrip, 2);
    srrip.init(1, 4);
    srrip.onInsert(0, 0, 0);
    srrip.onHit(0, 0, 0);
    EXPECT_EQ(srrip.rrpv(0), 0);
}

TEST(Srrip, VictimIsDistantLine)
{
    RripPolicy srrip(RripVariant::Srrip, 2);
    srrip.init(1, 4);
    for (uint32_t line = 0; line < 4; ++line)
        srrip.onInsert(line, line, 0);
    srrip.onHit(1, 1, 0); // rrpv(1) = 0; others at 2.
    const uint32_t cands[] = {0, 1, 2, 3};
    const uint32_t victim = srrip.victim(cands, 4);
    EXPECT_NE(victim, 1u); // The promoted line survives aging longest.
    // After aging, some line reached rrpv 3 and was chosen.
    EXPECT_EQ(srrip.rrpv(victim), 3);
}

TEST(Srrip, AgingTerminates)
{
    RripPolicy srrip(RripVariant::Srrip, 2);
    srrip.init(1, 8);
    for (uint32_t line = 0; line < 8; ++line) {
        srrip.onInsert(line, line, 0);
        srrip.onHit(line, line, 0); // All at rrpv 0.
    }
    const uint32_t cands[] = {0, 1, 2, 3, 4, 5, 6, 7};
    // Must age everyone up to 3 and return a victim, not loop.
    const uint32_t victim = srrip.victim(cands, 8);
    EXPECT_LT(victim, 8u);
}

TEST(Brrip, MostInsertionsAreDistant)
{
    RripPolicy brrip(RripVariant::Brrip, 2, 1.0 / 32.0, 16, 1234);
    brrip.init(1, 1);
    int distant = 0;
    const int n = 3200;
    for (int i = 0; i < n; ++i) {
        brrip.onInsert(0, 0, 0);
        distant += (brrip.rrpv(0) == 3);
    }
    // ~31/32 distant.
    EXPECT_GT(distant, n * 29 / 32);
    EXPECT_LT(distant, n);
}

TEST(Srrip, ScanResistantVsLru)
{
    // Mixed reused-set + long scan: SRRIP should hit more than LRU
    // because reused lines are protected by promotion.
    auto build_trace = [] {
        std::vector<Addr> trace;
        Rng rng(5);
        for (int i = 0; i < 60000; ++i) {
            if (i % 2 == 0)
                trace.push_back(rng.below(64)); // Hot set.
            else
                trace.push_back(1000 + (i % 4096)); // Scan.
        }
        return trace;
    };

    auto run = [&](const std::string& policy) {
        SetAssocCache cache(plainConfig(16, 8), makePolicy(policy, 3));
        for (Addr a : build_trace())
            cache.access(a);
        return cache.stats().totalHits();
    };
    EXPECT_GT(run("SRRIP"), run("LRU"));
}

TEST(Drrip, BeatsSrriOnPureThrashing)
{
    // Cyclic scan slightly larger than the cache: SRRIP thrashes
    // (zero steady-state hits), BRRIP/DRRIP keep a fraction resident.
    const uint32_t sets = 16, ways = 8; // 128-line cache.
    auto trace = test::scanTrace(120000, 192);

    auto run = [&](RripVariant v) {
        SetAssocCache cache(plainConfig(sets, ways),
                            std::make_unique<RripPolicy>(v, 2, 1.0 / 32.0,
                                                         16, 7));
        for (Addr a : trace)
            cache.access(a);
        return cache.stats().totalHits();
    };

    const uint64_t srrip_hits = run(RripVariant::Srrip);
    const uint64_t drrip_hits = run(RripVariant::Drrip);
    EXPECT_GT(drrip_hits, srrip_hits + 10000);
}

TEST(TaDrrip, PerThreadInsertionDiffers)
{
    // Thread 0 thrashes (wants BRRIP); thread 1 has a small reused
    // set (SRRIP fine). TA-DRRIP must not collapse both to one PSEL:
    // both threads should get a reasonable hit rate.
    SetAssocCache cache(plainConfig(32, 8),
                        std::make_unique<RripPolicy>(RripVariant::TaDrrip,
                                                     2, 1.0 / 32.0, 16, 7));
    Rng rng(9);
    uint64_t t1_hits = 0, t1_accesses = 0;
    for (int i = 0; i < 200000; ++i) {
        cache.access(1 << 20 | (i % 512), 0); // Thrashing scan.
        const Addr a = rng.below(32);
        t1_accesses++;
        t1_hits += cache.access(a, 1);
    }
    EXPECT_GT(static_cast<double>(t1_hits) / t1_accesses, 0.8);
}

// -------------------------------------------------------- SetDueling

TEST(SetDueling, RolesAreStable)
{
    SetDueling duel;
    duel.init(1024, 1);
    for (uint32_t set = 0; set < 1024; ++set)
        EXPECT_EQ(duel.role(set, 0), duel.role(set, 0));
}

TEST(SetDueling, HasBothLeaderKindsAndFollowers)
{
    SetDueling duel;
    duel.init(1024, 1);
    int a = 0, b = 0, f = 0;
    for (uint32_t set = 0; set < 1024; ++set) {
        switch (duel.role(set, 0)) {
          case SetDueling::Role::LeaderA: a++; break;
          case SetDueling::Role::LeaderB: b++; break;
          case SetDueling::Role::Follower: f++; break;
        }
    }
    EXPECT_GT(a, 10);
    EXPECT_GT(b, 10);
    EXPECT_GT(f, 800);
}

TEST(SetDueling, PselConvergesTowardWinner)
{
    SetDueling duel;
    duel.init(1024, 1);
    // Simulate: A-leaders miss a lot, B-leaders rarely.
    for (uint32_t round = 0; round < 40; ++round) {
        for (uint32_t set = 0; set < 1024; ++set) {
            if (duel.role(set, 0) == SetDueling::Role::LeaderA)
                duel.onMiss(set, 0);
        }
    }
    EXPECT_TRUE(duel.preferB(0));
}

TEST(SetDueling, LeadersIgnorePsel)
{
    SetDueling duel;
    duel.init(256, 1);
    uint32_t leader_a = 0, leader_b = 0;
    for (uint32_t set = 0; set < 256; ++set) {
        if (duel.role(set, 0) == SetDueling::Role::LeaderA)
            leader_a = set;
        if (duel.role(set, 0) == SetDueling::Role::LeaderB)
            leader_b = set;
    }
    EXPECT_FALSE(duel.useB(leader_a, 0));
    EXPECT_TRUE(duel.useB(leader_b, 0));
}

TEST(SetDueling, ThreadsHaveIndependentPsels)
{
    SetDueling duel;
    duel.init(1024, 2);
    for (uint32_t round = 0; round < 40; ++round) {
        for (uint32_t set = 0; set < 1024; ++set) {
            if (duel.role(set, 0) == SetDueling::Role::LeaderA)
                duel.onMiss(set, 0);
            if (duel.role(set, 1) == SetDueling::Role::LeaderB)
                duel.onMiss(set, 1);
        }
    }
    EXPECT_TRUE(duel.preferB(0));
    EXPECT_FALSE(duel.preferB(1));
}

} // namespace
} // namespace talus
