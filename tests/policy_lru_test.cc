/**
 * @file
 * Tests for LRU, NRU, and Random replacement, including LRU's stack
 * (inclusion) property — the foundation of UMON monitoring and hence
 * of Talus's predictability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <utility>
#include <vector>

#include "cache/fully_assoc_lru.h"
#include "cache/set_assoc_cache.h"
#include "policy/lru.h"
#include "policy/nru.h"
#include "policy/policy_factory.h"
#include "policy/random_repl.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace talus {
namespace {

SetAssocCache::Config
oneSet(uint32_t ways)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 1;
    cfg.numWays = ways;
    return cfg;
}

TEST(Lru, SingleSetMatchesFullyAssociative)
{
    // A 1-set, W-way LRU cache must behave exactly like a W-line
    // fully-associative LRU.
    for (uint32_t ways : {2u, 4u, 8u, 16u}) {
        SetAssocCache cache(oneSet(ways), std::make_unique<LruPolicy>());
        FullyAssocLru ref(ways);
        auto trace = test::randomTrace(20000, ways * 3, ways);
        for (Addr a : trace) {
            const bool hit = cache.access(a);
            const bool ref_hit = ref.access(a);
            ASSERT_EQ(hit, ref_hit) << "ways=" << ways;
        }
    }
}

TEST(Lru, StackPropertySingleSet)
{
    // Inclusion: anything resident in a k-way LRU cache is also
    // resident in a (k+m)-way LRU cache after any common trace.
    auto trace = test::randomTrace(10000, 48, 99);
    FullyAssocLru small(16), big(32);
    for (Addr a : trace) {
        const bool small_hit = small.access(a);
        const bool big_hit = big.access(a);
        // Inclusion implies: a hit in the small cache must also hit
        // in the big one.
        if (small_hit) {
            ASSERT_TRUE(big_hit);
        }
    }
    EXPECT_GE(big.hits(), small.hits());
}

TEST(Lru, MissCurveMonotoneInSize)
{
    auto trace = test::randomTrace(30000, 256, 5);
    uint64_t prev_hits = 0;
    for (uint64_t cap : {16u, 32u, 64u, 128u, 256u}) {
        FullyAssocLru cache(cap);
        for (Addr a : trace)
            cache.access(a);
        EXPECT_GE(cache.hits(), prev_hits) << "cap=" << cap;
        prev_hits = cache.hits();
    }
}

TEST(Lru, VictimIsOldest)
{
    LruPolicy lru;
    lru.init(1, 4);
    for (uint32_t line = 0; line < 4; ++line)
        lru.onInsert(line, line, 0);
    lru.onHit(0, 0, 0); // 0 becomes MRU; 1 is oldest.
    const uint32_t cands[] = {0, 1, 2, 3};
    EXPECT_EQ(lru.victim(cands, 4), 1u);
}

TEST(Lru, VictimRespectsCandidateSubset)
{
    LruPolicy lru;
    lru.init(1, 4);
    for (uint32_t line = 0; line < 4; ++line)
        lru.onInsert(line, line, 0);
    // Oldest overall is 0, but restrict candidates to {2, 3}.
    const uint32_t cands[] = {2, 3};
    EXPECT_EQ(lru.victim(cands, 2), 2u);
}

TEST(Lru, NeverTouchedWaysTieBreakByWayOrder)
{
    // A fresh set ranks its ways in way order, below every touched
    // way — the order all-zero timestamps with a first-minimum
    // tie-break gave.
    LruPolicy lru;
    lru.init(2, 8);
    for (uint32_t line = 0; line < 16; ++line)
        EXPECT_EQ(lru.rank(line), line % 8);
    const uint32_t all[] = {8, 9, 10, 11, 12, 13, 14, 15};
    EXPECT_EQ(lru.victim(all, 8), 8u);
    lru.onInsert(8, 0, 0);
    EXPECT_EQ(lru.victim(all, 8), 9u);
    const uint32_t odd[] = {13, 11, 15};
    EXPECT_EQ(lru.victim(odd, 3), 11u);
    lru.onHit(11, 0, 0);
    EXPECT_EQ(lru.victim(odd, 3), 13u);
    // The other set is untouched.
    for (uint32_t line = 0; line < 8; ++line)
        EXPECT_EQ(lru.rank(line), line);
}

/**
 * Reference LRU cache: per set, a std::list of ways, MRU first. A
 * fresh set lists its ways in reverse way order (way 0 is LRU). Fills
 * take the first invalid way, else the list's back; invalidation
 * leaves the recency order alone, as SetAssocCache leaves the policy.
 */
class ListLruOracle
{
  public:
    ListLruOracle(uint32_t sets, uint32_t ways)
        : ways_(ways), order_(sets), tags_(size_t{sets} * ways, kNone)
    {
        for (auto& order : order_)
            for (uint32_t w = 0; w < ways; ++w)
                order.push_front(w);
    }

    /** One access; returns {hit, way}. */
    std::pair<bool, uint32_t> access(uint32_t set, Addr addr)
    {
        const uint32_t base = set * ways_;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (tags_[base + w] == addr) {
                touch(set, w);
                return {true, w};
            }
        }
        uint32_t way = ways_;
        for (uint32_t w = 0; w < ways_ && way == ways_; ++w) {
            if (tags_[base + w] == kNone)
                way = w;
        }
        if (way == ways_)
            way = order_[set].back();
        tags_[base + way] = addr;
        touch(set, way);
        return {false, way};
    }

    void invalidate(uint32_t set, uint32_t way)
    {
        tags_[set * ways_ + way] = kNone;
    }

    /** Rank of @p way: ways-1 for the MRU way, 0 for the LRU one. */
    uint32_t rank(uint32_t set, uint32_t way) const
    {
        uint32_t pos = 0;
        for (uint32_t w : order_[set]) {
            if (w == way)
                break;
            ++pos;
        }
        return ways_ - 1 - pos;
    }

    /** The least recently used of @p ways (all in @p set). */
    uint32_t lruOf(uint32_t set, const std::vector<uint32_t>& ways) const
    {
        for (auto it = order_[set].rbegin(); it != order_[set].rend();
             ++it) {
            if (std::find(ways.begin(), ways.end(), *it) != ways.end())
                return *it;
        }
        return ways_;
    }

  private:
    static constexpr Addr kNone = ~0ull;

    void touch(uint32_t set, uint32_t way)
    {
        order_[set].remove(way);
        order_[set].push_front(way);
    }

    uint32_t ways_;
    std::vector<std::list<uint32_t>> order_;
    std::vector<Addr> tags_;
};

TEST(Lru, RanksMatchListOracleOnRandomTraces)
{
    constexpr uint32_t kSets = 4;
    for (uint32_t ways : {1u, 7u, 16u, 32u, 64u, 256u}) {
        SCOPED_TRACE(testing::Message() << ways << " ways");
        SetAssocCache::Config cfg;
        cfg.numSets = kSets;
        cfg.numWays = ways;
        SetAssocCache cache(cfg, std::make_unique<LruPolicy>());
        auto& lru = static_cast<LruPolicy&>(cache.policy());
        ListLruOracle oracle(kSets, ways);
        Rng rng(0x1A0 + ways);
        const uint64_t span = uint64_t{2} * kSets * ways + 1;
        for (int op = 0; op < 6000; ++op) {
            const uint64_t kind = rng.below(10);
            if (kind < 7) {
                const Addr addr = rng.below(span);
                const uint32_t set = static_cast<uint32_t>(addr % kSets);
                const auto [hit, way] = oracle.access(set, addr);
                ASSERT_EQ(cache.access(addr), hit) << "op " << op;
                ASSERT_EQ(cache.probe(addr), int64_t{set * ways + way})
                    << "op " << op;
            } else if (kind < 8) {
                const uint32_t set =
                    static_cast<uint32_t>(rng.below(kSets));
                const uint32_t way = static_cast<uint32_t>(rng.below(ways));
                oracle.invalidate(set, way);
                cache.invalidateLine(set * ways + way);
            } else {
                // victim() over a random candidate subset of one set,
                // listed in way order as the schemes pass them.
                const uint32_t set =
                    static_cast<uint32_t>(rng.below(kSets));
                std::vector<uint32_t> ways_in, lines;
                for (uint32_t w = 0; w < ways; ++w) {
                    if (rng.below(3) == 0) {
                        ways_in.push_back(w);
                        lines.push_back(set * ways + w);
                    }
                }
                if (lines.empty())
                    continue;
                ASSERT_EQ(lru.victim(lines.data(),
                                     static_cast<uint32_t>(lines.size())),
                          set * ways + oracle.lruOf(set, ways_in))
                    << "op " << op;
            }
        }
        for (uint32_t set = 0; set < kSets; ++set) {
            std::vector<bool> seen(ways, false);
            for (uint32_t w = 0; w < ways; ++w) {
                const uint32_t r = lru.rank(set * ways + w);
                ASSERT_EQ(r, oracle.rank(set, w))
                    << "set " << set << " way " << w;
                ASSERT_FALSE(seen[r]) << "set " << set << " rank " << r;
                seen[r] = true;
            }
        }
    }
}

TEST(Nru, PrefersUnreferenced)
{
    NruPolicy nru;
    nru.init(1, 3);
    nru.onInsert(0, 0, 0);
    nru.onInsert(1, 1, 0);
    nru.onInsert(2, 2, 0);
    const uint32_t cands[] = {0, 1, 2};
    // All referenced: clears bits and evicts the first.
    EXPECT_EQ(nru.victim(cands, 3), 0u);
    // Now all unreferenced; hit 0 -> victim among {0,1,2} must not
    // be... 1 (first unreferenced in order).
    nru.onHit(0, 0, 0);
    EXPECT_EQ(nru.victim(cands, 3), 1u);
}

TEST(Random, VictimAlwaysACandidate)
{
    RandomPolicy random(1);
    random.init(1, 8);
    const uint32_t cands[] = {3, 5, 7};
    for (int i = 0; i < 200; ++i) {
        const uint32_t v = random.victim(cands, 3);
        EXPECT_TRUE(v == 3 || v == 5 || v == 7);
    }
}

TEST(Random, CoversAllCandidates)
{
    RandomPolicy random(2);
    random.init(1, 4);
    const uint32_t cands[] = {0, 1, 2, 3};
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 4000; ++i)
        counts[random.victim(cands, 4)]++;
    for (int c : counts)
        EXPECT_GT(c, 700);
}

TEST(PolicyFactory, CreatesAllKnownPolicies)
{
    for (const std::string& name : knownPolicies()) {
        auto policy = makePolicy(name, 7);
        ASSERT_NE(policy, nullptr) << name;
        // Must be usable in a cache immediately.
        SetAssocCache cache(oneSet(4), std::move(policy));
        for (Addr a = 0; a < 100; ++a)
            cache.access(a % 8);
        EXPECT_EQ(cache.stats().totalAccesses(), 100u) << name;
    }
}

TEST(PolicyFactory, NamesMatch)
{
    EXPECT_STREQ(makePolicy("LRU")->name(), "LRU");
    EXPECT_STREQ(makePolicy("SRRIP")->name(), "SRRIP");
    EXPECT_STREQ(makePolicy("TA-DRRIP")->name(), "TA-DRRIP");
    EXPECT_STREQ(makePolicy("PDP")->name(), "PDP");
}

// Parameterized: every policy must behave sanely on a mixed trace in
// a realistic multi-set cache (no crashes, miss counts bounded).
class AllPoliciesTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllPoliciesTest, HandlesMixedTraceInMultiSetCache)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 64;
    cfg.numWays = 8;
    SetAssocCache cache(cfg, makePolicy(GetParam(), 3));
    auto scan = test::scanTrace(30000, 700);
    auto rnd = test::randomTrace(30000, 300, 17);
    for (size_t i = 0; i < scan.size(); ++i) {
        cache.access(scan[i], 0);
        cache.access(rnd[i] + 100000, 1);
    }
    const auto& stats = cache.stats();
    EXPECT_EQ(stats.totalAccesses(), 60000u);
    // Some hits must occur (rnd working set fits comfortably) and
    // some misses must occur (cold + scan).
    EXPECT_GT(stats.totalHits(), 1000u);
    EXPECT_GT(stats.totalMisses() + stats.bypasses(), 700u);
}

INSTANTIATE_TEST_SUITE_P(Policies, AllPoliciesTest,
                         ::testing::Values("LRU", "NRU", "Random", "SRRIP",
                                           "BRRIP", "DRRIP", "TA-DRRIP",
                                           "DIP", "TA-DIP", "PDP"));

} // namespace
} // namespace talus
