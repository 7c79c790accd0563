/**
 * @file
 * Tests for Belady's MIN: correctness of next-use preprocessing, the
 * optimality lower bound against every online policy, and convexity
 * (Corollary 7 of the paper).
 */

#include <gtest/gtest.h>

#include "cache/set_assoc_cache.h"
#include "core/miss_curve.h"
#include "policy/belady.h"
#include "policy/policy_factory.h"
#include "tests/test_util.h"

namespace talus {
namespace {

TEST(Belady, NextUseIndices)
{
    const std::vector<Addr> trace{1, 2, 1, 3, 2, 1};
    const auto next = nextUseIndices(trace);
    ASSERT_EQ(next.size(), 6u);
    EXPECT_EQ(next[0], 2u); // 1 reused at index 2.
    EXPECT_EQ(next[1], 4u); // 2 reused at index 4.
    EXPECT_EQ(next[2], 5u); // 1 reused at index 5.
    EXPECT_EQ(next[3], 6u); // 3 never reused.
    EXPECT_EQ(next[4], 6u);
    EXPECT_EQ(next[5], 6u);
}

TEST(Belady, ScanGetsPartialHitsUnlikeLru)
{
    // Cyclic scan of W lines, cache C < W: LRU gets zero hits but MIN
    // keeps C-1 lines pinned, hitting on them every pass. Over many
    // passes hit ratio -> (C-1)/W.
    const uint64_t w = 64, c = 32;
    auto trace = test::scanTrace(w * 200, w);
    const uint64_t misses = minMisses(trace, c);
    const double hit_ratio =
        1.0 - static_cast<double>(misses) / trace.size();
    EXPECT_NEAR(hit_ratio, static_cast<double>(c - 1) / w, 0.02);
}

TEST(Belady, ZeroCapacityMissesEverything)
{
    auto trace = test::randomTrace(100, 10, 1);
    EXPECT_EQ(minMisses(trace, 0), 100u);
}

TEST(Belady, FullCapacityOnlyColdMisses)
{
    auto trace = test::randomTrace(10000, 64, 2);
    EXPECT_EQ(minMisses(trace, 64), 64u);
}

TEST(Belady, CurveMatchesPointQueries)
{
    auto trace = test::randomTrace(5000, 128, 3);
    const std::vector<uint64_t> caps{8, 16, 32, 64, 128};
    const auto curve = minMissCurve(trace, caps);
    ASSERT_EQ(curve.size(), caps.size());
    for (size_t i = 0; i < caps.size(); ++i)
        EXPECT_EQ(curve[i], minMisses(trace, caps[i]));
}

TEST(Belady, MonotoneInCapacity)
{
    auto trace = test::randomTrace(20000, 256, 4);
    uint64_t prev = ~0ull;
    for (uint64_t cap : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
        const uint64_t m = minMisses(trace, cap);
        EXPECT_LE(m, prev);
        prev = m;
    }
}

TEST(Belady, ConvexOnScanTrace)
{
    // Corollary 7: MIN's miss curve is convex — even on the cyclic
    // scan that gives LRU a hard cliff.
    auto trace = test::scanTrace(64 * 300, 64);
    std::vector<CurvePoint> pts;
    for (uint64_t cap = 0; cap <= 72; cap += 4) {
        pts.push_back({static_cast<double>(cap),
                       static_cast<double>(minMisses(trace, cap))});
    }
    const MissCurve curve(std::move(pts));
    EXPECT_TRUE(curve.isNonIncreasing(1.0));
    // Tolerance: cold misses and end effects wobble a little.
    EXPECT_TRUE(curve.isConvex(trace.size() * 0.01));
}

TEST(Belady, SetAssocAtLeastFullyAssoc)
{
    // Placement constraints can only hurt: SA-MIN >= FA-MIN misses.
    auto trace = test::randomTrace(20000, 300, 6);
    const uint64_t fa = minMisses(trace, 128);
    const uint64_t sa = minMissesSetAssoc(trace, 16, 8);
    EXPECT_GE(sa, fa);
}

// MIN lower-bounds every online policy at equal capacity and
// geometry. This is the strongest cross-validation of both the
// policies and MIN itself.
class MinLowerBoundTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MinLowerBoundTest, PolicyNeverBeatsMin)
{
    const uint32_t sets = 16, ways = 8;
    const uint64_t lines = static_cast<uint64_t>(sets) * ways;
    // Mixed trace: scan + hot set + random tail.
    std::vector<Addr> trace;
    Rng rng(11);
    for (int i = 0; i < 40000; ++i) {
        switch (i % 3) {
          case 0: trace.push_back(i % 200); break;
          case 1: trace.push_back(1000 + rng.below(40)); break;
          default: trace.push_back(2000 + rng.below(600)); break;
        }
    }
    // Exact-fit cyclic scan: bit selection gives each set exactly its
    // ways' worth of lines, so every policy takes only the cold
    // misses, and set-associative MIN must index the same way to stay
    // below it.
    std::vector<Addr> scan = test::scanTrace(lines * 50, lines);

    for (const std::vector<Addr>* input : {&trace, &scan}) {
        SCOPED_TRACE(input == &scan ? "exact-fit scan" : "mixed trace");
        SetAssocCache::Config cfg;
        cfg.numSets = sets;
        cfg.numWays = ways;
        SetAssocCache cache(cfg, makePolicy(GetParam(), 5));
        for (Addr a : *input)
            cache.access(a);

        // Note: PDP may bypass, which still counts as a miss.
        const uint64_t policy_misses = cache.stats().totalMisses();
        EXPECT_GE(policy_misses, minMisses(*input, lines)) << GetParam();
        EXPECT_GE(policy_misses, minMissesSetAssoc(*input, sets, ways))
            << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, MinLowerBoundTest,
                         ::testing::Values("LRU", "NRU", "Random", "SRRIP",
                                           "BRRIP", "DRRIP", "DIP", "PDP"));

} // namespace
} // namespace talus
