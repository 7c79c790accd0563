/**
 * @file
 * Tests for the allocation algorithms, centred on the paper's core
 * systems claim: hill climbing is optimal on convex curves (and only
 * there), Lookahead crosses plateaus, and fair allocation is what it
 * says.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "alloc/allocator_factory.h"
#include "alloc/dp_optimal.h"
#include "alloc/fair_alloc.h"
#include "alloc/hill_climb.h"
#include "alloc/lookahead.h"
#include "core/convex_hull.h"
#include "util/rng.h"

namespace talus {
namespace {

MissCurve
cliffCurve(double plateau_until, double drop_at, double high, double low,
           double max_size)
{
    // Flat at `high` until drop_at, then `low`.
    std::vector<CurvePoint> pts;
    pts.push_back({0, high});
    pts.push_back({plateau_until, high});
    pts.push_back({drop_at - 1e-6, high});
    pts.push_back({drop_at, low});
    pts.push_back({max_size, low});
    return MissCurve(pts);
}

uint64_t
total(const std::vector<uint64_t>& v)
{
    return std::accumulate(v.begin(), v.end(), uint64_t{0});
}

TEST(Fair, EqualSplit)
{
    FairAllocator fair;
    const std::vector<MissCurve> curves(4, MissCurve({{0, 1}, {100, 0}}));
    const auto alloc = fair.allocate(curves, 400, 10);
    for (uint64_t a : alloc)
        EXPECT_EQ(a, 100u);
}

TEST(Fair, RemainderRoundRobin)
{
    FairAllocator fair;
    const std::vector<MissCurve> curves(3, MissCurve({{0, 1}, {100, 0}}));
    const auto alloc = fair.allocate(curves, 100, 10);
    EXPECT_EQ(total(alloc), 100u);
    EXPECT_EQ(alloc[0], 40u);
    EXPECT_EQ(alloc[1], 30u);
    EXPECT_EQ(alloc[2], 30u);
}

TEST(HillClimb, GreedyOnConvexMatchesDp)
{
    // Property: on convex curves hill climbing is optimal == DP.
    Rng rng(61);
    HillClimbAllocator hill;
    DpOptimalAllocator dp;
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<MissCurve> curves;
        const int n = 2 + static_cast<int>(rng.below(4));
        for (int i = 0; i < n; ++i) {
            // Random convex decreasing curve: decreasing increments.
            std::vector<CurvePoint> pts;
            double value = 50 + static_cast<double>(rng.below(100));
            double slope = 5 + rng.unit() * 10;
            for (int x = 0; x <= 16; ++x) {
                pts.push_back({static_cast<double>(x * 8), value});
                value -= slope;
                slope *= 0.6 + rng.unit() * 0.3; // Shrinking slope.
                if (value < 0)
                    value = 0;
            }
            curves.push_back(MissCurve(pts));
        }
        const auto hill_alloc = hill.allocate(curves, 128, 8);
        const auto dp_alloc = dp.allocate(curves, 128, 8);
        EXPECT_NEAR(allocationCost(curves, hill_alloc),
                    allocationCost(curves, dp_alloc), 1e-6)
            << "trial " << trial;
    }
}

/**
 * The per-step greedy loop HillClimbAllocator replaced: every step
 * re-evaluates every partition's marginal gain. The incremental
 * allocator must hand out exactly the same allocations.
 */
std::vector<uint64_t>
referenceHillClimb(const std::vector<MissCurve>& curves, uint64_t total,
                   uint64_t granularity)
{
    std::vector<uint64_t> alloc(curves.size(), 0);
    uint64_t remaining = total;
    while (remaining >= granularity) {
        double best_gain = -1.0;
        size_t best = 0;
        for (size_t i = 0; i < curves.size(); ++i) {
            const double s = static_cast<double>(alloc[i]);
            const double gain =
                curves[i].at(s) -
                curves[i].at(s + static_cast<double>(granularity));
            if (gain > best_gain ||
                (gain == best_gain && alloc[i] < alloc[best])) {
                best_gain = gain;
                best = i;
            }
        }
        alloc[best] += granularity;
        remaining -= granularity;
    }
    return alloc;
}

/** A random raw curve: plateaus, drops, and (with @p bumps) rises,
 *  with steps large enough that some gains fall below -1. */
MissCurve
randomRawCurve(Rng& rng, int points, double step, bool bumps)
{
    std::vector<CurvePoint> pts;
    double value = 20 + static_cast<double>(rng.below(200));
    for (int x = 0; x <= points; ++x) {
        pts.push_back({x * step, value});
        const uint64_t move = rng.below(4);
        if (move == 1)
            value -= static_cast<double>(rng.below(30));
        else if (move == 2 && bumps)
            value += static_cast<double>(rng.below(30));
        value = std::max(value, 0.0);
    }
    return MissCurve(std::move(pts));
}

TEST(HillClimb, IncrementalMatchesPerStepLoop)
{
    HillClimbAllocator hill;
    Rng rng(71);
    const uint64_t granules[] = {1, 7, 8, 64, 100};
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 1 + static_cast<int>(rng.below(6));
        const bool hulls = trial % 2 == 0;
        std::vector<MissCurve> curves;
        for (int i = 0; i < n; ++i) {
            const MissCurve raw =
                randomRawCurve(rng, 8 + static_cast<int>(rng.below(60)),
                               1 + static_cast<double>(rng.below(40)),
                               !hulls);
            curves.push_back(hulls ? ConvexHull(raw).hull() : raw);
        }
        const uint64_t g = granules[rng.below(5)];
        // Totals that granularity does not divide, and that are
        // smaller than one granule.
        const uint64_t t = rng.below(3000);
        EXPECT_EQ(hill.allocate(curves, t, g),
                  referenceHillClimb(curves, t, g))
            << "trial " << trial << " n " << n << " total " << t
            << " granularity " << g;
    }
}

TEST(HillClimb, IncrementalMatchesPerStepLoopOnTiesAndFlats)
{
    HillClimbAllocator hill;
    const MissCurve flat({{0, 5}, {500, 5}});
    const MissCurve line({{0, 100}, {1000, 0}});
    const MissCurve cliff = cliffCurve(0, 100, 10, 1, 200);
    const MissCurve hull = ConvexHull(cliff).hull();
    // Identical curves (every step ties on gain), all-flat curves
    // (every gain is 0), mixed flat and sloped, and a single
    // partition.
    const std::vector<std::vector<MissCurve>> sets{
        {line, line, line},   {flat, flat},        {flat, line, flat},
        {cliff, cliff},       {hull, hull, cliff}, {line},
        {cliff},              {flat},
    };
    for (size_t k = 0; k < sets.size(); ++k) {
        for (const uint64_t t : {0ull, 5ull, 99ull, 100ull, 101ull,
                                 333ull, 1000ull}) {
            for (const uint64_t g : {1ull, 3ull, 10ull, 128ull}) {
                EXPECT_EQ(hill.allocate(sets[k], t, g),
                          referenceHillClimb(sets[k], t, g))
                    << "set " << k << " total " << t << " granularity "
                    << g;
            }
        }
    }
}

TEST(HillClimb, StuckOnPlateau)
{
    // Two identical cliff curves: plateau to 90, cliff at 100. With
    // budget 100, the optimum gives everything to one app; greedy
    // hill climbing sees zero marginal gain anywhere on the plateau
    // and splits the budget, capturing no cliff.
    const MissCurve cliff = cliffCurve(0, 100, 10, 1, 200);
    const std::vector<MissCurve> curves{cliff, cliff};
    HillClimbAllocator hill;
    DpOptimalAllocator dp;
    const auto hill_alloc = hill.allocate(curves, 100, 10);
    const auto dp_alloc = dp.allocate(curves, 100, 10);
    EXPECT_GT(allocationCost(curves, hill_alloc),
              allocationCost(curves, dp_alloc) + 5.0);
}

TEST(HillClimb, OptimalAfterConvexification)
{
    // The same situation after Talus pre-processing (convex hulls):
    // hill climbing matches DP. This is the paper's central claim
    // about simplifying cache management.
    const MissCurve cliff = cliffCurve(0, 100, 10, 1, 200);
    const MissCurve hull = ConvexHull(cliff).hull();
    const std::vector<MissCurve> curves{hull, hull};
    HillClimbAllocator hill;
    DpOptimalAllocator dp;
    const auto hill_alloc = hill.allocate(curves, 100, 10);
    const auto dp_alloc = dp.allocate(curves, 100, 10);
    EXPECT_NEAR(allocationCost(curves, hill_alloc),
                allocationCost(curves, dp_alloc), 1e-6);
}

TEST(Lookahead, CrossesPlateaus)
{
    // Lookahead sees across the plateau and gives one app the whole
    // cliff (the "all-or-nothing" behaviour of Sec. VII-D).
    const MissCurve cliff = cliffCurve(0, 100, 10, 1, 200);
    const std::vector<MissCurve> curves{cliff, cliff};
    LookaheadAllocator lookahead;
    const auto alloc = lookahead.allocate(curves, 100, 10);
    // One app gets (at least) the cliff, the other ~nothing.
    const uint64_t hi = std::max(alloc[0], alloc[1]);
    const uint64_t lo = std::min(alloc[0], alloc[1]);
    EXPECT_GE(hi, 100u);
    EXPECT_EQ(lo, 0u);
}

TEST(Lookahead, MatchesDpOnCliffPair)
{
    const MissCurve cliff = cliffCurve(0, 100, 10, 1, 200);
    const std::vector<MissCurve> curves{cliff, cliff};
    LookaheadAllocator lookahead;
    DpOptimalAllocator dp;
    EXPECT_NEAR(
        allocationCost(curves, lookahead.allocate(curves, 100, 10)),
        allocationCost(curves, dp.allocate(curves, 100, 10)), 1e-6);
}

TEST(Lookahead, SpreadsWhenNothingHelps)
{
    // All-flat curves: no extension helps; capacity is still fully
    // handed out.
    const MissCurve flat({{0, 5}, {200, 5}});
    LookaheadAllocator lookahead;
    const auto alloc = lookahead.allocate({flat, flat}, 100, 10);
    EXPECT_EQ(total(alloc), 100u);
}

TEST(DpOptimal, BeatsOrMatchesEveryOtherAllocator)
{
    Rng rng(67);
    DpOptimalAllocator dp;
    HillClimbAllocator hill;
    LookaheadAllocator lookahead;
    FairAllocator fair;
    for (int trial = 0; trial < 30; ++trial) {
        // Random curves with random plateaus: adversarial for greedy.
        std::vector<MissCurve> curves;
        const int n = 2 + static_cast<int>(rng.below(3));
        for (int i = 0; i < n; ++i) {
            std::vector<CurvePoint> pts;
            double value = 30 + static_cast<double>(rng.below(50));
            for (int x = 0; x <= 12; ++x) {
                pts.push_back({static_cast<double>(x * 10), value});
                if (rng.chance(0.5))
                    value -= static_cast<double>(rng.below(12));
                if (value < 0)
                    value = 0;
            }
            curves.push_back(MissCurve(pts));
        }
        const double dp_cost =
            allocationCost(curves, dp.allocate(curves, 120, 10));
        for (Allocator* other :
             {static_cast<Allocator*>(&hill),
              static_cast<Allocator*>(&lookahead),
              static_cast<Allocator*>(&fair)}) {
            EXPECT_LE(dp_cost,
                      allocationCost(curves,
                                     other->allocate(curves, 120, 10)) +
                          1e-6)
                << other->name() << " trial " << trial;
        }
    }
}

TEST(Allocators, RespectBudget)
{
    Rng rng(71);
    const MissCurve curve({{0, 10}, {50, 5}, {100, 1}, {200, 0.5}});
    const std::vector<MissCurve> curves{curve, curve, curve};
    for (const std::string& name : knownAllocators()) {
        auto alloc = makeAllocator(name);
        const auto result = alloc->allocate(curves, 150, 10);
        EXPECT_EQ(result.size(), 3u);
        EXPECT_LE(total(result), 150u) << name;
        // Non-wasteful: allocators hand out all whole granules.
        EXPECT_GE(total(result), 150u - 3 * 10) << name;
    }
}

TEST(Allocators, SinglePartitionGetsWholeBudget)
{
    const std::vector<MissCurve> curves{
        MissCurve({{0, 10}, {50, 5}, {100, 1}})};
    for (const auto& name : knownAllocators()) {
        auto alloc = makeAllocator(name);
        const auto out = alloc->allocate(curves, 100, 10);
        ASSERT_EQ(out.size(), 1u) << name;
        EXPECT_EQ(out[0], 100u) << name;
    }
}

TEST(AllocatorFactory, KnownNames)
{
    for (const std::string& name : knownAllocators())
        EXPECT_STREQ(makeAllocator(name)->name(), name.c_str());
}

} // namespace
} // namespace talus
