/**
 * @file
 * Tests for the monitoring stack: exact stack distances, Mattson
 * curves, UMON hardware models (against the exact curves), combined
 * 4x-coverage monitors, and policy monitor arrays.
 */

#include <gtest/gtest.h>

#include <string>

#include "cache/fully_assoc_lru.h"
#include "monitor/combined_umon.h"
#include "monitor/mattson_curve.h"
#include "monitor/policy_monitor.h"
#include "monitor/stack_distance.h"
#include "monitor/umon.h"
#include "sim/single_app_sim.h"
#include "tests/test_util.h"
#include "workload/cyclic_scan.h"
#include "workload/uniform_random.h"

namespace talus {
namespace {

// ------------------------------------------------ StackDistanceCounter

/** Brute-force stack distance: position in an explicit LRU stack. */
class BruteStack
{
  public:
    uint64_t
    access(Addr addr)
    {
        for (size_t i = 0; i < stack_.size(); ++i) {
            if (stack_[i] == addr) {
                stack_.erase(stack_.begin() +
                             static_cast<std::ptrdiff_t>(i));
                stack_.insert(stack_.begin(), addr);
                return i;
            }
        }
        stack_.insert(stack_.begin(), addr);
        return StackDistanceCounter::kCold;
    }

  private:
    std::vector<Addr> stack_;
};

TEST(StackDistance, MatchesBruteForceOnRandomTrace)
{
    StackDistanceCounter fast;
    BruteStack slow;
    auto trace = test::randomTrace(20000, 300, 42);
    for (Addr a : trace)
        ASSERT_EQ(fast.access(a), slow.access(a));
}

TEST(StackDistance, MatchesBruteForceOnScan)
{
    StackDistanceCounter fast;
    BruteStack slow;
    auto trace = test::scanTrace(5000, 128);
    for (Addr a : trace)
        ASSERT_EQ(fast.access(a), slow.access(a));
}

TEST(StackDistance, SurvivesCompaction)
{
    // Enough accesses to force several internal compactions.
    StackDistanceCounter fast;
    BruteStack slow;
    auto trace = test::randomTrace(100000, 100, 7);
    for (Addr a : trace)
        ASSERT_EQ(fast.access(a), slow.access(a));
    EXPECT_EQ(fast.distinctAddrs(), 100u);
}

TEST(StackDistance, ImmediateReuseIsZero)
{
    StackDistanceCounter counter;
    EXPECT_EQ(counter.access(5), StackDistanceCounter::kCold);
    EXPECT_EQ(counter.access(5), 0u);
    counter.access(6);
    EXPECT_EQ(counter.access(5), 1u);
}

// ------------------------------------------------------- MattsonCurve

TEST(Mattson, MatchesDirectLruSimulationAtEverySize)
{
    // The stack property in action: one Mattson pass must equal an
    // independent LRU simulation at each size.
    auto trace = test::randomTrace(30000, 400, 9);
    MattsonCurve mattson(512);
    for (Addr a : trace)
        mattson.access(a);

    for (uint64_t size : {16u, 64u, 128u, 256u, 512u}) {
        FullyAssocLru ref(size);
        for (Addr a : trace)
            ref.access(a);
        EXPECT_EQ(mattson.missesAt(size),
                  ref.accesses() - ref.hits())
            << "size=" << size;
    }
}

TEST(Mattson, ScanCliffShape)
{
    // Cyclic scan of W: miss ratio 1.0 below W, ~0 at W.
    const uint64_t w = 256;
    MattsonCurve mattson(512);
    for (Addr a : test::scanTrace(w * 100, w))
        mattson.access(a);
    const MissCurve curve = mattson.curve(64);
    EXPECT_GT(curve.at(static_cast<double>(w - 64)), 0.95);
    EXPECT_LT(curve.at(static_cast<double>(w)), 0.05);
}

TEST(Mattson, CurveIsNonIncreasingAndBounded)
{
    MattsonCurve mattson(256);
    for (Addr a : test::randomTrace(20000, 300, 10))
        mattson.access(a);
    const MissCurve curve = mattson.curve(16);
    EXPECT_TRUE(curve.isNonIncreasing());
    EXPECT_DOUBLE_EQ(curve.at(0), 1.0);
    EXPECT_GE(curve.at(256), 0.0);
}

TEST(Mattson, ResetClears)
{
    MattsonCurve mattson(64);
    mattson.access(1);
    mattson.reset();
    EXPECT_EQ(mattson.accesses(), 0u);
}

// --------------------------------------------------------------- UMon

TEST(UMon, UnsampledMatchesMattsonClosely)
{
    // Monitor as big as the modeled cache: no sampling, so the UMON
    // way-hit counters must reproduce the exact curve (up to set-
    // mapping noise).
    const uint64_t modeled = 1024;
    UMon::Config cfg;
    cfg.ways = 64;
    cfg.sets = 16; // 1024 monitor lines == modeled size.
    cfg.modeledLines = modeled;
    UMon umon(cfg);
    MattsonCurve mattson(modeled);

    auto trace = test::randomTrace(200000, 1200, 11);
    for (Addr a : trace) {
        umon.access(a);
        mattson.access(a);
    }
    const MissCurve approx = umon.curve();
    const MissCurve exact = mattson.curve(64);
    for (uint64_t s = 128; s <= modeled; s += 128) {
        EXPECT_NEAR(approx.at(static_cast<double>(s)),
                    exact.at(static_cast<double>(s)), 0.06)
            << "size=" << s;
    }
}

TEST(UMon, SampledApproximatesLargerCache)
{
    // Theorem 4 / Assumption 3: a 1K-line monitor sampling 1:4 models
    // a 4K-line cache.
    const uint64_t modeled = 4096;
    UMon::Config cfg;
    cfg.ways = 64;
    cfg.sets = 16;
    cfg.modeledLines = modeled;
    UMon umon(cfg);
    MattsonCurve mattson(modeled);

    auto trace = test::randomTrace(400000, 5000, 13);
    for (Addr a : trace) {
        umon.access(a);
        mattson.access(a);
    }
    EXPECT_GT(umon.sampledAccesses(), 50000u);
    const MissCurve approx = umon.curve();
    const MissCurve exact = mattson.curve(256);
    for (uint64_t s = 1024; s <= modeled; s += 1024) {
        EXPECT_NEAR(approx.at(static_cast<double>(s)),
                    exact.at(static_cast<double>(s)), 0.08)
            << "size=" << s;
    }
}

TEST(UMon, ScanCliffVisible)
{
    const uint64_t modeled = 2048;
    UMon::Config cfg;
    cfg.modeledLines = modeled;
    UMon umon(cfg);
    for (Addr a : test::scanTrace(600000, 1024))
        umon.access(a);
    const MissCurve curve = umon.curve();
    EXPECT_GT(curve.at(512), 0.9);
    EXPECT_LT(curve.at(2000), 0.15);
}

TEST(UMon, DecayHalvesCounters)
{
    UMon::Config cfg;
    cfg.modeledLines = 1024;
    UMon umon(cfg);
    for (Addr a : test::randomTrace(10000, 100, 15))
        umon.access(a);
    const uint64_t before = umon.sampledAccesses();
    umon.decay();
    EXPECT_EQ(umon.sampledAccesses(), before / 2);
}

// ------------------------------------------------------- CombinedUMon

TEST(UMon, ResetClearsSampledState)
{
    UMon::Config cfg;
    cfg.ways = 8;
    cfg.sets = 4;
    cfg.modeledLines = 1 << 12;
    UMon umon(cfg);
    for (Addr a = 0; a < 4096; ++a)
        umon.access(a);
    EXPECT_GT(umon.sampledAccesses(), 0u);

    umon.reset();
    EXPECT_EQ(umon.sampledAccesses(), 0u);
    // A reset monitor still yields a well-formed (anchored) curve.
    const MissCurve curve = umon.curve();
    EXPECT_EQ(curve.numPoints(), cfg.ways + 1u);
    EXPECT_DOUBLE_EQ(curve.point(0).misses, 1.0);
}

TEST(CombinedUMon, CoversFourTimesLlc)
{
    CombinedUMon::Config cfg;
    cfg.llcLines = 1024;
    CombinedUMon mon(cfg);
    EXPECT_EQ(mon.coveredLines(), 4096u);
    for (Addr a : test::randomTrace(100000, 2000, 17))
        mon.access(a);
    const MissCurve curve = mon.curve();
    EXPECT_GE(curve.maxSize(), 4096.0);
    EXPECT_TRUE(curve.isNonIncreasing(1e-9));
}

TEST(CombinedUMon, SeesCliffBeyondLlc)
{
    // The whole point of the second monitor (Sec. VI-C): a cliff at
    // 2x LLC must be visible so Talus can trace the hull toward it.
    CombinedUMon::Config cfg;
    cfg.llcLines = 1024;
    CombinedUMon mon(cfg);
    for (Addr a : test::scanTrace(2000000, 2048))
        mon.access(a);
    const MissCurve curve = mon.curve();
    EXPECT_GT(curve.at(1024), 0.9); // Still missing at LLC size.
    EXPECT_LT(curve.at(3500), 0.3); // Fits beyond the cliff.
}

/**
 * The merge CombinedUMon::curve() replaced, over two standalone UMONs
 * configured as CombinedUMon configures its pair: the primary's
 * curve(), plus the secondary's points above llcLines, re-sorted into
 * one MissCurve, then monotoneClamped().
 */
class ReferenceCombined
{
  public:
    explicit ReferenceCombined(const CombinedUMon::Config& c)
        : cfg_(c), primary_(primaryOf(c)), secondary_(secondaryOf(c))
    {
    }

    void
    access(Addr a)
    {
        primary_.access(a);
        if (cfg_.coverage > 1)
            secondary_.access(a);
    }

    void
    decay()
    {
        primary_.decay();
        secondary_.decay();
    }

    MissCurve
    curve() const
    {
        std::vector<CurvePoint> pts = primary_.curve().points();
        if (cfg_.coverage > 1) {
            const MissCurve coarse = secondary_.curve();
            for (const CurvePoint& p : coarse.points()) {
                if (p.size > static_cast<double>(cfg_.llcLines))
                    pts.push_back(p);
            }
        }
        const MissCurve merged(std::move(pts));
        if (!merged.isNonIncreasing(0.0))
            clampsApplied_++;
        return merged.monotoneClamped();
    }

    /** curve() calls whose merged points needed the clamp. */
    int clampsApplied() const { return clampsApplied_; }

  private:
    static UMon::Config
    primaryOf(const CombinedUMon::Config& c)
    {
        UMon::Config u;
        u.ways = c.primaryWays;
        u.sets = c.sets;
        u.modeledLines = c.llcLines;
        u.seed = c.seed;
        return u;
    }

    static UMon::Config
    secondaryOf(const CombinedUMon::Config& c)
    {
        UMon::Config u;
        u.ways = c.sampledWays;
        u.sets = c.sets;
        u.modeledLines = c.llcLines * c.coverage;
        u.seed = c.seed ^ 0x5A5A5A5A;
        return u;
    }

    CombinedUMon::Config cfg_;
    UMon primary_;
    UMon secondary_;
    mutable int clampsApplied_ = 0;
};

void
expectSamePoints(const MissCurve& got, const MissCurve& want,
                 const std::string& where)
{
    ASSERT_EQ(got.numPoints(), want.numPoints()) << where;
    for (size_t i = 0; i < got.numPoints(); ++i) {
        EXPECT_EQ(got.point(i).size, want.point(i).size)
            << where << " point " << i;
        EXPECT_EQ(got.point(i).misses, want.point(i).misses)
            << where << " point " << i;
    }
}

TEST(CombinedUMon, OnePassCurveMatchesMergeThenClamp)
{
    struct Geometry
    {
        uint64_t llcLines;
        uint32_t primaryWays;
    };
    // Power-of-two and not, a primary granularity that does not divide
    // llcLines (48 ways), and llcLines below 64 (the primary shrinks to
    // one set of llcLines ways; at 10 the secondary shrinks too).
    const Geometry geometries[] = {
        {1024, 64}, {1000, 64}, {3000, 48}, {48, 64}, {10, 64}, {63, 64},
    };
    int clamps = 0;
    for (const Geometry& g : geometries) {
        for (const uint32_t coverage : {1u, 4u}) {
            CombinedUMon::Config cfg;
            cfg.llcLines = g.llcLines;
            cfg.primaryWays = g.primaryWays;
            cfg.coverage = coverage;
            CombinedUMon mon(cfg);
            ReferenceCombined ref(cfg);
            const std::string where =
                "llcLines " + std::to_string(g.llcLines) + " ways " +
                std::to_string(g.primaryWays) + " coverage " +
                std::to_string(coverage);

            expectSamePoints(mon.curve(), ref.curve(),
                             where + " before any access");
            // A working set that fits the LLC, then one 3x its size:
            // the two monitors' cold-miss fractions differ, so the
            // secondary's points above llcLines can sit above the
            // primary's last point and the clamp has work to do.
            std::vector<Addr> trace =
                test::randomTrace(20000, g.llcLines / 2 + 1, 41);
            const std::vector<Addr> wide =
                test::randomTrace(40000, 3 * g.llcLines + 7, 43);
            trace.insert(trace.end(), wide.begin(), wide.end());
            for (size_t i = 0; i < trace.size(); ++i) {
                mon.access(trace[i]);
                ref.access(trace[i]);
                if (i % 20000 == 19999) {
                    expectSamePoints(mon.curve(), ref.curve(),
                                     where + " at " + std::to_string(i));
                    mon.decay();
                    ref.decay();
                    expectSamePoints(mon.curve(), ref.curve(),
                                     where + " after decay at " +
                                         std::to_string(i));
                }
            }
            expectSamePoints(mon.snapshot(), ref.curve(),
                             where + " snapshot");
            clamps += ref.clampsApplied();
        }
    }
    // The comparison covered curves the running minimum changes.
    EXPECT_GT(clamps, 0);
}

// -------------------------------------------------- PolicyMonitorArray

TEST(PolicyMonitor, ApproximatesDirectSrripSweep)
{
    PolicyMonitorArray::Config cfg;
    cfg.modeledSizes = {256, 512, 1024};
    cfg.monitorLines = 512;
    cfg.ways = 16;
    cfg.policyName = "SRRIP";
    PolicyMonitorArray mon(cfg);

    UniformRandom stream(1024, 0, 19);
    for (int i = 0; i < 400000; ++i)
        mon.access(stream.next());

    // Direct SRRIP sweep at the same sizes.
    UniformRandom direct_stream(1024, 0, 19);
    SweepOptions opts;
    opts.policyName = "SRRIP";
    opts.ways = 16;
    opts.measureAccesses = 200000;
    const MissCurve direct =
        sweepPolicyCurve(direct_stream, {256, 512, 1024}, opts);

    const MissCurve approx = mon.curve();
    for (uint64_t s : {256u, 512u, 1024u}) {
        EXPECT_NEAR(approx.at(static_cast<double>(s)),
                    direct.at(static_cast<double>(s)), 0.1)
            << "size=" << s;
    }
}

TEST(PolicyMonitor, ReportsImpracticalStateSize)
{
    // 64 monitors x 1K lines x 4B tags = 256KB (Sec. VI-C's point).
    PolicyMonitorArray::Config cfg;
    cfg.modeledSizes.assign(64, 1024);
    for (size_t i = 0; i < cfg.modeledSizes.size(); ++i)
        cfg.modeledSizes[i] = 1024 * (i + 1);
    cfg.monitorLines = 1024;
    PolicyMonitorArray mon(cfg);
    EXPECT_EQ(mon.stateBytes(), 64u * 1024 * 4);
}

TEST(PolicyMonitor, CurveMonotoneAndAnchored)
{
    PolicyMonitorArray::Config cfg;
    cfg.modeledSizes = {128, 256, 512};
    PolicyMonitorArray mon(cfg);
    for (Addr a : test::randomTrace(100000, 600, 21))
        mon.access(a);
    const MissCurve curve = mon.curve();
    EXPECT_DOUBLE_EQ(curve.at(0), 1.0);
    EXPECT_TRUE(curve.isNonIncreasing(1e-9));
}

} // namespace
} // namespace talus
