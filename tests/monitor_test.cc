/**
 * @file
 * Tests for the monitoring stack: exact stack distances, Mattson
 * curves, UMON hardware models (against the exact curves), combined
 * 4x-coverage monitors, and policy monitor arrays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "cache/fully_assoc_lru.h"
#include "cache/lru_rows.h"
#include "monitor/combined_umon.h"
#include "monitor/mattson_curve.h"
#include "monitor/policy_monitor.h"
#include "monitor/stack_distance.h"
#include "monitor/umon.h"
#include "sim/single_app_sim.h"
#include "tests/test_util.h"
#include "util/rng.h"
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

// ------------------------------------------------ UMON oracle

/**
 * The definitional UMON: a move-to-front tag array per set, scanned
 * from MRU and shifted on every sampled access, with the hit's LRU
 * stack position counted. Geometry, sampling and set selection follow
 * UMon's specification (shrink to the modeled size, an H3 hash of
 * UMon::kHashBits bits below ceil(threshold * 2^bits) samples, its
 * low bits pick the set) and curve() the same arithmetic, so a
 * correct UMon agrees with it point for point, double for double.
 */
class ReferenceUMon
{
  public:
    explicit ReferenceUMon(const UMon::Config& c)
        : cfg_(c), hash_(UMon::kHashBits, c.seed)
    {
        if (cfg_.modeledLines <
            static_cast<uint64_t>(cfg_.ways) * cfg_.sets) {
            if (cfg_.modeledLines < cfg_.ways) {
                cfg_.ways = static_cast<uint32_t>(cfg_.modeledLines);
                cfg_.sets = 1;
            } else {
                cfg_.sets = static_cast<uint32_t>(std::max<uint64_t>(
                    1, cfg_.modeledLines / cfg_.ways));
            }
        }
        const uint64_t lines =
            static_cast<uint64_t>(cfg_.ways) * cfg_.sets;
        const double threshold =
            cfg_.modeledLines <= lines
                ? 1.0
                : static_cast<double>(lines) /
                      static_cast<double>(cfg_.modeledLines);
        limit_ = threshold * static_cast<double>(hash_.range());
        reset();
    }

    void access(Addr a) { accessHashed(a, hash_.hash(a)); }

    /** access() for a caller that already holds the monitor's hash. */
    void
    accessHashed(Addr a, uint32_t h)
    {
        if (static_cast<double>(h) >= limit_)
            return;
        sampled_++;
        Addr* row = &stack_[static_cast<size_t>(h % cfg_.sets) * cfg_.ways];
        uint32_t pos = 0;
        while (pos < cfg_.ways && row[pos] != a) {
            fpCollisions_ += row[pos] != kEmpty &&
                             tagFingerprint(row[pos]) == tagFingerprint(a);
            pos++;
        }
        if (pos < cfg_.ways)
            hits_[pos]++;
        else
            pos = cfg_.ways - 1; // Drop the LRU tag.
        for (; pos > 0; --pos)
            row[pos] = row[pos - 1];
        row[0] = a;
    }

    MissCurve
    curve() const
    {
        const double granularity =
            static_cast<double>(cfg_.modeledLines) / cfg_.ways;
        const double total =
            sampled_ > 0 ? static_cast<double>(sampled_) : 1.0;
        std::vector<CurvePoint> pts = {{0.0, 1.0}};
        uint64_t hits = 0;
        for (uint32_t d = 0; d < cfg_.ways; ++d) {
            hits += hits_[d];
            pts.push_back({granularity * (d + 1),
                           static_cast<double>(sampled_ - hits) / total});
        }
        return MissCurve(std::move(pts));
    }

    void
    decay()
    {
        for (uint64_t& h : hits_)
            h /= 2;
        sampled_ /= 2;
    }

    void
    reset()
    {
        stack_.assign(static_cast<size_t>(cfg_.ways) * cfg_.sets, kEmpty);
        hits_.assign(cfg_.ways, 0);
        sampled_ = 0;
    }

    uint64_t sampledAccesses() const { return sampled_; }

    /** Scanned resident tags whose fingerprint equalled the probe's. */
    uint64_t fpCollisions() const { return fpCollisions_; }

  private:
    static constexpr Addr kEmpty = ~0ull;

    UMon::Config cfg_;
    H3Hash hash_;
    double limit_ = 0;
    std::vector<Addr> stack_; //!< [set * ways + pos], pos 0 = MRU.
    std::vector<uint64_t> hits_;
    uint64_t sampled_ = 0;
    uint64_t fpCollisions_ = 0;
};

/**
 * Oracle address streams: uniform keys; tenant addresses at bit 40
 * and up whose high word changes every few accesses (inside any
 * block); and a pool of fingerprint-colliding pairs, where a ^ (x |
 * x << 32) folds to a's fingerprint for every x.
 */
std::vector<Addr>
oracleTrace(int kind, size_t n, uint64_t distinct, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> t(n);
    for (size_t i = 0; i < n; ++i) {
        const Addr key = rng.below(distinct);
        if (kind == 0) {
            t[i] = key;
        } else if (kind == 1) {
            const Addr tenant = 1 + (i / (1 + rng.below(6))) % 3;
            t[i] = (tenant << 40) + (rng.below(2) << 33) + key;
        } else {
            const uint64_t x = rng.below(4) * 0x9E3779B9ull;
            t[i] = (key * 0x10001ull + (7ull << 40)) ^ (x | x << 32);
        }
    }
    return t;
}

const char* const kTraceNames[] = {"uniform", "tenant", "fp-collide"};

void
expectSameCurves(const MissCurve& got, const MissCurve& want,
                 const std::string& where)
{
    ASSERT_EQ(got.numPoints(), want.numPoints()) << where;
    for (size_t i = 0; i < got.numPoints(); ++i) {
        ASSERT_EQ(got.point(i).size, want.point(i).size)
            << where << " point " << i;
        ASSERT_EQ(got.point(i).misses, want.point(i).misses)
            << where << " point " << i;
    }
}

struct OracleGeometry
{
    uint32_t ways;
    uint32_t sets;
    uint64_t modeledLines;
};

// 64x16 sampled and unsampled, 48 ways (three 16-way chunks), 16 and
// 8 ways, non-power-of-two set counts, and extension_test's two
// shrink cases (64x16 modeling 256 lines -> 4 sets; modeling 8 -> one
// 8-way set).
constexpr OracleGeometry kOracleGeometries[] = {
    {64, 16, 4096}, {64, 16, 1024}, {48, 16, 3000}, {16, 16, 16384},
    {8, 4, 512},    {16, 12, 768},  {32, 5, 640},   {64, 16, 256},
    {64, 16, 8},
};

TEST(UMonOracle, MatchesMoveToFrontThroughDecayAndReset)
{
    uint64_t collisions = 0;
    for (const OracleGeometry& g : kOracleGeometries) {
        for (int kind = 0; kind < 3; ++kind) {
            UMon::Config cfg;
            cfg.ways = g.ways;
            cfg.sets = g.sets;
            cfg.modeledLines = g.modeledLines;
            cfg.seed = 0x0707 + g.ways + kind;
            UMon umon(cfg);
            ReferenceUMon ref(cfg);
            const std::string where =
                std::to_string(g.ways) + "x" + std::to_string(g.sets) +
                " modeling " + std::to_string(g.modeledLines) + " " +
                kTraceNames[kind];
            const std::vector<Addr> trace = oracleTrace(
                kind, 60000, 2 * g.modeledLines + 3, 17 + kind);
            for (size_t i = 0; i < trace.size(); ++i) {
                umon.access(trace[i]);
                ref.access(trace[i]);
                if (i % 7001 == 7000) {
                    expectSameCurves(umon.curve(), ref.curve(),
                                     where + " at " + std::to_string(i));
                    umon.decay();
                    ref.decay();
                }
                if (i == 30000) {
                    umon.reset();
                    ref.reset();
                }
            }
            ASSERT_EQ(umon.sampledAccesses(), ref.sampledAccesses())
                << where;
            expectSameCurves(umon.curve(), ref.curve(), where + " end");
            collisions += ref.fpCollisions();
        }
    }
    // The verify-after-fingerprint path was exercised.
    EXPECT_GT(collisions, 0u);
}

/**
 * CombinedUMon against two definitional monitors configured as it
 * configures its pair, merged as CombinedUMon::curve() specifies.
 */
class ReferenceCombinedMtf
{
  public:
    explicit ReferenceCombinedMtf(const CombinedUMon::Config& c)
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

    void
    reset()
    {
        primary_.reset();
        secondary_.reset();
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
        return MissCurve(std::move(pts)).monotoneClamped();
    }

    uint64_t sampledAccesses() const { return primary_.sampledAccesses(); }

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
    ReferenceUMon primary_;
    ReferenceUMon secondary_;
};

TEST(UMonOracle, CombinedBlocksMatchMoveToFrontReference)
{
    struct Geometry
    {
        uint64_t llcLines;
        uint32_t primaryWays;
        uint32_t coverage;
    };
    const Geometry geometries[] = {
        {8192, 64, 4}, {3000, 48, 4}, {1024, 64, 1}, {256, 16, 4},
        {8, 64, 4},
    };
    for (const Geometry& g : geometries) {
        for (int kind = 0; kind < 3; ++kind) {
            const std::vector<Addr> trace =
                oracleTrace(kind, 40000, 2 * g.llcLines + 5, 29 + kind);
            // Block length 0 drives access() per address.
            for (const size_t block : {size_t(0), size_t(1), size_t(7),
                                       size_t(4096)}) {
                CombinedUMon::Config cfg;
                cfg.llcLines = g.llcLines;
                cfg.primaryWays = g.primaryWays;
                cfg.coverage = g.coverage;
                cfg.seed = 0x2B0B + g.llcLines;
                CombinedUMon mon(cfg);
                ReferenceCombinedMtf ref(cfg);
                const std::string where =
                    "llcLines " + std::to_string(g.llcLines) + " ways " +
                    std::to_string(g.primaryWays) + " coverage " +
                    std::to_string(g.coverage) + " " + kTraceNames[kind] +
                    " block " + std::to_string(block);
                size_t i = 0;
                int round = 0;
                while (i < trace.size()) {
                    const size_t n =
                        block == 0
                            ? 1
                            : std::min(block, trace.size() - i);
                    if (block == 0)
                        mon.access(trace[i]);
                    else
                        mon.accessBlock(
                            Span<const Addr>(trace.data() + i, n));
                    for (size_t k = i; k < i + n; ++k)
                        ref.access(trace[k]);
                    i += n;
                    if (i / 9000 != (i - n) / 9000) {
                        expectSameCurves(mon.curve(), ref.curve(),
                                         where + " at " +
                                             std::to_string(i));
                        if (++round == 2) {
                            mon.reset();
                            ref.reset();
                        } else {
                            mon.decay();
                            ref.decay();
                        }
                    }
                }
                ASSERT_EQ(mon.sampledAccesses(), ref.sampledAccesses())
                    << where;
                expectSameCurves(mon.curve(), ref.curve(), where + " end");
            }
        }
    }
}

TEST(UMonDeathTest, InvalidTagSentinelIsRejected)
{
    // An unsampled monitor samples every address, so the sentinel
    // reaches the walk instead of counting as a hit on an empty way.
    UMon::Config cfg;
    cfg.ways = 16;
    cfg.sets = 4;
    cfg.modeledLines = 64;
    UMon umon(cfg);
    EXPECT_DEATH(umon.access(~0ull), "invalid-tag sentinel");

    CombinedUMon::Config cc;
    cc.llcLines = 64;
    CombinedUMon mon(cc);
    const Addr block[] = {1, 2, ~0ull, 3};
    EXPECT_DEATH(mon.accessBlock(Span<const Addr>(block, 4)),
                 "invalid-tag sentinel");
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
