/**
 * @file
 * Tests for the workload generators and the synthetic SPEC suite:
 * determinism, reset/clone semantics, and — crucially — that each
 * generator produces the LRU miss-curve shape it is documented to
 * produce (cliffs for scans, ramps for random, convex tails for
 * Zipf).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "cache/fully_assoc_lru.h"
#include "monitor/mattson_curve.h"
#include "monitor/stack_distance.h"
#include "tests/test_util.h"
#include "util/bits.h"
#include "workload/cyclic_scan.h"
#include "workload/filtered_stream.h"
#include "workload/guided_cdf.h"
#include "workload/mix_stream.h"
#include "workload/phase_stream.h"
#include "workload/prefetched_stream.h"
#include "workload/scenarios.h"
#include "workload/spec_suite.h"
#include "workload/stack_dist_stream.h"
#include "workload/uniform_random.h"
#include "workload/zipf_stream.h"

namespace talus {
namespace {

template <typename Stream>
void
expectDeterministicAndResettable(Stream& s)
{
    auto first = test::collect(s, 1000);
    s.reset();
    auto second = test::collect(s, 1000);
    EXPECT_EQ(first, second);

    auto cloned = s.clone();
    auto third = test::collect(*cloned, 1000);
    EXPECT_EQ(first, third);
}

/**
 * nextBlock's contract: the exact sequence n calls to next() produce.
 * The sims replay exclusively through nextBlock, so an override that
 * drifts from next() would silently change every figure — pin the
 * overriding streams (UniformRandom, ZipfStream, MixStream) and one
 * default-implementation stream against a fresh clone driven via
 * next(). The default block sizes are uneven so block boundaries
 * land mid-sequence.
 */
template <typename Stream>
void
expectBlockMatchesSerial(Stream& s,
                         std::vector<uint64_t> sizes = {1, 7, 256, 1000,
                                                        1736})
{
    uint64_t total = 0;
    for (uint64_t n : sizes)
        total += n;
    auto serial = s.clone();
    std::vector<Addr> expect;
    for (uint64_t i = 0; i < total; ++i)
        expect.push_back(serial->next());

    std::vector<Addr> got(total);
    uint64_t off = 0;
    for (uint64_t n : sizes) {
        s.nextBlock(got.data() + off, n);
        off += n;
    }
    EXPECT_EQ(got, expect);
}

TEST(UniformRandom, NextBlockMatchesNext)
{
    UniformRandom s(1000, 2, 99);
    expectBlockMatchesSerial(s);
}

TEST(Zipf, NextBlockMatchesNext)
{
    ZipfStream pow2(1024, 0.8, 1, 7);
    expectBlockMatchesSerial(pow2);
    ZipfStream odd(1000, 0.8, 1, 7); // Non-pow2: no rank scramble.
    expectBlockMatchesSerial(odd);
}

TEST(Mix, NextBlockMatchesNext)
{
    // MixStream's tiled nextBlock against its next(); also covers its
    // component streams' own block paths.
    std::vector<MixStream::Component> parts;
    parts.push_back({std::make_unique<UniformRandom>(500, 1, 3), 0.5});
    parts.push_back({std::make_unique<ZipfStream>(512, 0.8, 2, 5), 0.5});
    MixStream s(std::move(parts), 11);
    expectBlockMatchesSerial(s);
}

TEST(Mix, NextBlockMatchesNextAcrossTiles)
{
    // Unequal weights, a scan that uses the default nextBlock, and a
    // nested mixture, at block sizes around MixStream's 256-address
    // tile and one spanning many tiles.
    std::vector<MixStream::Component> inner;
    inner.push_back({std::make_unique<ZipfStream>(256, 1.1, 4, 8), 2.0});
    inner.push_back({std::make_unique<CyclicScan>(40, 5), 1.0});
    std::vector<MixStream::Component> parts;
    parts.push_back({std::make_unique<ZipfStream>(1000, 0.8, 1, 5), 5.0});
    parts.push_back({std::make_unique<UniformRandom>(300, 2, 6), 1.0});
    parts.push_back({std::make_unique<CyclicScan>(77, 3), 0.25});
    parts.push_back({std::make_unique<MixStream>(std::move(inner), 9), 2.5});
    MixStream s(std::move(parts), 12);
    expectBlockMatchesSerial(s, {255, 256, 257, 4096 + 3, 1, 255});
}

TEST(StackDist, DefaultNextBlockMatchesNext)
{
    // StackDistStream does not override nextBlock: this covers the
    // base-class loop.
    StackDistStream s({{4, 0.5}, {16, 0.2}}, 0.3, 0, 17);
    expectBlockMatchesSerial(s);
}

TEST(CyclicScan, DeterministicResetClone)
{
    CyclicScan s(100, 1);
    expectDeterministicAndResettable(s);
}

TEST(CyclicScan, VisitsAllLinesInOrder)
{
    CyclicScan s(5);
    std::vector<Addr> expect{0, 1, 2, 3, 4, 0, 1};
    for (Addr e : expect)
        EXPECT_EQ(s.next(), e);
}

TEST(CyclicScan, LruCliffAtWorkingSet)
{
    // The defining property: zero hits below W, all hits at >= W.
    const uint64_t w = 128;
    CyclicScan s(w);
    FullyAssocLru small(w - 1), fit(w);
    for (uint64_t i = 0; i < w * 20; ++i) {
        const Addr a = s.next();
        small.access(a);
        fit.access(a);
    }
    EXPECT_EQ(small.hits(), 0u);
    EXPECT_EQ(fit.hits(), fit.accesses() - w);
}

TEST(UniformRandom, DeterministicResetClone)
{
    UniformRandom s(1000, 2, 99);
    expectDeterministicAndResettable(s);
}

TEST(UniformRandom, StaysInWorkingSetAndCoversIt)
{
    UniformRandom s(64, 0, 7);
    std::set<Addr> seen;
    for (int i = 0; i < 10000; ++i) {
        const Addr a = s.next();
        EXPECT_LT(a, 64u);
        seen.insert(a);
    }
    EXPECT_EQ(seen.size(), 64u);
}

TEST(UniformRandom, LruMissRatioLinearInSize)
{
    // Hit rate at size s is ~ s/W for uniform random accesses.
    const uint64_t w = 512;
    for (double frac : {0.25, 0.5, 0.75}) {
        UniformRandom s(w, 0, 21);
        FullyAssocLru cache(static_cast<uint64_t>(frac * w));
        for (int i = 0; i < 200000; ++i)
            cache.access(s.next());
        const double hit_rate = static_cast<double>(cache.hits()) /
                                static_cast<double>(cache.accesses());
        EXPECT_NEAR(hit_rate, frac, 0.05) << "frac=" << frac;
    }
}

TEST(Zipf, DeterministicResetClone)
{
    ZipfStream s(500, 0.8, 1, 5);
    expectDeterministicAndResettable(s);
}

TEST(Zipf, SkewMeansHotItemsDominate)
{
    ZipfStream s(1024, 1.0, 0, 3);
    std::map<Addr, int> counts;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        counts[s.next()]++;
    // The hottest line should get far more than uniform share.
    int max_count = 0;
    for (const auto& [addr, c] : counts)
        max_count = std::max(max_count, c);
    EXPECT_GT(max_count, 20 * n / 1024);
}

TEST(Zipf, ConvexLruMissCurve)
{
    ZipfStream s(2048, 0.9, 0, 9);
    MattsonCurve mattson(2048);
    for (int i = 0; i < 400000; ++i)
        mattson.access(s.next());
    const MissCurve curve = mattson.curve(256);
    EXPECT_TRUE(curve.isNonIncreasing(0.01));
    EXPECT_TRUE(curve.isConvex(0.05));
}

TEST(StackDist, MatchesRequestedProfile)
{
    // Ask for 60% of accesses at distance 10, 40% cold; verify the
    // measured stack distances reproduce it.
    StackDistStream s({{10, 0.6}}, 0.4, 0, 13);
    StackDistanceCounter counter;
    uint64_t at_ten = 0, cold = 0, n = 50000;
    for (uint64_t i = 0; i < n; ++i) {
        const uint64_t d = counter.access(s.next());
        if (d == StackDistanceCounter::kCold)
            cold++;
        else if (d == 10)
            at_ten++;
    }
    EXPECT_NEAR(static_cast<double>(at_ten) / n, 0.6, 0.05);
    EXPECT_NEAR(static_cast<double>(cold) / n, 0.4, 0.05);
}

TEST(StackDist, DeterministicResetClone)
{
    StackDistStream s({{4, 0.5}, {16, 0.2}}, 0.3, 0, 17);
    expectDeterministicAndResettable(s);
}

TEST(Mix, WeightsRespected)
{
    // Two disjoint address spaces; component weights 3:1.
    std::vector<MixStream::Component> comps;
    comps.push_back({std::make_unique<CyclicScan>(100, 1), 3.0});
    comps.push_back({std::make_unique<CyclicScan>(100, 2), 1.0});
    MixStream mix(std::move(comps), 23);
    uint64_t first = 0, n = 40000;
    for (uint64_t i = 0; i < n; ++i)
        first += (mix.next() >> kAddrSpaceShift) == 1;
    EXPECT_NEAR(static_cast<double>(first) / n, 0.75, 0.02);
}

TEST(Mix, DeterministicResetClone)
{
    std::vector<MixStream::Component> comps;
    comps.push_back({std::make_unique<UniformRandom>(50, 1, 3), 1.0});
    comps.push_back({std::make_unique<ZipfStream>(50, 0.8, 2, 4), 1.0});
    MixStream mix(std::move(comps), 29);
    expectDeterministicAndResettable(mix);
}

// ----------------------------------------------------------- AppSpec

TEST(Filtered, ScanPassesThroughSmallFilter)
{
    // A cyclic scan thrashes a too-small private LRU filter, so
    // nearly every access misses there and reaches the LLC stream.
    FilteredStream s(std::make_unique<CyclicScan>(1024), 64);
    for (int i = 0; i < 4096; ++i)
        s.next();
    EXPECT_GT(s.passRatio(), 0.95);
}

TEST(Filtered, AbsorbsTemporalLocality)
{
    // Uniform random over 512 lines against a 256-line filter: about
    // half the accesses hit the private cache and are filtered out.
    FilteredStream s(std::make_unique<UniformRandom>(512, 0, 5), 256);
    for (int i = 0; i < 20000; ++i)
        s.next();
    EXPECT_LT(s.passRatio(), 0.7);
    EXPECT_GT(s.passRatio(), 0.3);
}

TEST(Filtered, DeterministicResetClone)
{
    FilteredStream s(std::make_unique<UniformRandom>(512, 1, 42), 128);
    expectDeterministicAndResettable(s);
}

TEST(Prefetched, SequentialStreamTriggersPrefetches)
{
    PrefetchedStream s(std::make_unique<CyclicScan>(4096));
    for (int i = 0; i < 10000; ++i)
        s.next();
    EXPECT_GT(s.prefetchesIssued(), 0u);
}

TEST(Prefetched, RandomStreamRarelyTriggers)
{
    // No sequential streams to train on: far fewer prefetches than
    // the scan case relative to demand accesses.
    PrefetchedStream s(std::make_unique<UniformRandom>(1 << 20, 0, 9));
    for (int i = 0; i < 10000; ++i)
        s.next();
    EXPECT_LT(s.prefetchesIssued(), 1000u);
}

TEST(Prefetched, DeterministicResetClone)
{
    PrefetchedStream s(std::make_unique<CyclicScan>(512));
    expectDeterministicAndResettable(s);
}

TEST(AppSpec, ComponentsUseDisjointSubspaces)
{
    const AppSpec& app = findApp("omnetpp"); // scan + zipf.
    auto stream = app.buildStream(128, 1, 5);
    std::set<uint64_t> spaces;
    for (int i = 0; i < 10000; ++i)
        spaces.insert(stream->next() >> kAddrSpaceShift);
    EXPECT_GE(spaces.size(), 2u);
}

TEST(AppSpec, FootprintIsLargestComponent)
{
    EXPECT_DOUBLE_EQ(findApp("libquantum").footprintMb(), 32.0);
    EXPECT_DOUBLE_EQ(findApp("omnetpp").footprintMb(), 8.0);
}

TEST(AppSpec, InstrPerAccessFromApki)
{
    EXPECT_NEAR(findApp("libquantum").instrPerAccess(), 1000.0 / 33.0,
                1e-9);
}

TEST(SpecSuite, HasAllDocumentedApps)
{
    const auto names = allAppNames();
    EXPECT_GE(names.size(), 22u);
    for (const char* required :
         {"libquantum", "omnetpp", "xalancbmk", "mcf", "perlbench",
          "cactusADM", "lbm", "GemsFDTD", "gobmk", "povray", "tonto"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), required),
                  names.end())
            << required;
    }
}

TEST(SpecSuite, MemIntensivePoolHas18UniqueApps)
{
    const auto pool = memIntensiveAppNames();
    EXPECT_EQ(pool.size(), 18u);
    std::set<std::string> unique(pool.begin(), pool.end());
    EXPECT_EQ(unique.size(), 18u);
    for (const std::string& name : pool)
        EXPECT_NO_FATAL_FAILURE(findApp(name));
}

TEST(SpecSuite, LibquantumHasTheFig1Cliff)
{
    // LRU on libquantum (scaled): flat high MPKI below the 32MB
    // cliff, near zero above it. Use a tiny scale for test speed.
    const uint64_t lines_per_mb = 16; // 32MB -> 512 lines.
    const AppSpec& app = findApp("libquantum");
    auto stream = app.buildStream(lines_per_mb, 0, 7);

    MattsonCurve mattson(1024);
    for (int i = 0; i < 200000; ++i)
        mattson.access(stream->next());
    const MissCurve curve = mattson.curve(64);
    EXPECT_GT(curve.at(256), 0.9); // Plateau at ~full miss ratio.
    EXPECT_GT(curve.at(448), 0.9);
    EXPECT_LT(curve.at(576), 0.1); // Past the cliff.
}

TEST(SpecSuite, OmnetppCliffAtTwoMb)
{
    // The 2MB scan (128 lines at this scale) creates a cliff. In the
    // mixed stream the scan's effective LRU stack distance is its
    // working set plus the zipf lines touched per lap, so the drop
    // sits a bit beyond 128 lines — bracket it generously.
    const uint64_t lines_per_mb = 64; // 2MB -> 128 lines.
    const AppSpec& app = findApp("omnetpp");
    auto stream = app.buildStream(lines_per_mb, 0, 9);
    MattsonCurve mattson(1024);
    for (int i = 0; i < 300000; ++i)
        mattson.access(stream->next());
    const MissCurve curve = mattson.curve(32);
    const double before = curve.at(64);
    const double after = curve.at(384);
    EXPECT_GT(before - after, 0.3);
    EXPECT_FALSE(curve.isConvex(0.001)); // The cliff is visible.
}

TEST(SpecSuite, BuildsEveryAppStream)
{
    for (const AppSpec& app : specSuite()) {
        auto stream = app.buildStream(32, 3, 11);
        ASSERT_NE(stream, nullptr) << app.name;
        for (int i = 0; i < 1000; ++i)
            stream->next();
    }
}

// ------------------------------------------------------- PhaseStream

/** A 3-phase composition with short phases for boundary tests. */
std::unique_ptr<PhaseStream>
smallPhaseStream()
{
    std::vector<PhaseStream::Phase> phases;
    phases.push_back(
        {"a", std::make_unique<CyclicScan>(16, 0), 100});
    phases.push_back(
        {"b", std::make_unique<UniformRandom>(64, 1, 7), 50});
    phases.push_back(
        {"c", std::make_unique<ZipfStream>(128, 0.9, 2, 9), 75});
    return std::make_unique<PhaseStream>(std::move(phases));
}

TEST(PhaseStream, DeterministicAndResettable)
{
    auto s = smallPhaseStream();
    expectDeterministicAndResettable(*s);
}

TEST(PhaseStream, NextBlockMatchesNext)
{
    // 3000 accesses cross every phase boundary many times (lap = 225).
    auto s = smallPhaseStream();
    expectBlockMatchesSerial(*s);
}

TEST(PhaseStream, ScheduleAccounting)
{
    auto s = smallPhaseStream();
    EXPECT_EQ(s->numPhases(), 3u);
    EXPECT_EQ(s->scheduleAccesses(), 225u);
    EXPECT_EQ(s->phaseLabel(1), "b");
    EXPECT_EQ(s->phaseAccesses(2), 75u);

    // phaseAt maps an absolute access number into the cycle.
    EXPECT_EQ(s->phaseAt(0), 0u);
    EXPECT_EQ(s->phaseAt(99), 0u);
    EXPECT_EQ(s->phaseAt(100), 1u);
    EXPECT_EQ(s->phaseAt(149), 1u);
    EXPECT_EQ(s->phaseAt(150), 2u);
    EXPECT_EQ(s->phaseAt(225), 0u); // Second lap.
    EXPECT_EQ(s->phaseAt(225 + 160), 2u);

    // currentPhase advances with consumption.
    EXPECT_EQ(s->currentPhase(), 0u);
    test::collect(*s, 100);
    EXPECT_EQ(s->currentPhase(), 1u);
    test::collect(*s, 125);
    EXPECT_EQ(s->currentPhase(), 0u); // Wrapped to the next lap.
}

TEST(PhaseStream, PhaseBoundariesSwitchAddressSpaces)
{
    // Each child above lives in its own address space, so the serving
    // phase is directly observable on the produced addresses.
    auto s = smallPhaseStream();
    const auto trace = test::collect(*s, 225);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(trace[i] >> kAddrSpaceShift, 0u) << i;
    for (int i = 100; i < 150; ++i)
        EXPECT_EQ(trace[i] >> kAddrSpaceShift, 1u) << i;
    for (int i = 150; i < 225; ++i)
        EXPECT_EQ(trace[i] >> kAddrSpaceShift, 2u) << i;
}

TEST(PhaseStream, ChildrenContinueAcrossLaps)
{
    // A returning phase resumes its child where it left off (no reset
    // between laps): the scan child must continue its sweep, not
    // restart from line 0.
    std::vector<PhaseStream::Phase> phases;
    phases.push_back({"scan", std::make_unique<CyclicScan>(64, 0), 10});
    phases.push_back(
        {"other", std::make_unique<UniformRandom>(8, 1, 3), 5});
    PhaseStream s(std::move(phases));

    const auto lap1 = test::collect(s, 15);
    const auto lap2 = test::collect(s, 15);
    // Second lap's scan continues at line 10.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(lap2[i], static_cast<Addr>(10 + i)) << i;
}

// -------------------------------------------------- scenario factories

TEST(Scenarios, AllFactoriesAreDeterministicAndResettable)
{
    DiurnalSpec d;
    d.dayLines = 512;
    d.nightLines = 64;
    auto diurnal = makeDiurnalStream(d);
    expectDeterministicAndResettable(*diurnal);

    FlashCrowdSpec f;
    f.baseLines = 512;
    auto crowd = makeFlashCrowdStream(f);
    expectDeterministicAndResettable(*crowd);

    ScanStormSpec s;
    s.baseLines = 256;
    s.scanLines = 512;
    auto storm = makeScanStormStream(s);
    expectDeterministicAndResettable(*storm);

    TenantChurnSpec t;
    t.tenantLines = 256;
    auto churn = makeTenantChurnStream(t);
    expectDeterministicAndResettable(*churn);
}

TEST(Scenarios, AllFactoriesNextBlockMatchesNext)
{
    DiurnalSpec d;
    d.dayLines = 512;
    d.nightLines = 64;
    d.phaseAccesses = 700; // Short phases: boundaries land mid-block.
    auto diurnal = makeDiurnalStream(d);
    expectBlockMatchesSerial(*diurnal);

    FlashCrowdSpec f;
    f.baseLines = 512;
    f.quietAccesses = 600;
    f.crowdAccesses = 400;
    auto crowd = makeFlashCrowdStream(f);
    expectBlockMatchesSerial(*crowd);

    ScanStormSpec s;
    s.baseLines = 256;
    s.scanLines = 512;
    s.calmAccesses = 500;
    s.stormAccesses = 300;
    auto storm = makeScanStormStream(s);
    expectBlockMatchesSerial(*storm);

    TenantChurnSpec t;
    t.tenantLines = 256;
    t.phaseAccesses = 450;
    auto churn = makeTenantChurnStream(t);
    expectBlockMatchesSerial(*churn);
}

TEST(Scenarios, SeedsChangeTheStream)
{
    ScanStormSpec a, b;
    a.baseLines = b.baseLines = 256;
    a.scanLines = b.scanLines = 512;
    b.seed = a.seed + 1;
    auto sa = makeScanStormStream(a);
    auto sb = makeScanStormStream(b);
    EXPECT_NE(test::collect(*sa, 2000), test::collect(*sb, 2000));
}

TEST(Scenarios, PhaseLabelsTellTheStory)
{
    DiurnalSpec d;
    auto diurnal = makeDiurnalStream(d);
    ASSERT_EQ(diurnal->numPhases(), 2u);
    EXPECT_EQ(diurnal->phaseLabel(0), "day");
    EXPECT_EQ(diurnal->phaseLabel(1), "night");

    FlashCrowdSpec f;
    auto crowd = makeFlashCrowdStream(f);
    ASSERT_EQ(crowd->numPhases(), 3u);
    EXPECT_EQ(crowd->phaseLabel(1), "crowd");

    ScanStormSpec s;
    auto storm = makeScanStormStream(s);
    ASSERT_EQ(storm->numPhases(), 3u);
    EXPECT_EQ(storm->phaseLabel(1), "storm");

    TenantChurnSpec t;
    auto churn = makeTenantChurnStream(t);
    ASSERT_EQ(churn->numPhases(), 3u);
    EXPECT_EQ(churn->phaseLabel(0), "tenants-AB");
}

// ------------------------------------------------ cross-version golden

/*
 * NextBlockMatchesNext compares each stream with itself, so an index
 * bug shared by next() and nextBlock() would pass it. These folds were
 * recorded from the binary-search generators (one std::lower_bound
 * over the whole CDF per draw, and a MixStream without nextBlock);
 * every later generator must reproduce them through both paths.
 */

constexpr uint64_t kGoldenDraws = 1 << 16;

/**
 * Chains @p a into the fold @p h. mix64 is a bijection; the odd
 * increment keeps a run of zero addresses from folding to zero.
 */
uint64_t
foldAddr(uint64_t h, Addr a)
{
    return mix64((h + 0x9E3779B97F4A7C15ull) ^ a);
}

uint64_t
foldViaNext(AccessStream& s)
{
    uint64_t h = 0;
    for (uint64_t i = 0; i < kGoldenDraws; ++i)
        h = foldAddr(h, s.next());
    return h;
}

/** Uneven blocks that straddle a 256-address tile and phase ends. */
uint64_t
foldViaBlocks(AccessStream& s)
{
    const uint64_t sizes[] = {1, 255, 256, 257, 4099, 3, 1000};
    std::vector<Addr> buf(4099);
    uint64_t h = 0;
    for (uint64_t done = 0, k = 0; done < kGoldenDraws; ++k) {
        const uint64_t n =
            std::min(sizes[k % std::size(sizes)], kGoldenDraws - done);
        s.nextBlock(buf.data(), n);
        for (uint64_t i = 0; i < n; ++i)
            h = foldAddr(h, buf[i]);
        done += n;
    }
    return h;
}

/** perfbench's tenant_churn_parts roster: Zipf(0.6), 8192 lines each. */
std::unique_ptr<AccessStream>
tenantRoster(std::vector<uint32_t> tenants, uint64_t key)
{
    std::vector<MixStream::Component> mix;
    for (uint32_t t : tenants)
        mix.push_back(
            {std::make_unique<ZipfStream>(1 << 13, 0.6, t, mix64(key + t)),
             1.0});
    return std::make_unique<MixStream>(std::move(mix), mix64(key + 8));
}

struct GoldenCase
{
    const char* name;
    std::function<std::unique_ptr<AccessStream>()> make;
    uint64_t fold;
};

std::vector<GoldenCase>
goldenCases()
{
    auto zipf = [](uint64_t lines, double alpha, uint32_t space) {
        return [=] {
            return std::unique_ptr<AccessStream>(
                std::make_unique<ZipfStream>(lines, alpha, space, 0x6011));
        };
    };
    auto roster = [](std::vector<uint32_t> tenants, uint64_t key) {
        return [=] { return tenantRoster(tenants, key); };
    };
    std::vector<GoldenCase> cases = {
        {"zipf/1", zipf(1, 0.8, 0), 0x76c1c0744dd28e01ull},
        {"zipf/3", zipf(3, 0.8, 0), 0xa7c35823ce799f42ull},
        {"zipf/1000", zipf(1000, 0.8, 0), 0x08bc781d1fab913dull},
        {"zipf/8192/space3", zipf(8192, 0.6, 3), 0x6a233bcded73086dull},
        {"zipf/65536", zipf(65536, 0.9, 0), 0x1e8d43639ce508baull},
        {"zipf/4096/alpha0", zipf(4096, 0.0, 0), 0x4bc3e9272eac4c24ull},
        {"zipf/4096/alpha2.5", zipf(4096, 2.5, 0), 0xff83a0cc3dda095cull},
        {"roster/012", roster({0, 1, 2}, 1000), 0x1a837a993d2dbfe6ull},
        {"roster/0123", roster({0, 1, 2, 3}, 1016), 0xcef34f2bfdbca204ull},
        {"roster/123", roster({1, 2, 3}, 1032), 0xfd6ccfa43a6b078dull},
        {"roster/023", roster({0, 2, 3}, 1048), 0x5e9171a6425e7dd1ull},
        {"tenant_churn",
         [] {
             TenantChurnSpec t;
             t.phaseAccesses = 10007; // Several laps of all three rosters.
             return std::unique_ptr<AccessStream>(makeTenantChurnStream(t));
         },
         0x0fa7f7085a801f90ull},
        {"nested_mix",
         [] {
             std::vector<MixStream::Component> inner;
             inner.push_back(
                 {std::make_unique<ZipfStream>(4096, 0.9, 4, 8), 1.0});
             inner.push_back({std::make_unique<CyclicScan>(64, 5), 2.0});
             std::vector<MixStream::Component> outer;
             outer.push_back(
                 {std::make_unique<ZipfStream>(1000, 0.8, 1, 5), 3.0});
             outer.push_back(
                 {std::make_unique<UniformRandom>(777, 2, 6), 1.0});
             outer.push_back({std::make_unique<CyclicScan>(300, 3), 0.5});
             outer.push_back(
                 {std::make_unique<MixStream>(std::move(inner), 9), 1.5});
             return std::unique_ptr<AccessStream>(
                 std::make_unique<MixStream>(std::move(outer), 10));
         },
         0xa41dd94bc8581190ull},
        {"two_phase",
         [] {
             std::vector<PhaseStream::Phase> phases;
             phases.push_back(
                 {"roster", tenantRoster({0, 1, 2, 3}, 2000), 1000});
             phases.push_back(
                 {"zipf", std::make_unique<ZipfStream>(2048, 0.7, 5, 11),
                  3001});
             return std::unique_ptr<AccessStream>(
                 std::make_unique<PhaseStream>(std::move(phases)));
         },
         0x4976421be96fda41ull},
    };
    return cases;
}

TEST(WorkloadGolden, FoldsMatchTheBinarySearchGenerators)
{
    for (const GoldenCase& c : goldenCases()) {
        auto serial = c.make();
        auto blocked = c.make();
        const uint64_t via_next = foldViaNext(*serial);
        const uint64_t via_blocks = foldViaBlocks(*blocked);
        EXPECT_EQ(via_next, c.fold)
            << c.name << ": next() fold 0x" << std::hex << via_next;
        EXPECT_EQ(via_blocks, c.fold)
            << c.name << ": nextBlock() fold 0x" << std::hex << via_blocks;
    }
}


// ---------------------------------------------------- guide search

/** Every table the guide search must invert exactly. */
std::vector<std::pair<std::string, GuidedCdf>>
guidedShapes()
{
    std::vector<std::pair<std::string, GuidedCdf>> shapes;
    auto zipf = [&](uint64_t lines, double alpha) {
        shapes.emplace_back(
            "zipf/" + std::to_string(lines) + "/" + std::to_string(alpha),
            ZipfStream(lines, alpha).table());
    };
    zipf(1, 0.8);
    zipf(3, 0.8);
    zipf(17, 0.8);
    zipf(1000, 0.8);
    zipf(8192, 0.6);
    zipf(65536, 0.9);
    zipf(4096, 0.0);
    zipf(4096, 2.5);
    // 1 - 2^-(r+1) rounds to exactly 1.0 from r = 53 on: a tail of
    // thousands of equal entries, most guide buckets empty.
    std::vector<double> tail(5000);
    for (size_t r = 0; r < tail.size(); ++r)
        tail[r] = 1.0 - std::ldexp(1.0, -static_cast<int>(r + 1));
    shapes.emplace_back("tail_of_ones", GuidedCdf(std::move(tail)));
    return shapes;
}

TEST(GuidedCdf, IndexMatchesLowerBound)
{
    for (const auto& [name, table] : guidedShapes()) {
        const std::vector<double>& cdf = table.cdf();
        auto expectExact = [&](double u) {
            const auto want = static_cast<uint64_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            ASSERT_EQ(table.index(u), want)
                << name << " u=" << std::hexfloat << u;
        };
        // Every bucket edge, and the doubles on either side of it.
        const uint64_t g = table.buckets();
        for (uint64_t j = 0; j <= g; ++j) {
            const double edge = static_cast<double>(j) / g;
            if (j < g)
                expectExact(edge);
            if (j > 0)
                expectExact(std::nextafter(edge, 0.0));
            if (j < g)
                expectExact(std::nextafter(edge, 1.0));
        }
        expectExact(0.0);
        expectExact(1.0 - 0x1.0p-53);
        Rng rng(0x6D1D);
        for (int i = 0; i < 1'000'000; ++i)
            expectExact(rng.unit());

        // The interleaved form ZipfStream::nextBlock uses.
        double u[8];
        uint64_t got[8];
        for (int i = 0; i < 10'000; ++i) {
            for (double& x : u)
                x = rng.unit();
            table.indexLanes<8>(u, got);
            for (int k = 0; k < 8; ++k)
                ASSERT_EQ(got[k], table.index(u[k])) << name;
        }
    }
}

TEST(GuidedCdf, GuideIsTheSmallestPowerOfTwoAtOneSixteenth)
{
    for (const auto& [name, table] : guidedShapes()) {
        const uint64_t g = table.buckets();
        EXPECT_EQ(g & (g - 1), 0u) << name;
        EXPECT_GE(g * GuidedCdf::kEntriesPerBucket, table.size()) << name;
        if (g > 1) {
            EXPECT_LT(g / 2 * GuidedCdf::kEntriesPerBucket, table.size())
                << name;
        }
    }
    EXPECT_EQ(ZipfStream(1 << 16, 0.9).table().buckets(), 1u << 12);
    EXPECT_EQ(ZipfStream(1, 0.9).table().buckets(), 1u);
}

TEST(Zipf, EqualStreamsShareOneTable)
{
    // The table is a function of (lines, alpha) alone; seeds and
    // address spaces do not change it.
    ZipfStream a(8192, 0.6, 0, 1);
    ZipfStream b(8192, 0.6, 3, 2);
    ZipfStream c(8192, 0.9, 0, 1);
    ZipfStream d(4096, 0.6, 0, 1);
    EXPECT_EQ(&a.table(), &b.table());
    EXPECT_NE(&a.table(), &c.table());
    EXPECT_NE(&a.table(), &d.table());
    auto copy = a.clone();
    EXPECT_EQ(&static_cast<ZipfStream&>(*copy).table(), &a.table());
}

TEST(Zipf, SharedTablesAreThreadSafe)
{
    // Streams built and dropped on several threads at once draw what a
    // stream built alone draws.
    ZipfStream alone(2048, 0.8, 0, 3);
    const auto want = test::collect(alone, 500);
    std::vector<std::thread> threads;
    std::vector<int> mismatches(4, 0);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 50; ++i) {
                ZipfStream s(2048, 0.8, 0, 3);
                mismatches[t] += test::collect(s, 500) != want;
            }
        });
    }
    for (std::thread& th : threads)
        th.join();
    EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(GuidedCdf, ConstructorLimits)
{
    // Guide entries are uint32_t ranks.
    static_assert(GuidedCdf::kMaxEntries - 1 ==
                  std::numeric_limits<uint32_t>::max());
    // Checked before the CDF is allocated.
    EXPECT_DEATH(ZipfStream(GuidedCdf::kMaxEntries + 1, 0.9),
                 "exceeds 2\\^32");
    EXPECT_DEATH(GuidedCdf(std::vector<double>{}), "1 to 2\\^32");
    EXPECT_DEATH(GuidedCdf({0.5, 0.75}), "exactly 1.0");
    EXPECT_DEATH(GuidedCdf({0.5, 0.25, 1.0}), "non-decreasing");
}

} // namespace
} // namespace talus
