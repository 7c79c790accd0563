/**
 * @file
 * TalusCache::accessBatch must be bit-exact with the serial access()
 * loop: same hits, same monitor state, same automatic reconfiguration
 * points (even when an interval boundary lands mid-batch), and the
 * same final configuration — batching is purely a dispatch-hoisting
 * optimization, never a behavioral knob.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/talus.h"
#include "cache/set_assoc_cache.h"
#include "partition/vantage.h"
#include "policy/lru.h"
#include "util/rng.h"

namespace talus {
namespace {

std::vector<Addr>
randomAddrs(uint64_t n, uint64_t working_set, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> addrs(n);
    for (Addr& a : addrs)
        a = rng.below(working_set);
    return addrs;
}

/** Drives one cache serially, one batched, and diffs every stat. */
void
expectBatchMatchesSerial(const TalusCache::Config& cfg,
                         const std::vector<Addr>& addrs,
                         size_t batch_size)
{
    TalusCache serial(cfg);
    TalusCache batched(cfg);

    uint64_t serial_hits = 0;
    for (Addr a : addrs)
        serial_hits += serial.access(a, 0);

    uint64_t batched_hits = 0;
    for (size_t off = 0; off < addrs.size(); off += batch_size) {
        const size_t n = std::min(batch_size, addrs.size() - off);
        batched_hits += batched.accessBatch(
            Span<const Addr>(addrs.data() + off, n), 0);
    }

    EXPECT_EQ(batched_hits, serial_hits);
    EXPECT_EQ(batched.reconfigurations(), serial.reconfigurations());
    EXPECT_DOUBLE_EQ(batched.missRatio(), serial.missRatio());

    const TalusCache::PartStats bs = batched.stats(0);
    const TalusCache::PartStats ss = serial.stats(0);
    EXPECT_EQ(bs.accesses, ss.accesses);
    EXPECT_EQ(bs.misses, ss.misses);
    EXPECT_EQ(bs.targetLines, ss.targetLines);
    EXPECT_DOUBLE_EQ(bs.rho, ss.rho);

    if (cfg.monitoring) {
        const MissCurve bc = batched.curve(0);
        const MissCurve sc = serial.curve(0);
        ASSERT_EQ(bc.points().size(), sc.points().size());
        for (size_t i = 0; i < bc.points().size(); ++i) {
            EXPECT_DOUBLE_EQ(bc.points()[i].size, sc.points()[i].size);
            EXPECT_DOUBLE_EQ(bc.points()[i].misses,
                             sc.points()[i].misses);
        }
    }
}

TEST(BatchAccess, MatchesSerialWithoutReconfiguration)
{
    TalusCache::Config cfg;
    cfg.llcLines = 4096;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.allocatorName = "";
    cfg.seed = 5;
    expectBatchMatchesSerial(cfg, randomAddrs(60'000, 8192, 41), 1000);
}

TEST(BatchAccess, MatchesSerialAcrossAutoReconfigBoundaries)
{
    // reconfigInterval deliberately not a divisor of the batch size,
    // so automatic reconfigurations fire mid-batch; the batched path
    // must split at exactly the same access counts.
    TalusCache::Config cfg;
    cfg.llcLines = 4096;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 7'777;
    cfg.seed = 5;
    expectBatchMatchesSerial(cfg, randomAddrs(60'000, 8192, 43), 4096);
}

TEST(BatchAccess, MatchesSerialForPlainPartitionedBaseline)
{
    TalusCache::Config cfg;
    cfg.llcLines = 4096;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.talus = false;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 9'999;
    cfg.seed = 7;
    expectBatchMatchesSerial(cfg, randomAddrs(40'000, 8192, 47), 512);
}

TEST(BatchAccess, MatchesSerialWithMonitorDecimationAcrossReconfigs)
{
    // 1-in-4 monitor decimation under automatic reconfigurations whose
    // interval is not a multiple of the period, so every interval
    // boundary lands mid-phase. The batched path must carry each
    // partition's decimation phase across those boundaries exactly as
    // per-access serving does, or the monitors — and every allocation
    // after the first reconfiguration — diverge.
    TalusCache::Config cfg;
    cfg.llcLines = 4096;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 7'777;
    cfg.monitorSamplePeriod = 4;
    cfg.seed = 5;
    expectBatchMatchesSerial(cfg, randomAddrs(60'000, 8192, 79), 4096);
}

TEST(BatchAccess, OddBatchSizesAndEmptySpansAreSafe)
{
    TalusCache::Config cfg;
    cfg.llcLines = 1024;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.allocatorName = "";
    TalusCache cache(cfg);

    EXPECT_EQ(cache.accessBatch(Span<const Addr>(), 0), 0u);
    expectBatchMatchesSerial(cfg, randomAddrs(10'000, 2048, 53), 1);
    expectBatchMatchesSerial(cfg, randomAddrs(10'000, 2048, 59), 3);
}

/** Addresses where odd entries collide with their predecessor in the
 *  32-bit tag fingerprint (low32 ^ high32) while remaining distinct
 *  tags: flipping bit 0 and bit 32 together preserves the fold. */
std::vector<Addr>
fingerprintCollidingAddrs(uint64_t n, uint64_t working_set,
                          uint64_t seed)
{
    std::vector<Addr> addrs = randomAddrs(n, working_set, seed);
    for (size_t i = 1; i < addrs.size(); i += 2)
        addrs[i] = addrs[i - 1] ^ 0x1'0000'0001ull;
    return addrs;
}

TEST(BatchAccess, FingerprintProbeMatchesFullTagProbeInLockstep)
{
    // The facade's single-access fast path resolves hits through the
    // fused kernel's 32-bit fingerprint mirror before verifying the
    // full tag; the generic SetAssocCache path probes full 64-bit
    // tags. Driving both one address at a time pins the fingerprint
    // layout to the full-tag probe result at every single access, not
    // just in aggregate — on a trace engineered so half the addresses
    // share a fingerprint with a distinct neighbor tag (a collision
    // may cost a verify, never a different answer).
    TalusCache::Config cfg;
    cfg.llcLines = 1024;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.allocatorName = "";
    cfg.seed = 13;
    TalusCache fp_path(cfg); // access(): fingerprint probe.

    // The generic twin of fp_path's physical cache: the geometry
    // and shadow targets makePartitionedCache and the
    // controller gave it, driven through the full-tag probe with the
    // same alpha/beta routing.
    const PartitionedCacheBase& phys = fp_path.controller()->cache();
    SetAssocCache::Config gc;
    gc.numWays = cfg.ways;
    gc.numSets = static_cast<uint32_t>(cfg.llcLines / cfg.ways);
    SetAssocCache full_path(gc, std::make_unique<LruPolicy>(),
                            std::make_unique<VantageScheme>(2));
    full_path.setTargets({phys.targetOf(0), phys.targetOf(1)});
    const ShadowRouter& rt = fp_path.controller()->router(0);

    const std::vector<Addr> addrs =
        fingerprintCollidingAddrs(30'000, 2048, 71);
    for (size_t i = 0; i < addrs.size(); ++i) {
        const bool hit = fp_path.access(addrs[i], 0);
        const PartId shadow =
            rt.alwaysAlpha() || rt.toAlpha(addrs[i]) ? 0 : 1;
        const bool full_hit = full_path.access(addrs[i], shadow);
        ASSERT_EQ(full_hit, hit)
            << "probe divergence at access " << i << " (addr 0x"
            << std::hex << addrs[i] << ")";
    }
    const uint64_t full_hits =
        full_path.stats().hits(0) + full_path.stats().hits(1);
    EXPECT_EQ(fp_path.stats(0).misses, addrs.size() - full_hits);
}

TEST(BatchAccess, FingerprintCollisionsNeverChangeBatchResults)
{
    // The same collision-heavy trace through the standard
    // serial-vs-batched diff, with auto-reconfig boundaries landing
    // mid-batch: monitors, curves, and reconfiguration points must
    // all survive constant fingerprint-verify rejections.
    TalusCache::Config cfg;
    cfg.llcLines = 4096;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 7'777;
    cfg.seed = 13;
    expectBatchMatchesSerial(
        cfg, fingerprintCollidingAddrs(60'000, 8192, 73), 4096);
}

TEST(BatchAccess, MultiplePartitionsInterleaved)
{
    // Batches alternate between logical partitions; totals must match
    // the serially interleaved run access-for-access.
    TalusCache::Config cfg;
    cfg.llcLines = 8192;
    cfg.ways = 32;
    cfg.numParts = 2;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 5'001;
    cfg.seed = 11;

    const std::vector<Addr> a0 = randomAddrs(30'000, 4096, 61);
    std::vector<Addr> a1 = randomAddrs(30'000, 4096, 67);
    for (Addr& a : a1)
        a += 1ull << 40;

    TalusCache serial(cfg);
    TalusCache batched(cfg);
    constexpr size_t kChunk = 750;
    uint64_t serial_hits = 0;
    uint64_t batched_hits = 0;
    for (size_t off = 0; off < a0.size(); off += kChunk) {
        for (size_t i = off; i < off + kChunk; ++i)
            serial_hits += serial.access(a0[i], 0);
        for (size_t i = off; i < off + kChunk; ++i)
            serial_hits += serial.access(a1[i], 1);
        batched_hits += batched.accessBatch(
            Span<const Addr>(a0.data() + off, kChunk), 0);
        batched_hits += batched.accessBatch(
            Span<const Addr>(a1.data() + off, kChunk), 1);
    }

    EXPECT_EQ(batched_hits, serial_hits);
    EXPECT_EQ(batched.reconfigurations(), serial.reconfigurations());
    for (PartId p = 0; p < 2; ++p) {
        EXPECT_EQ(batched.stats(p).misses, serial.stats(p).misses);
        EXPECT_EQ(batched.stats(p).targetLines,
                  serial.stats(p).targetLines);
    }
}

} // namespace
} // namespace talus
