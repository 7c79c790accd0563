/**
 * @file
 * The sharded serving engine's determinism anchor: because shards are
 * fully independent, ShardedTalusCache with N shards must produce
 * per-shard hit/miss sequences and stats identical to N hand-built
 * serial TalusCache instances fed the router's per-shard sub-streams
 * — for any thread count. Thread counts {0, 1, 4} cover inline
 * execution, a single worker, and more workers than most CI cores;
 * the TSan CI job race-checks the same tests.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "api/talus.h"
#include "util/rng.h"
#include "workload/zipf_stream.h"

namespace talus {
namespace {

ShardedTalusCache::Config
engineConfig(uint32_t num_shards, uint32_t threads)
{
    ShardedTalusCache::Config cfg;
    cfg.shard.llcLines = 2048;
    cfg.shard.ways = 16;
    cfg.shard.numParts = 1;
    cfg.shard.allocatorName = "HillClimb";
    cfg.shard.reconfigInterval = 5'000;
    cfg.shard.seed = 77;
    cfg.numShards = num_shards;
    cfg.threads = threads;
    return cfg;
}

std::vector<Addr>
mixedTrace(uint64_t n, uint64_t seed)
{
    // Half uniform, half zipf-skewed, interleaved: exercises both the
    // balanced and the hot-shard scatter shapes.
    Rng rng(seed);
    ZipfStream zipf(1 << 14, 0.9, 0, seed + 1);
    std::vector<Addr> addrs(n);
    for (uint64_t i = 0; i < n; ++i)
        addrs[i] = (i & 1) ? rng.below(1 << 14) : zipf.next();
    return addrs;
}

/** Per-shard, per-block hit counts: the hit/miss sequence at block
 *  granularity, plus final stats and monitor curves. */
struct ShardTrace
{
    std::vector<std::vector<uint64_t>> blockMisses; //!< [shard][block]
    std::vector<TalusCache::PartStats> finalStats;  //!< [shard]
    std::vector<MissCurve> finalCurves;             //!< [shard]
    std::vector<uint64_t> reconfigs;                //!< [shard]
    uint64_t totalHits = 0;
};

/** Drives the sharded engine over @p addrs in blocks. */
ShardTrace
runSharded(const ShardedTalusCache::Config& cfg,
           const std::vector<Addr>& addrs, size_t block_size)
{
    ShardedTalusCache cache(cfg);
    ShardTrace trace;
    trace.blockMisses.resize(cfg.numShards);
    std::vector<uint64_t> last_misses(cfg.numShards, 0);
    for (size_t off = 0; off < addrs.size(); off += block_size) {
        const size_t n = std::min(block_size, addrs.size() - off);
        trace.totalHits += cache.accessBatch(
            Span<const Addr>(addrs.data() + off, n), 0);
        for (uint32_t s = 0; s < cfg.numShards; ++s) {
            const uint64_t misses = cache.shardStats(s, 0).misses;
            trace.blockMisses[s].push_back(misses - last_misses[s]);
            last_misses[s] = misses;
        }
    }
    for (uint32_t s = 0; s < cfg.numShards; ++s) {
        trace.finalStats.push_back(cache.shardStats(s, 0));
        trace.finalCurves.push_back(cache.shardCurve(s, 0));
        trace.reconfigs.push_back(cache.shard(s).reconfigurations());
    }
    return trace;
}

/**
 * The hand-built reference: N stand-alone serial TalusCache
 * instances, each fed the router's sub-stream through the scalar
 * access() path, one address at a time.
 */
ShardTrace
runHandBuilt(const ShardedTalusCache::Config& cfg,
             const std::vector<Addr>& addrs, size_t block_size)
{
    // The router the engine would build, reproduced via the public
    // surface of a throwaway engine (seed derivation is internal).
    ShardedTalusCache probe(cfg);
    const ShardRouter& router = probe.router();

    std::vector<std::unique_ptr<TalusCache>> serial;
    for (uint32_t s = 0; s < cfg.numShards; ++s)
        serial.push_back(std::make_unique<TalusCache>(
            ShardedTalusCache::shardConfig(cfg, s)));

    ShardTrace trace;
    trace.blockMisses.resize(cfg.numShards);
    std::vector<uint64_t> last_misses(cfg.numShards, 0);
    std::vector<std::vector<Addr>> per_shard;
    for (size_t off = 0; off < addrs.size(); off += block_size) {
        const size_t n = std::min(block_size, addrs.size() - off);
        router.scatter(Span<const Addr>(addrs.data() + off, n),
                       per_shard);
        for (uint32_t s = 0; s < cfg.numShards; ++s)
            for (Addr a : per_shard[s])
                trace.totalHits += serial[s]->access(a, 0);
        for (uint32_t s = 0; s < cfg.numShards; ++s) {
            const uint64_t misses = serial[s]->stats(0).misses;
            trace.blockMisses[s].push_back(misses - last_misses[s]);
            last_misses[s] = misses;
        }
    }
    for (uint32_t s = 0; s < cfg.numShards; ++s) {
        trace.finalStats.push_back(serial[s]->stats(0));
        trace.finalCurves.push_back(serial[s]->curve(0));
        trace.reconfigs.push_back(serial[s]->reconfigurations());
    }
    return trace;
}

void
expectTracesEqual(const ShardTrace& got, const ShardTrace& want)
{
    EXPECT_EQ(got.totalHits, want.totalHits);
    ASSERT_EQ(got.blockMisses.size(), want.blockMisses.size());
    for (size_t s = 0; s < want.blockMisses.size(); ++s) {
        EXPECT_EQ(got.blockMisses[s], want.blockMisses[s])
            << "hit/miss sequence diverged on shard " << s;
        EXPECT_EQ(got.finalStats[s].accesses,
                  want.finalStats[s].accesses);
        EXPECT_EQ(got.finalStats[s].misses, want.finalStats[s].misses);
        EXPECT_EQ(got.finalStats[s].targetLines,
                  want.finalStats[s].targetLines);
        EXPECT_DOUBLE_EQ(got.finalStats[s].rho, want.finalStats[s].rho);
        EXPECT_EQ(got.reconfigs[s], want.reconfigs[s]);

        const auto& gc = got.finalCurves[s].points();
        const auto& wc = want.finalCurves[s].points();
        ASSERT_EQ(gc.size(), wc.size());
        for (size_t i = 0; i < wc.size(); ++i) {
            EXPECT_DOUBLE_EQ(gc[i].size, wc[i].size);
            EXPECT_DOUBLE_EQ(gc[i].misses, wc[i].misses);
        }
    }
}

class ShardedCacheDeterminism
    : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ShardedCacheDeterminism, MatchesHandBuiltSerialShards)
{
    const uint32_t threads = GetParam();
    const ShardedTalusCache::Config cfg = engineConfig(4, threads);
    const std::vector<Addr> addrs = mixedTrace(60'000, 101);
    // Block size deliberately not a divisor of the trace length or
    // the reconfiguration interval.
    const ShardTrace sharded = runSharded(cfg, addrs, 1009);
    const ShardTrace reference = runHandBuilt(cfg, addrs, 1009);
    expectTracesEqual(sharded, reference);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ShardedCacheDeterminism,
                         ::testing::Values(0u, 1u, 4u));

TEST(ShardedCache, MoreShardsThanThreadsMatchesHandBuilt)
{
    // 7 shards on 3 workers: every worker owns 2–3 shards (shard %
    // threads pinning), so per-worker FIFO order across multiple
    // owned shards is what keeps this bit-exact.
    const ShardedTalusCache::Config cfg = engineConfig(7, 3);
    const std::vector<Addr> addrs = mixedTrace(50'000, 1103);
    const ShardTrace sharded = runSharded(cfg, addrs, 997);
    const ShardTrace reference = runHandBuilt(cfg, addrs, 997);
    expectTracesEqual(sharded, reference);
}

TEST(ShardedCache, MoreThreadsThanShardsMatchesHandBuilt)
{
    // 2 shards on 5 workers: three workers own nothing and must park
    // without ever being woken; the dispatch path may only notify the
    // owners of touched shards.
    const ShardedTalusCache::Config cfg = engineConfig(2, 5);
    const std::vector<Addr> addrs = mixedTrace(40'000, 1201);
    const ShardTrace sharded = runSharded(cfg, addrs, 1013);
    const ShardTrace reference = runHandBuilt(cfg, addrs, 1013);
    expectTracesEqual(sharded, reference);
}

TEST(ShardedCache, TinyBatchesLeavingShardsEmptyStayExact)
{
    // Batches of 3 addresses over 8 shards: most shards are empty in
    // every batch, so the skip-empty-shard fast path and the hit-slot
    // zeroing for skipped shards are both on trial. Covers inline,
    // fewer-workers-than-shards, and more-workers-than-shards.
    const std::vector<Addr> addrs = mixedTrace(3'000, 1301);
    const ShardTrace reference =
        runHandBuilt(engineConfig(8, 0), addrs, 3);
    for (uint32_t threads : {0u, 3u, 12u}) {
        const ShardTrace sharded =
            runSharded(engineConfig(8, threads), addrs, 3);
        expectTracesEqual(sharded, reference);
    }
}

TEST(ShardedCache, ThreadCountsAgreeWithEachOther)
{
    const std::vector<Addr> addrs = mixedTrace(40'000, 211);
    const ShardTrace inline_run =
        runSharded(engineConfig(3, 0), addrs, 777);
    const ShardTrace one_thread =
        runSharded(engineConfig(3, 1), addrs, 777);
    const ShardTrace four_threads =
        runSharded(engineConfig(3, 4), addrs, 777);
    expectTracesEqual(one_thread, inline_run);
    expectTracesEqual(four_threads, inline_run);
}

TEST(ShardedCache, ScalarAccessMatchesBatch)
{
    const ShardedTalusCache::Config cfg = engineConfig(4, 0);
    const std::vector<Addr> addrs = mixedTrace(20'000, 307);

    ShardedTalusCache scalar(cfg);
    ShardedTalusCache batched(cfg);
    uint64_t scalar_hits = 0;
    for (Addr a : addrs)
        scalar_hits += scalar.access(a, 0);
    const uint64_t batched_hits =
        batched.accessBatch(Span<const Addr>(addrs), 0);

    EXPECT_EQ(batched_hits, scalar_hits);
    for (uint32_t s = 0; s < cfg.numShards; ++s) {
        EXPECT_EQ(batched.shardStats(s, 0).accesses,
                  scalar.shardStats(s, 0).accesses);
        EXPECT_EQ(batched.shardStats(s, 0).misses,
                  scalar.shardStats(s, 0).misses);
    }
}

TEST(ShardedCache, AggregateStatsSumShards)
{
    const ShardedTalusCache::Config cfg = engineConfig(4, 2);
    ShardedTalusCache cache(cfg);
    const std::vector<Addr> addrs = mixedTrace(30'000, 401);
    const uint64_t hits =
        cache.accessBatch(Span<const Addr>(addrs), 0);

    const TalusCache::PartStats agg = cache.stats(0);
    uint64_t accesses = 0, misses = 0, target = 0;
    for (uint32_t s = 0; s < cfg.numShards; ++s) {
        accesses += cache.shardStats(s, 0).accesses;
        misses += cache.shardStats(s, 0).misses;
        target += cache.shardStats(s, 0).targetLines;
    }
    EXPECT_EQ(agg.accesses, accesses);
    EXPECT_EQ(agg.misses, misses);
    EXPECT_EQ(agg.targetLines, target);
    EXPECT_EQ(accesses, addrs.size());
    EXPECT_EQ(misses, addrs.size() - hits);
    EXPECT_NEAR(cache.missRatio(),
                static_cast<double>(misses) /
                    static_cast<double>(accesses),
                1e-12);
    EXPECT_EQ(cache.capacityLines(),
              cfg.numShards * cache.shard(0).capacityLines());
}

TEST(ShardedCache, SingleShardMatchesPlainTalusCache)
{
    // One shard routes everything to shard 0, which must behave
    // exactly like a stand-alone TalusCache with the derived config.
    ShardedTalusCache::Config cfg = engineConfig(1, 2);
    const std::vector<Addr> addrs = mixedTrace(25'000, 503);

    ShardedTalusCache sharded(cfg);
    TalusCache plain(ShardedTalusCache::shardConfig(cfg, 0));
    const uint64_t sharded_hits =
        sharded.accessBatch(Span<const Addr>(addrs), 0);
    const uint64_t plain_hits =
        plain.accessBatch(Span<const Addr>(addrs), 0);

    EXPECT_EQ(sharded_hits, plain_hits);
    EXPECT_EQ(sharded.shardStats(0, 0).misses, plain.stats(0).misses);
    EXPECT_EQ(sharded.reconfigurations(), plain.reconfigurations());
}

TEST(ShardedCache, EmptyBatchAndResetAreSafe)
{
    ShardedTalusCache cache(engineConfig(2, 1));
    EXPECT_EQ(cache.accessBatch(Span<const Addr>(), 0), 0u);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.0);

    const std::vector<Addr> addrs = mixedTrace(5'000, 601);
    cache.accessBatch(Span<const Addr>(addrs), 0);
    EXPECT_GT(cache.missRatio(), 0.0);
    cache.resetStats();
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.0);
}

TEST(ShardedCache, InvalidConfigsThrowActionableErrors)
{
    ShardedTalusCache::Config cfg = engineConfig(4, 0);
    cfg.numShards = 0;
    EXPECT_THROW(ShardedTalusCache{cfg}, ConfigError);

    // Absurd shard counts must fail validation, not OOM.
    cfg = engineConfig(4, 0);
    cfg.numShards = ShardedTalusCache::kMaxShards + 1;
    EXPECT_THROW(ShardedTalusCache{cfg}, ConfigError);

    cfg = engineConfig(4, 0);
    cfg.threads = 4096;
    EXPECT_THROW(ShardedTalusCache{cfg}, ConfigError);

    // Per-shard config errors surface through the shard layer.
    cfg = engineConfig(4, 0);
    cfg.shard.margin = 2.0;
    try {
        ShardedTalusCache cache(cfg);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("per-shard config"),
                  std::string::npos);
    }
}

TEST(ShardedCache, ShardSeedsDiffer)
{
    const ShardedTalusCache::Config cfg = engineConfig(4, 0);
    for (uint32_t a = 0; a < cfg.numShards; ++a)
        for (uint32_t b = a + 1; b < cfg.numShards; ++b)
            EXPECT_NE(ShardedTalusCache::shardConfig(cfg, a).seed,
                      ShardedTalusCache::shardConfig(cfg, b).seed);
}

// --- Control-plane dispatch (PR 5). -----------------------------------

/** Compares two engines' per-shard stats and reconfiguration counts. */
void
expectShardStatesEqual(const ShardedTalusCache& got,
                       const ShardedTalusCache& want)
{
    ASSERT_EQ(got.numShards(), want.numShards());
    for (uint32_t s = 0; s < want.numShards(); ++s) {
        const auto g = got.shardStats(s, 0);
        const auto w = want.shardStats(s, 0);
        EXPECT_EQ(g.accesses, w.accesses) << "shard " << s;
        EXPECT_EQ(g.misses, w.misses) << "shard " << s;
        EXPECT_EQ(g.targetLines, w.targetLines) << "shard " << s;
        EXPECT_DOUBLE_EQ(g.rho, w.rho) << "shard " << s;
        EXPECT_EQ(got.shard(s).reconfigurations(),
                  want.shard(s).reconfigurations())
            << "shard " << s;
    }
}

/**
 * Mid-batch automatic reconfiguration under sharding: blocks several
 * times larger than reconfigInterval make every shard's interval fire
 * inside accessBatch — on a worker thread when threads > 0. The
 * per-shard control steps must be bit-exact across thread counts.
 */
class ShardedMidBatchReconfig : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ShardedMidBatchReconfig, BitExactAcrossThreadCounts)
{
    const std::vector<Addr> addrs = mixedTrace(50'000, 701);
    // Blocks of 12'000 against a 5'000-access reconfigInterval:
    // two-plus automatic control steps fire inside every batch.
    const ShardTrace inline_run =
        runSharded(engineConfig(4, 0), addrs, 12'000);
    const ShardTrace threaded =
        runSharded(engineConfig(4, GetParam()), addrs, 12'000);
    expectTracesEqual(threaded, inline_run);
    // The interval really did fire mid-batch on every shard.
    for (uint32_t s = 0; s < 4; ++s)
        EXPECT_GE(inline_run.reconfigs[s], 1u) << "shard " << s;
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ShardedMidBatchReconfig,
                         ::testing::Values(1u, 4u));

/**
 * (shards, threads): one shard per worker, uneven ownership (8 shards
 * on 3 workers), and idle workers (4 shards on 6 workers).
 */
class ShardedControlDispatch
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(ShardedControlDispatch, PoolDispatchedControlStepsMatchInlineSteps)
{
    // Explicit reconfigureAll() on a threaded engine (each control
    // step run by its shard's pinned worker) vs reconfiguring every
    // shard inline on the caller's thread: shards share no state, so
    // the dispatch mechanism must not change any result.
    const auto [shards, threads] = GetParam();
    ShardedTalusCache::Config cfg = engineConfig(shards, 0);
    cfg.shard.reconfigInterval = 0; // Control is explicit here.
    const std::vector<Addr> addrs = mixedTrace(40'000, 811);

    ShardedTalusCache pooled_cfg_engine = [&] {
        ShardedTalusCache::Config c = cfg;
        c.threads = threads;
        return ShardedTalusCache(c);
    }();
    ShardedTalusCache inline_engine(cfg);

    for (size_t off = 0; off < addrs.size(); off += 8'000) {
        const size_t n = std::min<size_t>(8'000, addrs.size() - off);
        pooled_cfg_engine.accessBatch(
            Span<const Addr>(addrs.data() + off, n), 0);
        inline_engine.accessBatch(
            Span<const Addr>(addrs.data() + off, n), 0);
        pooled_cfg_engine.reconfigureAll(); // Pinned-worker dispatch.
        for (uint32_t s = 0; s < cfg.numShards; ++s)
            inline_engine.shard(s).reconfigure(); // Inline steps.
    }
    expectShardStatesEqual(pooled_cfg_engine, inline_engine);
    EXPECT_EQ(pooled_cfg_engine.reconfigurations(),
              inline_engine.reconfigurations());
}

TEST_P(ShardedControlDispatch, EpochControlStepsMatchInlineSteps)
{
    // The epoch-deferred control op against hand-driven steps on the
    // caller's thread: prepare now, apply at the next multiple of the
    // epoch — so the dispatched op cannot apply early (or late)
    // without diverging from the reference.
    const auto [shards, threads] = GetParam();
    ShardedTalusCache::Config cfg = engineConfig(shards, 0);
    cfg.shard.reconfigInterval = 0; // Control is explicit here.
    const std::vector<Addr> addrs = mixedTrace(45'000, 907);

    ShardedTalusCache::Config threaded_cfg = cfg;
    threaded_cfg.threads = threads;
    ShardedTalusCache threaded_engine(threaded_cfg);
    ShardedTalusCache inline_engine(cfg);

    for (size_t off = 0; off < addrs.size(); off += 9'000) {
        const size_t n = std::min<size_t>(9'000, addrs.size() - off);
        threaded_engine.accessBatch(
            Span<const Addr>(addrs.data() + off, n), 0);
        inline_engine.accessBatch(
            Span<const Addr>(addrs.data() + off, n), 0);
        threaded_engine.reconfigureAllAtEpoch(4'000);
        for (uint32_t s = 0; s < cfg.numShards; ++s) {
            inline_engine.shard(s).prepareReconfigure();
            inline_engine.shard(s).applyReconfigureAtEpoch(4'000);
        }
    }
    expectShardStatesEqual(threaded_engine, inline_engine);
    EXPECT_GT(inline_engine.reconfigurations(), 0u);
    EXPECT_EQ(threaded_engine.reconfigurations(),
              inline_engine.reconfigurations());
}

INSTANTIATE_TEST_SUITE_P(ShardsAndThreads, ShardedControlDispatch,
                         ::testing::Values(std::make_tuple(4u, 4u),
                                           std::make_tuple(8u, 3u),
                                           std::make_tuple(4u, 6u)));

TEST(ShardedCache, EpochDeferredReconfigureIsThreadCountInvariant)
{
    // Deferred mode: compute concurrently, apply at each shard's next
    // fixed access-count boundary. Thread counts {0, 1, 4} must agree
    // bit-exactly, and the applications must actually happen.
    ShardedTalusCache::Config base = engineConfig(3, 0);
    base.shard.reconfigInterval = 0;
    const std::vector<Addr> addrs = mixedTrace(45'000, 907);

    auto run = [&](uint32_t threads) {
        ShardedTalusCache::Config cfg = base;
        cfg.threads = threads;
        ShardedTalusCache engine(cfg);
        for (size_t off = 0; off < addrs.size(); off += 9'000) {
            const size_t n =
                std::min<size_t>(9'000, addrs.size() - off);
            engine.accessBatch(Span<const Addr>(addrs.data() + off, n),
                               0);
            engine.reconfigureAllAtEpoch(4'000);
        }
        return engine.reconfigurations();
    };

    ShardedTalusCache::Config cfg0 = base;
    ShardedTalusCache inline_engine(cfg0);
    cfg0.threads = 4;
    ShardedTalusCache threaded_engine(cfg0);
    for (size_t off = 0; off < addrs.size(); off += 9'000) {
        const size_t n = std::min<size_t>(9'000, addrs.size() - off);
        inline_engine.accessBatch(Span<const Addr>(addrs.data() + off, n),
                                  0);
        threaded_engine.accessBatch(
            Span<const Addr>(addrs.data() + off, n), 0);
        inline_engine.reconfigureAllAtEpoch(4'000);
        threaded_engine.reconfigureAllAtEpoch(4'000);
    }
    expectShardStatesEqual(threaded_engine, inline_engine);
    EXPECT_GT(inline_engine.reconfigurations(), 0u);
    EXPECT_EQ(run(1), inline_engine.reconfigurations());
}

// --- Pipelined dispatch (PR 10). --------------------------------------

/**
 * Double-buffered dispatch vs inline dispatch, thread counts
 * {0, 1, 4}: multi-block ragged batches (block > 2 * kPipelineBlock,
 * not a multiple of it) with the 5'000-access reconfigInterval firing
 * automatic control steps inside every batch. The pipelined path
 * (threads > 0) must be bit-exact with the inline engine's one
 * scatter-then-run path (threads == 0) AND with the hand-built
 * serial reference.
 */
class ShardedPipelineDeterminism
    : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ShardedPipelineDeterminism, PipelinedMatchesSerialDispatch)
{
    const uint32_t threads = GetParam();
    const std::vector<Addr> addrs = mixedTrace(60'000, 1511);
    const size_t block =
        2 * ShardedTalusCache::kPipelineBlock + 1237;
    const ShardTrace pipelined =
        runSharded(engineConfig(4, threads), addrs, block);
    const ShardTrace serial = runSharded(engineConfig(4, 0), addrs, block);
    expectTracesEqual(pipelined, serial);
    const ShardTrace reference =
        runHandBuilt(engineConfig(4, threads), addrs, block);
    expectTracesEqual(pipelined, reference);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ShardedPipelineDeterminism,
                         ::testing::Values(0u, 1u, 4u));

TEST(ShardedCache, PipelinedRaggedAndEmptyBatchesStayExact)
{
    // Batch lengths straddling the kPipelineBlock boundary — empty,
    // a single address, exactly one block (unpipelined by design),
    // one block plus one (the smallest pipelined batch), whole
    // multiples, and ragged multi-block sizes — driven in sequence
    // through a pipelined threaded engine and an inline one.
    const std::vector<Addr> addrs = mixedTrace(45'000, 1607);
    const uint64_t kB = ShardedTalusCache::kPipelineBlock;
    const std::vector<uint64_t> lens = {0,      1,           kB,
                                        kB + 1, 3 * kB,      5,
                                        2 * kB + 777, 4 * kB};
    for (uint32_t threads : {1u, 4u}) {
        ShardedTalusCache on(engineConfig(4, threads));
        ShardedTalusCache off(engineConfig(4, 0));
        size_t pos = 0;
        for (uint64_t len : lens) {
            len = std::min<uint64_t>(len, addrs.size() - pos);
            const Span<const Addr> batch(addrs.data() + pos, len);
            EXPECT_EQ(on.accessBatch(batch, 0),
                      off.accessBatch(batch, 0))
                << "batch of " << len << " at " << pos << ", threads "
                << threads;
            pos += len;
        }
        expectShardStatesEqual(on, off);
    }
}

TEST(ShardedCache, PipelinedSingleHotShardLeavesOthersEmpty)
{
    // Every address routes to one shard, so 7 of 8 shards get no task
    // in any pipeline block: the skip-empty-shard task building and
    // the gather-only-touched-slots accounting are both on trial
    // across block boundaries.
    ShardedTalusCache probe(engineConfig(8, 0));
    const ShardRouter& router = probe.router();
    Rng rng(1709);
    std::vector<Addr> hot;
    while (hot.size() < 20'000) {
        const Addr a = rng.below(1 << 14);
        if (router.route(a) == 3)
            hot.push_back(a);
    }
    const ShardTrace pipelined = runSharded(engineConfig(8, 3), hot, 9419);
    const ShardTrace reference =
        runHandBuilt(engineConfig(8, 3), hot, 9419);
    expectTracesEqual(pipelined, reference);
}

TEST(ShardedCache, PipelinedEpochDeferredReconfigStaysExact)
{
    // Epoch-deferred control steps computed between multi-block
    // pipelined batches but applied mid-stream at fixed per-shard
    // access counts — so applications land inside later pipeline
    // blocks. Every thread count must agree with the inline engine,
    // including uneven ownership (8 shards on 3 workers).
    const std::vector<Addr> addrs = mixedTrace(45'000, 1801);

    auto run = [&](uint32_t shards, uint32_t threads) {
        ShardedTalusCache::Config cfg = engineConfig(shards, threads);
        cfg.shard.reconfigInterval = 0;
        ShardedTalusCache engine(cfg);
        for (size_t off = 0; off < addrs.size(); off += 13'000) {
            const size_t n =
                std::min<size_t>(13'000, addrs.size() - off);
            engine.accessBatch(Span<const Addr>(addrs.data() + off, n),
                               0);
            engine.reconfigureAllAtEpoch(6'000);
        }
        std::vector<uint64_t> fingerprint;
        for (uint32_t s = 0; s < engine.numShards(); ++s) {
            fingerprint.push_back(engine.shardStats(s, 0).accesses);
            fingerprint.push_back(engine.shardStats(s, 0).misses);
            fingerprint.push_back(engine.shard(s).reconfigurations());
        }
        return fingerprint;
    };

    const std::vector<uint64_t> reference = run(4, 0);
    EXPECT_GT(reference[2], 0u); // Shard 0 applied at least once.
    EXPECT_EQ(run(4, 1), reference);
    EXPECT_EQ(run(4, 4), reference);
    EXPECT_EQ(run(8, 3), run(8, 0));
}

TEST(ShardedCache, MissRatioAndStatsShareResetWindows)
{
    // missRatio() aggregates the same PartStats snapshots stats()
    // serves, so both describe the post-resetStats() window — pinned
    // here because the two used to read different accounting paths.
    ShardedTalusCache cache(engineConfig(4, 2));
    const std::vector<Addr> addrs = mixedTrace(30'000, 1009);

    cache.accessBatch(
        Span<const Addr>(addrs.data(), 20'000), 0);
    cache.resetStats();
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.0);
    EXPECT_EQ(cache.stats(0).accesses, 0u);

    const uint64_t hits = cache.accessBatch(
        Span<const Addr>(addrs.data() + 20'000, 10'000), 0);
    const TalusCache::PartStats agg = cache.stats(0);
    EXPECT_EQ(agg.accesses, 10'000u);
    EXPECT_EQ(agg.misses, 10'000u - hits);
    EXPECT_DOUBLE_EQ(cache.missRatio(),
                     static_cast<double>(agg.misses) /
                         static_cast<double>(agg.accesses));
}

} // namespace
} // namespace talus
