/**
 * @file
 * ShardedTalusCache: N independent TalusCache shards behind one
 * access/accessBatch/stats/reconfigure surface.
 *
 * This is the serving-engine layer: a ShardRouter hash-partitions the
 * address space across numShards fully independent TalusCache
 * instances (each with its own monitors, allocator, and
 * reconfiguration loop — miss curves stay per shard, via
 * shardCurve()), and batches execute scatter-dispatch-gather: the
 * batch is split into per-shard sub-streams in stream order (a flat
 * count-then-offset scatter into one reused buffer), each shard's
 * sub-stream is driven through TalusCache::accessBatch, and the hit
 * counts are summed from cache-line-padded per-shard slots. Every
 * batch runs one double-buffered loop over fixed-size blocks: the
 * caller scatters block k+1 while the workers drain block k.
 *
 * With Config::threads > 0 every per-shard step runs on persistent
 * shard-pinned workers (shard/shard_workers.h), the engine's one
 * dispatcher: each worker owns a fixed subset of shards, and a block
 * is published to them once as an array of ShardTask descriptors
 * (one per non-empty shard), each worker running its own tasks in
 * array order — no mutex, and no wakeup when batches arrive
 * back-to-back. Explicit control steps
 * (reconfigureAll / reconfigureAllAtEpoch) are ShardTasks too, so
 * each shard's control step runs on the thread that owns the shard,
 * as the automatic steps inside TalusCache::accessBatch already do.
 *
 * Determinism invariant — the subsystem's test anchor: because shards
 * share no state, every shard's hit/miss sequence, monitor state, and
 * reconfiguration schedule are bit-exact regardless of thread count,
 * and identical to a stand-alone TalusCache built from
 * shardConfig(cfg, s) fed the router's sub-stream for shard s.
 * Config::threads trades wall-clock for nothing else; threads == 0
 * runs inline for deterministic single-threaded debugging.
 */

#ifndef TALUS_SHARD_SHARDED_CACHE_H
#define TALUS_SHARD_SHARDED_CACHE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/talus_cache.h"
#include "shard/shard_router.h"
#include "shard/shard_workers.h"
#include "util/span.h"

namespace talus {

/** N independent TalusCache shards behind the TalusCache surface. */
class ShardedTalusCache
{
  public:
    /**
     * Upper bound on numShards (and therefore on useful worker
     * threads). Generous for a single process — horizontal scale
     * beyond this is a multi-process concern — while keeping an
     * absurd shard count an actionable ConfigError instead of an
     * out-of-memory crash. BenchEnv's --shards/--threads flags
     * enforce the same bound.
     */
    static constexpr uint32_t kMaxShards = 1024;

    /**
     * Addresses per dispatch block (see accessBatch()): large enough
     * that per-block dispatch costs amortize (one published dispatch
     * per block), small enough that two in-flight
     * blocks' scatter buffers stay cache-resident. A batch no longer
     * than one block is one scatter and one dispatch.
     */
    static constexpr uint64_t kPipelineBlock = 4096;

    /** Shard-layer configuration wrapping one per-shard Config. */
    struct Config
    {
        /**
         * Per-shard cache configuration. llcLines is per shard, so
         * total capacity is numShards * shard.llcLines; shard s runs
         * with a seed derived from shard.seed and s (see
         * shardConfig()) so shards sample independently.
         */
        TalusCache::Config shard;
        uint32_t numShards = 4; //!< Independent shards (>= 1).
        uint32_t threads = 0;   //!< Worker threads, capped at
                                //!< numShards; 0 = inline
                                //!< (deterministic debugging).
        std::optional<uint64_t> routerSeed; //!< Address->shard H3
                                            //!< seed; unset derives
                                            //!< it from shard.seed.

        /**
         * Validates the configuration (including the embedded
         * per-shard Config). Returns "" when valid, otherwise an
         * actionable message.
         */
        std::string validate() const;
    };

    /**
     * Builds the router, the N shards, and the pinned workers.
     *
     * @throws ConfigError if @p config fails Config::validate().
     */
    explicit ShardedTalusCache(const Config& config);

    /**
     * The exact TalusCache::Config shard @p shard runs with: the
     * embedded per-shard Config with a shard-specific seed. Exposed
     * so tests (and offline tools) can hand-build a bit-identical
     * stand-alone replica of any shard.
     */
    static TalusCache::Config shardConfig(const Config& config,
                                          uint32_t shard);

    /** Routes @p addr to its shard and accesses it; true on hit. */
    bool access(Addr addr, PartId part = 0);

    /**
     * Scatter-dispatch-gather batch execution: splits @p addrs into
     * per-shard sub-streams (flat count-then-offset scatter,
     * preserving stream order within each shard), drives every
     * non-empty shard's sub-stream through TalusCache::accessBatch —
     * on that shard's pinned worker when Config::threads > 0 — and
     * returns the total hit count. Steady state allocates nothing.
     * One double-buffered loop over kPipelineBlock-address blocks
     * serves every thread count and batch length: the caller
     * scatters block k+1 into a second ScatterPlan while the workers
     * drain block k (threads == 0 runs each block inline). Bit-exact with
     * routing each address through access() serially, for any thread
     * count and any batch length (per-shard sub-stream order is
     * preserved across blocks, and TalusCache::accessBatch is
     * bit-exact under any blocking).
     */
    uint64_t accessBatch(Span<const Addr> addrs, PartId part = 0);

    /**
     * Runs one synchronous reconfiguration on every shard: one
     * dispatch of numShards control tasks, so each shard's step
     * (snapshot + pure ControlStep + apply) runs on its owning pinned
     * worker when Config::threads > 0. Shards share no state, so the
     * result is bit-exact with reconfiguring each shard serially.
     */
    void reconfigureAll();

    /**
     * Epoch-deferred reconfiguration: computes every shard's control
     * step now, on its owning worker (ending each shard's monitoring
     * interval), but leaves the data path untouched — each shard
     * applies its new configuration in-stream when its own access
     * count reaches the next multiple of @p epochLen (see
     * TalusCache::applyReconfigureAtEpoch). Batches keep flowing
     * between compute and apply; the application point is a fixed
     * per-shard access count, so the result is bit-exact for any
     * thread count and any batch blocking.
     */
    void reconfigureAllAtEpoch(uint64_t epochLen);

    /**
     * Aggregate snapshot of logical partition @p part across all
     * shards: accesses, misses, and targetLines are sums; rho is the
     * access-weighted mean of the shard rhos (1.0 before any access).
     * The shadow configuration is a per-shard concept and is left
     * default — read it via shardStats().
     */
    TalusCache::PartStats stats(PartId part) const;

    /** Snapshot of partition @p part on shard @p shard alone. */
    TalusCache::PartStats shardStats(uint32_t shard, PartId part) const;

    /** Monitored miss curve of partition @p part on shard @p shard. */
    MissCurve shardCurve(uint32_t shard, PartId part) const;

    /** Miss ratio across all shards and partitions. */
    double missRatio() const;

    /** Clears every shard's access/miss counters (not monitors). */
    void resetStats();

    /** Number of shards. */
    uint32_t numShards() const { return cfg_.numShards; }

    /** Logical partitions per shard (the caller-visible PartId
     *  space; every shard has the same partitions). */
    uint32_t numParts() const { return cfg_.shard.numParts; }

    /** Worker threads driving batches: min(Config::threads,
     *  numShards), since a worker owning no shard would only idle
     *  (0 = inline). */
    uint32_t threads() const { return workers_.threadCount(); }

    /** Total capacity in lines, summed over shards. */
    uint64_t capacityLines() const;

    /** Reconfigurations run so far, summed over shards. */
    uint64_t reconfigurations() const;

    /** The address->shard router. */
    const ShardRouter& router() const { return router_; }

    /** Direct access to shard @p shard, for tests and diagnostics. */
    TalusCache& shard(uint32_t shard);
    const TalusCache& shard(uint32_t shard) const;

    /** The validated configuration this engine was built from. */
    const Config& config() const { return cfg_; }

  private:
    /**
     * One shard's per-batch hit count, padded to a cache line: the
     * slots are written concurrently by different workers every
     * batch, so adjacent uint64_t entries would false-share one line
     * and ping it between cores on every sub-batch completion.
     */
    struct alignas(64) PaddedHits
    {
        uint64_t value = 0;
    };

    /** Scatters @p addrs and rebuilds @p tasks with one ShardTask per
     *  non-empty shard (empty shards are skipped — bit-exact, since
     *  an empty sub-batch is a no-op). */
    void buildTasks(Span<const Addr> addrs, PartId part,
                    ScatterPlan& plan, std::vector<ShardTask>& tasks);

    /** Runs control op @p op on every shard, each on its owning
     *  worker, in one dispatch; @p epochLen is ReconfigureAtEpoch's
     *  epoch length. */
    void dispatchControl(ShardOp op, uint64_t epochLen);

    /** Sums the hit slots of exactly the shards @p tasks touched.
     *  Must run after the dispatch that produced them completed and
     *  before the next dispatch overwrites the slots. */
    uint64_t gatherHits(const std::vector<ShardTask>& tasks) const;

    Config cfg_;
    ShardRouter router_;
    std::vector<std::unique_ptr<TalusCache>> shards_;
    // Scatter/dispatch/gather scratch, reused across calls so the
    // steady state allocates nothing. The engine is single-caller
    // (like TalusCache, it is externally synchronized). Two plan/task
    // pairs so accessBatch can scatter block k+1 while the workers
    // still read block k's plan; control dispatch only uses index 0.
    ScatterPlan plans_[2];
    std::vector<ShardTask> tasks_[2];
    std::vector<PaddedHits> shardHits_;
    // The pinned workers. Declared last: its destructor joins the
    // worker threads, which must happen while shards_ and the scratch
    // buffers above are still alive.
    PinnedWorkers workers_;
};

} // namespace talus

#endif // TALUS_SHARD_SHARDED_CACHE_H
