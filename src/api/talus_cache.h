/**
 * @file
 * TalusCache: the single self-managing entry point to the library.
 *
 * The paper's pitch is that Talus is simple to deploy (Fig. 7):
 * utility monitors feed miss curves to convex hulls, and the hulls
 * feed the partitioning algorithm and the controller, which turns
 * allocations into shadow-partition sizes and sampling rates.
 * TalusCache owns that whole loop. One validated Config builds the
 * partitioned cache, the TalusController, one CombinedUMon per
 * logical partition, and the allocator. Baselines (Config::talus
 * false) run through the same controller over one physical partition
 * per logical partition, whose routers stay at rho = 1: the
 * controller alone knows the layout, and both modes share every step
 * below. Callers then just:
 *
 *     TalusCache::Config cfg;
 *     cfg.llcLines = 8192;
 *     cfg.numParts = 2;
 *     cfg.reconfigInterval = 100'000;   // accesses between reconfigs
 *     TalusCache cache(cfg);            // throws ConfigError if invalid
 *     bool hit = cache.access(addr, part);
 *     auto s = cache.stats(part);       // misses, rho, shadow sizes
 *
 * reconfigure() runs one iteration of the paper's software flow
 * (monitor curves -> hulls -> allocate -> configure) and also fires
 * automatically every Config::reconfigInterval accesses. Since the
 * control-plane extraction it is a thin synchronous wrapper over two
 * stages the cache also exposes separately:
 *
 *  - prepareReconfigure() snapshots the monitors into an immutable
 *    ControlInput and runs the pure ControlStep (one hull per
 *    partition + allocation) on the cache's ControlPlane, staging a
 *    new configuration without touching the data path;
 *  - applyReconfigure() commits the staged configuration now, or
 *    applyReconfigureAtEpoch(n) defers it to the next access-count
 *    epoch boundary (a fixed access count — deterministic, never
 *    wall clock), where access()/accessBatch() apply it in-stream.
 *
 * Callers with externally measured curves (sweeps, offline studies)
 * can bypass the built-in monitors/allocator with applyCurves().
 *
 * Invalid configurations are rejected at construction with an
 * actionable ConfigError instead of an assert, so embedding systems
 * can surface the message to their operators.
 */

#ifndef TALUS_API_TALUS_CACHE_H
#define TALUS_API_TALUS_CACHE_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/config_error.h"
#include "control/control_plane.h"
#include "core/talus_controller.h"
#include "monitor/combined_umon.h"
#include "partition/partitioned_cache.h"
#include "util/span.h"

namespace talus {

class MetricRegistry;

/** A partitioned cache that runs the Talus loop on itself. */
class TalusCache
{
  public:
    /** Everything needed to build a self-managing cache. */
    struct Config
    {
        // --- Geometry -------------------------------------------------
        uint64_t llcLines = 8192;       //!< Total capacity in lines.
        uint32_t ways = 32;             //!< Associativity (Table I: 32).
        std::string policyName = "LRU"; //!< Replacement policy name.
        SchemeKind scheme = SchemeKind::Vantage; //!< Partitioning scheme.
        uint32_t numParts = 1;          //!< Logical (caller-visible)
                                        //!< partitions.

        // --- Mechanism ------------------------------------------------
        bool talus = true;     //!< false: plain partitioned cache (no
                               //!< shadow partitions), for baselines.
        double margin = 0.05;  //!< Safety margin on rho (Sec. VI-B).
        uint32_t routerBits = 8; //!< Sampling hash/limit width.

        // --- Monitoring -----------------------------------------------
        bool monitoring = true;    //!< false: no UMONs (external curves
                                   //!< only, via applyCurves).
        uint32_t umonCoverage = 4; //!< UMON models coverage*LLC lines.
        /**
         * Monitor every Nth access instead of every access (systematic
         * 1-in-N decimation per partition, deterministic). 1 (the
         * default) feeds the monitors every access — today's behavior,
         * bit-exact with pre-knob builds. N > 1 trades monitor fidelity
         * for speed: the UMONs already subsample by address hash
         * (Assumption 3), and for an address stream whose statistics
         * are stationary across the interval a 1-in-N time slice has
         * the same expected miss curve — only the per-interval sample
         * count (and thus the curve's variance) shrinks by N. Expect
         * curve noise to grow roughly as sqrt(N); keep
         * reconfigInterval large enough that each interval still
         * samples thousands of accesses per partition.
         */
        uint32_t monitorSamplePeriod = 1;

        // --- Allocation / reconfiguration -----------------------------
        std::string allocatorName = "HillClimb"; //!< "" = external
                                                 //!< applyCurves() only.
        bool allocateOnHulls = true; //!< Allocate on convex hulls
                                     //!< (the Talus promise).
        uint64_t reconfigInterval = 0; //!< Accesses between automatic
                                       //!< reconfigs; 0 = manual only.
        uint64_t seed = 42;
        std::optional<uint64_t> routerSeed; //!< Shadow-router H3 seed;
                                            //!< unset derives it from
                                            //!< `seed`.

        // --- Observability --------------------------------------------
        /**
         * true: publish per-partition hit/miss/eviction/occupancy
         * counters, monitor sample counts, and control-plane timing/
         * staleness metrics into a MetricRegistry. false (the
         * default): zero metrics work. Selects no code path: on or
         * off, access() and accessBatch() run the same chunk step,
         * and off costs a never-taken null check per chunk (a serial
         * access is a chunk of one).
         */
        bool metricsEnabled = false;
        /** Registry to publish into; null with metricsEnabled uses
         *  the process-global registry (globalMetricRegistry()). */
        MetricRegistry* metrics = nullptr;
        /** Rendered label pairs prepended to every metric this cache
         *  publishes, e.g. `shard="3"` (ShardedTalusCache sets it per
         *  shard). "" = no extra labels. */
        std::string metricsScope;

        /**
         * Validates the configuration. Returns "" when valid,
         * otherwise an actionable error message naming the bad field
         * and the accepted values.
         */
        std::string validate() const;
    };

    /** A snapshot of one logical partition's state. */
    struct PartStats
    {
        uint64_t accesses = 0;    //!< Accesses by this partition.
        uint64_t misses = 0;      //!< Misses by this partition.
        uint64_t targetLines = 0; //!< Current allocation (both shadow
                                  //!< partitions under Talus).
        double rho = 1.0;         //!< Routed sampling rate (Talus).
        TalusConfig shadow;       //!< Shadow configuration (Talus).

        /** Misses / accesses; 0 before any access. */
        double missRatio() const
        {
            return accesses > 0 ? static_cast<double>(misses) /
                                      static_cast<double>(accesses)
                                : 0.0;
        }
    };

    /**
     * Builds the cache, controller, monitors, and allocator.
     *
     * @throws ConfigError if @p config fails Config::validate().
     */
    explicit TalusCache(const Config& config);

    ~TalusCache(); //!< Out-of-line: Obs is incomplete here.
    TalusCache(TalusCache&&) = default;
    TalusCache& operator=(TalusCache&&) = default;

    /**
     * One access by logical partition @p part; returns true on hit.
     * Fires reconfigure() automatically every Config::reconfigInterval
     * accesses (when an allocator is configured).
     *
     * A chunk of one through accessBatch()'s chunk step, so the two
     * are bit-exact by construction; it needs no carving, because
     * both boundaries fire on the access that reaches them. The step
     * is header-inline down to TalusController::access(), which
     * routes and probes the fused kernel in at most one call.
     */
    bool access(Addr addr, PartId part = 0)
    {
        talus_assert(part < cfg_.numParts, "bad logical partition ",
                     part);
        return serveChunk(&addr, 1, part) != 0;
    }

    /**
     * Drives a whole block of addresses through the cache for one
     * logical partition — bit-exact with per-access semantics
     * (monitors observe every address, automatic reconfigurations and
     * epoch-deferred applications fire at the same access counts),
     * but structured as two passes per chunk: a monitor pass (fused
     * H3 hashing + early sampling rejection over the whole chunk)
     * followed by an access pass (router hashes evaluated in a block,
     * then the partitioned cache's batched entry point — under
     * Vantage+LRU, a set-index and prefetch prologue plus a loop
     * over the fused single-access kernel access() runs). Monitors
     * and the cache share no state within a chunk, and chunks split
     * exactly at reconfiguration/epoch boundaries, so every
     * observation point sees bit-identical state. This is the fast
     * path the trace-replay sims and the sharded engine use.
     *
     * @return Number of hits in the block.
     */
    uint64_t accessBatch(Span<const Addr> addrs, PartId part = 0);

    /**
     * One iteration of the paper's reconfiguration flow (Fig. 7):
     * read each partition's monitored miss curve, weight it by the
     * interval's access volume, (optionally) take convex hulls, run
     * the allocator, and apply the result — shadow sizes + sampling
     * rates under Talus, plain partition targets otherwise. Monitors
     * decay and the policy interval hook fires afterwards.
     *
     * A thin synchronous wrapper: prepareReconfigure() followed by
     * applyReconfigure(). Fatal if the Config named no allocator.
     */
    void reconfigure();

    /**
     * The off-hot-path compute stage alone: ends the monitoring
     * interval (snapshots per-partition curves and interval access
     * volumes into an immutable ControlInput, resets the interval
     * counters, decays the monitors) and runs the pure ControlStep on
     * the cache's ControlPlane, staging a new configuration. The data
     * path is untouched until applyReconfigure() or the scheduled
     * epoch boundary; preparing again before then overwrites the
     * staged configuration (the latest decision wins).
     *
     * Because this only reads this cache's monitors and writes this
     * cache's control plane, prepare stages for *different* caches
     * (e.g. shards) can safely run concurrently.
     *
     * Fatal if the Config named no allocator.
     */
    void prepareReconfigure();

    /**
     * Commits the staged configuration to the data path now: shadow
     * sizes + sampling rates under Talus, plain partition targets
     * otherwise, then the policy interval hook. Cancels any scheduled
     * epoch-deferred application. Fatal when nothing is staged.
     */
    void applyReconfigure();

    /**
     * Defers the staged configuration to the next epoch boundary:
     * the first access at which accessCount() reaches a non-zero
     * multiple of @p epochLen strictly greater than the current
     * count. access()/accessBatch() apply it in-stream at exactly
     * that boundary (batches chunk there, so the application point is
     * bit-exact for any block size). Deterministic by construction:
     * the boundary is a fixed access count, never wall clock. If the
     * automatic reconfigInterval fires at the same access, the
     * deferred (older) configuration is applied first.
     *
     * Latest decision wins: any full reconfiguration that runs
     * *before* the boundary — a manual reconfigure() or the
     * automatic reconfigInterval firing — supersedes the schedule
     * (the newer configuration is applied and the stale scheduled
     * application is canceled). Callers mixing the deferred API with
     * reconfigInterval > 0 should pick epoch lengths shorter than
     * the interval, or drive control entirely explicitly.
     *
     * Fatal when nothing is staged or @p epochLen is 0.
     */
    void applyReconfigureAtEpoch(uint64_t epochLen);

    /** True when a prepared configuration awaits application. */
    bool hasPendingControl() const { return plane_.hasPending(); }

    /** Access count at which a scheduled deferred application fires;
     *  0 when none is scheduled. */
    uint64_t pendingApplyAt() const { return applyAt_; }

    /** Total accesses this cache ever served (all partitions). */
    uint64_t accessCount() const { return accessCount_; }

    /** The control plane: allocator + staged/active control outputs
     *  and their epoch tags. */
    const ControlPlane& controlPlane() const { return plane_; }

    /**
     * Applies externally computed miss curves and logical allocations
     * directly, bypassing the built-in monitors and allocator. For
     * sweeps and offline studies where the curve is already known.
     */
    void applyCurves(const std::vector<MissCurve>& curves,
                     const std::vector<uint64_t>& logical_alloc);

    /** Snapshot of logical partition @p part. */
    PartStats stats(PartId part) const;

    /** Monitored miss curves, one per logical partition. Fatal when
     *  Config::monitoring is off. */
    std::vector<MissCurve> curves() const;

    /** Monitored miss curve of partition @p part. Fatal when
     *  Config::monitoring is off. */
    MissCurve curve(PartId part) const;

    /** Miss ratio across all partitions since the last resetStats(). */
    double missRatio() const;

    /** Clears the cache's access/miss counters (not the monitors). */
    void resetStats();

    /** Number of logical partitions. */
    uint32_t numParts() const { return cfg_.numParts; }

    /** Actual capacity in lines (may round down to whole sets). */
    uint64_t capacityLines() const;

    /** Reconfigurations run so far (manual + automatic). */
    uint64_t reconfigurations() const { return reconfigurations_; }

    /** True if an allocator was configured (reconfigure() is legal). */
    bool hasAllocator() const { return plane_.hasAllocator(); }

    /** The validated configuration this cache was built from. */
    const Config& config() const { return cfg_; }

    /** Underlying physical cache, for monitors and tests. */
    PartitionedCacheBase& cache();
    const PartitionedCacheBase& cache() const;

    /** The Talus controller; nullptr when Config::talus is false. */
    const TalusController* controller() const
    {
        return cfg_.talus ? ctl_.get() : nullptr;
    }

  private:
    /** Batch chunk bound: caps the monitor/router scratch buffers and
     *  keeps each pass L1/L2-resident. */
    static constexpr uint64_t kAccessBlock = 4096;

    /** Ends the monitoring interval and packages the control input. */
    ControlInput snapshotControl();

    /** Metric handles + control-age state; allocated only when
     *  Config::metricsEnabled (see talus_cache.cc). */
    struct Obs;

    /** Publishes one finished batch/chunk: per-partition counters,
     *  eviction delta, occupancy, and the staleness gauge. Called
     *  only when obs_ is non-null. */
    void obsOnBatch(PartId part, uint64_t n, uint64_t hits);

    /** Publishes one committed configuration: apply age, allocation
     *  delta, hull vertices, and per-partition targets/rho. */
    void obsOnApply(const ControlOutput& out);

    /**
     * The chunk step access() and accessBatch() share: @p n accesses
     * of @p part, none but the last at a reconfiguration or epoch
     * boundary; the step fires whichever the last reaches. Monitor
     * pass, then access pass: neither reads the other's state during
     * accesses, so splitting the passes reaches the same state as
     * interleaving per address. @return Hits in the chunk.
     */
    uint64_t serveChunk(const Addr* addrs, uint64_t n, PartId part)
    {
        if (cfg_.monitoring)
            feedMonitor(part, addrs, n);
        const uint64_t hits = ctl_->accessBlock(addrs, n, part);
        intervalAccesses_[part] += n;
        sinceReconfig_ += n;
        accessCount_ += n;
        if (obs_)
            obsOnBatch(part, n, hits);
        // The deferred (older) configuration applies before any
        // automatic reconfiguration landing on the same access.
        if (applyAt_ != 0 && accessCount_ >= applyAt_)
            applyReconfigure();
        if (cfg_.reconfigInterval > 0 &&
            sinceReconfig_ >= cfg_.reconfigInterval)
            reconfigure();
        return hits;
    }

    /** Feeds one chunk to @p part's monitor. The every-access,
     *  metrics-off case is inline, so a chunk of one reaches
     *  CombinedUMon::accessBlock()'s inline single-address case. */
    void feedMonitor(PartId part, const Addr* addrs, uint64_t n)
    {
        if (cfg_.monitorSamplePeriod == 1 && obs_ == nullptr)
            monitors_[part].accessBlock(Span<const Addr>(addrs, n));
        else
            feedMonitorSlow(part, addrs, n);
    }

    /** The rest of feedMonitor(): Config::monitorSamplePeriod's
     *  1-in-N decimation and the monitor-sample metric. */
    void feedMonitorSlow(PartId part, const Addr* addrs, uint64_t n);

    /** Pushes one committed control output onto the data path. */
    void applyControl(const ControlOutput& out);

    Config cfg_;
    std::vector<CombinedUMon> monitors_;
    /** Both modes: shadow pairs under Talus, 1:1 for baselines. */
    std::unique_ptr<TalusController> ctl_;
    ControlPlane plane_; //!< Allocator + staged/active control state.
    uint64_t granule_ = 1;
    // Per-partition hot metadata in struct-of-arrays layout: the batch
    // loop touches exactly one slot of each per chunk.
    std::vector<uint64_t> intervalAccesses_;
    std::vector<uint32_t> monPhase_; //!< Decimation phase per partition.
    std::vector<Addr> monScratch_;   //!< Decimated-address gather buffer.
    uint64_t sinceReconfig_ = 0;
    uint64_t reconfigurations_ = 0;
    uint64_t accessCount_ = 0; //!< Lifetime accesses (epoch clock).
    uint64_t applyAt_ = 0; //!< Access count of the scheduled deferred
                           //!< application; 0 = none scheduled.
    std::unique_ptr<Obs> obs_; //!< Null when metrics are off: the
                               //!< off-switch is a null check.
};

} // namespace talus

#endif // TALUS_API_TALUS_CACHE_H
