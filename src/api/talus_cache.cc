#include "api/talus_cache.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "alloc/allocator_factory.h"
#include "alloc/fair_alloc.h"
#include "obs/registry.h"
#include "policy/policy_factory.h"
#include "util/log.h"

namespace talus {

/**
 * Metric handles + control-age bookkeeping, allocated only when
 * Config::metricsEnabled. Handles are resolved once here (the only
 * registry interaction, under its registration mutex); the data path
 * then only bumps relaxed atomics through them — once per batch, from
 * totals the batch loop already computed.
 */
struct TalusCache::Obs
{
    struct PartMetrics
    {
        Counter* accesses = nullptr;
        Counter* hits = nullptr;
        Counter* misses = nullptr;
        Counter* monSamples = nullptr;
        Gauge* occupancy = nullptr;
        Gauge* targetLines = nullptr;
        Gauge* rho = nullptr;
    };

    std::vector<PartMetrics> parts;
    Counter* batches = nullptr;
    Counter* evictions = nullptr;
    Counter* reconfigs = nullptr;
    Histogram* computeSeconds = nullptr; //!< Records ns, reports s.
    Gauge* hullVertices = nullptr;
    Gauge* allocDelta = nullptr;
    Gauge* applyAge = nullptr;
    Gauge* staleness = nullptr;

    /** cache().stats().evictions() at the last batch hook: the raw
     *  counter is lifetime-cumulative (and resetStats() rewinds it),
     *  so the exported counter advances by per-batch deltas. */
    uint64_t lastEvictions = 0;
    /** accessCount_ when the pending configuration was snapshotted. */
    uint64_t pendingSnapshotAccess = 0;
    /** accessCount_ when the *active* configuration was snapshotted
     *  (0 until the first apply: the constructor's fair split is as
     *  old as the cache). Staleness = accessCount_ - this. */
    uint64_t activeSnapshotAccess = 0;
    /** Allocation last applied, for the reallocation-magnitude
     *  gauge. */
    std::vector<uint64_t> lastAlloc;
};

namespace {

std::string
joinNames(const std::vector<std::string>& names)
{
    std::ostringstream oss;
    for (size_t i = 0; i < names.size(); ++i)
        oss << (i ? ", " : "") << '"' << names[i] << '"';
    return oss.str();
}

bool
knownName(const std::vector<std::string>& names, const std::string& name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

std::string
TalusCache::Config::validate() const
{
    // Talus doubles every logical partition into alpha/beta shadows.
    const uint64_t phys_parts =
        talus ? 2ull * numParts : static_cast<uint64_t>(numParts);
    // Set-associative schemes round capacity down to whole sets.
    const uint64_t set_lines = ways > 0 ? llcLines / ways * ways : 0;
    std::ostringstream err;
    if (llcLines < 1)
        err << "llcLines must be >= 1 (got " << llcLines << ")";
    else if (ways < 1)
        err << "ways must be >= 1 (got " << ways << ")";
    else if (ways > llcLines)
        err << "ways (" << ways << ") exceeds llcLines (" << llcLines
            << "); shrink the associativity or grow the cache";
    else if (scheme != SchemeKind::Ideal &&
             ways > SetAssocCache::kMaxWays)
        err << "ways must be <= " << SetAssocCache::kMaxWays
            << " for set-associative schemes (got " << ways
            << "); shrink the associativity or pick scheme Ideal";
    else if (scheme != SchemeKind::Ideal && set_lines > UINT32_MAX)
        err << "llcLines (" << llcLines << ") rounds to " << set_lines
            << " lines in whole sets; set-associative schemes address "
               "at most "
            << UINT32_MAX << " lines";
    else if (scheme == SchemeKind::Vantage &&
             set_lines >= kVantageMaxLines)
        err << "llcLines (" << llcLines << ") rounds to " << set_lines
            << " lines in whole sets; Vantage is limited to "
            << kVantageMaxLines - 1
            << " lines; shrink llcLines or pick another scheme";
    else if (numParts < 1)
        err << "numParts must be >= 1 (got " << numParts << ")";
    else if (!knownName(knownPolicies(), policyName))
        err << "unknown policyName \"" << policyName << "\"; known: "
            << joinNames(knownPolicies());
    else if (scheme == SchemeKind::Ideal && policyName != "LRU")
        err << "Ideal partitioning models exact per-partition LRU "
               "stacks; use policyName=\"LRU\" or pick another scheme";
    else if (talus && scheme == SchemeKind::Unpartitioned)
        err << "Talus needs a partitioning scheme to size its shadow "
               "partitions; pick Way/Set/Vantage/Futility/Ideal, or "
               "set talus=false for an unpartitioned baseline";
    else if (scheme == SchemeKind::Unpartitioned &&
             !allocatorName.empty())
        err << "an unpartitioned cache has no partition targets for "
               "the allocator to set; drop allocatorName (use \"\") "
               "or pick a partitioning scheme";
    else if (scheme == SchemeKind::Way && phys_parts > ways)
        err << "way partitioning assigns whole ways: " << phys_parts
            << " physical partitions"
            << (talus ? " (2 shadows per logical partition)" : "")
            << " need at least that many ways (got " << ways
            << "); grow ways or shrink numParts";
    else if (scheme == SchemeKind::Set && phys_parts > llcLines / ways)
        err << "set partitioning assigns whole sets: " << phys_parts
            << " physical partitions"
            << (talus ? " (2 shadows per logical partition)" : "")
            << " need at least that many sets (got " << llcLines / ways
            << "); grow llcLines or shrink numParts";
    else if (std::isnan(margin) || margin < 0.0 || margin >= 1.0)
        err << "margin must be in [0,1) (got " << margin
            << "); the paper uses 0.05";
    else if (routerBits < 1 || routerBits > 32)
        err << "routerBits must be in [1,32] (got " << routerBits
            << "); the paper uses 8";
    else if (umonCoverage < 1)
        err << "umonCoverage must be >= 1 (got " << umonCoverage
            << "); the paper uses 4";
    else if (monitorSamplePeriod < 1)
        err << "monitorSamplePeriod must be >= 1 (got "
            << monitorSamplePeriod
            << "); 1 monitors every access, N monitors every Nth";
    else if (!allocatorName.empty() &&
             !knownName(knownAllocators(), allocatorName))
        err << "unknown allocatorName \"" << allocatorName
            << "\"; known: " << joinNames(knownAllocators())
            << " (or \"\" to configure externally via applyCurves)";
    else if (reconfigInterval > 0 && allocatorName.empty())
        err << "reconfigInterval (" << reconfigInterval
            << " accesses) needs an allocator; set allocatorName or "
               "use reconfigInterval=0 with applyCurves()";
    else if (!monitoring && !allocatorName.empty())
        err << "the reconfiguration loop reads the built-in monitors; "
               "keep monitoring=true, or set allocatorName=\"\" and "
               "configure externally via applyCurves()";
    return err.str();
}

TalusCache::TalusCache(const Config& config) : cfg_(config)
{
    const std::string err = cfg_.validate();
    if (!err.empty())
        throw ConfigError("TalusCache::Config: " + err);

    if (cfg_.monitoring) {
        monitors_.reserve(cfg_.numParts);
        for (uint32_t p = 0; p < cfg_.numParts; ++p) {
            CombinedUMon::Config mc;
            mc.llcLines = cfg_.llcLines;
            mc.coverage = cfg_.umonCoverage;
            mc.seed = cfg_.seed ^ (0x1111ull * (p + 1));
            monitors_.emplace_back(mc);
        }
    }

    // Talus doubles every logical partition into alpha/beta shadows;
    // a baseline gets one physical partition per logical partition.
    auto phys = makePartitionedCache(
        cfg_.scheme, cfg_.llcLines, cfg_.ways, cfg_.policyName,
        cfg_.talus ? 2 * cfg_.numParts : cfg_.numParts, cfg_.seed);
    TalusController::Config tc;
    tc.numLogicalParts = cfg_.numParts;
    tc.margin = cfg_.margin;
    tc.routerBits = cfg_.routerBits;
    tc.usableFraction = schemeUsableFraction(cfg_.scheme);
    tc.recomputeFromCoarsened =
        cfg_.scheme == SchemeKind::Way || cfg_.scheme == SchemeKind::Set;
    tc.seed = cfg_.routerSeed.value_or(cfg_.seed ^ 0xC11);
    ctl_ = std::make_unique<TalusController>(std::move(phys), tc);

    // Talus starts from a fair split; single-point curves make every
    // logical partition degenerate (rho = 1) until monitors warm or
    // the caller applies real curves. Baselines keep their scheme's
    // default targets.
    if (cfg_.talus) {
        std::vector<MissCurve> flat(cfg_.numParts,
                                    MissCurve({{0.0, 1.0}}));
        FairAllocator fair;
        ctl_->configure(
            flat, fair.allocate(flat, ctl_->cache().capacityLines(), 1));
    }

    if (!cfg_.allocatorName.empty())
        plane_ = ControlPlane(makeAllocator(cfg_.allocatorName));
    granule_ = std::max<uint64_t>(1, cfg_.llcLines / 64);
    intervalAccesses_.assign(cfg_.numParts, 0);
    monPhase_.assign(cfg_.numParts, 0);

    if (cfg_.metricsEnabled) {
        obs_ = std::make_unique<Obs>();
        Obs& o = *obs_;
        MetricRegistry& reg = cfg_.metrics != nullptr
                                  ? *cfg_.metrics
                                  : globalMetricRegistry();
        const std::string& scope = cfg_.metricsScope;
        o.parts.resize(cfg_.numParts);
        for (uint32_t p = 0; p < cfg_.numParts; ++p) {
            const std::string labels =
                joinLabels(scope, labelPair("part", p));
            Obs::PartMetrics& pm = o.parts[p];
            pm.accesses =
                &reg.counter("talus_cache_accesses_total", labels);
            pm.hits = &reg.counter("talus_cache_hits_total", labels);
            pm.misses =
                &reg.counter("talus_cache_misses_total", labels);
            pm.monSamples =
                &reg.counter("talus_monitor_samples_total", labels);
            pm.occupancy =
                &reg.gauge("talus_cache_occupancy_lines", labels);
            pm.targetLines =
                &reg.gauge("talus_cache_target_lines", labels);
            pm.rho = &reg.gauge("talus_cache_rho", labels);
        }
        o.batches = &reg.counter("talus_cache_batches_total", scope);
        o.evictions =
            &reg.counter("talus_cache_evictions_total", scope);
        o.reconfigs =
            &reg.counter("talus_control_reconfigurations_total", scope);
        o.computeSeconds = &reg.histogram(
            "talus_control_compute_seconds", scope, 1e-9);
        o.hullVertices =
            &reg.gauge("talus_control_hull_vertices", scope);
        o.allocDelta =
            &reg.gauge("talus_control_alloc_delta_lines", scope);
        o.applyAge =
            &reg.gauge("talus_control_apply_age_accesses", scope);
        o.staleness = &reg.gauge(
            "talus_control_config_staleness_accesses", scope);
    }
}

TalusCache::~TalusCache() = default;

void
TalusCache::feedMonitorSlow(PartId part, const Addr* addrs, uint64_t n)
{
    CombinedUMon& mon = monitors_[part];
    if (cfg_.monitorSamplePeriod == 1) {
        obs_->parts[part].monSamples->inc(n);
        mon.accessBlock(Span<const Addr>(addrs, n));
        return;
    }
    // Systematic 1-in-N decimation: the partition's phase counter
    // (accesses since its last sampled one, mod N) picks every Nth
    // access regardless of chunking, so batch and serial drives
    // observe the identical sub-stream. The first pick of this chunk
    // is the access that brings the phase to 0, then every Nth.
    const uint32_t period = cfg_.monitorSamplePeriod;
    const uint32_t phase = monPhase_[part];
    monScratch_.clear();
    for (uint64_t i = (period - phase) % period; i < n; i += period)
        monScratch_.push_back(addrs[i]);
    monPhase_[part] =
        static_cast<uint32_t>((phase + n % period) % period);
    if (obs_)
        obs_->parts[part].monSamples->inc(monScratch_.size());
    mon.accessBlock(Span<const Addr>(monScratch_.data(),
                                     monScratch_.size()));
}

uint64_t
TalusCache::accessBatch(Span<const Addr> addrs, PartId part)
{
    talus_assert(part < cfg_.numParts, "bad logical partition ", part);
    uint64_t hits = 0;
    const Addr* p = addrs.data();
    uint64_t left = addrs.size();
    while (left > 0) {
        // Stop each chunk exactly where the serial path would fire an
        // automatic reconfiguration or a scheduled epoch-deferred
        // application, so batching cannot slide either point. The
        // kAccessBlock cap bounds the monitor/router scratch buffers.
        uint64_t chunk = std::min<uint64_t>(left, kAccessBlock);
        if (cfg_.reconfigInterval > 0)
            chunk = std::min<uint64_t>(
                chunk, cfg_.reconfigInterval - sinceReconfig_);
        if (applyAt_ != 0)
            chunk = std::min<uint64_t>(chunk, applyAt_ - accessCount_);
        hits += serveChunk(p, chunk, part);
        p += chunk;
        left -= chunk;
    }
    return hits;
}

void
TalusCache::reconfigure()
{
    prepareReconfigure();
    applyReconfigure();
}

ControlInput
TalusCache::snapshotControl()
{
    ControlInput in;
    in.numParts = cfg_.numParts;
    in.llcLines = cfg_.llcLines;
    in.capacityLines = cache().capacityLines();
    in.granule = granule_;
    in.allocateOnHulls = cfg_.allocateOnHulls;
    in.unmanagedHaircut =
        !cfg_.talus && cfg_.scheme == SchemeKind::Vantage;
    in.curves.reserve(cfg_.numParts);
    in.intervalAccesses.reserve(cfg_.numParts);
    for (uint32_t p = 0; p < cfg_.numParts; ++p) {
        in.curves.push_back(monitors_[p].snapshot());
        in.intervalAccesses.push_back(intervalAccesses_[p]);
        intervalAccesses_[p] = 0;
    }
    // The snapshot ends the monitoring interval: the automatic-
    // reconfiguration clock restarts and the monitors age, whether
    // the computed configuration is applied now or at a later epoch.
    sinceReconfig_ = 0;
    for (auto& mon : monitors_)
        mon.decay();
    return in;
}

void
TalusCache::prepareReconfigure()
{
    if (!plane_.hasAllocator())
        talus_fatal("TalusCache::reconfigure() needs an allocator; set "
                    "Config::allocatorName (one of ",
                    joinNames(knownAllocators()),
                    ") or apply externally computed configurations "
                    "with applyCurves()");
    if (obs_ == nullptr) {
        plane_.compute(snapshotControl());
        return;
    }
    // Instrumented prepare: remember the snapshot's access count (the
    // config-staleness clock starts here) and time the pure compute
    // stage. The clock reads bracket only plane_.compute(), so the
    // histogram measures exactly what a background control thread
    // would pay per step.
    const ControlInput in = snapshotControl();
    obs_->pendingSnapshotAccess = accessCount_;
    const auto t0 = std::chrono::steady_clock::now();
    plane_.compute(in);
    const auto t1 = std::chrono::steady_clock::now();
    obs_->computeSeconds->record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    uint64_t vertices = 0;
    for (const MissCurve& hull : plane_.pending().curves)
        vertices += hull.numPoints();
    obs_->hullVertices->set(static_cast<double>(vertices));
}

void
TalusCache::applyReconfigure()
{
    if (!plane_.hasPending())
        talus_fatal("TalusCache::applyReconfigure(): no prepared "
                    "configuration is staged; call "
                    "prepareReconfigure() first");
    applyControl(plane_.commit());
}

void
TalusCache::applyReconfigureAtEpoch(uint64_t epochLen)
{
    if (!plane_.hasPending())
        talus_fatal("TalusCache::applyReconfigureAtEpoch(): no "
                    "prepared configuration is staged; call "
                    "prepareReconfigure() first");
    if (epochLen == 0)
        talus_fatal("TalusCache::applyReconfigureAtEpoch(): epochLen "
                    "must be >= 1 access (the application epoch is a "
                    "fixed access count)");
    applyAt_ = (accessCount_ / epochLen + 1) * epochLen;
}

void
TalusCache::applyControl(const ControlOutput& out)
{
    applyAt_ = 0;
    reconfigurations_++;
    ctl_->configure(out.curves, out.alloc);
    ctl_->nextInterval();
    if (obs_)
        obsOnApply(out);
}

void
TalusCache::obsOnBatch(PartId part, uint64_t n, uint64_t hits)
{
    Obs& o = *obs_;
    Obs::PartMetrics& pm = o.parts[part];
    pm.accesses->inc(n);
    pm.misses->inc(n - hits);
    pm.hits->inc(hits);
    o.batches->inc();
    // Evictions are tracked cache-wide by CacheStats; export the
    // per-batch delta. A backward jump means resetStats() rewound the
    // raw counter — re-baseline without regressing the exported
    // (monotone) counter.
    const uint64_t ev = cache().stats().evictions();
    if (ev >= o.lastEvictions)
        o.evictions->inc(ev - o.lastEvictions);
    o.lastEvictions = ev;
    pm.occupancy->set(static_cast<double>(ctl_->logicalOccupancy(part)));
    o.staleness->set(
        static_cast<double>(accessCount_ - o.activeSnapshotAccess));
}

void
TalusCache::obsOnApply(const ControlOutput& out)
{
    Obs& o = *obs_;
    o.reconfigs->inc();
    // Apply age: accesses served between this configuration's monitor
    // snapshot and its application — 0 for synchronous reconfigure(),
    // the deferred distance for applyReconfigureAtEpoch().
    o.applyAge->set(
        static_cast<double>(accessCount_ - o.pendingSnapshotAccess));
    o.activeSnapshotAccess = o.pendingSnapshotAccess;
    uint64_t delta = 0;
    if (o.lastAlloc.size() == out.alloc.size())
        for (size_t p = 0; p < out.alloc.size(); ++p)
            delta += out.alloc[p] > o.lastAlloc[p]
                         ? out.alloc[p] - o.lastAlloc[p]
                         : o.lastAlloc[p] - out.alloc[p];
    o.lastAlloc = out.alloc;
    o.allocDelta->set(static_cast<double>(delta));
    for (uint32_t p = 0; p < cfg_.numParts; ++p) {
        o.parts[p].targetLines->set(
            static_cast<double>(ctl_->logicalTarget(p)));
        o.parts[p].rho->set(ctl_->routedRho(p));
    }
}

void
TalusCache::applyCurves(const std::vector<MissCurve>& curves,
                        const std::vector<uint64_t>& logical_alloc)
{
    ctl_->configure(curves, logical_alloc);
}

TalusCache::PartStats
TalusCache::stats(PartId part) const
{
    talus_assert(part < cfg_.numParts, "bad logical partition ", part);
    PartStats s;
    s.accesses = ctl_->logicalAccesses(part);
    s.misses = ctl_->logicalMisses(part);
    s.targetLines = ctl_->logicalTarget(part);
    s.rho = ctl_->routedRho(part);
    s.shadow = ctl_->configOf(part);
    return s;
}

std::vector<MissCurve>
TalusCache::curves() const
{
    if (!cfg_.monitoring)
        talus_fatal("TalusCache::curves(): monitoring is disabled in "
                    "this Config; enable Config::monitoring to read "
                    "monitored miss curves");
    std::vector<MissCurve> out;
    out.reserve(monitors_.size());
    for (const CombinedUMon& mon : monitors_)
        out.push_back(mon.curve());
    return out;
}

MissCurve
TalusCache::curve(PartId part) const
{
    if (!cfg_.monitoring)
        talus_fatal("TalusCache::curve(): monitoring is disabled in "
                    "this Config; enable Config::monitoring to read "
                    "monitored miss curves");
    talus_assert(part < cfg_.numParts, "bad logical partition ", part);
    return monitors_[part].curve();
}

double
TalusCache::missRatio() const
{
    // Aggregate the same per-partition PartStats snapshots stats()
    // serves, so missRatio() and stats() always describe the same
    // resetStats() window — ShardedTalusCache::missRatio() mirrors
    // this exactly one level up.
    uint64_t accesses = 0;
    uint64_t misses = 0;
    for (uint32_t p = 0; p < cfg_.numParts; ++p) {
        const PartStats s = stats(p);
        accesses += s.accesses;
        misses += s.misses;
    }
    return accesses > 0 ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
}

void
TalusCache::resetStats()
{
    cache().stats().reset();
}

uint64_t
TalusCache::capacityLines() const
{
    return cache().capacityLines();
}

PartitionedCacheBase&
TalusCache::cache()
{
    return ctl_->cache();
}

const PartitionedCacheBase&
TalusCache::cache() const
{
    return ctl_->cache();
}

} // namespace talus
