/**
 * @file
 * Serving benchmark for the Talus engine.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--size full|small] [--talus 0|1]
 *
 * One process runs one workload. It generates its inputs from the seed
 * before any timing starts, then:
 *
 *  1. replays the inputs once through the layers' public functions
 *     (ShardRouter::scatterFlat, TalusCache::accessBatch/access,
 *     prepareReconfigure/applyReconfigure) with replica monitors,
 *     routers and allocators beside them. This pass yields the exact
 *     metrics (hits, miss ratio, hull gap, reconfigurations) every
 *     timed pass is checked against, and, with --trace 1, the
 *     per-layer ledger;
 *  2. serves the same inputs through the engine's top-level API on a
 *     fresh engine per pass, timing only the engine calls, until
 *     --seconds have been measured.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, and the end-to-end (--trace 0) or per-layer (--trace 1)
 * metrics. A failed check exits 1 and counts every access as failed.
 * --talus 0 serves one pass with Talus off (plain LRU partitions) and
 * prints only that pass's miss ratio: the cliff evidence for NOTES.md.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/allocator_factory.h"
#include "api/talus_cache.h"
#include "control/control_step.h"
#include "core/convex_hull.h"
#include "monitor/combined_umon.h"
#include "shard/sharded_cache.h"
#include "util/bits.h"
#include "util/rng.h"
#include "workload/mix_stream.h"
#include "workload/phase_stream.h"
#include "workload/scenarios.h"
#include "workload/zipf_stream.h"

namespace {

using namespace talus;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// ---------------------------------------------------------------------
// Workloads and engine configurations. The engine seed is fixed; only
// the inputs depend on --seed.

enum class Kind
{
    Sharded, //!< ShardedTalusCache::accessBatch, one partition.
    Serial,  //!< TalusCache::access per address, one partition.
    Parts,   //!< TalusCache::accessBatch per logical partition.
};

struct Workload
{
    const char* name;
    Kind kind;
    uint32_t threads; //!< Sharded only.
};

constexpr Workload kWorkloads[] = {
    {"zipf_serve", Kind::Sharded, 0},
    {"zipf_serve_t2", Kind::Sharded, 2},
    {"scan_storm_serial", Kind::Serial, 0},
    {"tenant_churn_parts", Kind::Parts, 0},
};

constexpr uint64_t kEngineSeed = 42;
constexpr uint64_t kKeySeed = 0x21FF; //!< zipf_serve's fixed key draws.
constexpr uint64_t kBatch = 4096;     //!< Input addresses per batch.
constexpr size_t kWarmupBatches = 32; //!< Untimed batches per pass.
/** Batches per pass: 1000 timed ones put ten samples beyond each
 *  pass's p99. The small size is for the self-test only. */
constexpr size_t kPassBatches = kWarmupBatches + 1000;
constexpr size_t kSmallPassBatches = kWarmupBatches + 64;
constexpr uint32_t kTenants = 4;
constexpr int kSetupRounds = 3;
constexpr double kWarmupSeconds = 2.0; //!< Untimed passes before the replay.

ShardedTalusCache::Config
shardedConfig(uint32_t threads)
{
    ShardedTalusCache::Config c;
    c.shard.llcLines = 4096;
    c.shard.ways = 16;
    c.shard.allocatorName = "HillClimb";
    c.shard.monitorSamplePeriod = 8;
    c.shard.reconfigInterval = 50'000;
    c.shard.seed = kEngineSeed;
    c.numShards = 4;
    c.threads = threads;
    c.routerSeed = kEngineSeed ^ 0x5A4D;
    return c;
}

TalusCache::Config
serialConfig()
{
    TalusCache::Config c;
    c.llcLines = 8192;
    c.ways = 16;
    c.monitorSamplePeriod = 1;
    c.reconfigInterval = 50'000;
    c.seed = kEngineSeed;
    return c;
}

TalusCache::Config
partsConfig()
{
    TalusCache::Config c;
    c.llcLines = 8192;
    c.ways = 16;
    c.numParts = kTenants;
    c.monitorSamplePeriod = 1;
    c.reconfigInterval = 4096;
    c.seed = kEngineSeed;
    return c;
}

// ---------------------------------------------------------------------
// Inputs: one flat address array cut into batches of engine calls.

struct Call
{
    uint64_t off;
    uint64_t n;
    PartId part;
};

struct Inputs
{
    std::vector<Addr> addrs;
    std::vector<Call> calls;
    std::vector<size_t> batchBegin; //!< Batch b = calls[begin[b], begin[b+1]).

    size_t numBatches() const { return batchBegin.size() - 1; }

    uint64_t bytes() const
    {
        return addrs.capacity() * sizeof(Addr) +
               calls.capacity() * sizeof(Call) +
               batchBegin.capacity() * sizeof(size_t);
    }

    Span<const Addr> span(const Call& c) const
    {
        return Span<const Addr>(addrs.data() + c.off, c.n);
    }

    uint64_t batchAccesses(size_t b) const
    {
        uint64_t n = 0;
        for (size_t i = batchBegin[b]; i < batchBegin[b + 1]; ++i)
            n += calls[i].n;
        return n;
    }
};

/** One call per kBatch-address slab, all on partition 0. */
void
cutBatches(Inputs& in)
{
    for (uint64_t off = 0; off < in.addrs.size(); off += kBatch) {
        in.batchBegin.push_back(in.calls.size());
        in.calls.push_back(
            {off, std::min<uint64_t>(kBatch, in.addrs.size() - off), 0});
    }
    in.batchBegin.push_back(in.calls.size());
}

/** Per slab, regroups addresses by tenant (the address-space bits), in
 *  place, so each batch is one accessBatch call per resident tenant. */
void
cutTenantBatches(Inputs& in)
{
    std::vector<Addr> bucket[kTenants];
    for (uint64_t off = 0; off < in.addrs.size(); off += kBatch) {
        const uint64_t end = std::min<uint64_t>(off + kBatch, in.addrs.size());
        for (auto& b : bucket)
            b.clear();
        for (uint64_t i = off; i < end; ++i)
            bucket[(in.addrs[i] >> kAddrSpaceShift) % kTenants].push_back(
                in.addrs[i]);
        in.batchBegin.push_back(in.calls.size());
        uint64_t at = off;
        for (PartId t = 0; t < kTenants; ++t) {
            if (bucket[t].empty())
                continue;
            std::copy(bucket[t].begin(), bucket[t].end(),
                      in.addrs.begin() + at);
            in.calls.push_back({at, bucket[t].size(), t});
            at += bucket[t].size();
        }
    }
    in.batchBegin.push_back(in.calls.size());
}

uint64_t
derive(uint64_t seed, uint64_t k)
{
    return mix64(seed + 0x9E3779B97F4A7C15ull * (k + 1));
}

Inputs
makeInputs(const Workload& w, uint64_t seed, bool small)
{
    Inputs in;
    const uint64_t n = (small ? kSmallPassBatches : kPassBatches) * kBatch;
    switch (w.kind) {
    case Kind::Sharded: {
        // Zipf(0.9) over 2^16 keys, 4x the engine's 16384 lines. The
        // draws come from one fixed stream and the seed shuffles their
        // order: which keys are hot, and so which of them the
        // monitors' address hash samples, is the same for every seed.
        // A seeded key permutation moves hull_gap by half its value
        // (NOTES.md); the order alone does not.
        in.addrs.resize(n);
        ZipfStream zipf(1 << 16, 0.9, 0, kKeySeed);
        zipf.nextBlock(in.addrs.data(), n);
        Rng rng(derive(seed, 1));
        for (uint64_t i = n - 1; i > 0; --i)
            std::swap(in.addrs[i], in.addrs[rng.below(i + 1)]);
        cutBatches(in);
        break;
    }
    case Kind::Serial: {
        // A 16384-line scan storm over a 4096-line Zipf base, against
        // an 8192-line cache: the scan alone exceeds capacity. Each
        // calm-storm-after lap is a fresh stream with its own seed, so
        // a pass averages over eight draws of the hot key sets.
        ScanStormSpec spec;
        spec.scanLines = 1 << 14;
        spec.calmAccesses = 100'000;
        spec.stormAccesses = 300'000;
        in.addrs.resize(n);
        for (uint64_t off = 0, lap = 0; off < n; ++lap) {
            spec.seed = derive(seed, 1000 + lap);
            auto stream = makeScanStormStream(spec);
            const uint64_t len =
                std::min(n - off, stream->scheduleAccesses());
            stream->nextBlock(in.addrs.data() + off, len);
            off += len;
        }
        cutBatches(in);
        break;
    }
    case Kind::Parts: {
        // Four tenants with private 8192-line key spaces; three or
        // four are resident at a time, against an 8192-line cache.
        // Every lap of the four rosters draws fresh key sets.
        const std::vector<std::vector<PartId>> rosters = {
            {0, 1, 2}, {0, 1, 2, 3}, {1, 2, 3}, {0, 2, 3}};
        in.addrs.resize(n);
        for (uint64_t off = 0, lap = 0; off < n; ++lap) {
            std::vector<PhaseStream::Phase> phases;
            for (uint64_t k = 0; k < rosters.size(); ++k) {
                const uint64_t key = 1000 * (lap + 1) + 16 * k;
                std::vector<MixStream::Component> mix;
                for (PartId t : rosters[k])
                    mix.push_back({std::make_unique<ZipfStream>(
                                       1 << 13, 0.6, t, derive(seed, key + t)),
                                   1.0});
                phases.push_back({"roster",
                                  std::make_unique<MixStream>(
                                      std::move(mix), derive(seed, key + 8)),
                                  150'000});
            }
            PhaseStream stream(std::move(phases));
            const uint64_t len = std::min(n - off, stream.scheduleAccesses());
            stream.nextBlock(in.addrs.data() + off, len);
            off += len;
        }
        cutTenantBatches(in);
        break;
    }
    }
    return in;
}

// ---------------------------------------------------------------------
// Untraced passes: the engine's top-level API, one timer pair per batch.

struct PassResult
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t reconfigs = 0;
    uint64_t timedAccesses = 0;
    uint64_t serviceNs = 0;
};

template <class Serve>
void
timeBatches(const Inputs& in, Serve&& serve, std::vector<double>& lat_us,
            PassResult& r)
{
    for (size_t b = 0; b < in.numBatches(); ++b) {
        const uint64_t t0 = nowNs();
        r.hits += serve(b);
        const uint64_t dt = nowNs() - t0;
        if (b >= kWarmupBatches) {
            lat_us.push_back(static_cast<double>(dt) / 1e3);
            r.serviceNs += dt;
            r.timedAccesses += in.batchAccesses(b);
        }
    }
}

template <class Engine>
void
finishPass(const Engine& eng, PassResult& r)
{
    for (PartId p = 0; p < eng.numParts(); ++p)
        r.misses += eng.stats(p).misses;
    r.reconfigs = eng.reconfigurations();
}

PassResult
servePass(const Workload& w, const Inputs& in, std::vector<double>& lat_us,
          bool talus = true)
{
    PassResult r;
    switch (w.kind) {
    case Kind::Sharded: {
        ShardedTalusCache eng(shardedConfig(w.threads));
        timeBatches(
            in,
            [&](size_t b) {
                const Call& c = in.calls[in.batchBegin[b]];
                return eng.accessBatch(in.span(c), c.part);
            },
            lat_us, r);
        finishPass(eng, r);
        break;
    }
    case Kind::Serial: {
        TalusCache::Config cfg = serialConfig();
        cfg.talus = talus;
        TalusCache eng(cfg);
        timeBatches(
            in,
            [&](size_t b) {
                const Call& c = in.calls[in.batchBegin[b]];
                uint64_t hits = 0;
                for (const Addr a : in.span(c))
                    hits += eng.access(a, c.part);
                return hits;
            },
            lat_us, r);
        finishPass(eng, r);
        break;
    }
    case Kind::Parts: {
        TalusCache eng(partsConfig());
        timeBatches(
            in,
            [&](size_t b) {
                uint64_t hits = 0;
                for (size_t i = in.batchBegin[b]; i < in.batchBegin[b + 1];
                     ++i)
                    hits += eng.accessBatch(in.span(in.calls[i]),
                                            in.calls[i].part);
                return hits;
            },
            lat_us, r);
        finishPass(eng, r);
        break;
    }
    }
    return r;
}

// ---------------------------------------------------------------------
// The layer replay: spans around each call into a layer, replicas
// beside the engine for the layers it runs internally.

struct Ledger
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t alpha = 0;   //!< Accesses the shadow router sent to alpha.
    uint64_t sampled = 0; //!< Accesses the primary UMON sampled.
    uint64_t reconfigs = 0;

    uint64_t wallNs = 0;    //!< Batch walls, replicas included.
    uint64_t offPathNs = 0; //!< Replicas and bookkeeping in the walls.
    uint64_t scatterNs = 0;
    uint64_t apiNs = 0;
    uint64_t monitorNs = 0; //!< Replica monitor.
    uint64_t routeNs = 0;   //!< Replica shadow router.
    uint64_t computeNs = 0;
    uint64_t applyNs = 0;
    std::vector<double> computeUs, applyUs, allocUs;
    double movedFracSum = 0;

    double imbalanceSum = 0;
    uint64_t shardBatches = 0;
    uint64_t threadedNs = 0; //!< Threaded engine, per-batch timers.
    std::vector<double> handoffUs; //!< Per threaded batch.

    /** Sums over windows and partitions of (measured - hull-predicted)
     *  misses, signed and absolute. */
    double gapMisses = 0;
    double absGapMisses = 0;
    uint64_t gapAccesses = 0;

    /** Traced service time: the walls minus off-path work. */
    uint64_t serviceNs() const { return wallNs - offPathNs; }
};

bool
sameCurve(const MissCurve& a, const MissCurve& b)
{
    if (a.numPoints() != b.numPoints())
        return false;
    for (size_t i = 0; i < a.numPoints(); ++i)
        if (a.point(i).size != b.point(i).size ||
            a.point(i).misses != b.point(i).misses)
            return false;
    return true;
}

/**
 * One TalusCache driven layer by layer. Automatic reconfiguration is
 * off in the replica's Config; serve() splits calls at the access
 * counts where the engine's reconfigInterval would fire and runs
 * prepareReconfigure()/applyReconfigure() there itself, which is what
 * the engine's reconfigure() does.
 */
class Replica
{
  public:
    Replica(const TalusCache::Config& engine_cfg, Ledger& led,
            std::vector<std::string>& failures)
        : cfg_(engine_cfg), led_(led), failures_(failures),
          interval_(engine_cfg.reconfigInterval),
          alloc_(makeAllocator(engine_cfg.allocatorName))
    {
        TalusCache::Config cfg = engine_cfg;
        cfg.reconfigInterval = 0;
        cache_ = std::make_unique<TalusCache>(cfg);
        for (PartId p = 0; p < cfg.numParts; ++p) {
            CombinedUMon::Config mc;
            mc.llcLines = cfg.llcLines;
            mc.coverage = cfg.umonCoverage;
            mc.seed = cfg.seed ^ (0x1111ull * (p + 1));
            mons_.emplace_back(mc);
        }
        phase_.assign(cfg.numParts, 0);
        intervalAcc_.assign(cfg.numParts, 0);
        sampledBase_.assign(cfg.numParts, 0);
        predicted_.assign(cfg.numParts, 0.0);
        winAcc_.assign(cfg.numParts, 0);
        winMiss_.assign(cfg.numParts, 0);
    }

    /** Serves @p n addresses of partition @p part: serially through
     *  access() or as one accessBatch() per reconfiguration window. */
    void serve(const Addr* a, uint64_t n, PartId part, bool serial)
    {
        while (n > 0) {
            const uint64_t chunk = std::min(n, interval_ - since_);
            feed(a, chunk, part, serial);
            intervalAcc_[part] += chunk;
            since_ += chunk;
            a += chunk;
            n -= chunk;
            if (since_ == interval_)
                reconfigure();
        }
    }

    /** Closes the last hull-gap window and sample count. */
    void finish()
    {
        closeWindow();
        for (PartId p = 0; p < mons_.size(); ++p)
            led_.sampled += mons_[p].sampledAccesses() - sampledBase_[p];
        for (PartId p = 0; p < cache_->numParts(); ++p)
            led_.misses += cache_->stats(p).misses;
    }

    /** Service time (api + control) since the last takeBusyNs(). */
    uint64_t takeBusyNs()
    {
        const uint64_t b = busyNs_;
        busyNs_ = 0;
        return b;
    }

  private:
    void feed(const Addr* a, uint64_t n, PartId part, bool serial)
    {
        const uint64_t t0 = nowNs();
        CombinedUMon& mon = mons_[part];
        if (cfg_.monitorSamplePeriod == 1) {
            if (serial)
                for (uint64_t i = 0; i < n; ++i)
                    mon.accessBlock(Span<const Addr>(a + i, 1));
            else
                mon.accessBlock(Span<const Addr>(a, n));
        } else {
            scratch_.clear();
            uint32_t ph = phase_[part];
            for (uint64_t i = 0; i < n; ++i) {
                if (ph == 0)
                    scratch_.push_back(a[i]);
                if (++ph == cfg_.monitorSamplePeriod)
                    ph = 0;
            }
            phase_[part] = ph;
            mon.accessBlock(Span<const Addr>(scratch_.data(), scratch_.size()));
        }
        const uint64_t t1 = nowNs();

        const ShadowRouter& rt = cache_->controller()->router(part);
        uint64_t alpha = 0;
        if (rt.alwaysAlpha()) {
            alpha = n;
        } else if (serial) {
            for (uint64_t i = 0; i < n; ++i)
                alpha += rt.toAlpha(a[i]);
        } else {
            hashes_.resize(n);
            rt.hashFn().hashBlock(Span<const Addr>(a, n), hashes_.data());
            const uint64_t limit = rt.limit();
            for (uint64_t i = 0; i < n; ++i)
                alpha += hashes_[i] < limit;
        }
        const uint64_t t2 = nowNs();

        uint64_t hits = 0;
        if (serial)
            for (uint64_t i = 0; i < n; ++i)
                hits += cache_->access(a[i], part);
        else
            hits = cache_->accessBatch(Span<const Addr>(a, n), part);
        const uint64_t t3 = nowNs();

        led_.monitorNs += t1 - t0;
        led_.routeNs += t2 - t1;
        led_.offPathNs += t2 - t0;
        led_.apiNs += t3 - t2;
        busyNs_ += t3 - t2;
        led_.alpha += alpha;
        led_.hits += hits;
        led_.accesses += n;
    }

    void reconfigure()
    {
        const uint64_t t0 = nowNs();
        ControlInput in;
        in.numParts = cache_->numParts();
        in.llcLines = cfg_.llcLines;
        in.capacityLines = cache_->capacityLines();
        in.granule = std::max<uint64_t>(1, cfg_.llcLines / 64);
        in.allocateOnHulls = cfg_.allocateOnHulls;
        for (PartId p = 0; p < in.numParts; ++p) {
            in.curves.push_back(mons_[p].snapshot());
            in.intervalAccesses.push_back(intervalAcc_[p]);
        }
        const uint64_t t1 = nowNs();
        runControlStep(in, *alloc_, out_);
        const uint64_t t2 = nowNs();
        led_.allocUs.push_back(static_cast<double>(t2 - t1) / 1e3);
        closeWindow();
        std::vector<uint64_t> before(in.numParts);
        for (PartId p = 0; p < in.numParts; ++p)
            before[p] = cache_->stats(p).targetLines;
        const uint64_t t3 = nowNs();

        cache_->prepareReconfigure();
        const uint64_t t4 = nowNs();
        const ControlOutput& staged = cache_->controlPlane().pending();
        bool same = staged.alloc == out_.alloc &&
                    staged.curves.size() == out_.curves.size();
        for (size_t p = 0; same && p < out_.curves.size(); ++p)
            same = sameCurve(staged.curves[p], out_.curves[p]);
        if (!same && failures_.size() < 8)
            failures_.push_back("replica monitor/allocator disagree with "
                                "prepareReconfigure() at reconfiguration " +
                                std::to_string(led_.reconfigs + 1));
        const uint64_t t5 = nowNs();
        cache_->applyReconfigure();
        const uint64_t t6 = nowNs();

        uint64_t moved = 0;
        for (PartId p = 0; p < in.numParts; ++p) {
            const uint64_t after = cache_->stats(p).targetLines;
            moved += after > before[p] ? after - before[p] : before[p] - after;
            led_.sampled += mons_[p].sampledAccesses() - sampledBase_[p];
            mons_[p].decay();
            sampledBase_[p] = mons_[p].sampledAccesses();
            intervalAcc_[p] = 0;
        }
        led_.movedFracSum += static_cast<double>(moved) / 2.0 /
                             static_cast<double>(in.capacityLines);
        since_ = 0;
        led_.reconfigs++;
        openWindow();
        const uint64_t t7 = nowNs();

        led_.computeNs += t4 - t3;
        led_.applyNs += t6 - t5;
        led_.computeUs.push_back(static_cast<double>(t4 - t3) / 1e3);
        led_.applyUs.push_back(static_cast<double>(t6 - t5) / 1e3);
        led_.offPathNs += (t3 - t0) + (t5 - t4) + (t7 - t6);
        busyNs_ += (t4 - t3) + (t6 - t5);
    }

    /** Starts a window at the active configuration: the hull of each
     *  partition's configured curve, evaluated at its target lines. */
    void openWindow()
    {
        const ControlOutput& act = cache_->controlPlane().active();
        for (PartId p = 0; p < cache_->numParts(); ++p) {
            const TalusCache::PartStats s = cache_->stats(p);
            predicted_[p] = ConvexHull(act.curves[p])
                                .at(static_cast<double>(s.targetLines));
            winAcc_[p] = s.accesses;
            winMiss_[p] = s.misses;
        }
        windowOpen_ = true;
    }

    void closeWindow()
    {
        if (!windowOpen_)
            return;
        for (PartId p = 0; p < cache_->numParts(); ++p) {
            const TalusCache::PartStats s = cache_->stats(p);
            const uint64_t acc = s.accesses - winAcc_[p];
            const uint64_t miss = s.misses - winMiss_[p];
            const double gap = static_cast<double>(miss) -
                               predicted_[p] * static_cast<double>(acc);
            led_.gapMisses += gap;
            led_.absGapMisses += std::abs(gap);
            led_.gapAccesses += acc;
        }
        windowOpen_ = false;
    }

    TalusCache::Config cfg_;
    Ledger& led_;
    std::vector<std::string>& failures_;
    uint64_t interval_;
    std::unique_ptr<Allocator> alloc_;
    std::unique_ptr<TalusCache> cache_;
    std::vector<CombinedUMon> mons_;
    std::vector<uint32_t> phase_;
    std::vector<uint64_t> intervalAcc_;
    std::vector<uint64_t> sampledBase_;
    std::vector<double> predicted_;
    std::vector<uint64_t> winAcc_, winMiss_;
    bool windowOpen_ = false;
    uint64_t since_ = 0;
    uint64_t busyNs_ = 0;
    std::vector<Addr> scratch_;
    std::vector<uint32_t> hashes_;
    ControlOutput out_;
};

/**
 * Replays @p in through the layers. With @p threaded, a threaded
 * ShardedTalusCache first serves the same batches, each timed, and
 * its hits are checked against the inline replay's batch by batch.
 */
Ledger
replay(const Workload& w, const Inputs& in, bool threaded,
       std::vector<std::string>& failures)
{
    Ledger led;
    std::vector<std::unique_ptr<Replica>> reps;
    switch (w.kind) {
    case Kind::Sharded: {
        const ShardedTalusCache::Config sc = shardedConfig(w.threads);
        for (uint32_t s = 0; s < sc.numShards; ++s)
            reps.push_back(std::make_unique<Replica>(
                ShardedTalusCache::shardConfig(sc, s), led, failures));
        const ShardRouter router(sc.numShards, *sc.routerSeed);
        ScatterPlan plan;
        // The threaded engine serves first, back to back, straight after
        // the warm-up passes have woken its workers' CPUs.
        std::vector<uint64_t> threadedNs, threadedHits;
        if (threaded) {
            ShardedTalusCache eng(sc);
            for (size_t b = 0; b < in.numBatches(); ++b) {
                const Call& c = in.calls[in.batchBegin[b]];
                const uint64_t t0 = nowNs();
                threadedHits.push_back(eng.accessBatch(in.span(c), c.part));
                threadedNs.push_back(nowNs() - t0);
            }
        }
        std::vector<uint64_t> workerNs(std::max(1u, sc.threads));
        for (size_t b = 0; b < in.numBatches(); ++b) {
            const Call& c = in.calls[in.batchBegin[b]];
            const uint64_t hits0 = led.hits;
            const uint64_t t0 = nowNs();
            router.scatterFlat(in.span(c), plan);
            const uint64_t t1 = nowNs();
            for (uint32_t s = 0; s < sc.numShards; ++s)
                if (plan.count(s) != 0)
                    reps[s]->serve(plan.shardData(s), plan.count(s), c.part,
                                   false);
            const uint64_t t2 = nowNs();
            led.scatterNs += t1 - t0;
            led.wallNs += t2 - t0;

            uint64_t largest = 0;
            for (uint32_t s = 0; s < sc.numShards; ++s)
                largest = std::max(largest, plan.count(s));
            led.imbalanceSum += static_cast<double>(largest) *
                                sc.numShards / static_cast<double>(c.n);
            led.shardBatches++;
            if (!threaded)
                continue;
            // Worker t owns the shards s with s % threads == t, so the
            // busiest worker's inline share is its shards' summed work.
            std::fill(workerNs.begin(), workerNs.end(), 0);
            for (uint32_t s = 0; s < sc.numShards; ++s)
                workerNs[s % workerNs.size()] += reps[s]->takeBusyNs();
            const uint64_t inline_ns =
                (t1 - t0) + *std::max_element(workerNs.begin(), workerNs.end());
            led.threadedNs += threadedNs[b];
            led.handoffUs.push_back((static_cast<double>(threadedNs[b]) -
                                     static_cast<double>(inline_ns)) /
                                    1e3);
            if (threadedHits[b] != led.hits - hits0 && failures.size() < 8)
                failures.push_back("threaded batch " + std::to_string(b) +
                                   " hits differ from the inline replay");
        }
        break;
    }
    case Kind::Serial:
    case Kind::Parts: {
        const bool serial = w.kind == Kind::Serial;
        reps.push_back(std::make_unique<Replica>(
            serial ? serialConfig() : partsConfig(), led, failures));
        for (size_t b = 0; b < in.numBatches(); ++b) {
            const uint64_t t0 = nowNs();
            for (size_t i = in.batchBegin[b]; i < in.batchBegin[b + 1]; ++i) {
                const Call& c = in.calls[i];
                reps[0]->serve(in.addrs.data() + c.off, c.n, c.part, serial);
            }
            led.wallNs += nowNs() - t0;
        }
        break;
    }
    }
    for (auto& r : reps)
        r->finish();
    return led;
}

/** Moves the calling thread to each allowed CPU in turn. */
class CpuRotation
{
  public:
    explicit CpuRotation(bool enabled)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (!enabled || sched_getaffinity(0, sizeof(set), &set) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus_.push_back(c);
    }

    void next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[at_++ % cpus_.size()], &set);
        sched_setaffinity(0, sizeof(set), &set);
    }

  private:
    std::vector<int> cpus_;
    size_t at_ = 0;
};

// ---------------------------------------------------------------------
// Reporting.

/** Nearest-rank quantile: of 1000 samples, p99 has ten beyond it. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    return v[static_cast<size_t>(std::max(1.0, rank)) - 1];
}

double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

/** Peak resident set of the process so far, less @p exclude bytes. */
double
peakRssMb(uint64_t exclude)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // ru_maxrss is in KiB on Linux.
    return (static_cast<double>(ru.ru_maxrss) * 1024.0 -
            static_cast<double>(exclude)) /
           (1024.0 * 1024.0);
}

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

void
printResult(bool correct, uint64_t attempted,
            const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(correct ? 0 : attempted));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--size full|small] [--talus 0|1]\n"
                 "workloads:",
                 msg);
    for (const Workload& w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

uint64_t
parseUint(const char* flag, const char* s)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || s[0] == '-')
        usage((std::string("bad value for ") + flag + ": " + s).c_str());
    return v;
}

} // namespace

int
main(int argc, char** argv)
{
    const Workload* w = nullptr;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    bool small = false;
    bool talus = true;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char* val = argv[++i];
        if (flag == "--workload") {
            for (const Workload& cand : kWorkloads)
                if (std::strcmp(cand.name, val) == 0)
                    w = &cand;
            if (w == nullptr)
                usage((std::string("unknown workload ") + val).c_str());
        } else if (flag == "--seed") {
            seed = parseUint("--seed", val);
            have_seed = true;
        } else if (flag == "--seconds") {
            seconds = static_cast<double>(parseUint("--seconds", val));
        } else if (flag == "--trace") {
            trace = static_cast<int>(parseUint("--trace", val));
        } else if (flag == "--size") {
            if (std::strcmp(val, "small") != 0 && std::strcmp(val, "full") != 0)
                usage("--size must be full or small");
            small = std::strcmp(val, "small") == 0;
        } else if (flag == "--talus") {
            talus = parseUint("--talus", val) != 0;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (w == nullptr || !have_seed || (talus && (seconds < 1 || trace < 0 ||
                                                 trace > 1)))
        usage("--workload, --seed, --seconds >= 1 and --trace 0|1 are "
              "required");

    if (!talus) {
        if (w->kind != Kind::Serial)
            usage("--talus 0 is only defined for scan_storm_serial");
        const Inputs in = makeInputs(*w, seed, small);
        std::vector<double> lat;
        const PassResult r = servePass(*w, in, lat, false);
        std::printf("%s seed %llu: LRU-only (talus=false) miss ratio %.6f "
                    "over %zu accesses\n",
                    w->name, static_cast<unsigned long long>(seed),
                    static_cast<double>(r.misses) /
                        static_cast<double>(in.addrs.size()),
                    in.addrs.size());
        return 0;
    }

    // Set-up: input generation plus engine construction, several times.
    Inputs in;
    std::vector<double> setup_s;
    for (int round = 0; round < kSetupRounds; ++round) {
        in = Inputs(); // Free the last round's inputs before the next.
        const uint64_t t0 = nowNs();
        in = makeInputs(*w, seed, small);
        if (w->kind == Kind::Sharded) {
            ShardedTalusCache eng(shardedConfig(w->threads));
        } else {
            TalusCache eng(w->kind == Kind::Serial ? serialConfig()
                                                   : partsConfig());
        }
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    const uint64_t pass_accesses = in.addrs.size();
    uint64_t attempted = 0;

    // Inline engines serve each pass on the next allowed CPU in turn. On
    // a shared host each CPU switches between two speeds about 1.4x
    // apart, partly independently of the others; a run then averages
    // over all of them, not over the one the scheduler kept it on. The
    // threaded engine's workers are left to the scheduler, and so is its
    // caller.
    CpuRotation rotation(w->threads == 0);

    // Warm-up: untimed passes first. Until CPUs that sat idle have run
    // for a second or so, they are slow: the threaded engine's first
    // passes ran at a third of its later speed.
    std::vector<PassResult> warmup;
    std::vector<double> lat_us;
    const uint64_t warmup_t0 = nowNs();
    do {
        rotation.next();
        lat_us.clear();
        warmup.push_back(servePass(*w, in, lat_us));
        attempted += pass_accesses;
    } while (static_cast<double>(nowNs() - warmup_t0) / 1e9 < kWarmupSeconds);

    // Layer replay: exact reference metrics, and the traced ledger.
    std::vector<std::string> failures;
    const uint64_t replay_t0 = nowNs();
    const Ledger led = replay(*w, in, trace == 1 && w->threads > 0, failures);
    const double replay_s = static_cast<double>(nowNs() - replay_t0) / 1e9;
    attempted += led.accesses;
    // The engines and replicas have all been built and served by now;
    // later growth is the harness's own latency samples. The input
    // arrays are the harness's too.
    const double peak_rss_mb = peakRssMb(in.bytes());

    int passes = 0;
    auto check = [&](const PassResult& r) {
        ++passes;
        if ((r.hits != led.hits || r.misses != led.misses ||
             r.reconfigs != led.reconfigs) &&
            failures.size() < 8) {
            std::ostringstream msg;
            msg << "pass " << passes << " (threads=" << w->threads
                << ") served " << r.hits << " hits, " << r.misses
                << " misses, " << r.reconfigs << " reconfigurations; the "
                << "inline layer replay served " << led.hits << ", "
                << led.misses << ", " << led.reconfigs;
            failures.push_back(msg.str());
        }
    };
    for (const PassResult& r : warmup)
        check(r);

    // Untraced passes on fresh engines until the time is measured.
    const double budget_s = trace == 1 ? std::max(0.0, seconds - replay_s)
                                       : seconds;
    // Throughput and p50 pool every timed batch of the run. A pass runs
    // at one of two speeds when the host is busy; a median over passes
    // then jumps from one speed to the other as their shares cross one
    // half, where the pooled figures move smoothly. p99 is taken per
    // pass, and the reported figure is the lower quartile over passes:
    // every pass serves the same batches, so the engine's own slow
    // batches are in each pass's ten slowest, and a pass whose ten
    // slowest hold a host stall instead is set aside.
    lat_us.clear();
    std::vector<double> pass_p99_us;
    uint64_t timed_accesses = 0;
    uint64_t service_ns = 0;
    const uint64_t measure_t0 = nowNs();
    do {
        rotation.next();
        const size_t first = lat_us.size();
        const PassResult r = servePass(*w, in, lat_us);
        pass_p99_us.push_back(quantile(
            std::vector<double>(lat_us.begin() + first, lat_us.end()), 0.99));
        check(r);
        attempted += pass_accesses;
        timed_accesses += r.timedAccesses;
        service_ns += r.serviceNs;
    } while (static_cast<double>(nowNs() - measure_t0) / 1e9 < budget_s);
    const double throughput =
        ratio(static_cast<double>(timed_accesses) * 1e3,
              static_cast<double>(service_ns));
    if (led.hits + led.misses != led.accesses)
        failures.push_back("replay hits + misses != accesses");

    const double miss_ratio =
        ratio(static_cast<double>(led.misses), static_cast<double>(led.accesses));
    const double hull_gap =
        ratio(led.absGapMisses, static_cast<double>(led.gapAccesses));
    const double signed_gap =
        ratio(led.gapMisses, static_cast<double>(led.gapAccesses));
    std::printf("%s seed %llu: %llu accesses/pass, %d untraced passes "
                "(%zu warm-up), "
                "%zu latency samples (batches of %llu), %llu "
                "reconfigurations/pass, hits %llu, signed hull gap %.6f\n",
                w->name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(pass_accesses), passes,
                warmup.size(), lat_us.size(),
                static_cast<unsigned long long>(kBatch),
                static_cast<unsigned long long>(led.reconfigs),
                static_cast<unsigned long long>(led.hits), signed_gap);
    for (const std::string& f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    std::vector<Metric> m;
    if (trace == 0) {
        m.push_back({"throughput_macc_s", throughput, "Macc/s"});
        m.push_back({"latency_p50_us", quantile(lat_us, 0.50), "us"});
        m.push_back({"latency_p99_us", quantile(pass_p99_us, 0.25), "us"});
        m.push_back({"miss_ratio", miss_ratio, "ratio"});
        m.push_back({"hull_gap", hull_gap, "ratio"});
        m.push_back({"setup_s", median(setup_s), "s"});
        m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    } else {
        const double acc = static_cast<double>(led.accesses);
        const double service = static_cast<double>(led.serviceNs());
        const bool serial = w->kind == Kind::Serial;
        const double traced_ns =
            led.threadedNs > 0 ? static_cast<double>(led.threadedNs) : service;
        const double traced_tput = ratio(acc * 1e3, traced_ns);
        m.push_back({"shard.scatter_ns_per_acc",
                     ratio(static_cast<double>(led.scatterNs), acc), "ns"});
        m.push_back({"shard.imbalance",
                     ratio(led.imbalanceSum,
                           static_cast<double>(led.shardBatches)),
                     "ratio"});
        // Only the threaded engine hands batches off; zipf_serve_t2 is
        // not in BENCHMARK.json either.
        if (w->threads > 0)
            m.push_back({"shard.handoff_us_per_batch", median(led.handoffUs),
                         "us"});
        m.push_back({"api.batch_ns_per_acc",
                     serial ? 0.0 : ratio(static_cast<double>(led.apiNs), acc),
                     "ns"});
        // Only scan_storm_serial serves through access(); it is not in
        // BENCHMARK.json, so this metric is not in its list.
        if (serial)
            m.push_back({"api.access_ns_per_acc",
                         ratio(static_cast<double>(led.apiNs), acc), "ns"});
        m.push_back({"monitor.ns_per_acc",
                     ratio(static_cast<double>(led.monitorNs), acc), "ns"});
        m.push_back({"monitor.sampled_frac",
                     ratio(static_cast<double>(led.sampled), acc), "ratio"});
        m.push_back({"core.route_ns_per_acc",
                     ratio(static_cast<double>(led.routeNs), acc), "ns"});
        m.push_back({"core.alpha_frac",
                     ratio(static_cast<double>(led.alpha), acc), "ratio"});
        m.push_back({"partition.kernel_ns_per_acc",
                     ratio(static_cast<double>(led.apiNs) -
                               static_cast<double>(led.monitorNs) -
                               static_cast<double>(led.routeNs),
                           acc),
                     "ns"});
        m.push_back({"partition.hit_ratio",
                     ratio(static_cast<double>(led.hits), acc), "ratio"});
        m.push_back({"control.compute_us_p50", median(led.computeUs), "us"});
        m.push_back({"control.compute_us_p99", quantile(led.computeUs, 0.99),
                     "us"});
        m.push_back({"control.apply_us", median(led.applyUs), "us"});
        m.push_back({"control.reconfigs", static_cast<double>(led.reconfigs),
                     "count"});
        m.push_back({"control.time_share",
                     ratio(static_cast<double>(led.computeNs + led.applyNs),
                           service),
                     "ratio"});
        m.push_back({"control.moved_frac",
                     ratio(led.movedFracSum, static_cast<double>(led.reconfigs)),
                     "ratio"});
        m.push_back({"alloc.allocate_us", median(led.allocUs), "us"});
        m.push_back({"ledger.residual",
                     1.0 - ratio(static_cast<double>(led.scatterNs + led.apiNs +
                                                     led.computeNs +
                                                     led.applyNs),
                                 service),
                     "ratio"});
        m.push_back({"trace.overhead", 1.0 - ratio(traced_tput, throughput),
                     "ratio"});
    }
    const bool correct = failures.empty();
    printResult(correct, attempted, m);
    return correct ? 0 : 1;
}
