#include "sim/single_app_sim.h"

#include <algorithm>
#include <vector>

#include "api/talus_cache.h"
#include "monitor/mattson_curve.h"
#include "policy/policy_factory.h"
#include "util/log.h"

namespace talus {

namespace {

uint64_t
autoWarmup(uint64_t size_lines, uint64_t configured)
{
    if (configured > 0)
        return configured;
    return 2 * size_lines + 65536;
}

/** Addresses generated per block in the replay loops. */
constexpr uint64_t kReplayBlock = 4096;

/**
 * Runs warmup + measurement through a block functor
 * (const Addr*, uint64_t count): addresses are generated a block at a
 * time (one virtual nextBlock per block instead of one next() per
 * access) and handed to the cache in a tight loop.
 */
template <typename BatchFn>
double
measureMissRatio(AccessStream& stream, uint64_t warmup, uint64_t measure,
                 BatchFn&& do_batch, CacheStats& stats)
{
    stream.reset();
    std::vector<Addr> block(kReplayBlock);
    for (uint64_t left = warmup; left > 0;) {
        const uint64_t n = std::min<uint64_t>(kReplayBlock, left);
        stream.nextBlock(block.data(), n);
        do_batch(block.data(), n);
        left -= n;
    }
    stats.reset();
    for (uint64_t left = measure; left > 0;) {
        const uint64_t n = std::min<uint64_t>(kReplayBlock, left);
        stream.nextBlock(block.data(), n);
        do_batch(block.data(), n);
        left -= n;
    }
    const uint64_t accesses = stats.totalAccesses();
    talus_assert(accesses > 0, "no accesses measured");
    return static_cast<double>(stats.totalMisses()) /
           static_cast<double>(accesses);
}

} // namespace

MissCurve
sweepPolicyCurve(AccessStream& stream, const std::vector<uint64_t>& sizes,
                 const SweepOptions& opts)
{
    talus_assert(!sizes.empty(), "sweep needs sizes");
    std::vector<CurvePoint> pts;
    pts.push_back({0.0, 1.0});

    for (uint64_t size : sizes) {
        talus_assert(size >= 1, "sweep size must be >= 1 line");
        const uint32_t ways =
            static_cast<uint32_t>(std::min<uint64_t>(opts.ways, size));
        SetAssocCache::Config cfg;
        cfg.numWays = ways;
        cfg.numSets = static_cast<uint32_t>(std::max<uint64_t>(
            1, size / ways));
        SetAssocCache cache(cfg, makePolicy(opts.policyName, opts.seed));

        const double ratio = measureMissRatio(
            stream, autoWarmup(size, opts.warmupAccesses),
            opts.measureAccesses,
            [&](const Addr* addrs, uint64_t n) {
                for (uint64_t i = 0; i < n; ++i)
                    cache.access(addrs[i], 0);
            },
            cache.stats());
        pts.push_back({static_cast<double>(cfg.numSets) * ways, ratio});
    }
    return MissCurve(std::move(pts));
}

MissCurve
sweepTalusCurve(AccessStream& stream, const MissCurve& input_curve,
                const std::vector<uint64_t>& sizes,
                const TalusSweepOptions& opts)
{
    talus_assert(!sizes.empty(), "sweep needs sizes");
    std::vector<CurvePoint> pts;
    pts.push_back({0.0, input_curve.at(0.0)});

    for (uint64_t size : sizes) {
        talus_assert(size >= 1, "sweep size must be >= 1 line");

        // One fresh single-partition facade per size; the curve is
        // supplied by the caller, so no allocator/monitor loop runs.
        TalusCache::Config cc;
        cc.llcLines = size;
        cc.ways =
            static_cast<uint32_t>(std::min<uint64_t>(opts.ways, size));
        cc.policyName = opts.policyName;
        cc.scheme = opts.scheme;
        cc.numParts = 1;
        cc.margin = opts.margin;
        cc.routerBits = opts.routerBits;
        cc.allocatorName = "";
        cc.monitoring = false; // The curve is measured by the caller.
        cc.seed = opts.seed;
        cc.routerSeed = opts.seed ^ 0x7;

        std::unique_ptr<TalusCache> talus_cache;
        try {
            talus_cache = std::make_unique<TalusCache>(cc);
        } catch (const ConfigError& e) {
            talus_fatal(e.what());
        }

        // The cache rounds capacity down to whole sets; allocate what
        // actually exists.
        talus_cache->applyCurves({input_curve},
                                 {talus_cache->capacityLines()});

        const double ratio = measureMissRatio(
            stream, autoWarmup(size, opts.warmupAccesses),
            opts.measureAccesses,
            [&](const Addr* addrs, uint64_t n) {
                talus_cache->accessBatch(Span<const Addr>(addrs, n), 0);
            },
            talus_cache->cache().stats());
        pts.push_back({static_cast<double>(size), ratio});
    }
    return MissCurve(std::move(pts));
}

MissCurve
measureLruCurve(AccessStream& stream, uint64_t accesses, uint64_t max_lines,
                uint64_t step)
{
    talus_assert(accesses > 0, "need accesses to measure");
    MattsonCurve mattson(max_lines);
    stream.reset();
    std::vector<Addr> block(kReplayBlock);
    for (uint64_t left = accesses; left > 0;) {
        const uint64_t n = std::min<uint64_t>(kReplayBlock, left);
        stream.nextBlock(block.data(), n);
        for (uint64_t i = 0; i < n; ++i)
            mattson.access(block[i]);
        left -= n;
    }
    return mattson.curve(step);
}

} // namespace talus
