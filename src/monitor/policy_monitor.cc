#include "monitor/policy_monitor.h"

#include <algorithm>

#include "policy/policy_factory.h"
#include "util/log.h"

namespace talus {

PolicyMonitorArray::PolicyMonitorArray(const Config& config)
    : cfg_(config), sampleHash_(32, config.seed)
{
    talus_assert(!cfg_.modeledSizes.empty(),
                 "policy monitor needs target sizes");
    talus_assert(cfg_.ways >= 1 && cfg_.monitorLines >= cfg_.ways,
                 "monitor geometry invalid");

    uint64_t salt = 1;
    for (uint64_t size : cfg_.modeledSizes) {
        talus_assert(size >= 1, "modeled size must be >= 1 line");
        Monitor mon;
        mon.modeledLines = size;
        // Small targets use a truncated array with no sampling;
        // larger targets sample at monitorLines / size.
        const uint64_t eff_lines =
            std::min<uint64_t>(cfg_.monitorLines, size);
        const uint32_t ways =
            static_cast<uint32_t>(std::min<uint64_t>(cfg_.ways, eff_lines));
        mon.threshold =
            size <= eff_lines
                ? 1.0
                : static_cast<double>(eff_lines) / static_cast<double>(size);

        SetAssocCache::Config cc;
        cc.numWays = ways;
        cc.numSets = static_cast<uint32_t>(
            std::max<uint64_t>(1, eff_lines / ways));
        mon.cache = std::make_unique<SetAssocCache>(
            cc, makePolicy(cfg_.policyName, cfg_.seed + salt));
        monitors_.push_back(std::move(mon));
        salt++;
    }
}

void
PolicyMonitorArray::access(Addr addr)
{
    // Each monitor samples its own slice; rates differ per modeled
    // size, so the same address may be sampled by several monitors.
    const double unit = sampleHash_.hashUnit(addr);
    for (Monitor& mon : monitors_) {
        if (unit < mon.threshold)
            mon.cache->access(addr, 0);
    }
}

MissCurve
PolicyMonitorArray::curve() const
{
    std::vector<CurvePoint> pts;
    pts.reserve(monitors_.size() + 1);
    pts.push_back({0.0, 1.0});
    for (const Monitor& mon : monitors_) {
        const auto& stats = mon.cache->stats();
        const uint64_t acc = stats.totalAccesses();
        const double ratio =
            acc > 0 ? static_cast<double>(stats.totalMisses()) /
                          static_cast<double>(acc)
                    : 1.0;
        pts.push_back({static_cast<double>(mon.modeledLines), ratio});
    }
    return MissCurve(std::move(pts)).monotoneClamped();
}

uint64_t
PolicyMonitorArray::stateBytes() const
{
    uint64_t lines = 0;
    for (const Monitor& mon : monitors_)
        lines += mon.cache->numLines();
    return lines * 4; // 32-bit tags.
}

void
PolicyMonitorArray::reset()
{
    for (Monitor& mon : monitors_) {
        mon.cache->invalidateAll();
        mon.cache->stats().reset();
    }
}

} // namespace talus
