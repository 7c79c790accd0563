#include "core/talus_controller.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/log.h"

namespace talus {

TalusController::TalusController(std::unique_ptr<PartitionedCacheBase> phys,
                                 const Config& config)
    : cfg_(config), phys_(std::move(phys))
{
    talus_assert(cfg_.numLogicalParts >= 1, "need >= 1 logical partition");
    talus_assert(phys_ != nullptr, "controller needs a cache");
    physPerLogical_ = phys_->numPartitions() / cfg_.numLogicalParts;
    talus_assert(phys_->numPartitions() % cfg_.numLogicalParts == 0 &&
                     (physPerLogical_ == 1 || physPerLogical_ == 2),
                 "physical cache must have 1x or 2x logical partitions (",
                 phys_->numPartitions(), " vs ", cfg_.numLogicalParts,
                 ")");
    talus_assert(cfg_.usableFraction > 0 && cfg_.usableFraction <= 1.0,
                 "usable fraction must be in (0,1]");

    routers_.reserve(cfg_.numLogicalParts);
    for (uint32_t p = 0; p < cfg_.numLogicalParts; ++p) {
        routers_.emplace_back(cfg_.routerBits,
                              cfg_.seed + 0x9E37 * (p + 1));
        routers_.back().setRho(1.0); // Everything to alpha until configured.
    }
    shadowCfg_.resize(cfg_.numLogicalParts);

    fused_ = dynamic_cast<SchemePartitionedCache*>(phys_.get());
    if (fused_ != nullptr && !fused_->fusedKernelActive())
        fused_ = nullptr;
}

uint64_t
TalusController::accessBlockMulti(const Addr* addrs, uint64_t n,
                                  PartId part)
{
    talus_assert(part < cfg_.numLogicalParts, "bad logical partition ",
                 part);
    if (n == 0)
        return 0;
    const ShadowRouter& router = routers_[part];
    if (router.alwaysAlpha()) {
        // Saturated limit register: every address goes to alpha, so
        // skip the hash pass and drive the uniform batched entry
        // (identical to a routed block whose partitions are all
        // alpha). Degenerate partitions — including every partition
        // before its first real configuration — take this path.
        return phys_->accessBatchUniform(addrs, n, alphaOf(part));
    }
    routeParts_.resize(n);
    PartId* route = routeParts_.data();
    const PartId alpha = alphaOf(part);
    router.hashFn().forEachHash(
        Span<const Addr>(addrs, n), [&](size_t i, uint32_t h) {
            route[i] = alpha + router.offsetOfHash(h);
        });
    return phys_->accessBatchRouted(addrs, route, n);
}

std::vector<MissCurve>
TalusController::convexHulls(const std::vector<MissCurve>& curves)
{
    std::vector<MissCurve> hulls;
    hulls.reserve(curves.size());
    for (const MissCurve& c : curves)
        hulls.push_back(ConvexHull(c).hull());
    return hulls;
}

void
TalusController::configure(const std::vector<MissCurve>& curves,
                           const std::vector<uint64_t>& logical_alloc)
{
    // User-facing configuration errors: fatal with actionable
    // messages, not asserts — a bad allocator or caller wiring must
    // not read as a library bug.
    if (curves.size() != cfg_.numLogicalParts)
        talus_fatal("TalusController::configure: expected ",
                    cfg_.numLogicalParts,
                    " miss curves (one per logical partition), got ",
                    curves.size());
    if (logical_alloc.size() != cfg_.numLogicalParts)
        talus_fatal("TalusController::configure: expected ",
                    cfg_.numLogicalParts,
                    " allocations (one per logical partition), got ",
                    logical_alloc.size());
    const uint64_t total = std::accumulate(logical_alloc.begin(),
                                           logical_alloc.end(), uint64_t{0});
    if (total > phys_->capacityLines())
        talus_fatal("TalusController::configure: allocations sum to ",
                    total, " lines and exceed capacity (",
                    phys_->capacityLines(),
                    " lines); the partitioning algorithm must allocate "
                    "at most the physical capacity (check allocator "
                    "granularity and set-rounding)");
    if (physPerLogical_ == 1) {
        phys_->setTargets(logical_alloc);
        return;
    }

    // Compute shadow partition sizes for every logical partition.
    std::vector<uint64_t> phys_targets(2 * cfg_.numLogicalParts, 0);
    for (uint32_t p = 0; p < cfg_.numLogicalParts; ++p) {
        const double usable =
            static_cast<double>(logical_alloc[p]) * cfg_.usableFraction;
        const ConvexHull hull(curves[p]);
        TalusConfig tc = computeTalusConfig(hull, usable, cfg_.margin);

        uint64_t s1 = static_cast<uint64_t>(std::llround(tc.s1));
        const uint64_t usable_lines =
            static_cast<uint64_t>(std::floor(usable));
        s1 = std::min(s1, usable_lines);
        phys_targets[2 * p] = s1;
        phys_targets[2 * p + 1] = usable_lines - s1;
        shadowCfg_[p] = tc;
    }

    phys_->setTargets(phys_targets);

    // Apply sampling rates, optionally recomputed from the coarsened
    // sizes the scheme actually achieved (way partitioning; Sec. VI-B:
    // rho = s1 / alpha).
    for (uint32_t p = 0; p < cfg_.numLogicalParts; ++p) {
        TalusConfig& tc = shadowCfg_[p];
        if (tc.degenerate) {
            routers_[p].setRho(1.0);
            tc.rho = 1.0;
            continue;
        }
        if (cfg_.recomputeFromCoarsened) {
            const double s1c =
                static_cast<double>(phys_->targetOf(2 * p));
            const double s2c =
                static_cast<double>(phys_->targetOf(2 * p + 1));
            if (s1c + s2c > 0 && tc.alpha > 0) {
                const double rho = std::clamp(s1c / tc.alpha, 0.0, 1.0);
                tc.s1 = s1c;
                tc.s2 = s2c;
                tc.rho = std::min(1.0, rho * (1.0 + cfg_.margin));
            }
        }
        routers_[p].setRho(tc.rho);
    }
}

const TalusConfig&
TalusController::configOf(PartId p) const
{
    talus_assert(p < shadowCfg_.size(), "bad logical partition ", p);
    return shadowCfg_[p];
}

double
TalusController::routedRho(PartId p) const
{
    talus_assert(p < routers_.size(), "bad logical partition ", p);
    return routers_[p].effectiveRho();
}

uint64_t
TalusController::logicalAccesses(PartId p) const
{
    return sumPhys(p, [&](PartId q) { return phys_->stats().accesses(q); });
}

uint64_t
TalusController::logicalMisses(PartId p) const
{
    return sumPhys(p, [&](PartId q) { return phys_->stats().misses(q); });
}

uint64_t
TalusController::logicalOccupancy(PartId p) const
{
    return sumPhys(p, [&](PartId q) { return phys_->occupancy(q); });
}

uint64_t
TalusController::logicalTarget(PartId p) const
{
    return sumPhys(p, [&](PartId q) { return phys_->targetOf(q); });
}

} // namespace talus
