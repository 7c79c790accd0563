/**
 * @file
 * TalusController: the full Talus mechanism around a partitioned
 * cache (Fig. 7 of the paper).
 *
 * The controller owns a physical cache for N logical (software-
 * visible) partitions and is the only code that knows how they map
 * onto physical partitions. It reads the layout off the physical
 * partition count:
 *  - 2N (Talus): logical p maps to physical 2p (the alpha shadow
 *    partition) and 2p+1 (beta); accesses are routed by per-logical-
 *    partition H3 sampling functions.
 *  - N (baseline): logical p is physical p. A logical partition with
 *    rho = 1 and an empty beta shadow behaves exactly like the plain
 *    partition (Sec. VI-B), so the routers stay in the rho = 1 state
 *    they start in and configure() sets the allocation as targets.
 *
 * Reconfiguration follows the paper's software flow:
 *  - pre-processing: runControlStep() hulls each monitored miss curve
 *    once, so the partitioning algorithm can assume convexity;
 *  - the partitioning algorithm (alloc/) runs on the hulls, producing
 *    logical allocations — the controller does NOT choose them;
 *  - post-processing: configure() converts logical allocations and the
 *    same hulls into shadow partition sizes and sampling rates
 *    (Theorem 6 + the 5% safety margin), handles way-partitioning
 *    coarsening by recomputing rho from the achieved sizes (Sec.
 *    VI-B), and scales targets by the scheme's usable fraction (0.9
 *    for Vantage).
 */

#ifndef TALUS_CORE_TALUS_CONTROLLER_H
#define TALUS_CORE_TALUS_CONTROLLER_H

#include <memory>
#include <vector>

#include "core/convex_hull.h"
#include "core/shadow_router.h"
#include "core/talus_config.h"
#include "partition/partitioned_cache.h"

namespace talus {

/** Talus wrapped around a physical partitioned cache. */
class TalusController
{
  public:
    /** Controller configuration. */
    struct Config
    {
        uint32_t numLogicalParts = 1; //!< Software-visible partitions.
        double margin = 0.05;         //!< Safety margin on rho.
        uint32_t routerBits = 8;      //!< Sampling hash/limit width.
        double usableFraction = 1.0;  //!< 0.9 under Vantage.
        bool recomputeFromCoarsened = false; //!< Way/set coarsening fix.
        uint64_t seed = 0x7A1C5;
    };

    /**
     * @param phys Physical cache; exposes 2 * numLogicalParts
     *        partitions (shadow pairs) or numLogicalParts (1:1).
     * @param config Controller configuration.
     */
    TalusController(std::unique_ptr<PartitionedCacheBase> phys,
                    const Config& config);

    /** Routes and performs one access for logical partition @p part.
     *  Under the fused Vantage+LRU kernel, accessFused1() is inlined
     *  here, so route plus probe cost at most one call. The route is
     *  branch-free (ShadowRouter::offsetOf); the alwaysAlpha() test
     *  is constant between reconfigurations, predicts perfectly, and
     *  lets saturated partitions skip the hash. */
    bool access(Addr addr, PartId part)
    {
        talus_assert(part < cfg_.numLogicalParts, "bad logical partition ",
                     part);
        const ShadowRouter& rt = routers_[part];
        const PartId phys =
            alphaOf(part) + (rt.alwaysAlpha() ? 0 : rt.offsetOf(addr));
        return fused_ != nullptr ? fused_->accessFused1(addr, phys)
                                 : phys_->access(addr, phys);
    }

    /**
     * Routes and performs a whole block of accesses for one logical
     * partition — bit-exact with calling access() per address. A
     * block of one is access(); longer blocks evaluate the router's
     * H3 once over the block (H3Hash::forEachHash, high word
     * memoised), its alpha/beta decisions fill a physical-partition
     * array, and the physical cache consumes the block through its
     * batched entry point.
     *
     * @return Number of hits in the block.
     */
    uint64_t accessBlock(const Addr* addrs, uint64_t n, PartId part)
    {
        if (n == 1)
            return access(addrs[0], part);
        return accessBlockMulti(addrs, n, part);
    }

    /**
     * Convex hulls of miss curves, in the same order, for callers
     * that wire monitors and allocators by hand.
     */
    static std::vector<MissCurve>
    convexHulls(const std::vector<MissCurve>& curves);

    /**
     * Post-processing: applies logical allocations. In the 1:1 layout
     * the allocations are the physical targets as given (no shadow
     * sizing, usable-fraction scaling, or rho).
     *
     * @param curves Miss curves or their hulls (one per logical
     *        partition, sizes in lines of the physical cache); a hull
     *        is its own hull, so hulls cost O(vertices) here.
     * @param logical_alloc Lines allocated to each logical partition
     *        by the partitioning algorithm; the sum must not exceed
     *        capacity.
     */
    void configure(const std::vector<MissCurve>& curves,
                   const std::vector<uint64_t>& logical_alloc);

    /** Last applied shadow configuration of logical partition @p p. */
    const TalusConfig& configOf(PartId p) const;

    /** The sampling router of logical partition @p p, for tests that
     *  check routing decisions. */
    const ShadowRouter& router(PartId p) const { return routers_[p]; }

    /** Effective (quantized) routing rate of partition @p p. */
    double routedRho(PartId p) const;

    /** Underlying physical cache. */
    PartitionedCacheBase& cache() { return *phys_; }
    const PartitionedCacheBase& cache() const { return *phys_; }

    /** Number of logical partitions. */
    uint32_t numLogicalParts() const { return cfg_.numLogicalParts; }

    /** Accesses by logical partition (alpha + beta shadows). */
    uint64_t logicalAccesses(PartId p) const;

    /** Misses by logical partition. */
    uint64_t logicalMisses(PartId p) const;

    /** Lines logical partition @p p occupies. */
    uint64_t logicalOccupancy(PartId p) const;

    /** Target lines of logical partition @p p. */
    uint64_t logicalTarget(PartId p) const;

    /** Interval hook forwarded to the physical cache/policy. */
    void nextInterval() { phys_->nextInterval(); }

  private:
    /** accessBlock() for n != 1. */
    uint64_t accessBlockMulti(const Addr* addrs, uint64_t n, PartId part);

    /** Physical partition of @p part's alpha shadow (its only one in
     *  the 1:1 layout); beta, if any, is the next one. */
    PartId alphaOf(PartId part) const { return part * physPerLogical_; }

    /** Sum of @p f over @p p's physical partitions. */
    template <typename F>
    uint64_t sumPhys(PartId p, F f) const
    {
        return physPerLogical_ == 2 ? f(2 * p) + f(2 * p + 1) : f(p);
    }

    Config cfg_;
    std::unique_ptr<PartitionedCacheBase> phys_;
    uint32_t physPerLogical_ = 2; //!< 2 (shadow pairs) or 1 (1:1).
    /** phys_ when it runs the fused Vantage+LRU kernel, else null.
     *  Points into phys_'s pointee, so it survives moves. */
    SchemePartitionedCache* fused_ = nullptr;
    std::vector<ShadowRouter> routers_;
    std::vector<TalusConfig> shadowCfg_;
    std::vector<PartId> routeParts_; //!< accessBlock routing scratch.
};

} // namespace talus

#endif // TALUS_CORE_TALUS_CONTROLLER_H
