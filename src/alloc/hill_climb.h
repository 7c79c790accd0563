/**
 * @file
 * Hill climbing: the trivial linear-time allocator.
 *
 * Grows allocations one granule at a time, always feeding the
 * partition with the largest marginal miss reduction. Optimal when
 * curves are convex (Sec. II-D); with cliffy LRU curves it gets stuck
 * in local optima — which is precisely the pathology Fig. 12 shows
 * and Talus removes.
 */

#ifndef TALUS_ALLOC_HILL_CLIMB_H
#define TALUS_ALLOC_HILL_CLIMB_H

#include "alloc/allocator.h"

namespace talus {

/**
 * Greedy marginal-utility hill climbing. Incremental: each
 * partition's marginal gain and upper curve value are cached, and
 * after a granule is granted only the winner's gain is recomputed
 * (the others' allocations did not move), so a granule costs one
 * curve lookup plus a scan of the cached gains, not two lookups per
 * partition. The gains are the same doubles a per-step recompute
 * gives, with the same tie-break, so the allocations are too.
 */
class HillClimbAllocator : public Allocator
{
  public:
    std::vector<uint64_t> allocate(const std::vector<MissCurve>& curves,
                                   uint64_t total,
                                   uint64_t granularity) override;
    const char* name() const override { return "HillClimb"; }
};

} // namespace talus

#endif // TALUS_ALLOC_HILL_CLIMB_H
