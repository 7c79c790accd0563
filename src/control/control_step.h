/**
 * @file
 * The Talus control step: the pure, side-effect-free compute stage of
 * the paper's software control loop (Fig. 7).
 *
 * The paper's deployment pitch is that reconfiguration is cheap
 * because it runs rarely and *off the data path*: monitors produce
 * miss curves, curves become convex hulls, hulls feed the
 * partitioning algorithm, and only the resulting configuration ever
 * touches the cache. This header makes that separation structural:
 *
 *  - ControlInput is an immutable snapshot of everything one
 *    reconfiguration decision needs — per-partition monitor curves,
 *    interval access volumes, and the capacity/mechanism knobs.
 *  - ControlOutput is the decision — each partition's convex hull
 *    and the logical allocation — tagged with the epoch it was
 *    computed for.
 *  - runControlStep() maps one to the other. It reads nothing but its
 *    arguments and writes nothing but its result, so control steps
 *    for independent caches (e.g. the shards of a ShardedTalusCache)
 *    can run concurrently on a worker pool.
 *
 * The math: hull each partition's curve once (the Talus promise that
 * makes hill climbing optimal, and configure()'s alpha/beta anchors),
 * weight the hull (or the raw curve, when not allocating on hulls) by
 * the partition's interval access volume (so the allocator compares
 * misses, not ratios), clamp capacity to what physically exists,
 * haircut the unmanaged region for plain Vantage, and allocate.
 */

#ifndef TALUS_CONTROL_CONTROL_STEP_H
#define TALUS_CONTROL_CONTROL_STEP_H

#include <cstdint>
#include <vector>

#include "alloc/allocator.h"
#include "core/miss_curve.h"

namespace talus {

/**
 * An immutable snapshot of one cache's state at an interval boundary:
 * everything runControlStep() needs, and nothing it could mutate.
 */
struct ControlInput
{
    uint32_t numParts = 1;   //!< Logical partitions.
    uint64_t llcLines = 0;   //!< Configured capacity in lines.
    uint64_t capacityLines = 0; //!< Physical capacity (set-rounded).
    uint64_t granule = 1;    //!< Allocation granularity in lines.
    bool allocateOnHulls = true; //!< Allocate on convex hulls.
    bool unmanagedHaircut = false; //!< Plain Vantage: allocate only
                                   //!< the 90% managed region.
    std::vector<MissCurve> curves; //!< Monitored curves, one per part.
    std::vector<uint64_t> intervalAccesses; //!< Access volume per part
                                            //!< in the closed interval.
};

/**
 * One reconfiguration decision: the monitored curves' hulls, which
 * configure() sizes shadow partitions from, and the logical
 * allocation. The epoch tag is the ControlPlane's alone to assign
 * (monotonic over computed steps); standalone runControlStep() calls
 * leave it 0.
 */
struct ControlOutput
{
    uint64_t epoch = 0;            //!< ControlPlane-assigned tag.
    std::vector<MissCurve> curves; //!< Hulls, one per part.
    std::vector<uint64_t> alloc;   //!< Lines per logical partition.
};

/**
 * The pure compute stage: snapshot in, decision out. Reads only
 * @p in, writes only @p out; @p allocator is the only collaborator
 * (allocators may keep tuning state, so each concurrently stepped
 * cache must own its own instance). @p out is an out-parameter so a
 * steady-state control plane can reuse its buffers allocation-free.
 */
void runControlStep(const ControlInput& in, Allocator& allocator,
                    ControlOutput& out);

} // namespace talus

#endif // TALUS_CONTROL_CONTROL_STEP_H
