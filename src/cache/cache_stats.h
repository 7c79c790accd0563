/**
 * @file
 * Per-partition access/hit/miss accounting for caches.
 *
 * Stats are kept per logical requester (PartId) so the multiprogram
 * engine can compute per-app MPKI, and cumulative counters can be
 * snapshotted to measure per-interval deltas during reconfiguration.
 */

#ifndef TALUS_CACHE_CACHE_STATS_H
#define TALUS_CACHE_CACHE_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace talus {

/** Cumulative cache statistics, tracked per partition id. */
class CacheStats
{
  public:
    /** Records one access by @p part; @p hit tells hit vs miss. */
    void record(PartId part, bool hit);

    /** Records an insertion that was bypassed (e.g., by PDP). */
    void recordBypass() { bypasses_++; }

    /** Records an eviction of a valid line. */
    void recordEviction() { evictions_++; }

    /**
     * Grows the per-partition counters to @p n slots up front, so a
     * fused kernel can record through raw pointers without the
     * per-access resize check. Counters for untouched slots stay 0,
     * exactly as the lazy path reports for never-seen partitions.
     */
    void ensureParts(size_t n)
    {
        if (n > accesses_.size()) {
            accesses_.resize(n, 0);
            hits_.resize(n, 0);
        }
    }

    /** Raw counter arrays for the fused kernel; valid for the slots
     *  covered by the latest ensureParts() and invalidated by it. */
    uint64_t* accessesRaw() { return accesses_.data(); }
    uint64_t* hitsRaw() { return hits_.data(); }

    /** Accesses by partition @p part (0 if never seen). */
    uint64_t accesses(PartId part) const;

    /** Hits by partition @p part. */
    uint64_t hits(PartId part) const;

    /** Misses by partition @p part. */
    uint64_t misses(PartId part) const { return accesses(part) - hits(part); }

    /** Total accesses across partitions. */
    uint64_t totalAccesses() const;

    /** Total hits across partitions. */
    uint64_t totalHits() const;

    /** Total misses across partitions. */
    uint64_t totalMisses() const { return totalAccesses() - totalHits(); }

    /** Total bypassed insertions. */
    uint64_t bypasses() const { return bypasses_; }

    /** Total evictions. */
    uint64_t evictions() const { return evictions_; }

    /** Number of partition slots currently tracked. */
    size_t numParts() const { return accesses_.size(); }

    /** Resets all counters to zero. */
    void reset();

  private:
    void ensure(PartId part);

    std::vector<uint64_t> accesses_;
    std::vector<uint64_t> hits_;
    uint64_t bypasses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace talus

#endif // TALUS_CACHE_CACHE_STATS_H
