/**
 * @file
 * Abstract cache partitioning scheme interface.
 *
 * A PartitionScheme constrains where lines of each software partition
 * may live and which lines may be evicted on behalf of which
 * partition. Concrete schemes (way, set, Vantage, unpartitioned) live
 * in src/partition/. Like ReplPolicy, the interface lives in cache/
 * because SetAssocCache drives it.
 */

#ifndef TALUS_CACHE_SCHEME_H
#define TALUS_CACHE_SCHEME_H

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace talus {

class ReplPolicy;
class SetAssocCache;

/**
 * Partitioning scheme for a set-associative cache.
 *
 * The cache calls selectVictim() only when the target set has no
 * invalid way; the scheme picks among the set's valid lines, typically
 * by filtering candidates and delegating the final choice to the
 * replacement policy.
 */
class PartitionScheme
{
  public:
    virtual ~PartitionScheme() = default;

    /** Binds the scheme to its cache; called once at cache creation. */
    virtual void init(SetAssocCache* cache) = 0;

    /** Number of partitions this scheme is configured for. */
    virtual uint32_t numPartitions() const = 0;

    /**
     * Sets per-partition target sizes in lines. Schemes enforce these
     * as well as their mechanism allows (exactly for way partitioning
     * after coarsening; approximately for Vantage).
     */
    virtual void setTargets(const std::vector<uint64_t>& lines) = 0;

    /** Target size of partition @p part in lines, after coarsening. */
    virtual uint64_t target(PartId part) const = 0;

    /** Actual occupancy of partition @p part in lines, if tracked. */
    virtual uint64_t occupancy(PartId part) const = 0;

    /**
     * Maps an address accessed by @p part to a set index. The default
     * (whole-cache bit selection) is overridden by set partitioning.
     */
    virtual uint32_t setIndex(Addr addr, PartId part) const;

    /**
     * Chooses a victim line in @p set for an insertion by @p part,
     * or kBypassLine if the partition cannot insert (e.g., zero ways).
     */
    virtual uint32_t selectVictim(uint32_t set, PartId part,
                                  ReplPolicy& policy) = 0;

    /** Notification: @p line was filled on behalf of @p part. */
    virtual void onInsert(uint32_t line, PartId part)
    {
        (void)line;
        (void)part;
    }

    /** Notification: valid @p line owned by @p owner was evicted. */
    virtual void onEvict(uint32_t line, PartId owner)
    {
        (void)line;
        (void)owner;
    }

    /** Notification: @p line owned by @p owner hit for @p part. */
    virtual void onHit(uint32_t line, PartId owner, PartId part)
    {
        (void)line;
        (void)owner;
        (void)part;
    }

    /** Human-readable scheme name, for bench output. */
    virtual const char* name() const = 0;

  protected:
    SetAssocCache* cache_ = nullptr;
};

} // namespace talus

#endif // TALUS_CACHE_SCHEME_H
