/**
 * @file
 * Vantage-style fine-grained partitioning (Sanchez & Kozyrakis,
 * ISCA'11), at the fidelity Talus requires.
 *
 * Real Vantage partitions ~90% of a highly-associative cache (the
 * "managed region") at line granularity, keeps per-partition sizes
 * near their targets by demoting lines of over-target partitions into
 * the remaining "unmanaged region", and evicts only from the
 * unmanaged region. We reproduce exactly that structure:
 *
 *  - lines are tagged with their partition (or unmanaged);
 *  - per-partition occupancy counters track actual sizes;
 *  - insertions that push a partition over target demote its
 *    replacement-policy victim (within the insertion set) to the
 *    unmanaged region;
 *  - evictions prefer unmanaged lines, then lines of the most
 *    over-target partition;
 *  - unmanaged lines that hit are promoted back into the accessing
 *    partition.
 *
 * What we do not model is Vantage's feedback machinery (coarse-grain
 * timestamps, setpoint-controlled apertures); our demotions are exact
 * rather than probabilistic. Talus needs only Assumption 2 (miss rate
 * is a function of partition size), which this scheme enforces more
 * strictly than real Vantage. The 10%-unmanaged capacity penalty the
 * paper reports for Talus+V (Fig. 8) comes from the caller sizing
 * targets to 90% of capacity, as TalusController does.
 */

#ifndef TALUS_PARTITION_VANTAGE_H
#define TALUS_PARTITION_VANTAGE_H

#include <vector>

#include "cache/scheme.h"

namespace talus {

/** Fine-grained, Vantage-style partitioning with an unmanaged region. */
class VantageScheme : public PartitionScheme
{
  public:
    /** @param num_parts Number of managed partitions. */
    explicit VantageScheme(uint32_t num_parts);

    void init(SetAssocCache* cache) override;
    uint32_t numPartitions() const override { return numParts_; }

    /**
     * Sets line-granularity targets. The sum may be below capacity;
     * leftover capacity becomes the unmanaged region. Callers wanting
     * the paper's configuration pass targets summing to 90% of
     * capacity.
     */
    void setTargets(const std::vector<uint64_t>& lines) override;

    uint64_t target(PartId part) const override;
    uint64_t occupancy(PartId part) const override;
    uint32_t selectVictim(uint32_t set, PartId part,
                          ReplPolicy& policy) override;
    void onInsert(uint32_t line, PartId part) override;
    void onEvict(uint32_t line, PartId owner) override;
    void onHit(uint32_t line, PartId owner, PartId part) override;
    const char* name() const override { return "Vantage"; }

    /** Current number of unmanaged (demoted) valid lines. */
    uint64_t unmanagedLines() const { return unmanaged_; }

    /**
     * Raw bookkeeping view for the fused Vantage+LRU kernel
     * (SchemePartitionedCache), which replicates
     * onInsert/onEvict/onHit/selectVictim inline. Pointers are
     * invalidated by setTargets().
     */
    struct Books
    {
        uint64_t* occ;
        const uint64_t* targets;
        uint64_t* unmanaged;
    };
    Books books() { return {occ_.data(), targets_.data(), &unmanaged_}; }

  private:
    void demoteIfOverTarget(uint32_t inserted_line, PartId part);

    /** Victim among the lines of the most over-target partition in
     *  the set; @p keys is the policy's rank keys or nullptr. */
    uint32_t victimOfWorstPart(uint32_t base, uint32_t ways,
                               const uint64_t* keys, ReplPolicy& policy);

    uint32_t numParts_;
    std::vector<uint64_t> targets_;
    std::vector<uint64_t> occ_;
    uint64_t unmanaged_ = 0;
};

} // namespace talus

#endif // TALUS_PARTITION_VANTAGE_H
