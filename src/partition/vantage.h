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

#include <cstdint>
#include <vector>

#include "cache/scheme.h"

namespace talus {

/**
 * Largest cache (in lines, exclusive) VantageScheme accepts. Below it
 * every occupancy and target is under 2^26, so the cross products in
 * moreOverTarget() stay under 2^52 and its exact order provably equals
 * the double-divide order (occ / target) that earlier releases used:
 * two distinct ratios a/b > c/d differ by at least 1/(bd), which
 * exceeds the two divides' combined rounding error whenever
 * ad + bc < 2^53.
 */
constexpr uint64_t kVantageMaxLines = uint64_t{1} << 26;

/**
 * Vantage's "most over target" order among partitions present in one
 * set: true iff partition a (occupancy @p occ_a, target @p tgt_a,
 * first way @p first_a in the set) ranks strictly before partition b.
 * Compares occ/target exactly, by integer cross-multiplication; a
 * zero target counts as +infinity (it is scored as 1/0, so two zero
 * targets tie); ties go to the earlier first way. Both the generic
 * VantageScheme and the fused Vantage+LRU kernel choose their
 * set-conflict victim partition with it.
 */
inline bool
moreOverTarget(uint64_t occ_a, uint64_t tgt_a, uint32_t first_a,
               uint64_t occ_b, uint64_t tgt_b, uint32_t first_b)
{
    const uint64_t lhs = (tgt_a == 0 ? 1 : occ_a) * tgt_b;
    const uint64_t rhs = (tgt_b == 0 ? 1 : occ_b) * tgt_a;
    return lhs != rhs ? lhs > rhs : first_a < first_b;
}

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

    /** Policy victim among the lines of the most over-target
     *  partition in the set. */
    uint32_t victimOfWorstPart(uint32_t base, uint32_t ways,
                               ReplPolicy& policy);

    uint32_t numParts_;
    std::vector<uint64_t> targets_;
    std::vector<uint64_t> occ_;
    uint64_t unmanaged_ = 0;
};

} // namespace talus

#endif // TALUS_PARTITION_VANTAGE_H
