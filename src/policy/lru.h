/**
 * @file
 * Exact LRU replacement.
 *
 * LRU is the baseline policy in the paper: it obeys the stack property
 * (Mattson et al.), which is what makes its miss curve cheaply
 * monitorable with UMONs and hence what makes Talus practical.
 */

#ifndef TALUS_POLICY_LRU_H
#define TALUS_POLICY_LRU_H

#include "cache/repl_policy.h"
#include "util/aligned.h"

namespace talus {

/**
 * Exact LRU via per-set 8-bit recency ranks. Within each set the
 * ranks are a permutation of 0..ways-1: 0 is the LRU way, ways-1 the
 * MRU one. A touch moves the line to ways-1 and shifts every rank
 * above its old one down by one. A fresh set starts at rank == way,
 * so never-touched ways rank below touched ones and among themselves
 * in way order — the order a global timestamp clock with zero-valued
 * initial stamps and a first-minimum tie-break would give. Victim
 * selection only ever compares ways of one set, so within-set order
 * is the whole LRU state.
 */
class LruPolicy : public ReplPolicy
{
  public:
    void init(uint32_t num_sets, uint32_t num_ways) override;
    void onHit(uint32_t line, Addr addr, PartId part) override;
    void onInsert(uint32_t line, Addr addr, PartId part) override;

    /** Candidates must all lie in one set. */
    uint32_t victim(const uint32_t* cands, uint32_t n) override;
    const char* name() const override { return "LRU"; }

    /**
     * The LRU touch on one set's rank row: every rank above way
     * @p w's drops by one and @p w becomes MRU (ways - 1). onHit()
     * and onInsert() apply it; the fused kernel's vector row kernels
     * must match it (tests/fused_kernel_lockstep_test.cc).
     */
    static void touchRow(uint8_t* row, uint32_t ways, uint32_t w)
    {
        const uint8_t r = row[w];
        for (uint32_t x = 0; x < ways; ++x)
            row[x] = static_cast<uint8_t>(row[x] - (row[x] > r));
        row[w] = static_cast<uint8_t>(ways - 1);
    }

    /** Recency rank of @p line within its set (0 = LRU). */
    uint8_t rank(uint32_t line) const { return ranks_[line]; }

    /**
     * Raw rank rows for the fused Vantage+LRU kernel
     * (SchemePartitionedCache), which replicates onHit()/onInsert()
     * with its own row kernels. Invalidated by init().
     */
    uint8_t* ranksRaw() { return ranks_.data(); }

  private:
    // Line-aligned, so a 16-way set's rank row is one 16-byte lane
    // that never straddles a cache line (see util/aligned.h).
    CacheAlignedVec<uint8_t> ranks_;
    uint32_t ways_ = 0;
};

} // namespace talus

#endif // TALUS_POLICY_LRU_H
