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

/** Exact LRU via per-line 64-bit timestamps. */
class LruPolicy : public ReplPolicy
{
  public:
    void init(uint32_t num_sets, uint32_t num_ways) override;
    void onHit(uint32_t line, Addr addr, PartId part) override;
    void onInsert(uint32_t line, Addr addr, PartId part) override;
    uint32_t victim(const uint32_t* cands, uint32_t n) override;
    const char* name() const override { return "LRU"; }

    /** LRU victim selection is the argmin of the stamps. */
    const uint64_t* rankKeys() const override { return stamps_.data(); }

    /** Timestamp of @p line; exposed for tests and derived policies. */
    uint64_t stamp(uint32_t line) const { return stamps_[line]; }

    /**
     * Raw stamp/clock state for the fused Vantage+LRU kernel
     * (SchemePartitionedCache): the kernel replicates
     * onHit()/onInsert() as stamps[line] = ++clock. Pointers are
     * invalidated by init().
     */
    uint64_t* stampsRaw() { return stamps_.data(); }
    uint64_t* clockRaw() { return &clock_; }

  private:
    // Line-aligned rows: the fused kernel's argmin walks one 128-byte
    // stamp row per victim scan (see util/aligned.h).
    CacheAlignedVec<uint64_t> stamps_;
    uint64_t clock_ = 0;
};

} // namespace talus

#endif // TALUS_POLICY_LRU_H
