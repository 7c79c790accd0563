/**
 * @file
 * Abstract replacement policy interface.
 *
 * A ReplPolicy owns per-line metadata for one SetAssocCache. Lines are
 * identified by a flat index `set * numWays + way`. The cache drives
 * the policy through the hooks below; concrete policies (LRU, RRIP
 * family, DIP, PDP, ...) live in src/policy/.
 *
 * The interface lives in cache/ (not policy/) because SetAssocCache
 * calls it; this keeps the library layering acyclic.
 */

#ifndef TALUS_CACHE_REPL_POLICY_H
#define TALUS_CACHE_REPL_POLICY_H

#include <cstdint>

#include "util/types.h"

namespace talus {

/** Returned by victim() to request that the insertion be dropped. */
constexpr uint32_t kBypassLine = ~0u;

/**
 * Replacement policy for a set-associative cache.
 *
 * Policies must be usable with any number of partitions; partition-
 * aware policies (e.g., TA-DRRIP) key their state on the PartId passed
 * to the hooks.
 */
class ReplPolicy
{
  public:
    virtual ~ReplPolicy() = default;

    /**
     * Binds the policy to a cache geometry and allocates state.
     * Called once by the owning cache before any other hook.
     */
    virtual void init(uint32_t num_sets, uint32_t num_ways) = 0;

    /** Observes every access (hit or miss), before resolution. */
    virtual void onAccess(Addr addr, PartId part)
    {
        (void)addr;
        (void)part;
    }

    /** Called when @p line hits on an access to @p addr. */
    virtual void onHit(uint32_t line, Addr addr, PartId part) = 0;

    /**
     * Called on a miss, before victim selection, with the set that
     * will receive the line. Set-dueling policies update their PSEL
     * counters here.
     */
    virtual void onMiss(Addr addr, uint32_t set, PartId part)
    {
        (void)addr;
        (void)set;
        (void)part;
    }

    /** Called when the new line is written into @p line. */
    virtual void onInsert(uint32_t line, Addr addr, PartId part) = 0;

    /**
     * Picks the victim among @p n candidate lines (all valid).
     * May return kBypassLine to drop the insertion instead (PDP).
     * May mutate internal state (e.g., RRIP aging).
     */
    virtual uint32_t victim(const uint32_t* cands, uint32_t n) = 0;

    /** Interval hook for policies with periodic recomputation (PDP). */
    virtual void nextInterval() {}

    /** Human-readable policy name, for bench output. */
    virtual const char* name() const = 0;
};

} // namespace talus

#endif // TALUS_CACHE_REPL_POLICY_H
