/**
 * @file
 * Set-associative cache model with pluggable replacement policy and
 * partitioning scheme.
 *
 * This is the workhorse substrate: the LLC in every experiment is an
 * instance of this class (possibly wrapped by partition/ and core/
 * layers). The model is trace-driven and tracks tags only — there is
 * no data array, since Talus and all evaluated policies depend only on
 * hit/miss behaviour.
 *
 * Geometry notes:
 *  - Lines are identified by flat index `set * numWays + way`.
 *  - Set indices bit-select the line address (`addr mod numSets`, a
 *    mask when numSets is a power of two), as real LLC indexing does:
 *    sequential scans spread perfectly evenly across sets, which keeps
 *    cliffs as sharp as the paper's zsim curves. Schemes may override
 *    the index (SetPartition hashes within a partition's own sets).
 */

#ifndef TALUS_CACHE_SET_ASSOC_CACHE_H
#define TALUS_CACHE_SET_ASSOC_CACHE_H

#include <memory>
#include <vector>

#include "cache/cache_stats.h"
#include "cache/repl_policy.h"
#include "cache/scheme.h"
#include "util/aligned.h"
#include "util/types.h"

namespace talus {

/** A trace-driven set-associative cache. */
class SetAssocCache
{
  public:
    /** Geometry and behaviour configuration. */
    struct Config
    {
        uint32_t numSets = 1024;     //!< Number of sets (any positive value).
        uint32_t numWays = 16;       //!< Associativity; at most kMaxWays.
    };

    /** Maximum supported associativity. */
    static constexpr uint32_t kMaxWays = 256;

    /**
     * Tag stored by invalid lines, and only by them: a line is valid
     * iff its tag differs from kInvalidTag, so there is no separate
     * valid array and a probe is verified against the tag alone.
     * Accesses to this address are rejected (it is not a
     * representable line address: it would alias the sentinel once
     * inserted).
     */
    static constexpr Addr kInvalidTag = ~0ull;

    /**
     * Builds a cache.
     *
     * @param config Geometry.
     * @param policy Replacement policy (required, owned).
     * @param scheme Partitioning scheme (optional, owned); when null
     *               the cache is unpartitioned but still records
     *               per-PartId statistics.
     */
    SetAssocCache(const Config& config, std::unique_ptr<ReplPolicy> policy,
                  std::unique_ptr<PartitionScheme> scheme = nullptr);

    /**
     * Performs one access.
     *
     * @param addr Line address.
     * @param part Requesting partition (or app id when unpartitioned).
     * @return true on hit.
     */
    bool access(Addr addr, PartId part = 0);

    /** Looks up @p addr without side effects; returns line or -1. */
    int64_t probe(Addr addr, PartId part = 0) const;

    /** Number of sets. */
    uint32_t numSets() const { return numSets_; }

    /** Associativity. */
    uint32_t numWays() const { return numWays_; }

    /** Total lines (numSets * numWays). */
    uint32_t numLines() const { return numSets_ * numWays_; }

    /** True if @p line holds valid data. */
    bool lineValid(uint32_t line) const
    {
        return tags_[line] != kInvalidTag;
    }

    /** Tag (line address) stored in @p line; undefined if invalid. */
    Addr lineTag(uint32_t line) const { return tags_[line]; }

    /** Partition owning @p line (kNoPart = unmanaged). */
    PartId linePart(uint32_t line) const { return parts_[line]; }

    /** Re-tags @p line to partition @p part (Vantage demote/promote). */
    void setLinePart(uint32_t line, PartId part)
    {
        parts_[line] = part;
        mutationEpoch_++;
    }

    /**
     * Counter bumped by every mutation that goes through the generic
     * access()/invalidate paths. Batch kernels that mirror line state
     * (e.g. per-line owner rows) compare it against the value at
     * their last rebuild: equal means no one else touched the arrays.
     * Kernels writing through lineArrays() must NOT bump it — their
     * mirrors already reflect those writes.
     */
    uint64_t mutationEpoch() const { return mutationEpoch_; }

    /**
     * Mutable raw view over the line arrays for the fused kernel
     * (SchemePartitionedCache). A kernel using it must preserve the
     * same invariants access() does: valid lines carry their tag and
     * owning partition, invalid ones kInvalidTag, and every
     * scheme/policy counter it bypasses is updated inline. Pointers
     * are stable for the cache's lifetime.
     */
    struct LineArrays
    {
        Addr* tags;
        PartId* parts;
    };
    LineArrays lineArrays() { return {tags_.data(), parts_.data()}; }

    /** Invalidates one line, notifying the scheme. */
    void invalidateLine(uint32_t line);

    /** Invalidates the whole cache and resets policy state. */
    void invalidateAll();

    /** Default bit-selected set index over the full cache. */
    uint32_t defaultSetIndex(Addr addr) const
    {
        return bitSelectSet(addr, numSets_);
    }

    /** Bit-selected set of @p addr among @p num_sets sets: the low
     *  address bits when @p num_sets is a power of two, else the
     *  address modulo @p num_sets. */
    static uint32_t bitSelectSet(Addr addr, uint32_t num_sets)
    {
        if ((num_sets & (num_sets - 1)) == 0)
            return static_cast<uint32_t>(addr & (num_sets - 1));
        return static_cast<uint32_t>(addr % num_sets);
    }

    /** Counts valid lines owned by @p part (O(lines); for tests). */
    uint64_t countLines(PartId part) const;

    /** Forwards per-partition target sizes to the scheme. */
    void setTargets(const std::vector<uint64_t>& lines);

    /** Access statistics. */
    CacheStats& stats() { return stats_; }
    const CacheStats& stats() const { return stats_; }

    /** The replacement policy (never null). */
    ReplPolicy& policy() { return *policy_; }

    /** The partitioning scheme, or nullptr if unpartitioned. */
    PartitionScheme* scheme() { return scheme_.get(); }
    const PartitionScheme* scheme() const { return scheme_.get(); }

  private:
    uint32_t setIndexFor(Addr addr, PartId part) const;

    uint32_t numSets_;
    uint32_t numWays_;

    // Cache-line-aligned so every per-set row starts on a line
    // boundary: the fused kernel's 128-byte tag/owner rows then touch
    // exactly two lines (see util/aligned.h).
    CacheAlignedVec<Addr> tags_;
    CacheAlignedVec<PartId> parts_;
    uint64_t mutationEpoch_ = 0;

    std::unique_ptr<ReplPolicy> policy_;
    std::unique_ptr<PartitionScheme> scheme_;
    CacheStats stats_;
};

} // namespace talus

#endif // TALUS_CACHE_SET_ASSOC_CACHE_H
