/**
 * @file
 * Uniform interface over partitioned caches.
 *
 * The Talus controller, the partitioning algorithms, and the
 * simulation engines all talk to a PartitionedCacheBase: a cache with
 * N software-visible partitions whose sizes can be re-targeted at
 * runtime. Two implementations exist:
 *
 *  - SchemePartitionedCache: a SetAssocCache plus a PartitionScheme
 *    (way / set / Vantage / unpartitioned).
 *  - IdealPartitionedCache (partition/ideal_partition.h): one exact
 *    fully-associative LRU per partition ("idealized partitioning",
 *    Talus+I in Fig. 8).
 */

#ifndef TALUS_PARTITION_PARTITIONED_CACHE_H
#define TALUS_PARTITION_PARTITIONED_CACHE_H

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_stats.h"
#include "cache/lru_rows.h"
#include "cache/set_assoc_cache.h"
#include "partition/vantage.h"
#include "policy/lru.h"
#include "util/aligned.h"
#include "util/log.h"
#include "util/types.h"

namespace talus {

/** Abstract partitioned cache with runtime-resizable partitions. */
class PartitionedCacheBase
{
  public:
    virtual ~PartitionedCacheBase() = default;

    /** One access by partition @p part; returns true on hit. */
    virtual bool access(Addr addr, PartId part) = 0;

    /**
     * A block of accesses with a per-address partition array (the
     * Talus controller's routed path). Bit-exact with calling
     * access() per element; implementations may fuse the per-access
     * virtual dispatch away. @return Number of hits.
     */
    virtual uint64_t accessBatchRouted(const Addr* addrs,
                                       const PartId* parts, uint64_t n)
    {
        uint64_t hits = 0;
        for (uint64_t i = 0; i < n; ++i)
            hits += access(addrs[i], parts[i]);
        return hits;
    }

    /**
     * A block of accesses all by partition @p part (the plain
     * facade path). Bit-exact with calling access() per element.
     * @return Number of hits.
     */
    virtual uint64_t accessBatchUniform(const Addr* addrs, uint64_t n,
                                        PartId part)
    {
        uint64_t hits = 0;
        for (uint64_t i = 0; i < n; ++i)
            hits += access(addrs[i], part);
        return hits;
    }

    /** Re-targets partition sizes (lines, one entry per partition). */
    virtual void setTargets(const std::vector<uint64_t>& lines) = 0;

    /** Number of software-visible partitions. */
    virtual uint32_t numPartitions() const = 0;

    /** Total capacity in lines. */
    virtual uint64_t capacityLines() const = 0;

    /** Actual lines held by @p part. */
    virtual uint64_t occupancy(PartId part) const = 0;

    /**
     * Effective (post-coarsening) target of @p part in lines. For way
     * partitioning this is the way-granular size, which Talus uses to
     * recompute its sampling rate (Sec. VI-B).
     */
    virtual uint64_t targetOf(PartId part) const = 0;

    /** Shared statistics (per-PartId). */
    virtual CacheStats& stats() = 0;
    virtual const CacheStats& stats() const = 0;

    /** Scheme name for reporting. */
    virtual const char* schemeName() const = 0;

    /** Periodic hook forwarded to policies that recompute state. */
    virtual void nextInterval() {}
};

/**
 * A SetAssocCache driven through a PartitionScheme. Under Vantage +
 * LRU with at most 64 ways and 254 partitions, accesses run the fused
 * kernel (accessFused1()), which adds two per-line mirrors of the line
 * arrays, a 4-byte tag fingerprint and a 1-byte owner, and no per-set
 * state; otherwise the generic SetAssocCache path serves.
 */
class SchemePartitionedCache : public PartitionedCacheBase
{
  public:
    /**
     * @param config Cache geometry.
     * @param policy Replacement policy (owned).
     * @param scheme Partitioning scheme (owned, required).
     */
    SchemePartitionedCache(const SetAssocCache::Config& config,
                           std::unique_ptr<ReplPolicy> policy,
                           std::unique_ptr<PartitionScheme> scheme);

    bool access(Addr addr, PartId part) override;
    uint64_t accessBatchRouted(const Addr* addrs, const PartId* parts,
                               uint64_t n) override;
    uint64_t accessBatchUniform(const Addr* addrs, uint64_t n,
                                PartId part) override;
    /**
     * Forwards to the scheme, then refreshes only the fused kernel's
     * target pointer. No line moves, so the owner rows and fingerprints
     * stay valid and the next access pays no rebuild: a
     * reconfiguration costs O(partitions), not O(cache lines), here.
     */
    void setTargets(const std::vector<uint64_t>& lines) override;
    uint32_t numPartitions() const override;
    uint64_t capacityLines() const override;
    uint64_t occupancy(PartId part) const override;
    uint64_t targetOf(PartId part) const override;
    CacheStats& stats() override { return cache_.stats(); }
    const CacheStats& stats() const override { return cache_.stats(); }
    const char* schemeName() const override;
    void nextInterval() override { cache_.policy().nextInterval(); }

    /** Underlying cache, for tests and monitors. */
    SetAssocCache& cache() { return cache_; }

    /** True when the fused Vantage+LRU kernel is active (the scheme
     *  is VantageScheme and the policy is exactly LRU). */
    bool fusedKernelActive() const { return fusedLru_ != nullptr; }

    /**
     * One access through the fused Vantage+LRU kernel: a
     * devirtualized replica of SetAssocCache::access over
     * VantageScheme + LruPolicy, in the operation order of the
     * generic path (probe -> stats -> LRU touch -> promote/victim ->
     * evict bookkeeping -> insert -> demote) except that the touch
     * comes last; it writes only the rank row, which nothing between
     * reads but the demotion argmin, and that argmin excludes the
     * touched way, whose touch keeps every other way's rank order.
     * Every counter the generic path's virtual hooks would touch is
     * updated inline, so the state after each access is bit-identical
     * to the generic path's — tests/fused_kernel_lockstep_test.cc
     * holds the two up against each other access by access.
     * Header-inline so TalusController::access(), the route every
     * serial access takes, runs route + probe as one body with no
     * further call; the batched entry points run the same body in a
     * loop (see fusedBlock()). The row width is dispatched once here,
     * so each instantiation's body is straight-line for its geometry.
     *
     * Ownership is read from the owner row (one byte per way, see
     * owners_) instead of the lparts/tag arrays: a hit way is
     * unmanaged iff its byte says so, a victim's owner is implied by
     * which byte value selected it, and an invalid-way victim needs
     * no eviction bookkeeping at all. The canonical arrays are still
     * written on every mutation, so external readers (the generic
     * path, tests, invalidation) always see the same state.
     *
     * Caller must check fusedKernelActive() first.
     */
    __attribute__((always_inline)) inline bool
    accessFused1(Addr addr, PartId part)
    {
        if (mirrorEpoch_ != cache_.mutationEpoch())
            rebuildMirrors();
        const FusedCtx& c = ctx_;
        const uint32_t set = fusedSetOf(c, addr);
        switch (c.chunks) {
          case 1:
            return accessFused1Of<1>(c, addr, part, set);
          case 2:
            return accessFused1Of<2>(c, addr, part, set);
          case 3:
            return accessFused1Of<3>(c, addr, part, set);
          case 4:
            return accessFused1Of<4>(c, addr, part, set);
          default:
            return accessFused1Of<0>(c, addr, part, set);
        }
    }

  private:
    /** Owner-row byte of an invalid line. */
    static constexpr uint8_t kOwnInvalid = 0xFF;
    /** Owner-row byte of a valid unmanaged line. */
    static constexpr uint8_t kOwnUnmanaged = 0xFE;
    /** Partitions the fused kernel serves: physical ids 0..253 fit an
     *  owner byte below the two reserved values. */
    static constexpr uint32_t kMaxFusedParts = 254;

    struct FusedCtx;

    /** Set index of @p addr: SetAssocCache::defaultSetIndex over the
     *  geometry captured in @p c (VantageScheme keeps the default
     *  whole-cache index). */
    __attribute__((always_inline)) static inline uint32_t
    fusedSetOf(const FusedCtx& c, Addr addr)
    {
        return c.setsPow2 ? static_cast<uint32_t>(addr & c.setMask)
                          : static_cast<uint32_t>(addr % c.sets);
    }

    /** The serial access: touches the rank and owner rows before the
     *  probe resolves, then runs the body. Every access writes the
     *  rank row (hit promotion or insert) and reads the owner row,
     *  but those loads sit behind the hit/miss branch; the prefetches
     *  overlap their latency with the fingerprint probe. The block
     *  path prefetches kPf accesses ahead instead (fusedBlockOf()). */
    template <uint32_t kChunks>
    __attribute__((always_inline)) inline bool
    accessFused1Of(const FusedCtx& c, Addr addr, PartId part, uint32_t set)
    {
        const uint32_t ways = kChunks > 0 ? 16 * kChunks : c.ways;
        const size_t base = static_cast<size_t>(set) * ways;
        __builtin_prefetch(c.ranks + base, 1);
        __builtin_prefetch(c.own + base, 1);
        if constexpr (lru_rows::kByteRowMaySplit<kChunks>) {
            __builtin_prefetch(c.ranks + base + ways - 1, 1);
            __builtin_prefetch(c.own + base + ways - 1, 1);
        }
        return accessFused1At<kChunks>(c, addr, part, set);
    }

    /**
     * The body of accessFused1() for an access whose set index
     * (fusedSetOf(addr)) is already known, over rows of @p kChunks
     * 16-way chunks (0: c.ways, scalar loops; see lru_rows). The
     * owner rows, fingerprints and @p c must be current (mirrorEpoch_
     * == the cache's mutation epoch). @p c is ctx_ on the serial
     * path and a local copy of it on the block path: members are
     * reloaded after every row store, since vector stores may alias
     * anything, but a local is not — and a copy per block is free,
     * while a copy per serial access costs more than the reloads.
     *
     * always_inline because a serial access must pay at most one
     * call (into TalusController::access()): at ~150 statements
     * GCC's inliner judges the body too big and emits a second call
     * per access.
     */
    template <uint32_t kChunks>
    __attribute__((always_inline)) inline bool
    accessFused1At(const FusedCtx& c, Addr addr, PartId part, uint32_t set)
    {
        const uint32_t ways = kChunks > 0 ? 16 * kChunks : c.ways;
        const uint32_t nparts = c.nparts;
        talus_assert(part < nparts, "bad partition id ", part);
        talus_assert(addr != SetAssocCache::kInvalidTag,
                     kInvalidTagAccessMsg);
        const uint32_t base = set * ways;
        Addr* tags = c.tags;
        uint8_t* rrow = c.ranks + base;
        uint32_t* fpt = c.fpt;

        // Probe the 32-bit fingerprint row — one cache line covers all
        // 16 ways, where the full tag row needs two. A fingerprint
        // match is only a candidate: it is verified against the
        // canonical tag below, so fold collisions cost a verify, never
        // correctness. No fingerprint match is a definite miss (the
        // fold is a function of the address), in which case the full
        // tag row is never read at all.
        const uint32_t fp = tagFingerprint(addr);
        uint64_t m_fp = lru_rows::probeRow<kChunks>(fpt + base, ways, fp);
        uint32_t hw = ways; // Hit way; ways on a miss.
        while (m_fp != 0) {
            const uint32_t w =
                static_cast<uint32_t>(__builtin_ctzll(m_fp));
            if (tags[base + w] == addr) {
                hw = w;
                break; // Tags are unique per set; lowest way first.
            }
            m_fp &= m_fp - 1;
        }
        c.accRaw[part]++;

        // VantageScheme::demoteIfOverTarget with the argmin fused in,
        // walking only the part's ways (@p m_part, taken before the
        // insert) minus the just-inserted one. The owner row is loaded
        // once by whichever path edits it, edited in registers and
        // stored back whole at the end. Both callers run it before
        // touching the inserted way: a touch keeps the rank order of
        // every other way, so the argmin is the same, and it no longer
        // waits for the touch's row store.
        const auto demote = [&](lru_rows::ByteRow<kChunks>& own,
                                uint64_t m_part, uint32_t inserted) {
            if (c.occ[part] <= c.targets[part] || c.targets[part] == 0)
                return;
            const uint64_t m = m_part & ~(1ull << inserted);
            if (m == 0)
                return; // Cannot demote within this set; converges later.
            const uint32_t dw = lru_rows::argminRow<kChunks>(rrow, ways, m);
            c.lparts[base + dw] = kNoPart;
            c.occ[part]--;
            (*c.unmanaged)++;
            own.set(dw, kOwnUnmanaged);
        };

        if (hw < ways) {
            c.hitRaw[part]++;
            if (c.own[base + hw] == kOwnUnmanaged) {
                // Promotion of an unmanaged hit line.
                lru_rows::ByteRow<kChunks> own(c.own + base, ways);
                const uint64_t m_part = own.match(static_cast<uint8_t>(part));
                c.lparts[base + hw] = part;
                c.occ[part]++;
                if (*c.unmanaged > 0)
                    (*c.unmanaged)--;
                own.set(hw, static_cast<uint8_t>(part));
                demote(own, m_part, hw);
                own.store();
            }
            lru_rows::touchRow<kChunks>(rrow, ways, hw);
            return true;
        }

        // Miss: invalid way first (no eviction bookkeeping — an
        // invalid tag implies an invalid line), else unmanaged LRU
        // (owner is kNoPart by construction), else the LRU of the most
        // over-target partition present (owner == worst). One owner
        // row compare per class, no tag scan.
        lru_rows::ByteRow<kChunks> own(c.own + base, ways);
        const uint64_t m_part = own.match(static_cast<uint8_t>(part));
        const uint64_t m_inval = own.match(kOwnInvalid);
        uint32_t vw; // Victim way.
        if (m_inval != 0) {
            vw = static_cast<uint32_t>(__builtin_ctzll(m_inval));
        } else {
            const uint64_t mu = own.match(kOwnUnmanaged);
            if (mu != 0) {
                // A one-bit mask needs no rank scan — the argmin of a
                // singleton is its only member.
                vw = (mu & (mu - 1)) == 0
                         ? static_cast<uint32_t>(__builtin_ctzll(mu))
                         : lru_rows::argminRow<kChunks>(rrow, ways, mu);
                cache_.stats().recordEviction();
                if (*c.unmanaged > 0)
                    (*c.unmanaged)--;
            } else {
                // The set-conflict scan: the generic path's exact
                // moreOverTarget() order, where ties go to the part
                // whose first way in this set is earliest. Iterating
                // parts with that first way touches each present part
                // once instead of each way.
                PartId worst = kNoPart;
                uint32_t worst_first = 0;
                uint64_t worst_mask = 0;
                own.forEachMatch(nparts, [&](uint32_t q, uint64_t mq) {
                    if (mq == 0)
                        return;
                    const uint32_t first =
                        static_cast<uint32_t>(__builtin_ctzll(mq));
                    if (worst == kNoPart ||
                        moreOverTarget(c.occ[q], c.targets[q], first,
                                       c.occ[worst], c.targets[worst],
                                       worst_first)) {
                        worst = q;
                        worst_first = first;
                        worst_mask = mq;
                    }
                });
                talus_assert(worst != kNoPart,
                             "set full of foreign lines");
                vw = lru_rows::argminRow<kChunks>(rrow, ways, worst_mask);
                cache_.stats().recordEviction();
                if (c.occ[worst] > 0)
                    c.occ[worst]--;
            }
        }
        const uint32_t victim = base + vw;
        tags[victim] = addr;
        fpt[victim] = fp;
        c.lparts[victim] = part;
        c.occ[part]++;
        own.set(vw, static_cast<uint8_t>(part));
        demote(own, m_part, vw);
        own.store();
        lru_rows::touchRow<kChunks>(rrow, ways, vw);
        return false;
    }

    /**
     * The batched entry points' kernel: a loop over accessFused1At().
     * @p route is per-address partitions, or nullptr for uniform
     * @p upart. Each block first precomputes every set index, so the
     * loop can prefetch the rows of the access kPf ahead while earlier
     * accesses resolve. Dispatches the row width once per block to
     * fusedBlockOf().
     */
    uint64_t fusedBlock(const Addr* addrs, const PartId* route,
                        uint64_t n, PartId upart);
    template <uint32_t kChunks>
    uint64_t fusedBlockOf(const Addr* addrs, const PartId* route,
                          uint64_t n, PartId upart);

    /** Rebuilds the owner rows and the fingerprint mirror from the
     *  line arrays, recaptures ctx_, and records the cache's mutation
     *  epoch. Called lazily by the fused kernel when someone mutated
     *  lines behind its back. */
    void rebuildMirrors();

    SetAssocCache cache_;
    VantageScheme* fusedVantage_ = nullptr; //!< Set iff kernel usable.
    LruPolicy* fusedLru_ = nullptr;         //!< Set iff kernel usable.

    /**
     * One owner byte per line (flat line index, like the rank rows):
     * kOwnInvalid, kOwnUnmanaged, or the owning partition's id. The
     * kernel's victim scans compare a set's row against one value to
     * get a way mask (bit order == way order, preserving the generic
     * scan order exactly). A mirror of the line arrays, valid only
     * while mirrorEpoch_ matches cache_.mutationEpoch().
     */
    CacheAlignedVec<uint8_t> owners_;

    /**
     * Per-line tagFingerprint() mirror of the tag array (flat line
     * index, like tags). Probed by the fused kernel and kept in sync
     * by its insert path; rebuilt with the owner rows whenever the
     * generic path mutates lines. Fingerprints of invalid lines are
     * the fold of kInvalidTag — harmless, since every fingerprint
     * match is verified against the canonical tag.
     */
    CacheAlignedVec<uint32_t> fpTags_;
    uint64_t mirrorEpoch_ = ~0ull; //!< Forces the initial rebuild.
    std::vector<uint32_t> setScratch_; //!< Precomputed set indices.

    /**
     * Kernel context captured at rebuildMirrors() time: every pointer
     * and geometry field the fused kernel needs, packed so an access
     * reads one struct instead of chasing through four objects. All
     * pointers are stable between rebuilds — the paths that mutate
     * lines (generic access, invalidation) bump the mutation epoch,
     * and setTargets() refreshes `targets` in place. The block path
     * copies it into a local, which stays in registers across the
     * body's row stores.
     */
    struct FusedCtx
    {
        Addr* tags;
        PartId* lparts;
        uint8_t* ranks;
        uint8_t* own; //!< owners_.
        uint64_t* occ;
        const uint64_t* targets;
        uint64_t* unmanaged;
        uint32_t* fpt;
        uint64_t* accRaw;
        uint64_t* hitRaw;
        uint32_t ways;
        uint32_t chunks; //!< lru_rows::chunksFor(ways).
        uint32_t sets;
        uint32_t setMask;
        uint32_t nparts;
        bool setsPow2;
    };
    FusedCtx ctx_{};
};

/** Which partitioned-cache construction to use. */
enum class SchemeKind
{
    Unpartitioned,
    Way,
    Set,
    Vantage,
    Futility,
    Ideal,
};

/** Parses a scheme name ("Unpartitioned", "Way", "Set", "Vantage",
 *  "Futility", "Ideal"); fatal on unknown names. */
SchemeKind parseSchemeKind(const std::string& name);

/**
 * The fraction of a partition's allocation Talus can actually rely on
 * under @p kind: 0.9 for Vantage (its unmanaged region gives no
 * capacity guarantees, Sec. VI-B), 1.0 for everything else —
 * including Futility Scaling, which is precisely why the paper
 * suggests it.
 */
double schemeUsableFraction(SchemeKind kind);

/**
 * Builds a partitioned cache.
 *
 * @param kind Scheme kind; Ideal requires policy_name == "LRU".
 * @param capacity_lines Total capacity in lines.
 * @param num_ways Associativity for scheme-based caches.
 * @param policy_name Replacement policy name (see policy_factory.h).
 * @param num_parts Number of software partitions.
 * @param seed Seed for stochastic policy/scheme components.
 */
std::unique_ptr<PartitionedCacheBase>
makePartitionedCache(SchemeKind kind, uint64_t capacity_lines,
                     uint32_t num_ways, const std::string& policy_name,
                     uint32_t num_parts, uint64_t seed = 0xCACE);

} // namespace talus

#endif // TALUS_PARTITION_PARTITIONED_CACHE_H
