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
#include "util/bits.h"
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

/** A SetAssocCache driven through a PartitionScheme. */
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
     * target pointer. No line moves, so the masks and fingerprints
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
     * VantageScheme + LruPolicy, in the exact operation order of the
     * generic path (probe -> stats -> LRU touch -> promote/victim ->
     * evict bookkeeping -> insert -> demote). Every counter the
     * generic path's virtual hooks would touch is updated inline, so
     * the state after each access is bit-identical to the generic
     * path's — tests/fused_kernel_lockstep_test.cc holds the two up
     * against each other access by access. Header-inline so
     * TalusController::access(), the route every serial access
     * takes, runs route + probe as one body with no further call;
     * the batched entry points run the same body in a loop (see
     * fusedBlock()). The row width is dispatched once here, so each
     * instantiation's body is straight-line for its geometry.
     *
     * Ownership is derived from the per-set masks instead of the
     * lparts/tag arrays (the struct-of-arrays layout the kernel
     * maintains): a hit way is unmanaged iff its umk bit is set, a
     * victim's owner is implied by which mask selected it, and an
     * invalid-way victim needs no eviction bookkeeping at all. The
     * canonical arrays are still written on every mutation, so
     * external readers (the generic path, tests, invalidation) always
     * see the same state.
     *
     * Caller must check fusedKernelActive() first.
     */
    __attribute__((always_inline)) inline bool
    accessFused1(Addr addr, PartId part)
    {
        if (maskEpoch_ != cache_.mutationEpoch())
            rebuildMasks();
        const uint32_t set = fusedSetOf(addr);
        switch (ctx_.chunks) {
          case 1:
            return accessFused1At<1>(addr, part, set);
          case 2:
            return accessFused1At<2>(addr, part, set);
          case 3:
            return accessFused1At<3>(addr, part, set);
          case 4:
            return accessFused1At<4>(addr, part, set);
          default:
            return accessFused1At<0>(addr, part, set);
        }
    }

  private:
    /** Set index of @p addr: SetAssocCache::defaultSetIndex over the
     *  geometry captured in ctx_ (VantageScheme keeps the default
     *  whole-cache index). */
    __attribute__((always_inline)) inline uint32_t
    fusedSetOf(Addr addr) const
    {
        const FusedCtx& c = ctx_;
        const uint64_t h = c.hashed ? mix64(addr ^ c.hashSeed) : addr;
        return c.setsPow2 ? static_cast<uint32_t>(h & c.setMask)
                          : static_cast<uint32_t>(h % c.sets);
    }

    /**
     * The body of accessFused1() for an access whose set index
     * (fusedSetOf(addr)) is already known, over rows of @p kChunks
     * 16-way chunks (0: ctx_.ways, scalar loops; see lru_rows). The
     * masks and ctx_ must be current (maskEpoch_ == the cache's
     * mutation epoch).
     *
     * always_inline because a serial access must pay at most one
     * call (into TalusController::access()): at ~150 statements
     * GCC's inliner judges the body too big and emits a second call
     * per access.
     */
    template <uint32_t kChunks>
    __attribute__((always_inline)) inline bool
    accessFused1At(Addr addr, PartId part, uint32_t set)
    {
        const FusedCtx& c = ctx_;
        const uint32_t ways = kChunks > 0 ? 16 * kChunks : c.ways;
        const uint32_t nparts = c.nparts;
        talus_assert(part < nparts, "bad partition id ", part);
        talus_assert(addr != SetAssocCache::kInvalidTag,
                     kInvalidTagAccessMsg);
        const uint32_t base = set * ways;
        Addr* tags = c.tags;
        uint8_t* rrow = c.ranks + base;
        uint64_t* umk = c.umk;
        uint64_t* pmk = c.pmk;
        uint32_t* fpt = c.fpt;

        // Touch the rank row and masks before the probe resolves:
        // every access writes the rank row (hit promotion or insert)
        // and reads the set's masks, but those loads sit behind the
        // hit/miss branch — hoisted prefetches overlap their latency
        // with the fingerprint probe instead of serializing after it.
        __builtin_prefetch(rrow, 1);
        if constexpr (lru_rows::kRankRowMaySplit<kChunks>)
            __builtin_prefetch(rrow + ways - 1, 1);
        __builtin_prefetch(&umk[set], 1);
        __builtin_prefetch(&pmk[static_cast<size_t>(set) * nparts], 1);

        // Probe the 32-bit fingerprint row — one cache line covers all
        // 16 ways, where the full tag row needs two. A fingerprint
        // match is only a candidate: it is verified against the
        // canonical tag below, so fold collisions cost a verify, never
        // correctness. No fingerprint match is a definite miss (the
        // fold is a function of the address), in which case the full
        // tag row is never read at all.
        const uint32_t fp = tagFingerprint(addr);
        uint64_t m_fp = lru_rows::probeRow<kChunks>(fpt + base, ways, fp);
        uint64_t m_match = 0;
        while (m_fp != 0) {
            const uint32_t w =
                static_cast<uint32_t>(__builtin_ctzll(m_fp));
            if (tags[base + w] == addr) {
                m_match = 1ull << w;
                break; // Tags are unique per set; lowest way first.
            }
            m_fp &= m_fp - 1;
        }
        c.accRaw[part]++;

        // VantageScheme::demoteIfOverTarget with the argmin fused in,
        // walking only p's ways minus the just-inserted one.
        const auto demote = [&](uint32_t inserted, PartId p) {
            if (c.occ[p] <= c.targets[p] || c.targets[p] == 0)
                return;
            const uint64_t m =
                pmk[static_cast<size_t>(set) * nparts + p] &
                ~(1ull << inserted);
            if (m == 0)
                return; // Cannot demote within this set; converges later.
            const uint32_t dw = lru_rows::argminRow<kChunks>(rrow, ways, m);
            c.lparts[base + dw] = kNoPart;
            c.occ[p]--;
            (*c.unmanaged)++;
            pmk[static_cast<size_t>(set) * nparts + p] &= ~(1ull << dw);
            umk[set] |= 1ull << dw;
        };

        if (m_match != 0) {
            const uint32_t hw =
                static_cast<uint32_t>(__builtin_ctzll(m_match));
            c.hitRaw[part]++;
            lru_rows::touchRow<kChunks>(rrow, ways, hw);
            if ((umk[set] >> hw) & 1) {
                // Promotion — the hit way's umk bit says it was
                // unmanaged (masks track exactly valid+kNoPart).
                c.lparts[base + hw] = part;
                c.occ[part]++;
                if (*c.unmanaged > 0)
                    (*c.unmanaged)--;
                umk[set] &= ~(1ull << hw);
                pmk[static_cast<size_t>(set) * nparts + part] |= 1ull
                                                                 << hw;
                demote(hw, part);
            }
            return true;
        }

        // Miss: invalid way first (no eviction bookkeeping — an
        // invalid tag implies an invalid line), else unmanaged LRU
        // (owner is kNoPart by construction), else the LRU of the most
        // over-target partition present (owner == worst). The invalid
        // ways fall out of the masks the miss path loads anyway — the
        // masks cover exactly the valid lines (umk = valid+kNoPart,
        // pmk = valid+owner), so their complement over the way range
        // is precisely the invalid set, in way order. No tag scan.
        uint64_t m_valid = umk[set];
        for (uint32_t q = 0; q < nparts; ++q)
            m_valid |= pmk[static_cast<size_t>(set) * nparts + q];
        const uint64_t m_inval = ~m_valid & lru_rows::waySpan(ways);
        uint32_t vw; // Victim way.
        if (m_inval != 0) {
            vw = static_cast<uint32_t>(__builtin_ctzll(m_inval));
        } else {
            const uint64_t mu = umk[set];
            if (mu != 0) {
                // A one-bit mask needs no rank scan — the argmin of a
                // singleton is its only member.
                vw = (mu & (mu - 1)) == 0
                         ? static_cast<uint32_t>(__builtin_ctzll(mu))
                         : lru_rows::argminRow<kChunks>(rrow, ways, mu);
                cache_.stats().recordEviction();
                if (*c.unmanaged > 0)
                    (*c.unmanaged)--;
                umk[set] &= ~(1ull << vw);
            } else {
                // The set-conflict scan: the generic path's exact
                // moreOverTarget() order, where ties go to the part
                // whose first way in this set is earliest. Iterating
                // parts with that first way touches each present part
                // once instead of each way.
                PartId worst = kNoPart;
                uint32_t worst_first = 0;
                for (uint32_t q = 0; q < nparts; ++q) {
                    const uint64_t mq =
                        pmk[static_cast<size_t>(set) * nparts + q];
                    if (mq == 0)
                        continue;
                    const uint32_t first =
                        static_cast<uint32_t>(__builtin_ctzll(mq));
                    if (worst == kNoPart ||
                        moreOverTarget(c.occ[q], c.targets[q], first,
                                       c.occ[worst], c.targets[worst],
                                       worst_first)) {
                        worst = q;
                        worst_first = first;
                    }
                }
                talus_assert(worst != kNoPart,
                             "set full of foreign lines");
                vw = lru_rows::argminRow<kChunks>(
                    rrow, ways,
                    pmk[static_cast<size_t>(set) * nparts + worst]);
                cache_.stats().recordEviction();
                if (c.occ[worst] > 0)
                    c.occ[worst]--;
                pmk[static_cast<size_t>(set) * nparts + worst] &=
                    ~(1ull << vw);
            }
        }
        const uint32_t victim = base + vw;
        tags[victim] = addr;
        fpt[victim] = fp;
        c.lparts[victim] = part;
        lru_rows::touchRow<kChunks>(rrow, ways, vw);
        c.occ[part]++;
        pmk[static_cast<size_t>(set) * nparts + part] |= 1ull << vw;
        demote(vw, part);
        return false;
    }

    /**
     * The batched entry points' kernel: a loop over accessFused1At().
     * @p route is per-address partitions, or nullptr for uniform
     * @p upart. Blocks of at least kPf accesses first precompute
     * every set index, so the loop can prefetch the rows of the
     * access kPf ahead while earlier accesses resolve. Dispatches the
     * row width once per block to fusedBlockOf().
     */
    uint64_t fusedBlock(const Addr* addrs, const PartId* route,
                        uint64_t n, PartId upart);
    template <uint32_t kChunks>
    uint64_t fusedBlockOf(const Addr* addrs, const PartId* route,
                          uint64_t n, PartId upart);

    /** Rebuilds the per-set occupancy masks and the fingerprint
     *  mirror from the line arrays, recaptures ctx_, and records the
     *  cache's mutation epoch. Called lazily by the fused kernel when
     *  someone mutated lines behind its back. */
    void rebuildMasks();

    SetAssocCache cache_;
    VantageScheme* fusedVantage_ = nullptr; //!< Set iff kernel usable.
    LruPolicy* fusedLru_ = nullptr;         //!< Set iff kernel usable.

    /**
     * Per-set way bitmaps mirroring the line arrays, so the kernel's
     * victim scans only visit relevant ways (bit order == way order,
     * preserving the generic scan order exactly). unmanagedMask_[s]
     * has bit w set iff line s*ways+w is valid and unmanaged;
     * partMask_[s*nparts+p] iff it is valid and owned by p. Invalid
     * lines appear in neither. Valid only while maskEpoch_ matches
     * cache_.mutationEpoch().
     */
    CacheAlignedVec<uint64_t> unmanagedMask_;
    CacheAlignedVec<uint64_t> partMask_;

    /**
     * Per-line tagFingerprint() mirror of the tag array (flat line
     * index, like tags). Probed by the fused kernel and kept in sync
     * by its insert path; rebuilt with the masks whenever the generic
     * path mutates lines. Fingerprints of invalid lines are the fold
     * of kInvalidTag — harmless, since every fingerprint match is
     * verified against the canonical tag.
     */
    CacheAlignedVec<uint32_t> fpTags_;
    uint64_t maskEpoch_ = ~0ull; //!< Forces the initial rebuild.
    std::vector<uint32_t> setScratch_; //!< Precomputed set indices.

    /**
     * Kernel context captured at rebuildMasks() time: every pointer
     * and geometry field the fused kernel needs, packed so an access
     * reads one struct instead of chasing through four objects. All
     * pointers are stable between rebuilds — the paths that mutate
     * lines (generic access, invalidation) bump the mutation epoch,
     * and setTargets() refreshes `targets` in place.
     */
    struct FusedCtx
    {
        Addr* tags;
        PartId* lparts;
        uint8_t* ranks;
        uint64_t* occ;
        const uint64_t* targets;
        uint64_t* unmanaged;
        uint64_t* umk;
        uint64_t* pmk;
        uint32_t* fpt;
        uint64_t* accRaw;
        uint64_t* hitRaw;
        uint64_t hashSeed;
        uint32_t ways;
        uint32_t chunks; //!< lru_rows::chunksFor(ways).
        uint32_t sets;
        uint32_t setMask;
        uint32_t nparts;
        bool setsPow2;
        bool hashed;
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
