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

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#include <immintrin.h>
#endif

#include "cache/cache_stats.h"
#include "cache/set_assoc_cache.h"
#include "util/aligned.h"
#include "util/bits.h"
#include "util/log.h"
#include "util/types.h"

namespace talus {

class VantageScheme;
class LruPolicy;

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
 * 32-bit fold of a line address, used as a probe fingerprint by the
 * fused kernel: a whole 16-way row of fingerprints fits one cache
 * line, so the common probe touches half the lines the full tag row
 * would. Any fold works — a colliding fingerprint only costs a
 * verification load against the canonical tag, never correctness.
 */
inline uint32_t
tagFingerprint(Addr a)
{
    return static_cast<uint32_t>(a) ^ static_cast<uint32_t>(a >> 32);
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define TALUS_FUSED1_AVX2 1
#endif

#if TALUS_FUSED1_AVX2
/**
 * AVX2 specializations of the fused kernel's two 16-way loops. The
 * kernel is compiled for the plain x86-64 baseline, where GCC's
 * auto-vectorizer leaves the row scans at ~64 scalar ops each; these
 * hand-written bodies do the same work in a handful of vector ops
 * behind one predictable cpu-support branch. Both are bit-exact with
 * the scalar loops: the probe is pure lane-wise equality, and the
 * argmin reduces unique keys, so the minimum is order-independent.
 */
namespace fused1 {

/** True once at startup iff the host executes AVX2. */
inline const bool kHaveAvx2 = __builtin_cpu_supports("avx2");

/** 16-lane fingerprint-equality mask over one 64-byte row. */
__attribute__((target("avx2"))) inline uint64_t
probeRow16(const uint32_t* row, uint32_t fp)
{
    const __m256i needle = _mm256_set1_epi32(static_cast<int>(fp));
    const __m256i lo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(row));
    const __m256i hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(row + 8));
    const uint32_t mlo = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(lo, needle))));
    const uint32_t mhi = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(hi, needle))));
    return mlo | (mhi << 8);
}

/**
 * Way of the minimum packed key ((stamp << 6) | way, excluded ways
 * saturated to all-ones) over a 16-way stamp row. @p m != 0. AVX2 has
 * no unsigned 64-bit min, so lanes are compared with the sign bit
 * flipped (signed greater-than over biased values == unsigned).
 */
__attribute__((target("avx2"))) inline uint32_t
argminRow16(const uint64_t* srow, uint64_t m)
{
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i mv = _mm256_set1_epi64x(static_cast<long long>(m));
    const __m256i sgn = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    __m256i best = _mm256_set1_epi64x(-1);
    for (uint32_t g = 0; g < 4; ++g) {
        const __m256i widx = _mm256_setr_epi64x(
            g * 4, g * 4 + 1, g * 4 + 2, g * 4 + 3);
        // excl = (bit set ? 0 : ~0), as (bit & 1) - 1.
        const __m256i bit =
            _mm256_and_si256(_mm256_srlv_epi64(mv, widx), one);
        const __m256i excl = _mm256_sub_epi64(bit, one);
        const __m256i st = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(srow + g * 4));
        const __m256i key = _mm256_or_si256(
            _mm256_or_si256(_mm256_slli_epi64(st, 6), widx), excl);
        const __m256i gt = _mm256_cmpgt_epi64(
            _mm256_xor_si256(best, sgn), _mm256_xor_si256(key, sgn));
        best = _mm256_blendv_epi8(best, key, gt);
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
    uint64_t k = lanes[0];
    k = lanes[1] < k ? lanes[1] : k;
    k = lanes[2] < k ? lanes[2] : k;
    k = lanes[3] < k ? lanes[3] : k;
    return static_cast<uint32_t>(k & 63);
}

} // namespace fused1
#endif // TALUS_FUSED1_AVX2

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
     * generic path (probe -> stats -> stamp -> promote/victim ->
     * evict bookkeeping -> insert -> demote). Every counter the
     * generic path's virtual hooks would touch is updated inline, so
     * the state after each access is bit-identical to the generic
     * path's — tests/fused_kernel_lockstep_test.cc holds the two up
     * against each other access by access. Header-inline so the
     * TalusCache facade's flattened serial path pays no out-of-line
     * call for a whole access (monitor sample + route + this probe
     * run straight-line in the caller); the batched entry points run
     * the same body in a loop (see fusedBlock()).
     *
     * Ownership is derived from the per-set masks instead of the
     * lparts/valid arrays (the struct-of-arrays layout the kernel
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
        return accessFused1At(addr, part, fusedSetOf(addr));
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
     * (fusedSetOf(addr)) is already known. The masks and ctx_ must be
     * current (maskEpoch_ == the cache's mutation epoch).
     *
     * always_inline because this is the whole point of the flattened
     * facade path: at ~150 statements GCC's inliner judges the body
     * too big and emits a call, which reintroduces exactly the
     * per-access call overhead the facade flattening removed.
     */
    __attribute__((always_inline)) inline bool
    accessFused1At(Addr addr, PartId part, uint32_t set)
    {
        const FusedCtx& c = ctx_;
        const uint32_t ways = c.ways;
        const uint32_t nparts = c.nparts;
        talus_assert(part < nparts, "bad partition id ", part);
        talus_assert(addr != SetAssocCache::kInvalidTag,
                     "address aliases the invalid-tag sentinel");
        const uint32_t base = set * ways;
        Addr* tags = c.tags;
        uint64_t* stamps = c.stamps;
        uint64_t* umk = c.umk;
        uint64_t* pmk = c.pmk;
        uint32_t* fpt = c.fpt;

        // Touch the stamp row and masks before the probe resolves:
        // every access writes a stamp (hit promotion or insert) and
        // reads the set's masks, but those loads sit behind the
        // hit/miss branch — hoisted prefetches overlap their latency
        // with the fingerprint probe instead of serializing after it.
        __builtin_prefetch(&stamps[base], 1);
        __builtin_prefetch(&stamps[base + ways - 1], 1);
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
        uint64_t m_fp = 0;
#if TALUS_FUSED1_AVX2
        if (ways == 16 && fused1::kHaveAvx2) {
            m_fp = fused1::probeRow16(fpt + base, fp);
        } else
#endif
        {
            for (uint32_t w = 0; w < ways; ++w) {
                m_fp |= static_cast<uint64_t>(fpt[base + w] == fp)
                        << w;
            }
        }
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

        // Branchless LRU argmin over the ways selected by mask @p m
        // (m != 0). The LRU clock stamps every touch with a fresh
        // ++clock, so stamps are unique and the minimum needs no
        // way-order tie-break: packing (stamp << 6) | way turns the
        // walk into a pure min-reduction, and the mask-restricted
        // minimum equals LruPolicy::victim over way-ordered
        // candidates. Excluded ways get a sentinel above any real key
        // (stamps stay far below 2^57 for any feasible run).
        const auto argminStamp = [&](uint64_t m) -> uint32_t {
#if TALUS_FUSED1_AVX2
            if (ways == 16 && fused1::kHaveAvx2)
                return base + fused1::argminRow16(stamps + base, m);
#endif
            uint64_t best = ~0ull;
            for (uint32_t w = 0; w < ways; ++w) {
                const uint64_t excl = -(((m >> w) & 1) ^ 1ull);
                const uint64_t key =
                    ((stamps[base + w] << 6) | w) | excl;
                best = key < best ? key : best;
            }
            return base + static_cast<uint32_t>(best & 63);
        };

        // VantageScheme::demoteIfOverTarget with the argmin fused in,
        // walking only p's ways minus the just-inserted line.
        const auto demote = [&](uint32_t inserted, PartId p) {
            if (c.occ[p] <= c.targets[p] || c.targets[p] == 0)
                return;
            const uint64_t m =
                pmk[static_cast<size_t>(set) * nparts + p] &
                ~(1ull << (inserted - base));
            if (m == 0)
                return; // Cannot demote within this set; converges later.
            const uint32_t demoted = argminStamp(m);
            c.lparts[demoted] = kNoPart;
            c.occ[p]--;
            (*c.unmanaged)++;
            pmk[static_cast<size_t>(set) * nparts + p] &=
                ~(1ull << (demoted - base));
            umk[set] |= 1ull << (demoted - base);
        };

        if (m_match != 0) {
            const uint32_t hw =
                static_cast<uint32_t>(__builtin_ctzll(m_match));
            const uint32_t hit_line = base + hw;
            c.hitRaw[part]++;
            stamps[hit_line] = ++*c.clock;
            if ((umk[set] >> hw) & 1) {
                // Promotion — the hit way's umk bit says it was
                // unmanaged (masks track exactly valid+kNoPart).
                c.lparts[hit_line] = part;
                c.occ[part]++;
                if (*c.unmanaged > 0)
                    (*c.unmanaged)--;
                umk[set] &= ~(1ull << hw);
                pmk[static_cast<size_t>(set) * nparts + part] |= 1ull
                                                                 << hw;
                demote(hit_line, part);
            }
            return true;
        }

        // Miss: invalid way first (no eviction bookkeeping — an
        // invalid tag implies !valid), else unmanaged LRU (owner is
        // kNoPart by construction), else the LRU of the most
        // over-target partition present (owner == worst). The invalid
        // ways fall out of the masks the miss path loads anyway — the
        // masks cover exactly the valid lines (umk = valid+kNoPart,
        // pmk = valid+owner), so their complement over the way range
        // is precisely the invalid set, in way order. No tag scan.
        uint64_t m_valid = umk[set];
        for (uint32_t q = 0; q < nparts; ++q)
            m_valid |= pmk[static_cast<size_t>(set) * nparts + q];
        const uint64_t way_span =
            ways == 64 ? ~0ull : (1ull << ways) - 1;
        const uint64_t m_inval = ~m_valid & way_span;
        uint32_t victim;
        if (m_inval != 0) {
            victim =
                base + static_cast<uint32_t>(__builtin_ctzll(m_inval));
        } else {
            const uint64_t mu = umk[set];
            if (mu != 0) {
                // A one-bit mask needs no stamp scan — the argmin of a
                // singleton is its only member.
                victim = (mu & (mu - 1)) == 0
                             ? base + static_cast<uint32_t>(
                                          __builtin_ctzll(mu))
                             : argminStamp(mu);
                cache_.stats().recordEviction();
                if (*c.unmanaged > 0)
                    (*c.unmanaged)--;
                umk[set] &= ~(1ull << (victim - base));
            } else {
                // The rare set-conflict scan, with the generic path's
                // exact divide. The generic path walks ways in order
                // and keeps the first strictly-greater ratio, i.e.
                // among the parts tied at the maximum ratio it picks
                // the one whose first way in this set is earliest.
                // Iterating parts with that explicit tie-break is
                // equivalent and touches each present part once
                // instead of each way.
                PartId worst = kNoPart;
                double worst_ratio = -1.0;
                uint32_t worst_first = 64;
                for (uint32_t q = 0; q < nparts; ++q) {
                    const uint64_t mq =
                        pmk[static_cast<size_t>(set) * nparts + q];
                    if (mq == 0)
                        continue;
                    const double ratio =
                        c.targets[q] == 0
                            ? 1e18
                            : static_cast<double>(c.occ[q]) /
                                  static_cast<double>(c.targets[q]);
                    const uint32_t first =
                        static_cast<uint32_t>(__builtin_ctzll(mq));
                    if (ratio > worst_ratio ||
                        (ratio == worst_ratio &&
                         first < worst_first)) {
                        worst_ratio = ratio;
                        worst = q;
                        worst_first = first;
                    }
                }
                talus_assert(worst != kNoPart,
                             "set full of foreign lines");
                victim = argminStamp(
                    pmk[static_cast<size_t>(set) * nparts + worst]);
                cache_.stats().recordEviction();
                if (c.occ[worst] > 0)
                    c.occ[worst]--;
                pmk[static_cast<size_t>(set) * nparts + worst] &=
                    ~(1ull << (victim - base));
            }
        }
        tags[victim] = addr;
        fpt[victim] = fp;
        c.valid[victim] = 1;
        c.lparts[victim] = part;
        stamps[victim] = ++*c.clock;
        c.occ[part]++;
        pmk[static_cast<size_t>(set) * nparts + part] |=
            1ull << (victim - base);
        demote(victim, part);
        return false;
    }

    /**
     * The batched entry points' kernel: a loop over accessFused1At().
     * @p route is per-address partitions, or nullptr for uniform
     * @p upart. Blocks of at least kPf accesses first precompute
     * every set index, so the loop can prefetch the rows of the
     * access kPf ahead while earlier accesses resolve.
     */
    uint64_t fusedBlock(const Addr* addrs, const PartId* route,
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
        uint8_t* valid;
        PartId* lparts;
        uint64_t* stamps;
        uint64_t* clock;
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
