/**
 * @file
 * UMON — utility monitor hardware model (Qureshi & Patt, MICRO'06;
 * Sec. VI-C of the Talus paper).
 *
 * A UMON is a small LRU tag array that samples a pseudo-random subset
 * of the access stream (by address hash). Because LRU obeys the stack
 * property, per-way hit counters give the miss ratio of the modeled
 * cache at every way-granularity size with a single array. A monitor
 * of W ways and S sets sampling a 1-in-F slice of addresses models a
 * cache of W*S*F lines at points spaced S*F lines apart (Theorem 4).
 */

#ifndef TALUS_MONITOR_UMON_H
#define TALUS_MONITOR_UMON_H

#include <cstddef>
#include <memory>
#include <vector>

#include "core/miss_curve.h"
#include "util/aligned.h"
#include "util/h3_hash.h"
#include "util/types.h"

namespace talus {

/**
 * One sampled LRU tag-array monitor.
 *
 * Each set keeps the LRU tag-array layout of the fused cache kernel
 * (cache/lru_rows.h): exact 64-bit tags, a 32-bit fingerprint row
 * probed first, and per-set 8-bit LRU ranks (ways - 1 = MRU, a fresh
 * set is rank == way). Ways never filled rank below every filled way,
 * so a resident tag of rank r sits at LRU stack position ways - 1 - r
 * — the position a move-to-front tag array would find it at. A walk is
 * one fingerprint probe plus one rank-row touch on the shared SSE2
 * row kernels, instead of a scan and a shift of the tag row.
 */
class UMon
{
  public:
    /** Monitor geometry and target. */
    struct Config
    {
        uint32_t ways = 64;          //!< Associativity (curve points).
        uint32_t sets = 16;          //!< Monitor sets (64x16 = 1K lines).
        uint64_t modeledLines = 1 << 17; //!< Cache size this UMON models.
        uint64_t seed = 0x0707;      //!< Sampling/set hash seed.
    };

    /** Width of the sampling/set-index hash. */
    static constexpr uint32_t kHashBits = 32;

    /** @p config.ways must be at most 64 (lru_rows::kMaxWays). */
    explicit UMon(const Config& config);

    /**
     * Observes one access; internally decides whether the address is
     * sampled (hash below the sampling threshold).
     */
    void access(Addr addr)
    {
        // Pseudo-random address sampling (Assumption 3): the sampled
        // stream is statistically self-similar, so the small array
        // models a proportionally larger cache (Theorem 4). One H3
        // evaluation drives both decisions: the magnitude compare
        // consumes the high bits, the set index the low bits.
        const uint32_t h = hash_->hash(addr);
        if (h >= sampleLimitInt_)
            return;
        accessSampled(addr, h);
    }

    /**
     * The hot-path split of access(): the caller already evaluated
     * @p h, the monitor's H3 hash of @p addr (H3Hash(kHashBits,
     * Config::seed)), and checked h < sampleLimitInt(), so this only
     * runs the tag-array update.
     */
    void accessSampled(Addr addr, uint32_t h)
    {
        const uint32_t first = 0;
        accessSampledBlock(&addr, &first, &h, 1);
    }

    /**
     * accessSampled(addrs[idx[j]], hashes[j]) for j = 0..n-1, in
     * order, with the row width dispatched once for the whole run.
     */
    void accessSampledBlock(const Addr* addrs, const uint32_t* idx,
                            const uint32_t* hashes, size_t n);

    /** The prescaled sampling threshold access() compares hashes
     *  against (sampleThreshold * hash range). */
    double sampleLimit() const { return sampleLimit_; }

    /**
     * ceil(sampleLimit()): for any integer hash h,
     * (double)h < sampleLimit()  <=>  h < sampleLimitInt(). (When the
     * limit L is an integer the two compares agree directly; when it
     * is not, h < L <=> h <= floor(L) <=> h < ceil(L). The uint32 ->
     * double conversion is exact.) So the integer compare samples the
     * bit-identical address set while keeping the hot path free of
     * int->double conversions.
     */
    uint64_t sampleLimitInt() const { return sampleLimitInt_; }

    /** Accesses that passed the sampling filter. */
    uint64_t sampledAccesses() const { return sampled_; }

    /**
     * Miss-ratio curve: ways+1 points at sizes k * modeledLines/ways,
     * k = 0..ways, each the fraction of sampled accesses missing in a
     * cache of that size.
     */
    MissCurve curve() const;

    /**
     * Appends the points of curve() whose size exceeds @p above to
     * @p out, in size order and with curve()'s arithmetic, so they are
     * the same doubles. Lets a caller merge several monitors into one
     * points vector without building a curve per monitor.
     */
    void appendPoints(std::vector<CurvePoint>& out,
                      double above = -1.0) const;

    /** Halves all counters; called between reconfiguration intervals
     *  so the curve tracks the recent phase (Assumption 1). */
    void decay();

    /** Clears tags and counters. */
    void reset();

    /** Size modeled by this monitor, in lines. */
    uint64_t modeledLines() const { return cfg_.modeledLines; }

  private:
    friend class CombinedUMon;

    /** Construction tag of a monitor whose owner evaluates its hash
     *  (CombinedUMon's paired table), so it keeps no H3 table. */
    struct OwnerHashed
    {
    };
    UMon(const Config& config, OwnerHashed);

    uint32_t setOf(uint32_t h) const
    {
        return setsArePow2_ ? (h & setMask_) : (h % cfg_.sets);
    }

    /** One sampled access to @p set over rows of @p kChunks 16-way
     *  chunks (0: cfg_.ways, scalar loops; see lru_rows). */
    template <uint32_t kChunks>
    void walk(Addr addr, uint32_t set);

    template <uint32_t kChunks>
    void walkBlock(const Addr* addrs, const uint32_t* idx,
                   const uint32_t* hashes, size_t n);

    Config cfg_;
    std::unique_ptr<const H3Hash> hash_; //!< Null when owner-hashed.
    double sampleThreshold_;
    // Sampling compares the hash's magnitude, set selection its low
    // bits: one H3 evaluation serves both. sampleLimit_ is the
    // threshold prescaled to the hash range; setMask_ replaces the
    // modulo when sets is a power of two (the common geometry).
    double sampleLimit_;
    uint64_t sampleLimitInt_ = 0; //!< ceil(sampleLimit_); see accessor.
    uint32_t setMask_ = 0;
    uint32_t chunks_ = 0; //!< lru_rows::chunksFor(cfg_.ways).
    bool setsArePow2_ = false;

    // Per line, flat index set*ways + way, line-aligned so a 16-way
    // row of fingerprints is one cache line. Empty ways hold
    // kInvalidTag, whose fingerprint no verified probe can match.
    CacheAlignedVec<Addr> tags_;
    CacheAlignedVec<uint32_t> fps_;  //!< tagFingerprint(tags_[l]).
    CacheAlignedVec<uint8_t> ranks_; //!< LRU ranks, ways - 1 = MRU.
    std::vector<uint64_t> wayHits_;  //!< Hits at LRU stack position d.
    uint64_t sampled_ = 0;

    static constexpr Addr kInvalidTag = ~0ull;
};

} // namespace talus

#endif // TALUS_MONITOR_UMON_H
