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

#include <vector>

#include "core/miss_curve.h"
#include "util/h3_hash.h"
#include "util/types.h"

namespace talus {

/** One sampled LRU tag-array monitor. */
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
        const uint32_t h = hash_.hash(addr);
        if (h >= sampleLimitInt_)
            return;
        accessSampled(addr, h);
    }

    /**
     * The hot-path split of access(): the caller already evaluated
     * @p h = hashFn().hash(addr) and checked h < sampleLimitInt()
     * (or the equivalent double compare against sampleLimit()), so
     * this only runs the tag-array update.
     */
    void accessSampled(Addr addr, uint32_t h);

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

    /** The sampling/set-index hash, for batched evaluation. */
    const H3Hash& hashFn() const { return hash_; }

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
    Config cfg_;
    H3Hash hash_;
    double sampleThreshold_;
    // Sampling compares the hash's magnitude, set selection its low
    // bits: one H3 evaluation serves both. sampleLimit_ is the
    // threshold prescaled to the hash range; setMask_ replaces the
    // modulo when sets is a power of two (the common geometry).
    double sampleLimit_;
    uint64_t sampleLimitInt_ = 0; //!< ceil(sampleLimit_); see accessor.
    uint32_t setMask_ = 0;
    bool setsArePow2_ = false;

    // tags_[set*ways + pos], pos 0 = MRU. Invalid entries hold
    // kInvalidTag.
    std::vector<Addr> tags_;
    std::vector<uint64_t> wayHits_; //!< Hits at LRU stack position d.
    uint64_t sampled_ = 0;

    static constexpr Addr kInvalidTag = ~0ull;
};

} // namespace talus

#endif // TALUS_MONITOR_UMON_H
