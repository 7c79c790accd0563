/**
 * @file
 * Combined UMON with 4x LLC-size coverage (Sec. VI-C, "Miss curve
 * coverage").
 *
 * A conventional UMON only resolves the miss curve up to the LLC
 * size, so Talus could not trace convex hulls whose beta vertex lies
 * beyond it (e.g., libquantum's 32MB cliff seen from an 8MB LLC).
 * The paper adds a second monitor sampling at 1:16 of the primary's
 * rate: with only 16 ways it models 4x the LLC capacity at LLC/4
 * granularity. This class owns both monitors and merges their curves.
 */

#ifndef TALUS_MONITOR_COMBINED_UMON_H
#define TALUS_MONITOR_COMBINED_UMON_H

#include <vector>

#include "monitor/umon.h"
#include "util/h3_hash.h"
#include "util/span.h"

namespace talus {

/** Primary + low-rate-sampled UMON pair with merged miss curves. */
class CombinedUMon
{
  public:
    /** Configuration for the pair. */
    struct Config
    {
        uint64_t llcLines = 1 << 17; //!< LLC size the primary models.
        uint32_t primaryWays = 64;   //!< Primary monitor associativity.
        uint32_t sets = 16;          //!< Sets in both monitors.
        uint32_t sampledWays = 16;   //!< Secondary monitor ways.
        uint32_t coverage = 4;       //!< Secondary models coverage*LLC.
        uint64_t seed = 0x2B0B;
    };

    explicit CombinedUMon(const Config& config);

    /** Observes one access: a block of one. */
    void access(Addr addr) { accessBlock(Span<const Addr>(&addr, 1)); }

    /**
     * Observes a whole block of accesses — bit-exact with feeding each
     * monitor every address in order. Both monitors' H3 hashes come
     * from one paired-table evaluation per address (H3Pair), with the
     * high word memoised across the block; the sampled addresses are
     * compacted branch-free, and only they walk a tag array. The two
     * monitors sample independent slices, so running the primary's
     * samples of a stretch of the block and then the secondary's
     * reaches the same state as interleaving per address.
     *
     * The single-address case (the serial facade drives one-access
     * blocks per call) stays in the header: its steady-state cost is
     * one inlined paired evaluation plus the two sample compares, and
     * only the sampled minority pays the out-of-line tag-array walk.
     */
    void accessBlock(Span<const Addr> addrs)
    {
        if (addrs.size() == 1) {
            const Addr a = addrs.data()[0];
            const uint64_t h = hash_.hash(a);
            const uint32_t hp = static_cast<uint32_t>(h);
            const uint32_t hs = static_cast<uint32_t>(h >> 32);
            if (hp < primary_.sampleLimitInt())
                primary_.accessSampled(a, hp);
            if (hs < secondaryLimit_)
                secondary_.accessSampled(a, hs);
            return;
        }
        accessBlockMulti(addrs);
    }

    /**
     * Merged miss-ratio curve: primary points up to the LLC size,
     * secondary points beyond it, clamped to be non-increasing so
     * sampling noise cannot fabricate negative-utility regions.
     * Built in one pass over one points vector; point for point the
     * same as MissCurve(primary points + secondary points above
     * llcLines).monotoneClamped().
     */
    MissCurve curve() const;

    /** Accesses sampled by the primary monitor. */
    uint64_t sampledAccesses() const { return primary_.sampledAccesses(); }

    /**
     * The control-plane snapshot hook: an immutable copy of the
     * merged curve at an interval boundary, from which
     * TalusCache::snapshotControl() builds each ControlInput.
     * Read-only — the monitor keeps accumulating; the cache's own
     * interval counters (not the monitor's sampled volume) provide
     * the curve weights.
     */
    MissCurve snapshot() const;

    /** Inter-interval decay of both monitors. */
    void decay();

    /** Clears both monitors. */
    void reset();

    /** Largest size the merged curve covers. */
    uint64_t coveredLines() const;

  private:
    /** The multi-address body of accessBlock: paired hashes and
     *  branch-free sample compaction, a stack tile at a time. */
    void accessBlockMulti(Span<const Addr> addrs);

    Config cfg_;
    UMon primary_;   //!< Owner-hashed: low half of hash_.
    UMon secondary_; //!< Owner-hashed: high half of hash_.
    /** The secondary's sample limit, or 0 (never samples) when
     *  coverage is 1 and the secondary is unused. */
    uint64_t secondaryLimit_;
    /** Both monitors' H3 functions in one table: their only copy. */
    H3Pair hash_;
};

} // namespace talus

#endif // TALUS_MONITOR_COMBINED_UMON_H
