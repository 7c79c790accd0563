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

    /** Observes one access (both monitors sample internally). */
    void access(Addr addr);

    /**
     * Observes a whole block of accesses — bit-exact with calling
     * access() per address, but each monitor's H3 evaluations are
     * fused into one hashBlock over the block and unsampled addresses
     * are rejected by the prescaled-threshold compare without ever
     * entering the monitor call. The two monitors sample independent
     * slices, so running the primary over the block and then the
     * secondary reaches the same state as interleaving per address.
     *
     * The single-address case (the serial facade drives one-access
     * blocks per call) stays in the header: its steady-state cost is
     * the inlined H3 evaluations plus the sample compares, and only
     * the sampled minority pays the out-of-line tag-array walk.
     */
    void accessBlock(Span<const Addr> addrs)
    {
        if (addrs.size() == 1) {
            const Addr a = addrs.data()[0];
            const uint32_t hp = primary_.hashFn().hash(a);
            if (hp < primary_.sampleLimitInt())
                primary_.accessSampled(a, hp);
            if (cfg_.coverage > 1) {
                const uint32_t hs = secondary_.hashFn().hash(a);
                if (hs < secondary_.sampleLimitInt())
                    secondary_.accessSampled(a, hs);
            }
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
    /** The multi-address body of accessBlock: fused hashBlock per
     *  monitor plus a rejection loop over the block. */
    void accessBlockMulti(Span<const Addr> addrs);

    Config cfg_;
    UMon primary_;
    UMon secondary_;
    std::vector<uint32_t> hashScratch_; //!< accessBlock's hash buffer.
};

} // namespace talus

#endif // TALUS_MONITOR_COMBINED_UMON_H
