/**
 * @file
 * The Talus sampling function: routes each address to the alpha or
 * beta shadow partition of its logical partition.
 *
 * Hardware model (Sec. VI-B, Fig. 7b): an H3 hash of the line address
 * is compared against a limit register; below the limit goes to
 * alpha. The paper uses 8-bit hashes and limit registers, which
 * quantizes rho to 1/256 steps — the width is configurable so the
 * quantization ablation can measure its effect.
 */

#ifndef TALUS_CORE_SHADOW_ROUTER_H
#define TALUS_CORE_SHADOW_ROUTER_H

#include "util/h3_hash.h"
#include "util/types.h"

namespace talus {

/** H3 + limit-register router for one logical partition. */
class ShadowRouter
{
  public:
    /**
     * @param bits Hash/limit width in bits (paper: 8).
     * @param seed H3 seed; distinct per logical partition.
     */
    explicit ShadowRouter(uint32_t bits = 8, uint64_t seed = 0x70C4);

    /**
     * Sets the sampling rate; the limit register is round(rho*2^bits).
     * Values outside [0,1] are clamped (the limit register saturates);
     * NaN is a fatal configuration error.
     */
    void setRho(double rho);

    /** The quantized rate actually implemented by the limit register. */
    double effectiveRho() const;

    /** True if @p addr routes to the alpha shadow partition. */
    bool toAlpha(Addr addr) const { return hash_.hash(addr) < limit_; }

    /**
     * Shadow offset of the address that hashed to @p h: 0 = alpha,
     * 1 = beta, exactly !toAlpha(). The hashes are uniform, so a
     * branch on the limit compare mispredicts on ~min(rho, 1 - rho)
     * of accesses; the comparison's flag as a number (setae/sbb) is
     * the hardware comparator and costs the same on every access.
     */
    PartId offsetOfHash(uint32_t h) const
    {
        return static_cast<PartId>(h >= limit_);
    }

    /** Shadow offset of @p addr: offsetOfHash() of its hash. */
    PartId offsetOf(Addr addr) const
    {
        return offsetOfHash(hash_.hash(addr));
    }

    /**
     * True when every address routes to alpha (rho saturated the
     * limit register at 2^bits, above any possible hash value — the
     * degenerate/unconfigured state every partition starts in). Lets
     * hot paths skip the H3 evaluation entirely: toAlpha() is
     * constant-true, so the shortcut is trivially bit-exact.
     */
    bool alwaysAlpha() const { return limit_ >= hash_.range(); }

    /** Raw limit register value, for the hardware-cost model. */
    uint64_t limit() const { return limit_; }

    /** The routing hash, for batched evaluation: offsetOfHash() of
     *  hashFn().hash(addr) is exactly offsetOf(addr). */
    const H3Hash& hashFn() const { return hash_; }

    /** Hash/limit width in bits. */
    uint32_t bits() const { return hash_.outBits(); }

  private:
    H3Hash hash_;
    uint64_t limit_;
};

} // namespace talus

#endif // TALUS_CORE_SHADOW_ROUTER_H
