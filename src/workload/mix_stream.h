/**
 * @file
 * Probabilistic mixture of child streams. Each access is drawn from
 * one child with fixed probability. Mixtures of scans (cliffs) and
 * Zipf/random sets (convex tails) reproduce the qualitative miss
 * curves of the SPEC benchmarks the paper evaluates — e.g., the
 * Sec. III example app is Mix{random 2MB, scan 3MB}.
 */

#ifndef TALUS_WORKLOAD_MIX_STREAM_H
#define TALUS_WORKLOAD_MIX_STREAM_H

#include <vector>

#include "util/rng.h"
#include "workload/access_stream.h"

namespace talus {

/** Weighted mixture of access streams. */
class MixStream : public AccessStream
{
  public:
    /** One mixture component. */
    struct Component
    {
        std::unique_ptr<AccessStream> stream;
        double weight; //!< Relative access frequency.
    };

    /**
     * @param components Child streams with weights (> 0 overall).
     * @param seed RNG seed for component selection.
     */
    MixStream(std::vector<Component> components, uint64_t seed = 0x313);

    Addr next() override;
    void nextBlock(Addr* out, uint64_t n) override;
    void reset() override;
    std::unique_ptr<AccessStream> clone() const override;
    const char* kind() const override { return "mix"; }

  private:
    /** Component of a draw @p u: the count of cdf_[c] < u, c < k - 1. */
    uint32_t choose(double u) const;

    std::vector<Component> components_;
    uint64_t seed_;
    Rng rng_;
    std::vector<double> cdf_;
    std::vector<uint32_t> cursor_; //!< nextBlock's per-component cursor.
};

} // namespace talus

#endif // TALUS_WORKLOAD_MIX_STREAM_H
