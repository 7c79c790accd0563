/**
 * @file
 * Zipf-distributed accesses: rank r is accessed with probability
 * proportional to 1 / r^alpha. Produces the convex, diminishing-
 * returns miss curves typical of pointer-chasing SPEC benchmarks
 * (soplex, sphinx3, astar, ...).
 */

#ifndef TALUS_WORKLOAD_ZIPF_STREAM_H
#define TALUS_WORKLOAD_ZIPF_STREAM_H

#include <memory>

#include "util/rng.h"
#include "workload/access_stream.h"
#include "workload/guided_cdf.h"

namespace talus {

/** Zipf(alpha) accesses over a fixed working set. */
class ZipfStream : public AccessStream
{
  public:
    /**
     * @param num_lines Working-set size in lines.
     * @param alpha Skew parameter (0 = uniform; ~0.8 typical).
     * @param addr_space Per-app address-space id.
     * @param seed RNG seed.
     */
    ZipfStream(uint64_t num_lines, double alpha, uint32_t addr_space = 0,
               uint64_t seed = 0x21FF);

    Addr next() override;
    void nextBlock(Addr* out, uint64_t n) override;
    void reset() override { rng_.seed(seed_); }
    std::unique_ptr<AccessStream> clone() const override;
    const char* kind() const override { return "zipf"; }

    /**
     * The rank CDF and its guide table, which every draw inverts;
     * shared by all live streams with this stream's lines and alpha.
     */
    const GuidedCdf& table() const { return *cdf_; }

  private:
    uint64_t numLines_;
    double alpha_;
    Addr base_;
    uint64_t seed_;
    uint64_t scramble_; //!< XORed into each rank; see the constructor.
    Rng rng_;
    std::shared_ptr<const GuidedCdf> cdf_; //!< Rank CDF and guide table.
};

} // namespace talus

#endif // TALUS_WORKLOAD_ZIPF_STREAM_H
