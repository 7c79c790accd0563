/**
 * @file
 * GuidedCdf: inverse-CDF lookup in O(1) expected steps by a guide
 * table (Chen & Asau's indexed search).
 *
 * A draw u in [0, 1) maps to the first index r with cdf[r] >= u — the
 * index std::lower_bound finds over the whole CDF. The table splits
 * [0, 1) into G = 2^g equal buckets and records, for each bucket edge
 * j/G, the first index whose CDF value reaches it. Bucket j of a draw
 * is then floor(u * G), and the answer lies between that bucket's two
 * guide entries, so a short binary search replaces the search over
 * all entries.
 *
 * Every search covers the same number of entries W, the widest bucket
 * span: a window of W entries starting at guide[j], slid left to end
 * at the CDF's last entry where it would overrun. The search then
 * runs the same steps for every draw, so its loop never mispredicts
 * and independent draws can run interleaved (indexLanes). W is at
 * most the CDF's size, so no search takes more steps than a binary
 * search over the whole CDF; for the Zipf shapes the workloads use
 * (alpha 0.6 to 1.2) it is a few dozen entries.
 *
 * Exactness: Rng::unit() returns k * 2^-53, so u * G and every edge
 * j/G are exact doubles for a power-of-two G, and floor(u * G) is the
 * true bucket of u. cdf.back() is exactly 1.0 (the constructor checks
 * it), so guide[G] is a valid index and cdf[guide[j + 1]] >=
 * (j + 1)/G > u: the answer is at most guide[j + 1], which the window
 * covers. Every index below guide[j] has cdf < j/G <= u, so the
 * entries a slid window adds in front cannot be the answer.
 */

#ifndef TALUS_WORKLOAD_GUIDED_CDF_H
#define TALUS_WORKLOAD_GUIDED_CDF_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/log.h"

namespace talus {

/** A CDF with a guide table for exact, fast inverse lookups. */
class GuidedCdf
{
  public:
    /** Largest CDF a uint32_t guide entry can index. */
    static constexpr uint64_t kMaxEntries = 1ull << 32;

    /** CDF entries per guide bucket, on average. */
    static constexpr uint64_t kEntriesPerBucket = 16;

    /**
     * @param cdf Non-decreasing cumulative probabilities; the last
     *        entry must be exactly 1.0.
     */
    explicit GuidedCdf(std::vector<double> cdf) : cdf_(std::move(cdf))
    {
        talus_assert(!cdf_.empty() && cdf_.size() <= kMaxEntries,
                     "a guided CDF holds 1 to 2^32 entries, not ",
                     cdf_.size());
        talus_assert(std::is_sorted(cdf_.begin(), cdf_.end()) &&
                         cdf_.back() == 1.0,
                     "a CDF must be non-decreasing and end at exactly 1.0");
        uint64_t buckets = 1;
        while (buckets * kEntriesPerBucket < cdf_.size())
            buckets <<= 1;
        scale_ = static_cast<double>(buckets);

        // One merge pass over the CDF and the bucket edges j / G.
        guide_.resize(buckets + 1);
        uint64_t r = 0;
        for (uint64_t j = 0; j <= buckets; ++j) {
            const double edge = static_cast<double>(j) / scale_;
            while (cdf_[r] < edge)
                ++r;
            guide_[j] = static_cast<uint32_t>(r);
            if (j > 0)
                window_ = std::max(window_, r - guide_[j - 1] + 1);
        }
        lastStart_ = cdf_.size() - window_;
    }

    /** First index r with cdf[r] >= @p u, for u in [0, 1). */
    uint64_t index(double u) const
    {
        uint64_t r;
        indexLanes<1>(&u, &r);
        return r;
    }

    /**
     * index() of @p kLanes draws at once: out[k] = index(u[k]). The
     * lanes' searches step together, so their loads overlap.
     */
    template <size_t kLanes>
    void indexLanes(const double* u, uint64_t* out) const
    {
        const double* cdf = cdf_.data();
        uint64_t pos[kLanes] = {};
        for (size_t k = 0; k < kLanes; ++k) {
            // u * G < 2^32: the signed conversion needs no range check.
            const auto j = static_cast<uint64_t>(
                static_cast<int64_t>(u[k] * scale_));
            pos[k] = std::min<uint64_t>(guide_[j], lastStart_);
        }
        // Branch-free lower bound over each lane's window; the last
        // entry of a window is known to be >= u. The step is a product,
        // not a select: GCC compiles a select here to a branch.
        for (uint64_t len = window_; len > 1;) {
            const uint64_t half = len / 2;
            for (size_t k = 0; k < kLanes; ++k) {
                const bool right = cdf[pos[k] + half - 1] < u[k];
                pos[k] += static_cast<uint64_t>(right) * half;
            }
            len -= half;
        }
        for (size_t k = 0; k < kLanes; ++k)
            out[k] = pos[k];
    }

    /** Entries in the CDF. */
    uint64_t size() const { return cdf_.size(); }

    /** The cumulative probabilities, in rank order. */
    const std::vector<double>& cdf() const { return cdf_; }

    /** Buckets G in the guide (a power of two). */
    uint64_t buckets() const { return guide_.size() - 1; }

  private:
    std::vector<double> cdf_;
    std::vector<uint32_t> guide_; //!< guide_[j]: first r, cdf[r] >= j/G.
    double scale_ = 1.0;          //!< G, as a double.
    uint64_t window_ = 1;         //!< Widest guide_[j + 1] - guide_[j] + 1.
    uint64_t lastStart_ = 0;      //!< Last window start: size() - window_.
};

} // namespace talus

#endif // TALUS_WORKLOAD_GUIDED_CDF_H
