#include "workload/zipf_stream.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "util/bits.h"
#include "util/log.h"

namespace talus {

namespace {

/** Cumulative Zipf(@p alpha) rank probabilities over @p num_lines. */
std::vector<double>
zipfCdf(uint64_t num_lines, double alpha)
{
    std::vector<double> cdf(num_lines);
    double sum = 0;
    for (uint64_t r = 0; r < num_lines; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
        cdf[r] = sum;
    }
    for (auto& c : cdf)
        c /= sum; // The last entry is sum / sum, exactly 1.0.
    return cdf;
}

/**
 * The rank table of Zipf(@p alpha) over @p num_lines, shared by every
 * live stream with those parameters: the table is a pure function of
 * them, and workloads run many equal streams at once (perfbench's
 * tenant rosters hold 14 Zipf(0.6) streams over 8192 lines). A table
 * is freed with its last stream; its map slot keeps only an expired
 * weak pointer.
 */
std::shared_ptr<const GuidedCdf>
sharedZipfTable(uint64_t num_lines, double alpha)
{
    talus_assert(num_lines >= 1, "zipf stream needs a working set");
    talus_assert(num_lines <= GuidedCdf::kMaxEntries,
                 "zipf working set exceeds 2^32 lines");
    talus_assert(alpha >= 0, "zipf alpha must be >= 0");
    static std::mutex mu;
    static std::map<std::pair<uint64_t, double>,
                    std::weak_ptr<const GuidedCdf>>
        live;
    const std::lock_guard<std::mutex> lock(mu);
    std::weak_ptr<const GuidedCdf>& slot = live[{num_lines, alpha}];
    std::shared_ptr<const GuidedCdf> table = slot.lock();
    if (!table) {
        table = std::make_shared<const GuidedCdf>(zipfCdf(num_lines, alpha));
        slot = table;
    }
    return table;
}

} // namespace

ZipfStream::ZipfStream(uint64_t num_lines, double alpha, uint32_t addr_space,
                       uint64_t seed)
    : numLines_(num_lines), alpha_(alpha),
      base_(static_cast<Addr>(addr_space) << kAddrSpaceShift), seed_(seed),
      // Scramble ranks so popularity is not correlated with adjacency
      // (hot lines spread across sets). XOR with a per-stream constant
      // is an exact bijection for power-of-two working sets; otherwise
      // the identity is used, so ranks map to consecutive addresses
      // and the cache's bit-selected set index spreads them round-robin
      // over the sets.
      scramble_((num_lines & (num_lines - 1)) == 0
                    ? mix64(seed) & (num_lines - 1)
                    : 0),
      rng_(seed), cdf_(sharedZipfTable(num_lines, alpha))
{
}

Addr
ZipfStream::next()
{
    return base_ + (cdf_->index(rng_.unit()) ^ scramble_);
}

void
ZipfStream::nextBlock(Addr* out, uint64_t n)
{
    // Eight draws at a time, so their CDF searches overlap. A short
    // last group searches unused lanes at u = 0 and drops them.
    constexpr uint64_t kLanes = 8;
    double u[kLanes] = {};
    uint64_t rank[kLanes] = {};
    for (uint64_t i = 0; i < n; i += kLanes) {
        const uint64_t m = std::min(kLanes, n - i);
        for (uint64_t k = 0; k < m; ++k)
            u[k] = rng_.unit();
        std::fill(u + m, u + kLanes, 0.0);
        cdf_->indexLanes<kLanes>(u, rank);
        for (uint64_t k = 0; k < m; ++k)
            out[i + k] = base_ + (rank[k] ^ scramble_);
    }
}

std::unique_ptr<AccessStream>
ZipfStream::clone() const
{
    return std::make_unique<ZipfStream>(
        numLines_, alpha_, static_cast<uint32_t>(base_ >> kAddrSpaceShift),
        seed_);
}

} // namespace talus
