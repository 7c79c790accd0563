#include "monitor/umon.h"

#include <algorithm>
#include <cmath>

#include "cache/lru_rows.h"
#include "util/log.h"

namespace talus {

UMon::UMon(const Config& config) : UMon(config, OwnerHashed{})
{
    hash_ = std::make_unique<const H3Hash>(kHashBits, cfg_.seed);
}

UMon::UMon(const Config& config, OwnerHashed) : cfg_(config)
{
    talus_assert(cfg_.ways >= 1, "UMON needs at least one way");
    talus_assert(cfg_.ways <= lru_rows::kMaxWays,
                 "UMON ways must be at most ", lru_rows::kMaxWays,
                 ", got ", cfg_.ways);
    talus_assert(cfg_.sets >= 1, "UMON needs at least one set");
    talus_assert(cfg_.modeledLines >= 1, "UMON must model a real cache");

    // An unsampled monitor models exactly ways*sets lines, so when the
    // modeled cache is smaller than the configured array the array
    // must shrink to match — otherwise the monitor would report the
    // behaviour of a larger cache than it claims to model.
    if (cfg_.modeledLines < static_cast<uint64_t>(cfg_.ways) * cfg_.sets) {
        if (cfg_.modeledLines < cfg_.ways) {
            cfg_.ways = static_cast<uint32_t>(cfg_.modeledLines);
            cfg_.sets = 1;
        } else {
            cfg_.sets = static_cast<uint32_t>(
                std::max<uint64_t>(1, cfg_.modeledLines / cfg_.ways));
        }
    }

    const uint64_t monitor_lines =
        static_cast<uint64_t>(cfg_.ways) * cfg_.sets;
    sampleThreshold_ =
        cfg_.modeledLines <= monitor_lines
            ? 1.0
            : static_cast<double>(monitor_lines) /
                  static_cast<double>(cfg_.modeledLines);
    // hash/2^32 < threshold  <=>  hash < threshold*2^32: scaling by a
    // power of two is exact, so the prescaled compare samples the
    // exact same addresses as the hashUnit() form did.
    sampleLimit_ = sampleThreshold_ * static_cast<double>(1ull << kHashBits);
    sampleLimitInt_ =
        static_cast<uint64_t>(std::ceil(sampleLimit_));
    setsArePow2_ = (cfg_.sets & (cfg_.sets - 1)) == 0;
    setMask_ = cfg_.sets - 1;
    chunks_ = lru_rows::chunksFor(cfg_.ways);
    tags_.resize(monitor_lines);
    fps_.resize(monitor_lines);
    ranks_.resize(monitor_lines);
    wayHits_.resize(cfg_.ways);
    reset();
}

template <uint32_t kChunks>
void
UMon::walk(Addr addr, uint32_t set)
{
    talus_assert(addr != kInvalidTag, kInvalidTagAccessMsg);
    const uint32_t ways = kChunks > 0 ? 16 * kChunks : cfg_.ways;
    const size_t base = static_cast<size_t>(set) * ways;
    uint8_t* rrow = &ranks_[base];

    // Probe the fingerprint row; a match is verified against the
    // exact tag (tags are unique per set, lowest way first).
    const uint32_t fp = tagFingerprint(addr);
    uint64_t m = lru_rows::probeRow<kChunks>(&fps_[base], ways, fp);
    while (m != 0) {
        const uint32_t w = static_cast<uint32_t>(__builtin_ctzll(m));
        if (tags_[base + w] == addr) {
            // Hit at stack position ways - 1 - rank: this access would
            // hit in any cache of more monitor-way-equivalents.
            wayHits_[ways - 1 - rrow[w]]++;
            lru_rows::touchRow<kChunks>(rrow, ways, w);
            return;
        }
        m &= m - 1;
    }

    // Miss: fill the LRU way (an empty one while any is left — empty
    // ways rank below filled ones) and make it MRU.
    const uint32_t v =
        lru_rows::argminRow<kChunks>(rrow, ways, lru_rows::waySpan(ways));
    tags_[base + v] = addr;
    fps_[base + v] = fp;
    lru_rows::touchRow<kChunks>(rrow, ways, v);
}

template <uint32_t kChunks>
void
UMon::walkBlock(const Addr* addrs, const uint32_t* idx,
                const uint32_t* hashes, size_t n)
{
    for (size_t j = 0; j < n; ++j)
        walk<kChunks>(addrs[idx[j]], setOf(hashes[j]));
}

void
UMon::accessSampledBlock(const Addr* addrs, const uint32_t* idx,
                         const uint32_t* hashes, size_t n)
{
    sampled_ += n;
    switch (chunks_) {
      case 1:
        return walkBlock<1>(addrs, idx, hashes, n);
      case 2:
        return walkBlock<2>(addrs, idx, hashes, n);
      case 3:
        return walkBlock<3>(addrs, idx, hashes, n);
      case 4:
        return walkBlock<4>(addrs, idx, hashes, n);
      default:
        return walkBlock<0>(addrs, idx, hashes, n);
    }
}

MissCurve
UMon::curve() const
{
    std::vector<CurvePoint> pts;
    pts.reserve(cfg_.ways + 1);
    appendPoints(pts);
    return MissCurve(std::move(pts));
}

void
UMon::appendPoints(std::vector<CurvePoint>& out, double above) const
{
    const double granularity =
        static_cast<double>(cfg_.modeledLines) / cfg_.ways;
    const double total =
        sampled_ > 0 ? static_cast<double>(sampled_) : 1.0;

    uint64_t hits = 0;
    if (0.0 > above)
        out.push_back({0.0, 1.0});
    for (uint32_t w = 0; w < cfg_.ways; ++w) {
        hits += wayHits_[w];
        const double size = granularity * (w + 1);
        if (size > above)
            out.push_back(
                {size, static_cast<double>(sampled_ - hits) / total});
    }
}

void
UMon::decay()
{
    for (auto& h : wayHits_)
        h /= 2;
    sampled_ /= 2;
}

void
UMon::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(fps_.begin(), fps_.end(), tagFingerprint(kInvalidTag));
    for (size_t l = 0; l < ranks_.size(); ++l)
        ranks_[l] = static_cast<uint8_t>(l % cfg_.ways);
    std::fill(wayHits_.begin(), wayHits_.end(), 0);
    sampled_ = 0;
}

} // namespace talus
