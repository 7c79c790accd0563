#include "monitor/umon.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace talus {

UMon::UMon(const Config& config)
    : cfg_(config), hash_(32, config.seed)
{
    talus_assert(cfg_.ways >= 1, "UMON needs at least one way");
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
    sampleLimit_ =
        sampleThreshold_ * static_cast<double>(hash_.range());
    sampleLimitInt_ =
        static_cast<uint64_t>(std::ceil(sampleLimit_));
    setsArePow2_ = (cfg_.sets & (cfg_.sets - 1)) == 0;
    setMask_ = cfg_.sets - 1;
    tags_.assign(monitor_lines, kInvalidTag);
    wayHits_.assign(cfg_.ways, 0);
}

void
UMon::accessSampled(Addr addr, uint32_t h)
{
    sampled_++;

    const uint32_t set = setsArePow2_ ? (h & setMask_) : (h % cfg_.sets);
    Addr* way0 = &tags_[static_cast<size_t>(set) * cfg_.ways];

    // Find the address's LRU stack position, if resident.
    uint32_t pos = cfg_.ways;
    for (uint32_t w = 0; w < cfg_.ways; ++w) {
        if (way0[w] == addr) {
            pos = w;
            break;
        }
    }

    if (pos < cfg_.ways) {
        // Hit at stack position pos: this access would hit in any
        // cache of > pos monitor-way-equivalents.
        wayHits_[pos]++;
        for (uint32_t w = pos; w > 0; --w)
            way0[w] = way0[w - 1];
        way0[0] = addr;
    } else {
        // Miss: insert at MRU, dropping the LRU tag.
        for (uint32_t w = cfg_.ways - 1; w > 0; --w)
            way0[w] = way0[w - 1];
        way0[0] = addr;
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
    tags_.assign(tags_.size(), kInvalidTag);
    wayHits_.assign(wayHits_.size(), 0);
    sampled_ = 0;
}

} // namespace talus
