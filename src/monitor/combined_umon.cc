#include "monitor/combined_umon.h"

#include <algorithm>

#include "util/log.h"

namespace talus {

namespace {

UMon::Config
primaryConfig(const CombinedUMon::Config& c)
{
    UMon::Config pc;
    pc.ways = c.primaryWays;
    pc.sets = c.sets;
    pc.modeledLines = c.llcLines;
    pc.seed = c.seed;
    return pc;
}

UMon::Config
secondaryConfig(const CombinedUMon::Config& c)
{
    UMon::Config sc;
    sc.ways = c.sampledWays;
    sc.sets = c.sets;
    sc.modeledLines = c.llcLines * c.coverage;
    // Same hash family, different seed: the secondary samples an
    // independent 1:16-rate slice.
    sc.seed = c.seed ^ 0x5A5A5A5A;
    return sc;
}

} // namespace

CombinedUMon::CombinedUMon(const Config& config)
    : cfg_(config),
      primary_(primaryConfig(config), UMon::OwnerHashed{}),
      secondary_(secondaryConfig(config), UMon::OwnerHashed{}),
      secondaryLimit_(config.coverage > 1 ? secondary_.sampleLimitInt()
                                          : 0),
      hash_(UMon::kHashBits, primaryConfig(config).seed,
            secondaryConfig(config).seed)
{
    talus_assert(cfg_.coverage >= 1, "coverage must be >= 1");
}

void
CombinedUMon::accessBlockMulti(Span<const Addr> addrs)
{
    // A tile of sample indices per monitor lives on the stack. Each
    // address's index and hash are written unconditionally and kept
    // by advancing the count by the compare's outcome, so the random
    // 1-in-F sampling decision never becomes a branch. The integer
    // compares sample the same addresses as the double compares of
    // the sampling definition (see UMon::sampleLimitInt()).
    constexpr size_t kTile = 256;
    uint32_t p_idx[kTile], p_h[kTile], s_idx[kTile], s_h[kTile];
    const uint64_t p_limit = primary_.sampleLimitInt();
    const uint64_t s_limit = secondaryLimit_;
    const Addr* a = addrs.data();
    for (size_t off = 0; off < addrs.size(); off += kTile) {
        const size_t len = std::min(kTile, addrs.size() - off);
        size_t kp = 0;
        size_t ks = 0;
        hash_.forEachHash(Span<const Addr>(a + off, len),
                          [&](size_t i, uint64_t h) {
                              const uint32_t hp = static_cast<uint32_t>(h);
                              const uint32_t hs =
                                  static_cast<uint32_t>(h >> 32);
                              p_idx[kp] = static_cast<uint32_t>(i);
                              p_h[kp] = hp;
                              kp += hp < p_limit;
                              s_idx[ks] = static_cast<uint32_t>(i);
                              s_h[ks] = hs;
                              ks += hs < s_limit;
                          });
        primary_.accessSampledBlock(a + off, p_idx, p_h, kp);
        secondary_.accessSampledBlock(a + off, s_idx, s_h, ks);
    }
}

MissCurve
CombinedUMon::curve() const
{
    // One points vector, one MissCurve. The primary's largest size is
    // llcLines to within one ulp (llcLines / ways * ways), so the
    // secondary points above llcLines follow it in size order, and
    // the concatenation is sorted: the constructor skips its sort, and
    // the running minimum taken here equals monotoneClamped() of the
    // merged curve (deduplicating equal sizes to their minimum
    // commutes with a running minimum over sorted points).
    std::vector<CurvePoint> pts;
    pts.reserve(cfg_.primaryWays + 1 +
                (cfg_.coverage > 1 ? cfg_.sampledWays : 0));
    primary_.appendPoints(pts);
    if (cfg_.coverage > 1)
        secondary_.appendPoints(pts, static_cast<double>(cfg_.llcLines));
    for (size_t i = 1; i < pts.size(); ++i)
        pts[i].misses = std::min(pts[i].misses, pts[i - 1].misses);
    return MissCurve(std::move(pts));
}

MissCurve
CombinedUMon::snapshot() const
{
    return curve();
}

void
CombinedUMon::decay()
{
    primary_.decay();
    secondary_.decay();
}

void
CombinedUMon::reset()
{
    primary_.reset();
    secondary_.reset();
}

uint64_t
CombinedUMon::coveredLines() const
{
    return cfg_.llcLines * (cfg_.coverage > 1 ? cfg_.coverage : 1);
}

} // namespace talus
