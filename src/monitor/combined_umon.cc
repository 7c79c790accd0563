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
    : cfg_(config), primary_(primaryConfig(config)),
      secondary_(secondaryConfig(config))
{
    talus_assert(cfg_.coverage >= 1, "coverage must be >= 1");
}

void
CombinedUMon::access(Addr addr)
{
    primary_.access(addr);
    if (cfg_.coverage > 1)
        secondary_.access(addr);
}

void
CombinedUMon::accessBlockMulti(Span<const Addr> addrs)
{
    const size_t n = addrs.size();
    if (n == 0)
        return;
    hashScratch_.resize(n);
    uint32_t* h = hashScratch_.data();

    // One fused hash pass per monitor, then a rejection loop that
    // only calls into the tag array for the sampled minority. The
    // integer compare is equivalent to the double compare
    // UMon::access used to run (see sampleLimitInt()), so the
    // sampled set is bit-identical.
    primary_.hashFn().hashBlock(addrs, h);
    const uint64_t primary_limit = primary_.sampleLimitInt();
    for (size_t i = 0; i < n; ++i) {
        if (h[i] < primary_limit)
            primary_.accessSampled(addrs[i], h[i]);
    }

    if (cfg_.coverage > 1) {
        secondary_.hashFn().hashBlock(addrs, h);
        const uint64_t secondary_limit = secondary_.sampleLimitInt();
        for (size_t i = 0; i < n; ++i) {
            if (h[i] < secondary_limit)
                secondary_.accessSampled(addrs[i], h[i]);
        }
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
