#include "core/miss_curve.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace talus {

MissCurve::MissCurve(std::vector<CurvePoint> points)
{
    talus_assert(!points.empty(), "miss curve needs at least one point");
    // Every internal producer (monitors, hulls, scaled(),
    // monotoneClamped()) emits points in size order, and a stable
    // sort of sorted input is the identity: check before sorting.
    const auto bySize = [](const CurvePoint& a, const CurvePoint& b) {
        return a.size < b.size;
    };
    if (!std::is_sorted(points.begin(), points.end(), bySize))
        std::stable_sort(points.begin(), points.end(), bySize);
    pts_.reserve(points.size());
    for (const CurvePoint& p : points) {
        talus_assert(p.size >= 0, "negative cache size in miss curve");
        talus_assert(std::isfinite(p.misses), "non-finite miss value");
        if (!pts_.empty() && pts_.back().size == p.size) {
            pts_.back().misses = std::min(pts_.back().misses, p.misses);
        } else {
            pts_.push_back(p);
        }
    }
}

MissCurve::MissCurve(const std::vector<double>& misses, double granularity)
{
    talus_assert(!misses.empty(), "miss curve needs at least one point");
    talus_assert(granularity > 0, "granularity must be positive");
    pts_.reserve(misses.size());
    for (size_t i = 0; i < misses.size(); ++i)
        pts_.push_back({static_cast<double>(i) * granularity, misses[i]});
}

double
MissCurve::minSize() const
{
    talus_assert(!pts_.empty(), "empty miss curve");
    return pts_.front().size;
}

double
MissCurve::maxSize() const
{
    talus_assert(!pts_.empty(), "empty miss curve");
    return pts_.back().size;
}

double
MissCurve::at(double size) const
{
    talus_assert(!pts_.empty(), "empty miss curve");
    if (size <= pts_.front().size)
        return pts_.front().misses;
    if (size >= pts_.back().size)
        return pts_.back().misses;
    // Binary search for the segment containing size.
    const auto it = std::lower_bound(
        pts_.begin(), pts_.end(), size,
        [](const CurvePoint& p, double s) { return p.size < s; });
    const CurvePoint& hi = *it;
    if (hi.size == size)
        return hi.misses;
    const CurvePoint& lo = *std::prev(it);
    const double frac = (size - lo.size) / (hi.size - lo.size);
    return lo.misses + frac * (hi.misses - lo.misses);
}

bool
MissCurve::isNonIncreasing(double tol) const
{
    for (size_t i = 1; i < pts_.size(); ++i) {
        if (pts_[i].misses > pts_[i - 1].misses + tol)
            return false;
    }
    return true;
}

bool
MissCurve::isConvex(double tol) const
{
    for (size_t i = 2; i < pts_.size(); ++i) {
        const CurvePoint& a = pts_[i - 2];
        const CurvePoint& b = pts_[i - 1];
        const CurvePoint& c = pts_[i];
        const double slope_ab = (b.misses - a.misses) / (b.size - a.size);
        const double slope_bc = (c.misses - b.misses) / (c.size - b.size);
        if (slope_bc < slope_ab - tol)
            return false;
    }
    return true;
}

MissCurve
MissCurve::scaled(double size_factor, double miss_factor) const
{
    std::vector<CurvePoint> pts = pts_;
    for (CurvePoint& p : pts) {
        p.size *= size_factor;
        p.misses *= miss_factor;
    }
    return MissCurve(std::move(pts));
}

MissCurve
MissCurve::monotoneClamped() const
{
    std::vector<CurvePoint> pts = pts_;
    for (size_t i = 1; i < pts.size(); ++i)
        pts[i].misses = std::min(pts[i].misses, pts[i - 1].misses);
    return MissCurve(std::move(pts));
}

} // namespace talus
