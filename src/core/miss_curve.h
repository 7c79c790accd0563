/**
 * @file
 * Miss curves: the central data structure of Talus.
 *
 * A miss curve m(s) maps cache size (in lines) to a miss metric
 * (miss ratio, MPKI, or raw misses — Talus's math is invariant to the
 * vertical unit). Curves are piecewise-linear over a set of sampled
 * points, matching what hardware monitors produce (Sec. VI-C).
 */

#ifndef TALUS_CORE_MISS_CURVE_H
#define TALUS_CORE_MISS_CURVE_H

#include <cstddef>
#include <vector>

namespace talus {

/** One sampled point of a miss curve. */
struct CurvePoint
{
    double size;   //!< Cache size in lines.
    double misses; //!< Miss metric at that size.
};

/** A piecewise-linear miss curve over sampled points. */
class MissCurve
{
  public:
    /** An empty curve; invalid until points are provided. */
    MissCurve() = default;

    /**
     * Builds a curve from points. Points are sorted by size (the sort
     * is skipped when they already are); duplicate sizes keep the
     * smaller miss value. At least one point required.
     */
    explicit MissCurve(std::vector<CurvePoint> points);

    /**
     * Convenience: point i at size i * granularity with value
     * misses[i].
     */
    MissCurve(const std::vector<double>& misses, double granularity);

    /** Number of sampled points. */
    size_t numPoints() const { return pts_.size(); }

    /** The i-th point (sorted by size). */
    const CurvePoint& point(size_t i) const { return pts_[i]; }

    /** All points. */
    const std::vector<CurvePoint>& points() const { return pts_; }

    /** Smallest sampled size. */
    double minSize() const;

    /** Largest sampled size. */
    double maxSize() const;

    /**
     * Evaluates the curve at @p size with linear interpolation,
     * clamping to the first/last point outside the sampled range.
     */
    double at(double size) const;

    /** True if misses never increase with size (within @p tol). */
    bool isNonIncreasing(double tol = 1e-9) const;

    /**
     * True if the curve is convex (slope non-decreasing within
     * @p tol). Convex curves have no performance cliffs (Sec. II-D).
     */
    bool isConvex(double tol = 1e-9) const;

    /** Returns a copy with sizes and values scaled. */
    MissCurve scaled(double size_factor, double miss_factor) const;

    /**
     * Returns a copy clamped to be non-increasing (each value at most
     * the previous one). Used to tame monitor sampling noise.
     */
    MissCurve monotoneClamped() const;

  private:
    std::vector<CurvePoint> pts_;
};

} // namespace talus

#endif // TALUS_CORE_MISS_CURVE_H
