/**
 * @file
 * Tests for MissCurve and ConvexHull, including the paper's Fig. 3
 * example curve and randomized hull properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/convex_hull.h"
#include "core/miss_curve.h"
#include "util/rng.h"

namespace talus {
namespace {

/** The Sec. III example: cliff at 5MB (sizes in MB, MPKI values). */
MissCurve
exampleCurve()
{
    return MissCurve({{0, 24}, {1, 18}, {2, 12}, {3, 12}, {4, 12},
                      {5, 3}, {6, 3}, {8, 3}, {10, 3}});
}

TEST(MissCurve, SortsAndDeduplicates)
{
    MissCurve c({{4, 1}, {0, 10}, {2, 5}, {2, 7}});
    EXPECT_EQ(c.numPoints(), 3u);
    EXPECT_DOUBLE_EQ(c.point(0).size, 0);
    EXPECT_DOUBLE_EQ(c.point(1).size, 2);
    EXPECT_DOUBLE_EQ(c.point(1).misses, 5); // Min of duplicates.
}

TEST(MissCurve, UnsortedInputWithDuplicatesSortsAndKeepsMinimum)
{
    // The constructor skips its sort on sorted input; unsorted input
    // must still take the sort. Shuffled points over 40 sizes, each
    // size 1-4 times with random values: the curve holds every size
    // once, in order, at the minimum of its values.
    Rng rng(83);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<CurvePoint> pts;
        std::vector<double> min_of(40, 1e300);
        for (int size = 0; size < 40; ++size) {
            const int copies = 1 + static_cast<int>(rng.below(4));
            for (int k = 0; k < copies; ++k) {
                const double v = static_cast<double>(rng.below(1000));
                pts.push_back({static_cast<double>(size * 3), v});
                min_of[size] = std::min(min_of[size], v);
            }
        }
        for (size_t i = pts.size() - 1; i > 0; --i)
            std::swap(pts[i], pts[rng.below(i + 1)]);
        const MissCurve c(pts);
        ASSERT_EQ(c.numPoints(), 40u) << "trial " << trial;
        for (int size = 0; size < 40; ++size) {
            EXPECT_EQ(c.point(size).size, size * 3.0) << "trial " << trial;
            EXPECT_EQ(c.point(size).misses, min_of[size])
                << "trial " << trial << " size " << size;
        }
    }
    // Already sorted, with duplicates: still deduplicated to the
    // minimum, whichever copy comes first.
    const MissCurve sorted({{0, 9}, {1, 4}, {1, 2}, {1, 3}, {2, 7}, {2, 1}});
    ASSERT_EQ(sorted.numPoints(), 3u);
    EXPECT_EQ(sorted.point(1).misses, 2.0);
    EXPECT_EQ(sorted.point(2).misses, 1.0);
}

TEST(MissCurve, LinearInterpolation)
{
    MissCurve c({{0, 10}, {10, 0}});
    EXPECT_DOUBLE_EQ(c.at(5), 5.0);
    EXPECT_DOUBLE_EQ(c.at(2.5), 7.5);
}

TEST(MissCurve, ClampsOutsideRange)
{
    MissCurve c({{2, 8}, {6, 4}});
    EXPECT_DOUBLE_EQ(c.at(0), 8.0);
    EXPECT_DOUBLE_EQ(c.at(100), 4.0);
}

TEST(MissCurve, VectorConstructor)
{
    MissCurve c(std::vector<double>{9, 6, 3}, 128.0);
    EXPECT_EQ(c.numPoints(), 3u);
    EXPECT_DOUBLE_EQ(c.at(128), 6.0);
    EXPECT_DOUBLE_EQ(c.at(64), 7.5);
}

TEST(MissCurve, ConvexityChecks)
{
    EXPECT_TRUE(MissCurve({{0, 10}, {1, 5}, {2, 2}, {3, 1}}).isConvex());
    // Cliff: plateau then drop = non-convex.
    EXPECT_FALSE(exampleCurve().isConvex());
    EXPECT_TRUE(exampleCurve().isNonIncreasing());
    EXPECT_FALSE(MissCurve({{0, 5}, {1, 7}}).isNonIncreasing());
}

TEST(MissCurve, ScaledScalesBothAxes)
{
    MissCurve c({{0, 10}, {4, 2}});
    MissCurve s = c.scaled(2.0, 0.5);
    EXPECT_DOUBLE_EQ(s.maxSize(), 8.0);
    EXPECT_DOUBLE_EQ(s.at(0), 5.0);
    EXPECT_DOUBLE_EQ(s.at(8), 1.0);
}

TEST(MissCurve, MonotoneClamped)
{
    MissCurve noisy({{0, 10}, {1, 4}, {2, 6}, {3, 3}});
    MissCurve clamped = noisy.monotoneClamped();
    EXPECT_TRUE(clamped.isNonIncreasing());
    EXPECT_DOUBLE_EQ(clamped.at(2), 4.0);
}

// ----------------------------------------------------------- ConvexHull

TEST(MissCurve, DefaultConstructedIsEmpty)
{
    MissCurve curve;
    EXPECT_EQ(curve.numPoints(), 0u);
    EXPECT_TRUE(curve.points().empty());
}

TEST(MissCurve, SinglePointClampsEverywhere)
{
    MissCurve curve({{4.0, 7.0}});
    EXPECT_DOUBLE_EQ(curve.minSize(), 4.0);
    EXPECT_DOUBLE_EQ(curve.maxSize(), 4.0);
    EXPECT_DOUBLE_EQ(curve.at(0.0), 7.0);
    EXPECT_DOUBLE_EQ(curve.at(4.0), 7.0);
    EXPECT_DOUBLE_EQ(curve.at(100.0), 7.0);
    EXPECT_TRUE(curve.isNonIncreasing());
    EXPECT_TRUE(curve.isConvex());
}

TEST(Hull, ExampleCurveHull)
{
    // The Fig. 3 hull bridges the plateau: vertices (0,24), (2,12),
    // (5,3), (10,3).
    const ConvexHull hull(exampleCurve());
    const auto& pts = hull.hull().points();
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_DOUBLE_EQ(pts[0].size, 0);
    EXPECT_DOUBLE_EQ(pts[1].size, 2);
    EXPECT_DOUBLE_EQ(pts[2].size, 5);
    EXPECT_DOUBLE_EQ(pts[3].size, 10);
    // At 4MB the hull reads 6 MPKI — the paper's worked example.
    EXPECT_NEAR(hull.at(4.0), 6.0, 1e-9);
}

TEST(Hull, SegmentForBracketsSize)
{
    const ConvexHull hull(exampleCurve());
    const auto seg = hull.segmentFor(4.0);
    EXPECT_FALSE(seg.degenerate);
    EXPECT_DOUBLE_EQ(seg.alpha.size, 2.0);
    EXPECT_DOUBLE_EQ(seg.beta.size, 5.0);
}

TEST(Hull, SegmentDegenerateOnVertexAndOutside)
{
    const ConvexHull hull(exampleCurve());
    EXPECT_TRUE(hull.segmentFor(2.0).degenerate);
    EXPECT_TRUE(hull.segmentFor(0.0).degenerate);
    EXPECT_TRUE(hull.segmentFor(10.0).degenerate);
    EXPECT_TRUE(hull.segmentFor(50.0).degenerate);
}

TEST(Hull, SinglePointCurve)
{
    const ConvexHull hull(MissCurve({{5, 2}}));
    EXPECT_EQ(hull.hull().numPoints(), 1u);
    EXPECT_TRUE(hull.segmentFor(3).degenerate);
    EXPECT_TRUE(hull.segmentFor(7).degenerate);
}

TEST(Hull, IdempotentOnConvexCurves)
{
    const MissCurve convex({{0, 16}, {1, 8}, {2, 4}, {3, 2}, {4, 1.5}});
    const ConvexHull hull(convex);
    EXPECT_EQ(hull.hull().numPoints(), convex.numPoints());
    for (size_t i = 0; i < convex.numPoints(); ++i)
        EXPECT_DOUBLE_EQ(hull.hull().point(i).misses,
                         convex.point(i).misses);
}

TEST(Hull, DropsCollinearMiddlePoints)
{
    const ConvexHull hull(MissCurve({{0, 9}, {1, 6}, {2, 3}, {3, 0}}));
    EXPECT_EQ(hull.hull().numPoints(), 2u);
}

TEST(Hull, RandomCurvesProperties)
{
    // Property test: for random non-increasing curves, the hull is
    // convex, lies at or below the curve, and shares the endpoints.
    Rng rng(31);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<CurvePoint> pts;
        double value = 100.0 + static_cast<double>(rng.below(100));
        const int n = 3 + static_cast<int>(rng.below(30));
        for (int i = 0; i < n; ++i) {
            pts.push_back({static_cast<double>(i), value});
            value -= static_cast<double>(rng.below(20));
            if (value < 0)
                value = 0;
        }
        const MissCurve curve(pts);
        const ConvexHull hull(curve);

        EXPECT_TRUE(hull.hull().isConvex(1e-7)) << "trial " << trial;
        for (const CurvePoint& p : curve.points())
            EXPECT_LE(hull.at(p.size), p.misses + 1e-9);
        EXPECT_DOUBLE_EQ(hull.hull().point(0).misses,
                         curve.point(0).misses);
        EXPECT_DOUBLE_EQ(hull.hull().points().back().misses,
                         curve.points().back().misses);

        // Idempotence: hull of hull == hull.
        const ConvexHull hull2(hull.hull());
        EXPECT_EQ(hull2.hull().numPoints(), hull.hull().numPoints());
    }
}

} // namespace
} // namespace talus
