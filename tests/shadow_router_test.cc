/**
 * @file
 * Tests for the ShadowRouter (H3 + limit register sampling function).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/shadow_router.h"

namespace talus {
namespace {

TEST(ShadowRouter, RhoOneRoutesEverythingToAlpha)
{
    ShadowRouter router(8, 1);
    router.setRho(1.0);
    for (Addr a = 0; a < 10000; ++a)
        EXPECT_TRUE(router.toAlpha(a));
}

TEST(ShadowRouter, RhoZeroRoutesEverythingToBeta)
{
    ShadowRouter router(8, 2);
    router.setRho(0.0);
    for (Addr a = 0; a < 10000; ++a)
        EXPECT_FALSE(router.toAlpha(a));
}

TEST(ShadowRouter, RoutedFractionTracksRho)
{
    for (double rho : {0.1, 0.25, 0.333, 0.5, 0.75, 0.9}) {
        ShadowRouter router(8, 3);
        router.setRho(rho);
        uint64_t to_alpha = 0;
        const uint64_t n = 100000;
        for (Addr a = 0; a < n; ++a)
            to_alpha += router.toAlpha(a);
        EXPECT_NEAR(static_cast<double>(to_alpha) / n,
                    router.effectiveRho(), 0.02)
            << "rho=" << rho;
    }
}

TEST(ShadowRouter, QuantizationBoundedByHalfStep)
{
    // 8-bit limit register: effective rho within 1/512 of requested.
    ShadowRouter router(8, 4);
    for (double rho = 0.0; rho <= 1.0; rho += 0.01)
    {
        router.setRho(rho);
        EXPECT_NEAR(router.effectiveRho(), rho, 1.0 / 512.0 + 1e-12);
    }
}

TEST(ShadowRouter, WiderLimitReducesQuantization)
{
    ShadowRouter narrow(4, 5), wide(16, 5);
    narrow.setRho(0.3);
    wide.setRho(0.3);
    EXPECT_LE(std::abs(wide.effectiveRho() - 0.3),
              std::abs(narrow.effectiveRho() - 0.3) + 1e-12);
}

TEST(ShadowRouter, EffectiveRhoIsQuantizedToLimitRegister)
{
    ShadowRouter router(8);
    router.setRho(0.3);
    // round(0.3 * 256) = 77: the limit register quantizes rho.
    EXPECT_EQ(router.limit(), 77u);
    EXPECT_DOUBLE_EQ(router.effectiveRho(), 77.0 / 256.0);
}

TEST(ShadowRouter, OutOfRangeRhoClampsToLimitRegisterRange)
{
    // Upstream sizing math can overshoot [0,1] by rounding; the limit
    // register saturates instead of faulting.
    ShadowRouter router(8);
    router.setRho(1.5);
    EXPECT_DOUBLE_EQ(router.effectiveRho(), 1.0);
    router.setRho(-0.1);
    EXPECT_DOUBLE_EQ(router.effectiveRho(), 0.0);
    router.setRho(1e12);
    EXPECT_DOUBLE_EQ(router.effectiveRho(), 1.0);
}

TEST(ShadowRouterDeathTest, NaNRhoIsFatal)
{
    ShadowRouter router(8);
    EXPECT_DEATH(router.setRho(std::nan("")), "NaN");
}

TEST(ShadowRouter, RoutingIsStablePerAddress)
{
    // The same address must always route the same way for a fixed
    // configuration — otherwise lines would be duplicated across
    // shadow partitions.
    ShadowRouter router(8, 6);
    router.setRho(0.4);
    for (Addr a = 0; a < 1000; ++a) {
        const bool first = router.toAlpha(a);
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(router.toAlpha(a), first);
    }
}

/** Expects offsetOf(a) == !toAlpha(a), and offsetOfHash() of a's hash
 *  likewise, for every address in [0, n) in each of the address-space
 *  ids 0-3 (bit 40 and up, the tenant layout: a non-zero high word). */
void
expectOffsetIsNotToAlpha(const ShadowRouter& router, Addr n)
{
    for (Addr id = 0; id < 4; ++id) {
        for (Addr low = 0; low < n; ++low) {
            const Addr a = (id << 40) | low;
            const PartId want = router.toAlpha(a) ? 0 : 1;
            ASSERT_EQ(router.offsetOf(a), want)
                << "addr=" << a << " limit=" << router.limit();
            ASSERT_EQ(router.offsetOfHash(router.hashFn().hash(a)), want)
                << "addr=" << a << " limit=" << router.limit();
        }
    }
}

TEST(ShadowRouter, OffsetIsNotToAlphaAtLimitEdges)
{
    // Limit 0 (all beta), 1, range - 1 and range (saturated: all
    // alpha). The offset is the limit compare's flag, so the edges
    // are where an off-by-one would show.
    ShadowRouter router(8, 7);
    const uint64_t range = router.hashFn().range();
    const struct
    {
        double rho;
        uint64_t limit;
    } edges[] = {{0.0, 0},
                 {1.0 / 256, 1},
                 {255.0 / 256, range - 1},
                 {1.0, range}};
    for (const auto& e : edges) {
        router.setRho(e.rho);
        ASSERT_EQ(router.limit(), e.limit);
        EXPECT_EQ(router.alwaysAlpha(), e.limit == range);
        for (uint64_t h = 0; h < range; ++h)
            EXPECT_EQ(router.offsetOfHash(static_cast<uint32_t>(h)),
                      h >= e.limit ? 1u : 0u)
                << "h=" << h << " limit=" << e.limit;
        expectOffsetIsNotToAlpha(router, 4096);
    }
}

TEST(ShadowRouter, OffsetIsNotToAlphaAcrossRho)
{
    for (uint32_t bits : {8u, 16u, 32u}) {
        ShadowRouter router(bits, 8);
        for (double rho : {0.2, 0.5, 0.9}) {
            router.setRho(rho);
            expectOffsetIsNotToAlpha(router, Addr{1} << 16);
        }
    }
}

TEST(ShadowRouter, SeedsGiveIndependentFunctions)
{
    ShadowRouter a(8, 100), b(8, 200);
    a.setRho(0.5);
    b.setRho(0.5);
    uint64_t agree = 0;
    const uint64_t n = 10000;
    for (Addr x = 0; x < n; ++x)
        agree += (a.toAlpha(x) == b.toAlpha(x));
    // Independent 50/50 functions agree about half the time.
    EXPECT_NEAR(static_cast<double>(agree) / n, 0.5, 0.05);
}

} // namespace
} // namespace talus
