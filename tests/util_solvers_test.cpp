#include "ccap/util/solvers.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using ccap::util::bisect;

TEST(Bisect, FindsSqrtTwo) {
    const auto r = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, DecreasingFunction) {
    const auto r = bisect([](double x) { return 1.0 - x; }, 0.0, 5.0);
    EXPECT_NEAR(r.x, 1.0, 1e-10);
}

TEST(Bisect, EndpointRoot) {
    const auto lo = bisect([](double x) { return x; }, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(lo.x, 0.0);
    const auto hi = bisect([](double x) { return x - 1.0; }, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(hi.x, 1.0);
}

TEST(Bisect, SameSignThrows) {
    EXPECT_THROW((void)bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
                 std::invalid_argument);
}

TEST(Bisect, TranscendentalRoot) {
    // x = cos(x) has root ~0.739085.
    const auto r = bisect([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
    EXPECT_NEAR(r.x, 0.7390851332151607, 1e-9);
}

}  // namespace
