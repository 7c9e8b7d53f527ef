#include "ccap/util/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace {

using ccap::util::Matrix;

TEST(Matrix, DefaultIsEmpty) {
    Matrix m;
    EXPECT_EQ(m.rows(), 0U);
    EXPECT_EQ(m.cols(), 0U);
}

TEST(Matrix, FillConstructor) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2U);
    EXPECT_EQ(m.cols(), 3U);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
}

TEST(Matrix, InitializerList) {
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, MixedZeroDimensionsThrow) {
    EXPECT_THROW(Matrix(3, 0), std::invalid_argument);
    EXPECT_THROW(Matrix(0, 3), std::invalid_argument);
}

TEST(Matrix, RowSpanWritesThrough) {
    Matrix m(2, 3);
    auto row = m.row(1);
    row[2] = 9.0;
    EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
}

TEST(Matrix, MatVec) {
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    const std::vector<double> x = {1.0, 1.0};
    const auto y = m.mat_vec(x);
    ASSERT_EQ(y.size(), 2U);
    EXPECT_DOUBLE_EQ(y[0], 3.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MatVecSizeMismatchThrows) {
    Matrix m(2, 3);
    const std::vector<double> x = {1.0, 1.0};
    EXPECT_THROW((void)m.mat_vec(x), std::invalid_argument);
}

TEST(Matrix, RowStochasticDetection) {
    Matrix good{{0.5, 0.5}, {0.1, 0.9}};
    EXPECT_TRUE(good.is_row_stochastic());
    Matrix bad_sum{{0.5, 0.6}, {0.1, 0.9}};
    EXPECT_FALSE(bad_sum.is_row_stochastic());
    Matrix negative{{1.5, -0.5}, {0.1, 0.9}};
    EXPECT_FALSE(negative.is_row_stochastic());
    Matrix empty;
    EXPECT_FALSE(empty.is_row_stochastic());
}

TEST(Matrix, NormalizeRows) {
    Matrix m{{2.0, 2.0}, {1.0, 3.0}};
    m.normalize_rows();
    EXPECT_TRUE(m.is_row_stochastic());
    EXPECT_DOUBLE_EQ(m(1, 1), 0.75);
}

TEST(Matrix, NormalizeRowsZeroRowThrows) {
    Matrix m{{0.0, 0.0}, {1.0, 1.0}};
    EXPECT_THROW(m.normalize_rows(), std::domain_error);
}

TEST(Matrix, SpectralRadiusDiagonal) {
    Matrix m{{3.0, 0.0}, {0.0, 2.0}};
    EXPECT_NEAR(m.spectral_radius(), 3.0, 1e-9);
}

TEST(Matrix, SpectralRadiusFibonacci) {
    // [[1,1],[1,0]] has spectral radius phi = (1+sqrt 5)/2.
    Matrix m{{1.0, 1.0}, {1.0, 0.0}};
    EXPECT_NEAR(m.spectral_radius(), (1.0 + std::sqrt(5.0)) / 2.0, 1e-9);
}

TEST(Matrix, SpectralRadiusNonSquareThrows) {
    Matrix m(2, 3);
    EXPECT_THROW((void)m.spectral_radius(), std::invalid_argument);
}

TEST(Matrix, SpectralRadiusZeroMatrix) {
    Matrix m(3, 3, 0.0);
    EXPECT_DOUBLE_EQ(m.spectral_radius(), 0.0);
}

}  // namespace
