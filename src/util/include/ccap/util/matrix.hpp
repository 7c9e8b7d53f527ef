// Small dense real matrix used by the information-theoretic solvers.
//
// This is intentionally a minimal, cache-friendly row-major matrix rather
// than a full linear-algebra library: the capacity solvers only need
// element access, row views, matrix-vector products, stochasticity checks
// and power iteration for spectral radii.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace ccap::util {

class Matrix {
public:
    Matrix() = default;

    /// rows x cols matrix, zero-initialized (or filled with `fill`).
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /// Construct from nested initializer list; all rows must be equal length.
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
        return {data_.data() + r * cols_, cols_};
    }
    [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
        return {data_.data() + r * cols_, cols_};
    }

    [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

    /// y = A x. Requires x.size() == cols().
    [[nodiscard]] std::vector<double> mat_vec(std::span<const double> x) const;

    /// True iff every entry is >= -tol and every row sums to 1 within tol.
    [[nodiscard]] bool is_row_stochastic(double tol = 1e-9) const noexcept;

    /// Scale each row so it sums to 1. Rows summing to <= 0 throw.
    void normalize_rows();

    /// Largest-magnitude eigenvalue of a non-negative matrix, by power
    /// iteration (Perron-Frobenius). Requires a square matrix. Returns the
    /// eigenvalue; `iterations` bounds the work. Tolerance is on the
    /// eigenvalue estimate between successive iterations.
    [[nodiscard]] double spectral_radius(int iterations = 10000, double tol = 1e-12) const;

    [[nodiscard]] bool operator==(const Matrix& other) const noexcept = default;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

}  // namespace ccap::util
