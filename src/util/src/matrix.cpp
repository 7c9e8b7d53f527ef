#include "ccap/util/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace ccap::util {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    if ((rows == 0) != (cols == 0))
        throw std::invalid_argument("Matrix: rows and cols must be both zero or both nonzero");
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer list");
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

std::vector<double> Matrix::mat_vec(std::span<const double> x) const {
    if (x.size() != cols_) throw std::invalid_argument("Matrix::mat_vec: size mismatch");
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        const double* row_ptr = data_.data() + r * cols_;
        for (std::size_t c = 0; c < cols_; ++c) acc += row_ptr[c] * x[c];
        y[r] = acc;
    }
    return y;
}

bool Matrix::is_row_stochastic(double tol) const noexcept {
    for (std::size_t r = 0; r < rows_; ++r) {
        double sum = 0.0;
        for (double v : row(r)) {
            if (v < -tol) return false;
            sum += v;
        }
        if (std::abs(sum - 1.0) > tol) return false;
    }
    return rows_ > 0;
}

void Matrix::normalize_rows() {
    for (std::size_t r = 0; r < rows_; ++r) {
        double sum = 0.0;
        for (double v : row(r)) sum += v;
        if (sum <= 0.0) throw std::domain_error("Matrix::normalize_rows: nonpositive row sum");
        for (double& v : row(r)) v /= sum;
    }
}

double Matrix::spectral_radius(int iterations, double tol) const {
    if (rows_ != cols_) throw std::invalid_argument("spectral_radius: matrix not square");
    if (rows_ == 0) throw std::invalid_argument("spectral_radius: empty matrix");
    std::vector<double> v(rows_, 1.0 / static_cast<double>(rows_));
    double lambda = 0.0;
    for (int it = 0; it < iterations; ++it) {
        std::vector<double> w = mat_vec(v);
        double norm = 0.0;
        for (double x : w) norm += std::abs(x);
        if (norm == 0.0) return 0.0;  // nilpotent direction; radius 0 for our use
        for (double& x : w) x /= norm;
        const double prev = lambda;
        lambda = norm;
        v = std::move(w);
        if (it > 0 && std::abs(lambda - prev) < tol * std::max(1.0, lambda)) break;
    }
    return lambda;
}

}  // namespace ccap::util
