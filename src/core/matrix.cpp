#include "core/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/kernels/kernels.hpp"

namespace cyberhd::core {

void Matrix::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  // 16 x 16 tiles: every source and destination row segment of a tile is
  // one cache line, so neither side strides a line per element.
  constexpr std::size_t kTile = 16;
  for (std::size_t r0 = 0; r0 < rows_; r0 += kTile) {
    const std::size_t r1 = std::min(rows_, r0 + kTile);
    for (std::size_t c0 = 0; c0 < cols_; c0 += kTile) {
      const std::size_t c1 = std::min(cols_, c0 + kTile);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) t(c, r) = (*this)(r, c);
      }
    }
  }
  return t;
}

float dot(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  return active_kernels().dot_f32(a.data(), b.data(), a.size());
}

float norm2(std::span<const float> a) noexcept {
  return std::sqrt(dot(a, a));
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept {
  assert(x.size() == y.size());
  active_kernels().axpy_f32(alpha, x.data(), y.data(), x.size());
}

void scale(std::span<float> x, float alpha) noexcept {
  for (float& v : x) v *= alpha;
}

float normalize_l2(std::span<float> x) noexcept {
  const float n = norm2(x);
  if (n > 0.0f) scale(x, 1.0f / n);
  return n;
}

float cosine(std::span<const float> a, std::span<const float> b) noexcept {
  const float na = norm2(a);
  const float nb = norm2(b);
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return dot(a, b) / (na * nb);
}

void gemv(const Matrix& a, std::span<const float> x,
          std::span<float> y) noexcept {
  assert(x.size() == a.cols());
  assert(y.size() == a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    y[r] = dot(a.row(r), x);
  }
}

void gemv_transposed(const Matrix& a, std::span<const float> x,
                     std::span<float> y) noexcept {
  assert(x.size() == a.rows());
  assert(y.size() == a.cols());
  std::fill(y.begin(), y.end(), 0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    axpy(x[r], a.row(r), y);
  }
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.rows());
  c.resize(a.rows(), b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  // ikj order: streams through B and C rows, auto-vectorizes the inner loop.
  for (std::size_t i = 0; i < m; ++i) {
    float* ci = c.data() + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = a(i, p);
      if (aip == 0.0f) continue;
      const float* bp = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

std::size_t argmax(std::span<const float> x) noexcept {
  if (x.empty()) return 0;
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) best = i;
  }
  return best;
}

std::string shape_string(const Matrix& m) {
  // Built with append rather than chained operator+ to sidestep a GCC 12
  // -Wrestrict false positive (GCC PR105329) at -O2 and above.
  std::string s = "(";
  s += std::to_string(m.rows());
  s += " x ";
  s += std::to_string(m.cols());
  s += ")";
  return s;
}

}  // namespace cyberhd::core
