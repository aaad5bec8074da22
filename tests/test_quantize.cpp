// Unit tests for core/quantize: symmetric b-bit quantization, integer
// similarity, and the two's-complement bit codec the fault injector uses.
#include "core/quantize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"

namespace cyberhd::core {
namespace {

TEST(Quantize, SupportedBitwidths) {
  for (int b : {1, 2, 4, 8, 16, 32}) EXPECT_TRUE(is_supported_bitwidth(b));
  for (int b : {0, 3, 5, 7, 9, 24, 64}) {
    EXPECT_FALSE(is_supported_bitwidth(b));
  }
}

TEST(Quantize, MaxLevels) {
  EXPECT_EQ(max_level(1), 1);
  EXPECT_EQ(max_level(2), 1);
  EXPECT_EQ(max_level(4), 7);
  EXPECT_EQ(max_level(8), 127);
  EXPECT_EQ(max_level(16), 32767);
}

TEST(Quantize, OneBitIsSign) {
  const std::vector<float> x = {-2.0f, 3.0f, 0.0f, -0.5f};
  const QuantizedVector q = quantize(x, 1);
  EXPECT_EQ(q.bits, 1);
  ASSERT_EQ(q.levels.size(), 4u);
  EXPECT_EQ(q.levels[0], -1);
  EXPECT_EQ(q.levels[1], 1);
  EXPECT_EQ(q.levels[2], 1);  // zero maps to +1
  EXPECT_EQ(q.levels[3], -1);
  // Scale is the mean absolute value.
  EXPECT_NEAR(q.scale, (2.0f + 3.0f + 0.0f + 0.5f) / 4.0f, 1e-6f);
}

TEST(Quantize, LevelsWithinRange) {
  Rng rng(3);
  std::vector<float> x(257);
  fill_gaussian(rng, x.data(), x.size(), 0.0f, 2.0f);
  for (int bits : {2, 4, 8, 16, 32}) {
    const QuantizedVector q = quantize(x, bits);
    const std::int32_t lmax = max_level(bits);
    for (std::int32_t l : q.levels) {
      EXPECT_GE(l, -lmax);
      EXPECT_LE(l, lmax);
    }
  }
}

TEST(Quantize, AllZerosStaysZero) {
  const std::vector<float> x(16, 0.0f);
  for (int bits : {2, 8, 32}) {
    const QuantizedVector q = quantize(x, bits);
    for (std::int32_t l : q.levels) EXPECT_EQ(l, 0);
  }
}

TEST(Quantize, RoundTripErrorShrinksWithBits) {
  Rng rng(7);
  std::vector<float> x(1024);
  fill_gaussian(rng, x.data(), x.size(), 0.0f, 1.0f);
  double prev_err = 1e9;
  for (int bits : {2, 4, 8, 16}) {
    const QuantizedVector q = quantize(x, bits);
    std::vector<float> back(x.size());
    dequantize(q, back);
    double err = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      err += std::abs(back[i] - x[i]);
    }
    err /= static_cast<double>(x.size());
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-3);  // 16-bit is nearly exact
}

TEST(Quantize, DotLevels) {
  QuantizedVector a, b;
  a.levels = {1, -2, 3};
  b.levels = {4, 5, -6};
  EXPECT_EQ(dot_levels(a, b), 4 - 10 - 18);
}

TEST(Quantize, CosineQuantizedMatchesFloatAtHighBits) {
  Rng rng(11);
  std::vector<float> a(512), b(512);
  fill_gaussian(rng, a.data(), a.size(), 0.0f, 1.0f);
  fill_gaussian(rng, b.data(), b.size(), 0.0f, 1.0f);
  const float exact = cosine(a, b);
  const QuantizedVector qa = quantize(a, 16);
  const QuantizedVector qb = quantize(b, 16);
  EXPECT_NEAR(cosine_quantized(qa, qb), exact, 1e-3f);
}

TEST(Quantize, CosineQuantizedSelfIsOne) {
  Rng rng(13);
  std::vector<float> a(128);
  fill_gaussian(rng, a.data(), a.size(), 0.0f, 1.0f);
  for (int bits : {2, 4, 8}) {
    const QuantizedVector q = quantize(a, bits);
    EXPECT_NEAR(cosine_quantized(q, q), 1.0f, 1e-6f);
  }
}

TEST(Quantize, CosineZeroVector) {
  QuantizedVector a, b;
  a.levels = {0, 0};
  b.levels = {1, 1};
  EXPECT_EQ(cosine_quantized(a, b), 0.0f);
}

TEST(BitCodec, OneBit) {
  EXPECT_EQ(level_to_bits(-1, 1), 0u);
  EXPECT_EQ(level_to_bits(1, 1), 1u);
  EXPECT_EQ(bits_to_level(0u, 1), -1);
  EXPECT_EQ(bits_to_level(1u, 1), 1);
}

TEST(BitCodec, RoundTripAllLevels) {
  for (int bits : {2, 4, 8}) {
    const std::int32_t lmax = max_level(bits);
    for (std::int32_t l = -lmax; l <= lmax; ++l) {
      EXPECT_EQ(bits_to_level(level_to_bits(l, bits), bits), l)
          << "bits=" << bits << " level=" << l;
    }
  }
}

TEST(BitCodec, AsymmetricPatternClamps) {
  // 4-bit pattern 1000 is -8 in two's complement; the symmetric range
  // clamps it to -7.
  EXPECT_EQ(bits_to_level(0b1000u, 4), -7);
  // 2-bit pattern 10 is -2 -> clamped to -1.
  EXPECT_EQ(bits_to_level(0b10u, 2), -1);
}

TEST(BitCodec, IgnoresHighBits) {
  EXPECT_EQ(bits_to_level(0xFFFFFFF1u, 4), 1);
}

// Property sweep over bitwidths: quantize/dequantize preserves sign and
// ordering of well-separated values.
class QuantizeBitSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeBitSweep, PreservesSignsAndClampsToRange) {
  const int bits = GetParam();
  const std::vector<float> x = {-4.0f, -1.0f, 0.5f, 2.0f, 4.0f};
  const QuantizedVector q = quantize(x, bits);
  std::vector<float> back(x.size());
  dequantize(q, back);
  // Values larger than an LSB step keep their sign; smaller ones may
  // round to zero (fixed-point resolution floor).
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > q.scale) {
      EXPECT_GT(back[i], 0.0f) << "bits=" << bits;
    }
    if (x[i] < -q.scale) {
      EXPECT_LT(back[i], 0.0f) << "bits=" << bits;
    }
  }
  // Nothing escapes the representable range.
  const float range =
      q.scale * static_cast<float>(max_level(bits)) + 1e-4f;
  for (float v : back) EXPECT_LE(std::abs(v), range) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizeBitSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace cyberhd::core
