// Symmetric linear quantization of float vectors to b-bit signed integers.
//
// CyberHD deploys hypervectors at 32/16/8/4/2/1-bit precision (Table I of
// the paper). This module implements the post-training quantizer shared by
// the quantized inference path (hdc/quantized) and the fault injector
// (fault/bitflip): values are mapped to signed integers in
// [-(2^(b-1)-1), 2^(b-1)-1] with a per-vector scale, except b == 1 which is
// the sign function (the classic bipolar hypervector).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cyberhd::core {

/// Supported bitwidths for quantized hypervectors.
inline constexpr int kSupportedBitwidths[] = {1, 2, 4, 8, 16, 32};

/// True when `bits` is one of the supported widths.
bool is_supported_bitwidth(int bits) noexcept;

/// Largest representable level for a signed b-bit code (symmetric range);
/// e.g. 1 for b=1 (bipolar), 1 for b=2, 7 for b=4, 127 for b=8.
std::int32_t max_level(int bits) noexcept;

/// A float vector quantized to b-bit signed levels.
///
/// Levels are stored widened to int32 for arithmetic convenience; the
/// *representational* width (what the fault injector flips and what the
/// hardware model prices) is `bits`. `scale` maps levels back to floats:
/// value ~= level * scale.
struct QuantizedVector {
  int bits = 32;
  float scale = 1.0f;
  std::vector<std::int32_t> levels;

  std::size_t size() const noexcept { return levels.size(); }
};

/// Quantize `x` symmetrically to `bits` bits. For bits == 1 the result is
/// sign(x) in {-1, +1} (zeros map to +1) with scale = mean(|x|).
QuantizedVector quantize(std::span<const float> x, int bits);
/// The same, into caller storage: a reused `q` quantizes without
/// allocating once its levels' capacity fits.
void quantize(std::span<const float> x, int bits, QuantizedVector& q);

/// Reconstruct floats: out[i] = levels[i] * scale.
void dequantize(const QuantizedVector& q, std::span<float> out);

/// Integer dot product of two quantized vectors (levels only).
std::int64_t dot_levels(const QuantizedVector& a,
                        const QuantizedVector& b) noexcept;

/// Cosine similarity computed in the quantized domain. Scales cancel, so
/// this equals the cosine of the dequantized vectors.
float cosine_quantized(const QuantizedVector& a,
                       const QuantizedVector& b) noexcept;

/// Encode a signed level into its b-bit two's-complement bit pattern
/// (low `bits` bits of the result).
std::uint32_t level_to_bits(std::int32_t level, int bits) noexcept;

/// Decode a b-bit two's-complement pattern back to a signed level,
/// clamping to the symmetric range (so e.g. the 4-bit pattern 1000 = -8
/// decodes to -7, keeping codes within the quantizer's range).
std::int32_t bits_to_level(std::uint32_t pattern, int bits) noexcept;

}  // namespace cyberhd::core
