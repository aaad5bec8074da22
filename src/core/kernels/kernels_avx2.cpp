// AVX2+FMA backend.
//
// Compiled via per-function target attributes, so no special -m flags are
// needed and the translation unit is safe to build into a portable binary:
// nothing here executes unless the runtime dispatcher saw AVX2+FMA in
// CPUID (kernels.cpp).
//
// The fused RBF encode tile's avx2 body lives in kernels_rbf.cpp, next to
// the scalar and avx512 bodies it matches bit for bit.
#include "core/kernels/kernels.hpp"
#include "core/kernels/kernels_rbf.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <algorithm>
#include <bit>

#define CYBERHD_AVX2 __attribute__((target("avx2,fma")))

namespace cyberhd::core {
namespace {

CYBERHD_AVX2 inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

CYBERHD_AVX2 float dot_f32_avx2(const float* a, const float* b,
                                std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float sum = hsum8(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

// Register-blocked similarity tile: 4 query rows advance together against
// one class row, so each class load is amortized across 4 dots. Every dot
// keeps its own (acc0, acc1) pair and walks dims in exactly dot_f32_avx2's
// order — the out entries are bit-identical to per-pair dot_f32 calls,
// which is the contract every float batch scorer relies on. The 4-row
// body takes explicit row pointers, so the tile reads its rows through
// any pointer table.
CYBERHD_AVX2 inline void sim_tile_f32_block4_avx2(
    const float* h0, const float* h1, const float* h2, const float* h3,
    const float* classes, std::size_t num_classes, std::size_t dims,
    float* out_block) {
  for (std::size_t c = 0; c < num_classes; ++c) {
    const float* cls = classes + c * dims;
    __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
    __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
    __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
    __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= dims; i += 16) {
      const __m256 v0 = _mm256_loadu_ps(cls + i);
      const __m256 v1 = _mm256_loadu_ps(cls + i + 8);
      a00 = _mm256_fmadd_ps(_mm256_loadu_ps(h0 + i), v0, a00);
      a01 = _mm256_fmadd_ps(_mm256_loadu_ps(h0 + i + 8), v1, a01);
      a10 = _mm256_fmadd_ps(_mm256_loadu_ps(h1 + i), v0, a10);
      a11 = _mm256_fmadd_ps(_mm256_loadu_ps(h1 + i + 8), v1, a11);
      a20 = _mm256_fmadd_ps(_mm256_loadu_ps(h2 + i), v0, a20);
      a21 = _mm256_fmadd_ps(_mm256_loadu_ps(h2 + i + 8), v1, a21);
      a30 = _mm256_fmadd_ps(_mm256_loadu_ps(h3 + i), v0, a30);
      a31 = _mm256_fmadd_ps(_mm256_loadu_ps(h3 + i + 8), v1, a31);
    }
    for (; i + 8 <= dims; i += 8) {
      const __m256 v0 = _mm256_loadu_ps(cls + i);
      a00 = _mm256_fmadd_ps(_mm256_loadu_ps(h0 + i), v0, a00);
      a10 = _mm256_fmadd_ps(_mm256_loadu_ps(h1 + i), v0, a10);
      a20 = _mm256_fmadd_ps(_mm256_loadu_ps(h2 + i), v0, a20);
      a30 = _mm256_fmadd_ps(_mm256_loadu_ps(h3 + i), v0, a30);
    }
    float s0 = hsum8(_mm256_add_ps(a00, a01));
    float s1 = hsum8(_mm256_add_ps(a10, a11));
    float s2 = hsum8(_mm256_add_ps(a20, a21));
    float s3 = hsum8(_mm256_add_ps(a30, a31));
    for (; i < dims; ++i) {
      const float v = cls[i];
      s0 += h0[i] * v;
      s1 += h1[i] * v;
      s2 += h2[i] * v;
      s3 += h3[i] * v;
    }
    out_block[0 * num_classes + c] = s0;
    out_block[1 * num_classes + c] = s1;
    out_block[2 * num_classes + c] = s2;
    out_block[3 * num_classes + c] = s3;
  }
}

// The transposed block for the rows left over from the 4-row blocks (a
// one-row tile is all remainder): one query row against four class rows,
// each query load shared by the four dots. Every dot again keeps its own
// (acc0, acc1) pair in dot_f32_avx2's exact order, so eight independent
// FMA chains run where one dot_f32 call runs two, with the same bits.
CYBERHD_AVX2 inline void sim_tile_f32_class4_avx2(
    const float* h, const float* c0, const float* c1, const float* c2,
    const float* c3, std::size_t dims, float* out4) {
  __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
  __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
  __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
  __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dims; i += 16) {
    const __m256 h0 = _mm256_loadu_ps(h + i);
    const __m256 h1 = _mm256_loadu_ps(h + i + 8);
    a00 = _mm256_fmadd_ps(h0, _mm256_loadu_ps(c0 + i), a00);
    a01 = _mm256_fmadd_ps(h1, _mm256_loadu_ps(c0 + i + 8), a01);
    a10 = _mm256_fmadd_ps(h0, _mm256_loadu_ps(c1 + i), a10);
    a11 = _mm256_fmadd_ps(h1, _mm256_loadu_ps(c1 + i + 8), a11);
    a20 = _mm256_fmadd_ps(h0, _mm256_loadu_ps(c2 + i), a20);
    a21 = _mm256_fmadd_ps(h1, _mm256_loadu_ps(c2 + i + 8), a21);
    a30 = _mm256_fmadd_ps(h0, _mm256_loadu_ps(c3 + i), a30);
    a31 = _mm256_fmadd_ps(h1, _mm256_loadu_ps(c3 + i + 8), a31);
  }
  for (; i + 8 <= dims; i += 8) {
    const __m256 h0 = _mm256_loadu_ps(h + i);
    a00 = _mm256_fmadd_ps(h0, _mm256_loadu_ps(c0 + i), a00);
    a10 = _mm256_fmadd_ps(h0, _mm256_loadu_ps(c1 + i), a10);
    a20 = _mm256_fmadd_ps(h0, _mm256_loadu_ps(c2 + i), a20);
    a30 = _mm256_fmadd_ps(h0, _mm256_loadu_ps(c3 + i), a30);
  }
  float s0 = hsum8(_mm256_add_ps(a00, a01));
  float s1 = hsum8(_mm256_add_ps(a10, a11));
  float s2 = hsum8(_mm256_add_ps(a20, a21));
  float s3 = hsum8(_mm256_add_ps(a30, a31));
  for (; i < dims; ++i) {
    const float v = h[i];
    s0 += v * c0[i];
    s1 += v * c1[i];
    s2 += v * c2[i];
    s3 += v * c3[i];
  }
  out4[0] = s0;
  out4[1] = s1;
  out4[2] = s2;
  out4[3] = s3;
}

CYBERHD_AVX2 void similarities_tile_f32_gather_avx2(
    const float* const* h_rows, std::size_t rows, const float* classes,
    std::size_t num_classes, std::size_t dims, float* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    sim_tile_f32_block4_avx2(h_rows[r + 0], h_rows[r + 1], h_rows[r + 2],
                             h_rows[r + 3], classes, num_classes, dims,
                             out + r * num_classes);
  }
  for (; r < rows; ++r) {
    float* row_out = out + r * num_classes;
    std::size_t c = 0;
    for (; c + 4 <= num_classes; c += 4) {
      const float* cls = classes + c * dims;
      sim_tile_f32_class4_avx2(h_rows[r], cls, cls + dims, cls + 2 * dims,
                               cls + 3 * dims, dims, row_out + c);
    }
    for (; c < num_classes; ++c) {
      row_out[c] = dot_f32_avx2(h_rows[r], classes + c * dims, dims);
    }
  }
}

CYBERHD_AVX2 void axpy_f32_avx2(float alpha, const float* x, float* y,
                                std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r =
        _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, r);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

CYBERHD_AVX2 void mul_acc_f32_avx2(const float* a, const float* b, float* acc,
                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r = _mm256_fmadd_ps(
        _mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
        _mm256_loadu_ps(acc + i));
    _mm256_storeu_ps(acc + i, r);
  }
  for (; i < n; ++i) acc[i] += a[i] * b[i];
}

CYBERHD_AVX2 std::size_t xor_popcount_words_avx2(const std::uint64_t* a,
                                                 const std::uint64_t* b,
                                                 std::size_t n) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = 0;
  // 8 nibble-LUT rounds (32 words) per vpsadbw: byte counters reach at
  // most 8 * 8 = 64, well under overflow.
  while (n - i >= 4) {
    const std::size_t rounds = std::min<std::size_t>((n - i) / 4, 8);
    __m256i bytes = zero;
    for (std::size_t k = 0; k < rounds; ++k, i += 4) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
      const __m256i lo = _mm256_and_si256(v, nibble);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), nibble);
      bytes = _mm256_add_epi8(bytes, _mm256_shuffle_epi8(lut, lo));
      bytes = _mm256_add_epi8(bytes, _mm256_shuffle_epi8(lut, hi));
    }
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t count = static_cast<std::size_t>(lanes[0] + lanes[1] +
                                               lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    count += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return count;
}

CYBERHD_AVX2 std::int64_t quantized_dot_i8_avx2(const std::int8_t* a,
                                                const std::int8_t* b,
                                                std::size_t n) {
  __m256i acc64 = _mm256_setzero_si256();
  std::size_t i = 0;
  while (n - i >= 16) {
    // Each 16-element round adds at most 2 * 127^2 to an i32 lane; cap the
    // rounds per i32 accumulator far below overflow before widening.
    const std::size_t rounds = std::min<std::size_t>((n - i) / 16, 32768);
    __m256i acc32 = _mm256_setzero_si256();
    for (std::size_t k = 0; k < rounds; ++k, i += 16) {
      const __m256i av = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
      const __m256i bv = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
      acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(av, bv));
    }
    const __m256i lo =
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc32));
    const __m256i hi =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc32, 1));
    acc64 = _mm256_add_epi64(acc64, _mm256_add_epi64(lo, hi));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc64);
  std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) sum += static_cast<std::int64_t>(a[i]) * b[i];
  return sum;
}

// Register-blocked int8 similarity tile, the quantized sibling of
// similarities_tile_f32_gather_avx2: 4 query rows advance together
// against one class row, each class load amortized over 4 vpmaddwd dots.
// Integer sums are order-independent, so unlike the float tile no
// accumulation-order mirroring is needed — every out entry is the exact
// dot. The i32 accumulators follow quantized_dot_i8_avx2's widening cap:
// each 16-element round adds at most 2 * 127^2 per lane, so 32768 rounds
// stay far below i32 overflow before the i64 widening.
/// acc64 += the 8 i32 lanes of acc32, widened (the overflow-safe widening
/// step shared with quantized_dot_i8_avx2).
CYBERHD_AVX2 inline __m256i widen_add_i32_to_i64(__m256i acc64,
                                                 __m256i acc32) {
  const __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc32));
  const __m256i hi =
      _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc32, 1));
  return _mm256_add_epi64(acc64, _mm256_add_epi64(lo, hi));
}

CYBERHD_AVX2 inline std::int64_t hsum_i64x4(__m256i acc64) {
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc64);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

// The 4-row inner body, over the block's explicit row pointers.
CYBERHD_AVX2 inline void sim_tile_i8_block4_avx2(
    const std::int8_t* h0, const std::int8_t* h1, const std::int8_t* h2,
    const std::int8_t* h3, const std::int8_t* classes,
    std::size_t num_classes, std::size_t dims, std::int64_t* out_block) {
  for (std::size_t c = 0; c < num_classes; ++c) {
    const std::int8_t* cls = classes + c * dims;
    __m256i a0 = _mm256_setzero_si256(), a1 = _mm256_setzero_si256();
    __m256i a2 = _mm256_setzero_si256(), a3 = _mm256_setzero_si256();
    std::size_t i = 0;
    while (dims - i >= 16) {
      const std::size_t rounds =
          std::min<std::size_t>((dims - i) / 16, 32768);
      __m256i b0 = _mm256_setzero_si256(), b1 = _mm256_setzero_si256();
      __m256i b2 = _mm256_setzero_si256(), b3 = _mm256_setzero_si256();
      for (std::size_t k = 0; k < rounds; ++k, i += 16) {
        const __m256i cv = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cls + i)));
        b0 = _mm256_add_epi32(
            b0, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(h0 + i))),
                    cv));
        b1 = _mm256_add_epi32(
            b1, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(h1 + i))),
                    cv));
        b2 = _mm256_add_epi32(
            b2, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(h2 + i))),
                    cv));
        b3 = _mm256_add_epi32(
            b3, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(h3 + i))),
                    cv));
      }
      a0 = widen_add_i32_to_i64(a0, b0);
      a1 = widen_add_i32_to_i64(a1, b1);
      a2 = widen_add_i32_to_i64(a2, b2);
      a3 = widen_add_i32_to_i64(a3, b3);
    }
    std::int64_t s0 = hsum_i64x4(a0), s1 = hsum_i64x4(a1);
    std::int64_t s2 = hsum_i64x4(a2), s3 = hsum_i64x4(a3);
    for (; i < dims; ++i) {
      const std::int64_t v = cls[i];
      s0 += static_cast<std::int64_t>(h0[i]) * v;
      s1 += static_cast<std::int64_t>(h1[i]) * v;
      s2 += static_cast<std::int64_t>(h2[i]) * v;
      s3 += static_cast<std::int64_t>(h3[i]) * v;
    }
    out_block[0 * num_classes + c] = s0;
    out_block[1 * num_classes + c] = s1;
    out_block[2 * num_classes + c] = s2;
    out_block[3 * num_classes + c] = s3;
  }
}

CYBERHD_AVX2 void similarities_tile_i8_gather_avx2(
    const std::int8_t* const* h_rows, std::size_t rows,
    const std::int8_t* classes, std::size_t num_classes, std::size_t dims,
    std::int64_t* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    sim_tile_i8_block4_avx2(h_rows[r + 0], h_rows[r + 1], h_rows[r + 2],
                            h_rows[r + 3], classes, num_classes, dims,
                            out + r * num_classes);
  }
  for (; r < rows; ++r) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      out[r * num_classes + c] =
          quantized_dot_i8_avx2(h_rows[r], classes + c * dims, dims);
    }
  }
}

CYBERHD_AVX2 void hamming_tile_1b_gather_avx2(const std::uint64_t* const* h_rows,
                                              std::size_t rows,
                                              const std::uint64_t* classes,
                                              std::size_t num_classes,
                                              std::size_t words,
                                              std::uint32_t* out) {
  // Per-pair word scans through the nibble-LUT popcount: at serving widths
  // (D <= 16k -> words <= 256) a packed row block plus the class block fit
  // in L1, so the tile gains nothing from further register blocking.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      out[r * num_classes + c] = static_cast<std::uint32_t>(
          xor_popcount_words_avx2(h_rows[r], classes + c * words, words));
    }
  }
}

constexpr Kernels kAvx2Kernels = {
    .name = "avx2",
    .dot_f32 = dot_f32_avx2,
    .axpy_f32 = axpy_f32_avx2,
    .mul_acc_f32 = mul_acc_f32_avx2,
    .cos_rbf_tile_f32 = detail::cos_rbf_tile_f32_avx2,
    .xor_popcount_words = xor_popcount_words_avx2,
    .quantized_dot_i8 = quantized_dot_i8_avx2,
    .similarities_tile_f32_gather = similarities_tile_f32_gather_avx2,
    .similarities_tile_i8_gather = similarities_tile_i8_gather_avx2,
    .hamming_tile_1b_gather = hamming_tile_1b_gather_avx2,
};

}  // namespace

const Kernels* avx2_kernels() noexcept { return &kAvx2Kernels; }

}  // namespace cyberhd::core

#else  // non-x86 or unsupported compiler: no AVX2 backend in this binary.

namespace cyberhd::core {
const Kernels* avx2_kernels() noexcept { return nullptr; }
}  // namespace cyberhd::core

#endif
