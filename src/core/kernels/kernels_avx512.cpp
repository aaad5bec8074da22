// AVX-512 backend.
//
// Layered over the avx2 table: the 32-lane float kernels (dot, axpy,
// mul_acc, the blocked similarity tile), the zmm body of the fused RBF
// encode tile (kernels_rbf.cpp) and — when the CPU reports
// AVX512VPOPCNTDQ / AVX512VNNI — a vpopcntq popcount and a vpdpbusd int8
// tile replace their avx2 counterparts, while the int8 dot is inherited
// unchanged (every AVX-512 CPU also runs AVX2 code).
//
// Compiled via per-function target attributes like the avx2 backend, so
// the translation unit is safe inside a portable binary: nothing here
// executes unless the runtime dispatcher saw the matching CPUID bits
// (kernels.cpp). The popcount kernel carries its own vpopcntdq target and
// is only wired into the table when cpu_supports_avx512_vpopcntdq() —
// a Skylake-X class machine (AVX-512F but no VPOPCNTDQ) keeps the avx2
// nibble-LUT popcount.
//
// Note on numerics: dot_f32 here reduces two 16-lane accumulators with
// _mm512_reduce_add_ps, so float sums associate differently from both the
// scalar and avx2 backends (tests bound the difference). Within this
// backend, the float similarity tile reproduces dot_f32's accumulation
// order exactly — the bit-identical tile contract of kernels.hpp holds per
// backend, as elsewhere. The encode tile is exact across backends: its
// zmm body runs the scalar reference's per-dimension FMA chain and cosine
// lane for lane (kernels_rbf.cpp).
#include "core/kernels/kernels.hpp"
#include "core/kernels/kernels_rbf.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

// GCC 12's AVX-512 headers build some intrinsics on _mm512_undefined_*(),
// which -Wuninitialized flags under -Werror (GCC PR105593). File-scoped
// suppression; the warnings point inside avx512fintrin.h, not this code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include <algorithm>
#include <bit>

#define CYBERHD_AVX512 __attribute__((target("avx512f,avx512dq,avx2,fma")))
#define CYBERHD_AVX512_POPCNT \
  __attribute__((target("avx512f,avx512vpopcntdq")))
#define CYBERHD_AVX512_VNNI \
  __attribute__((target("avx512f,avx512bw,avx512vnni")))

namespace cyberhd::core {
namespace {

CYBERHD_AVX512 float dot_f32_avx512(const float* a, const float* b,
                                    std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  float sum = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

CYBERHD_AVX512 void axpy_f32_avx512(float alpha, const float* x, float* y,
                                    std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 r =
        _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i));
    _mm512_storeu_ps(y + i, r);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

CYBERHD_AVX512 void mul_acc_f32_avx512(const float* a, const float* b,
                                       float* acc, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 r =
        _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                        _mm512_loadu_ps(acc + i));
    _mm512_storeu_ps(acc + i, r);
  }
  for (; i < n; ++i) acc[i] += a[i] * b[i];
}

// Register-blocked similarity tile, the AVX-512 sibling of the avx2
// version: 4 query rows share each class-row load, and every dot keeps its
// own (acc0, acc1) pair walking dims in dot_f32_avx512's exact order so
// the per-pair bit-identity contract holds. As in the avx2 backend, the
// 4-row body takes explicit row pointers from the tile's pointer table.
CYBERHD_AVX512 inline void sim_tile_f32_block4_avx512(
    const float* h0, const float* h1, const float* h2, const float* h3,
    const float* classes, std::size_t num_classes, std::size_t dims,
    float* out_block) {
  for (std::size_t c = 0; c < num_classes; ++c) {
    const float* cls = classes + c * dims;
    __m512 a00 = _mm512_setzero_ps(), a01 = _mm512_setzero_ps();
    __m512 a10 = _mm512_setzero_ps(), a11 = _mm512_setzero_ps();
    __m512 a20 = _mm512_setzero_ps(), a21 = _mm512_setzero_ps();
    __m512 a30 = _mm512_setzero_ps(), a31 = _mm512_setzero_ps();
    std::size_t i = 0;
    for (; i + 32 <= dims; i += 32) {
      const __m512 v0 = _mm512_loadu_ps(cls + i);
      const __m512 v1 = _mm512_loadu_ps(cls + i + 16);
      a00 = _mm512_fmadd_ps(_mm512_loadu_ps(h0 + i), v0, a00);
      a01 = _mm512_fmadd_ps(_mm512_loadu_ps(h0 + i + 16), v1, a01);
      a10 = _mm512_fmadd_ps(_mm512_loadu_ps(h1 + i), v0, a10);
      a11 = _mm512_fmadd_ps(_mm512_loadu_ps(h1 + i + 16), v1, a11);
      a20 = _mm512_fmadd_ps(_mm512_loadu_ps(h2 + i), v0, a20);
      a21 = _mm512_fmadd_ps(_mm512_loadu_ps(h2 + i + 16), v1, a21);
      a30 = _mm512_fmadd_ps(_mm512_loadu_ps(h3 + i), v0, a30);
      a31 = _mm512_fmadd_ps(_mm512_loadu_ps(h3 + i + 16), v1, a31);
    }
    for (; i + 16 <= dims; i += 16) {
      const __m512 v0 = _mm512_loadu_ps(cls + i);
      a00 = _mm512_fmadd_ps(_mm512_loadu_ps(h0 + i), v0, a00);
      a10 = _mm512_fmadd_ps(_mm512_loadu_ps(h1 + i), v0, a10);
      a20 = _mm512_fmadd_ps(_mm512_loadu_ps(h2 + i), v0, a20);
      a30 = _mm512_fmadd_ps(_mm512_loadu_ps(h3 + i), v0, a30);
    }
    float s0 = _mm512_reduce_add_ps(_mm512_add_ps(a00, a01));
    float s1 = _mm512_reduce_add_ps(_mm512_add_ps(a10, a11));
    float s2 = _mm512_reduce_add_ps(_mm512_add_ps(a20, a21));
    float s3 = _mm512_reduce_add_ps(_mm512_add_ps(a30, a31));
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
// (acc0, acc1) pair in dot_f32_avx512's exact order, so eight independent
// FMA chains run where one dot_f32 call runs two, with the same bits.
CYBERHD_AVX512 inline void sim_tile_f32_class4_avx512(
    const float* h, const float* c0, const float* c1, const float* c2,
    const float* c3, std::size_t dims, float* out4) {
  __m512 a00 = _mm512_setzero_ps(), a01 = _mm512_setzero_ps();
  __m512 a10 = _mm512_setzero_ps(), a11 = _mm512_setzero_ps();
  __m512 a20 = _mm512_setzero_ps(), a21 = _mm512_setzero_ps();
  __m512 a30 = _mm512_setzero_ps(), a31 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= dims; i += 32) {
    const __m512 h0 = _mm512_loadu_ps(h + i);
    const __m512 h1 = _mm512_loadu_ps(h + i + 16);
    a00 = _mm512_fmadd_ps(h0, _mm512_loadu_ps(c0 + i), a00);
    a01 = _mm512_fmadd_ps(h1, _mm512_loadu_ps(c0 + i + 16), a01);
    a10 = _mm512_fmadd_ps(h0, _mm512_loadu_ps(c1 + i), a10);
    a11 = _mm512_fmadd_ps(h1, _mm512_loadu_ps(c1 + i + 16), a11);
    a20 = _mm512_fmadd_ps(h0, _mm512_loadu_ps(c2 + i), a20);
    a21 = _mm512_fmadd_ps(h1, _mm512_loadu_ps(c2 + i + 16), a21);
    a30 = _mm512_fmadd_ps(h0, _mm512_loadu_ps(c3 + i), a30);
    a31 = _mm512_fmadd_ps(h1, _mm512_loadu_ps(c3 + i + 16), a31);
  }
  for (; i + 16 <= dims; i += 16) {
    const __m512 h0 = _mm512_loadu_ps(h + i);
    a00 = _mm512_fmadd_ps(h0, _mm512_loadu_ps(c0 + i), a00);
    a10 = _mm512_fmadd_ps(h0, _mm512_loadu_ps(c1 + i), a10);
    a20 = _mm512_fmadd_ps(h0, _mm512_loadu_ps(c2 + i), a20);
    a30 = _mm512_fmadd_ps(h0, _mm512_loadu_ps(c3 + i), a30);
  }
  float s0 = _mm512_reduce_add_ps(_mm512_add_ps(a00, a01));
  float s1 = _mm512_reduce_add_ps(_mm512_add_ps(a10, a11));
  float s2 = _mm512_reduce_add_ps(_mm512_add_ps(a20, a21));
  float s3 = _mm512_reduce_add_ps(_mm512_add_ps(a30, a31));
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

CYBERHD_AVX512 void similarities_tile_f32_gather_avx512(
    const float* const* h_rows, std::size_t rows, const float* classes,
    std::size_t num_classes, std::size_t dims, float* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    sim_tile_f32_block4_avx512(h_rows[r + 0], h_rows[r + 1], h_rows[r + 2],
                               h_rows[r + 3], classes, num_classes, dims,
                               out + r * num_classes);
  }
  for (; r < rows; ++r) {
    float* row_out = out + r * num_classes;
    std::size_t c = 0;
    for (; c + 4 <= num_classes; c += 4) {
      const float* cls = classes + c * dims;
      sim_tile_f32_class4_avx512(h_rows[r], cls, cls + dims, cls + 2 * dims,
                                 cls + 3 * dims, dims, row_out + c);
    }
    for (; c < num_classes; ++c) {
      row_out[c] = dot_f32_avx512(h_rows[r], classes + c * dims, dims);
    }
  }
}

CYBERHD_AVX512_POPCNT std::size_t xor_popcount_words_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_xor_si512(
        _mm512_loadu_si512(reinterpret_cast<const void*>(a + i)),
        _mm512_loadu_si512(reinterpret_cast<const void*>(b + i)));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  std::size_t count =
      static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    count += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return count;
}

CYBERHD_AVX512_POPCNT void hamming_tile_1b_gather_avx512(
    const std::uint64_t* const* h_rows, std::size_t rows,
    const std::uint64_t* classes, std::size_t num_classes, std::size_t words,
    std::uint32_t* out) {
  // Per-pair vpopcntq word scans — same structure as the avx2 tile, with
  // the hardware 64-bit popcount doing the counting.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      out[r * num_classes + c] = static_cast<std::uint32_t>(
          xor_popcount_words_avx512(h_rows[r], classes + c * words, words));
    }
  }
}

/// acc64 += the 16 i32 lanes of acc32, widened.
CYBERHD_AVX512 inline __m512i widen_add_i32_to_i64_512(__m512i acc64,
                                                       __m512i acc32) {
  const __m512i lo = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc32));
  const __m512i hi =
      _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc32, 1));
  return _mm512_add_epi64(acc64, _mm512_add_epi64(lo, hi));
}

// VNNI int8 similarity tile. vpdpbusd multiplies UNSIGNED bytes by signed
// bytes, so the signed query rows go in biased: with a' = a XOR 0x80
// (i.e. a + 128 read as u8),
//   sum_i a'_i * b_i  =  dot(a, b) + 128 * sum_i b_i
// and the true dot is recovered by subtracting 128 * sum(b), where sum(b)
// is accumulated by the same instruction against an all-ones vector —
// once per class, shared by the 4 register-blocked query rows. All sums
// are exact integers, so the recovered dot is bit-identical to the scalar
// reference. Overflow cap: each 64-element vpdpbusd round moves an i32
// lane by at most 4 * 255 * 128, so 8192 rounds (512k dims) stay inside
// i32 before the i64 widening.
// Per-row-block VNNI body over an explicit 4-entry row-pointer block
// (tail blocks alias hr[0]; lanes beyond `block` compute values that go
// unused).
CYBERHD_AVX512_VNNI inline void sim_tile_i8_vnni_block4(
    const std::int8_t* const hr[4], std::size_t block,
    const std::int8_t* classes, std::size_t num_classes, std::size_t dims,
    std::int64_t* out_block) {
  const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
  const __m512i ones = _mm512_set1_epi8(1);
  const std::size_t vec_dims = dims & ~std::size_t{63};
  {
    for (std::size_t c = 0; c < num_classes; ++c) {
      const std::int8_t* cls = classes + c * dims;
      __m512i a0 = _mm512_setzero_si512(), a1 = _mm512_setzero_si512();
      __m512i a2 = _mm512_setzero_si512(), a3 = _mm512_setzero_si512();
      __m512i asum = _mm512_setzero_si512();
      std::size_t i = 0;
      while (vec_dims - i >= 64) {
        const std::size_t rounds =
            std::min<std::size_t>((vec_dims - i) / 64, 8192);
        __m512i b0 = _mm512_setzero_si512(), b1 = _mm512_setzero_si512();
        __m512i b2 = _mm512_setzero_si512(), b3 = _mm512_setzero_si512();
        __m512i bsum = _mm512_setzero_si512();
        for (std::size_t k = 0; k < rounds; ++k, i += 64) {
          const __m512i cv = _mm512_loadu_si512(
              reinterpret_cast<const void*>(cls + i));
          bsum = _mm512_dpbusd_epi32(bsum, ones, cv);
          b0 = _mm512_dpbusd_epi32(
              b0,
              _mm512_xor_si512(_mm512_loadu_si512(reinterpret_cast<const void*>(
                                   hr[0] + i)),
                               bias),
              cv);
          b1 = _mm512_dpbusd_epi32(
              b1,
              _mm512_xor_si512(_mm512_loadu_si512(reinterpret_cast<const void*>(
                                   hr[1] + i)),
                               bias),
              cv);
          b2 = _mm512_dpbusd_epi32(
              b2,
              _mm512_xor_si512(_mm512_loadu_si512(reinterpret_cast<const void*>(
                                   hr[2] + i)),
                               bias),
              cv);
          b3 = _mm512_dpbusd_epi32(
              b3,
              _mm512_xor_si512(_mm512_loadu_si512(reinterpret_cast<const void*>(
                                   hr[3] + i)),
                               bias),
              cv);
        }
        a0 = widen_add_i32_to_i64_512(a0, b0);
        a1 = widen_add_i32_to_i64_512(a1, b1);
        a2 = widen_add_i32_to_i64_512(a2, b2);
        a3 = widen_add_i32_to_i64_512(a3, b3);
        asum = widen_add_i32_to_i64_512(asum, bsum);
      }
      const std::int64_t comp = 128 * _mm512_reduce_add_epi64(asum);
      std::int64_t s[4] = {_mm512_reduce_add_epi64(a0) - comp,
                           _mm512_reduce_add_epi64(a1) - comp,
                           _mm512_reduce_add_epi64(a2) - comp,
                           _mm512_reduce_add_epi64(a3) - comp};
      for (; i < dims; ++i) {
        const std::int64_t v = cls[i];
        s[0] += static_cast<std::int64_t>(hr[0][i]) * v;
        s[1] += static_cast<std::int64_t>(hr[1][i]) * v;
        s[2] += static_cast<std::int64_t>(hr[2][i]) * v;
        s[3] += static_cast<std::int64_t>(hr[3][i]) * v;
      }
      for (std::size_t k = 0; k < block; ++k) {
        out_block[k * num_classes + c] = s[k];
      }
    }
  }
}

CYBERHD_AVX512_VNNI void similarities_tile_i8_gather_avx512vnni(
    const std::int8_t* const* h_rows, std::size_t rows,
    const std::int8_t* classes, std::size_t num_classes, std::size_t dims,
    std::int64_t* out) {
  for (std::size_t r0 = 0; r0 < rows; r0 += 4) {
    const std::size_t block = std::min<std::size_t>(4, rows - r0);
    const std::int8_t* hr[4];
    for (std::size_t k = 0; k < 4; ++k) {
      hr[k] = h_rows[r0 + (k < block ? k : 0)];
    }
    sim_tile_i8_vnni_block4(hr, block, classes, num_classes, dims,
                            out + r0 * num_classes);
  }
}

/// Assembled once at first use: start from the avx2 table (int8 dot and
/// tile), overlay the 32-lane float kernels and the zmm encode tile,
/// and take the VPOPCNTDQ popcount / VNNI int8 tile only when the CPU has
/// them.
const Kernels make_avx512_table() noexcept {
  Kernels k = *avx2_kernels();
  k.name = "avx512";
  // The encode tile uses AVX512F + DQ only (no VL forms), which
  // cpu_supports_avx512() already requires of this table.
  k.cos_rbf_tile_f32 = detail::cos_rbf_tile_f32_avx512;
  k.dot_f32 = dot_f32_avx512;
  k.axpy_f32 = axpy_f32_avx512;
  k.mul_acc_f32 = mul_acc_f32_avx512;
  k.similarities_tile_f32_gather = similarities_tile_f32_gather_avx512;
  if (cpu_supports_avx512_vpopcntdq()) {
    k.xor_popcount_words = xor_popcount_words_avx512;
    k.hamming_tile_1b_gather = hamming_tile_1b_gather_avx512;
  }
  if (cpu_supports_avx512_vnni()) {
    k.similarities_tile_i8_gather = similarities_tile_i8_gather_avx512vnni;
  }
  return k;
}

}  // namespace

const Kernels* avx512_kernels() noexcept {
  static const Kernels table = make_avx512_table();
  return &table;
}

}  // namespace cyberhd::core

#else  // non-x86 or unsupported compiler: no AVX-512 backend in this binary.

namespace cyberhd::core {
const Kernels* avx512_kernels() noexcept { return nullptr; }
}  // namespace cyberhd::core

#endif
