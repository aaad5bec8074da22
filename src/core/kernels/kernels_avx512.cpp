// AVX-512 backend.
//
// Layered over the avx2 table: the 32-lane float kernels (dot, axpy,
// mul_acc, the blocked similarity tile), a 16-lane fused RBF encode tile
// and — when the CPU reports AVX512VPOPCNTDQ / AVX512VNNI — a vpopcntq
// popcount and a vpdpbusd int8 tile replace their avx2 counterparts,
// while the int8 dot is inherited unchanged (every AVX-512 CPU also runs
// AVX2 code).
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
// backend, as elsewhere. The encode tile instead reproduces the avx2
// tile's order (dot_f32_avx2's chunks, hsum8's tree, the written-out tail
// rule) and the avx2 cosine lane for lane, so this backend encodes every
// flow exactly as the avx2 backend does.
#include "core/kernels/kernels.hpp"

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
#include <cmath>

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
    for (std::size_t c = 0; c < num_classes; ++c) {
      out[r * num_classes + c] =
          dot_f32_avx512(h_rows[r], classes + c * dims, dims);
    }
  }
}

// ---- the fused RBF encode tile ---------------------------------------------
//
// Bit-identical per (flow, base) pair to the avx2 table's tile, so the two
// backends encode alike. A block covers 16 pairs in two 8-lane halves:
// either two flows against the same 8 base rows, or (for a leftover flow)
// one flow against 8 + 8 base rows. Per pair:
//  * One zmm accumulator carries dot_f32_avx2's acc0 chain in lanes 0-7
//    and its acc1 chain in lanes 8-15 — a 16-float chunk feeds both
//    chains, and the leftover 8-float chunk (which lands in acc0) is a
//    low-half masked FMA.
//  * acc0 + acc1 of the block's two halves share one zmm; the 8 rows'
//    sums are transposed within each half and reduced vertically with
//    hsum8's add tree ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
//  * The cols mod 8 tail columns are vectorized across the block's rows
//    under rbf_tail_avx2's rule (rounded products first, then fused).
//  * + bias, cos16 and the libm fallback for |angle| >= 8192 run in
//    registers; masked loads and stores never touch a float outside a
//    row or the [0, rows) output span.

// cos8 of the avx2 table on 16 lanes: the same operations in the same
// order, so each lane is bit-identical to the avx2 cosine.
CYBERHD_AVX512 inline __m512 cos16(__m512 x) {
  const __m512 abs_mask =
      _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
  const __m512 four_over_pi = _mm512_set1_ps(1.27323954473516f);
  const __m512 dp1 = _mm512_set1_ps(-0.78515625f);
  const __m512 dp2 = _mm512_set1_ps(-2.4187564849853515625e-4f);
  const __m512 dp3 = _mm512_set1_ps(-3.77489497744594108e-8f);

  x = _mm512_and_ps(x, abs_mask);

  __m512i j = _mm512_cvttps_epi32(_mm512_mul_ps(x, four_over_pi));
  j = _mm512_add_epi32(j, _mm512_set1_epi32(1));
  j = _mm512_and_si512(j, _mm512_set1_epi32(~1));
  const __m512 y = _mm512_cvtepi32_ps(j);
  j = _mm512_sub_epi32(j, _mm512_set1_epi32(2));

  __m512i sign_i = _mm512_andnot_si512(j, _mm512_set1_epi32(4));
  sign_i = _mm512_slli_epi32(sign_i, 29);
  const __mmask16 poly_mask = _mm512_cmpeq_epi32_mask(
      _mm512_and_si512(j, _mm512_set1_epi32(2)), _mm512_setzero_si512());
  const __m512 sign = _mm512_castsi512_ps(sign_i);

  x = _mm512_fmadd_ps(y, dp1, x);
  x = _mm512_fmadd_ps(y, dp2, x);
  x = _mm512_fmadd_ps(y, dp3, x);
  const __m512 z = _mm512_mul_ps(x, x);

  __m512 yc = _mm512_set1_ps(2.443315711809948e-5f);
  yc = _mm512_fmadd_ps(yc, z, _mm512_set1_ps(-1.388731625493765e-3f));
  yc = _mm512_fmadd_ps(yc, z, _mm512_set1_ps(4.166664568298827e-2f));
  yc = _mm512_mul_ps(_mm512_mul_ps(yc, z), z);
  yc = _mm512_fnmadd_ps(_mm512_set1_ps(0.5f), z, yc);
  yc = _mm512_add_ps(yc, _mm512_set1_ps(1.0f));

  __m512 ys = _mm512_set1_ps(-1.9515295891e-4f);
  ys = _mm512_fmadd_ps(ys, z, _mm512_set1_ps(8.3321608736e-3f));
  ys = _mm512_fmadd_ps(ys, z, _mm512_set1_ps(-1.6666654611e-1f));
  ys = _mm512_mul_ps(ys, _mm512_mul_ps(z, x));
  ys = _mm512_add_ps(ys, x);

  return _mm512_xor_ps(_mm512_mask_blend_ps(poly_mask, yc, ys), sign);
}

/// The 8x8 transpose of each 256-bit half: lane k of out[i]'s half is
/// lane i of v[k]'s half (the avx2 tile's unpack/shuffle/permute2f128
/// network, per half).
CYBERHD_AVX512 inline void transpose8_halves(const __m512 v[8],
                                             __m512 out[8]) {
  __m512 t[8], u[8];
  for (int k = 0; k < 8; k += 2) {
    t[k] = _mm512_unpacklo_ps(v[k], v[k + 1]);
    t[k + 1] = _mm512_unpackhi_ps(v[k], v[k + 1]);
  }
  for (int k = 0; k < 8; k += 4) {
    u[k] = _mm512_shuffle_ps(t[k], t[k + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[k + 1] = _mm512_shuffle_ps(t[k], t[k + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[k + 2] = _mm512_shuffle_ps(t[k + 1], t[k + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[k + 3] = _mm512_shuffle_ps(t[k + 1], t[k + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  // permute2f128(a, b, 0x20) / (a, b, 0x31) within each half.
  const __m512i lo = _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 8, 9, 10,
                                       11, 24, 25, 26, 27);
  const __m512i hi = _mm512_setr_epi32(4, 5, 6, 7, 20, 21, 22, 23, 12, 13,
                                       14, 15, 28, 29, 30, 31);
  for (int k = 0; k < 4; ++k) {
    out[k] = _mm512_permutex2var_ps(u[k], lo, u[k + 4]);
    out[k + 4] = _mm512_permutex2var_ps(u[k], hi, u[k + 4]);
  }
}

/// Tail columns [t0, t0 + t) of the block's rows, transposed: lane k of
/// tail[j]'s low half is ra[k][t0 + j], of its high half rb[k][t0 + j].
CYBERHD_AVX512 inline void rbf_tail_columns(const float* const* ra,
                                            const float* const* rb,
                                            std::size_t t0, std::size_t t,
                                            __m512 tail[8]) {
  if (t == 0) return;
  const __mmask16 m = static_cast<__mmask16>((1u << t) - 1);
  __m512 row[8];
  for (int k = 0; k < 8; ++k) {
    row[k] = _mm512_insertf32x8(
        _mm512_maskz_loadu_ps(m, ra[k] + t0),
        _mm512_castps512_ps256(_mm512_maskz_loadu_ps(m, rb[k] + t0)), 1);
  }
  transpose8_halves(row, tail);
}

/// The 16 angles dot + bias of one block: with kTwoFlows, flow xa (low
/// half) and flow xb (high half) against rows ra; otherwise flow xa
/// against rows ra (low half) and rb (high half). `tail` holds
/// rbf_tail_columns(ra, rb) and `bias` the matching biases.
template <bool kTwoFlows>
CYBERHD_AVX512 inline __m512 rbf_angles16(const float* const* ra,
                                          const float* const* rb,
                                          const float* xa, const float* xb,
                                          std::size_t cols,
                                          const __m512 tail[8],
                                          __m512 bias) {
  __m512 acc_a[8], acc_b[8];
  for (int k = 0; k < 8; ++k) {
    acc_a[k] = _mm512_setzero_ps();
    acc_b[k] = _mm512_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 16 <= cols; i += 16) {
    const __m512 va = _mm512_loadu_ps(xa + i);
    if constexpr (kTwoFlows) {
      const __m512 vb = _mm512_loadu_ps(xb + i);
      for (int k = 0; k < 8; ++k) {
        const __m512 b = _mm512_loadu_ps(ra[k] + i);
        acc_a[k] = _mm512_fmadd_ps(b, va, acc_a[k]);
        acc_b[k] = _mm512_fmadd_ps(b, vb, acc_b[k]);
      }
    } else {
      for (int k = 0; k < 8; ++k) {
        acc_a[k] = _mm512_fmadd_ps(_mm512_loadu_ps(ra[k] + i), va, acc_a[k]);
        acc_b[k] = _mm512_fmadd_ps(_mm512_loadu_ps(rb[k] + i), va, acc_b[k]);
      }
    }
  }
  if (i + 8 <= cols) {
    constexpr __mmask16 kLow = 0x00ff;
    const __m512 va = _mm512_maskz_loadu_ps(kLow, xa + i);
    const __m512 vb = kTwoFlows ? _mm512_maskz_loadu_ps(kLow, xb + i) : va;
    for (int k = 0; k < 8; ++k) {
      const __m512 b = _mm512_maskz_loadu_ps(kLow, ra[k] + i);
      acc_a[k] = _mm512_mask3_fmadd_ps(b, va, acc_a[k], kLow);
      acc_b[k] = _mm512_mask3_fmadd_ps(
          kTwoFlows ? b : _mm512_maskz_loadu_ps(kLow, rb[k] + i), vb,
          acc_b[k], kLow);
    }
    i += 8;
  }
  // acc0 + acc1 per pair, half a's in the low 256 bits, half b's above.
  __m512 v[8], s[8];
  for (int k = 0; k < 8; ++k) {
    v[k] = _mm512_add_ps(
        _mm512_shuffle_f32x4(acc_a[k], acc_b[k], _MM_SHUFFLE(1, 0, 1, 0)),
        _mm512_shuffle_f32x4(acc_a[k], acc_b[k], _MM_SHUFFLE(3, 2, 3, 2)));
  }
  transpose8_halves(v, s);
  __m512 sum = _mm512_add_ps(
      _mm512_add_ps(_mm512_add_ps(s[0], s[4]), _mm512_add_ps(s[2], s[6])),
      _mm512_add_ps(_mm512_add_ps(s[1], s[5]), _mm512_add_ps(s[3], s[7])));
  const std::size_t t = cols - i;
  for (std::size_t j = 0; j < t; ++j) {
    const __m512 xj =
        kTwoFlows ? _mm512_insertf32x8(_mm512_set1_ps(xa[i + j]),
                                       _mm256_set1_ps(xb[i + j]), 1)
                  : _mm512_set1_ps(xa[i + j]);
    if (j < t / 4 * 4) {
      // Rounded on its own, as rbf_tail_avx2 (the asm keeps
      // -ffp-contract=fast from fusing it into the add).
      __m512 p = _mm512_mul_ps(tail[j], xj);
      __asm__("" : "+v"(p));
      sum = _mm512_add_ps(sum, p);
    } else {
      sum = _mm512_fmadd_ps(tail[j], xj, sum);
    }
  }
  return _mm512_add_ps(sum, bias);
}

/// cos16 of the angles, with the lanes in `valid` at |angle| >= 8192 —
/// past the polynomial's reduction range — redone by libm.
CYBERHD_AVX512 inline __m512 rbf_cos16(__m512 angle, __mmask16 valid) {
  const __m512 c = cos16(angle);
  const __mmask16 oob = _mm512_mask_cmp_ps_mask(
      valid,
      _mm512_and_ps(angle,
                    _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff))),
      _mm512_set1_ps(8192.0f), _CMP_GE_OQ);
  if (oob == 0) return c;
  alignas(64) float a[16];
  alignas(64) float value[16];
  _mm512_store_ps(a, angle);
  _mm512_store_ps(value, c);
  for (int k = 0; k < 16; ++k) {
    if ((oob >> k) & 1) value[k] = std::cos(a[k]);
  }
  return _mm512_load_ps(value);
}

/// Lane mask of the first n (<= 16) lanes.
inline __mmask16 first_lanes(std::size_t n) {
  return static_cast<__mmask16>((1u << n) - 1);
}

CYBERHD_AVX512 void cos_rbf_tile_f32_avx512(const float* bases,
                                            std::size_t rows,
                                            std::size_t cols, const float* x,
                                            std::size_t num_x,
                                            std::size_t x_stride,
                                            const float* biases, float* h,
                                            std::size_t h_stride) {
  const std::size_t t0 = cols / 8 * 8;
  const std::size_t t = cols - t0;
  const std::size_t pairs_end = num_x / 2 * 2;
  // Flow pairs: each 8-row base block (ragged last block aliased to its
  // last row, masked out) with its tail columns and biases is replayed
  // across every pair.
  for (std::size_t r = 0; pairs_end != 0 && r < rows; r += 8) {
    const std::size_t nb = std::min<std::size_t>(8, rows - r);
    const float* br[8];
    for (std::size_t k = 0; k < 8; ++k) {
      br[k] = bases + (r + std::min(k, nb - 1)) * cols;
    }
    __m512 tail[8] = {};
    rbf_tail_columns(br, br, t0, t, tail);
    const __mmask16 half = first_lanes(nb);
    const __m512 b8 = _mm512_maskz_loadu_ps(half, biases + r);
    const __m512 bias = _mm512_shuffle_f32x4(b8, b8, _MM_SHUFFLE(1, 0, 1, 0));
    const __mmask16 valid = static_cast<__mmask16>(half | (half << 8));
    for (std::size_t f = 0; f < pairs_end; f += 2) {
      const float* xa = x + f * x_stride;
      const __m512 c = rbf_cos16(
          rbf_angles16<true>(br, br, xa, xa + x_stride, cols, tail, bias),
          valid);
      _mm512_mask_storeu_ps(h + f * h_stride + r, half, c);
      _mm512_mask_storeu_ps(
          h + (f + 1) * h_stride + r, half,
          _mm512_shuffle_f32x4(c, c, _MM_SHUFFLE(3, 2, 3, 2)));
    }
  }
  if (pairs_end == num_x) return;
  // The leftover flow: 16 base rows per block, in two halves.
  const float* xf = x + pairs_end * x_stride;
  float* hf = h + pairs_end * h_stride;
  for (std::size_t r = 0; r < rows; r += 16) {
    const std::size_t nb = std::min<std::size_t>(16, rows - r);
    const float* br[16];
    for (std::size_t k = 0; k < 16; ++k) {
      br[k] = bases + (r + std::min(k, nb - 1)) * cols;
    }
    __m512 tail[8] = {};
    rbf_tail_columns(br, br + 8, t0, t, tail);
    const __mmask16 valid = first_lanes(nb);
    const __m512 bias = _mm512_maskz_loadu_ps(valid, biases + r);
    _mm512_mask_storeu_ps(
        hf + r, valid,
        rbf_cos16(rbf_angles16<false>(br, br + 8, xf, xf, cols, tail, bias),
                  valid));
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
/// tile), overlay the 32-lane float kernels and the 16-lane encode tile,
/// and take the VPOPCNTDQ popcount / VNNI int8 tile only when the CPU has
/// them.
const Kernels make_avx512_table() noexcept {
  Kernels k = *avx2_kernels();
  k.name = "avx512";
  // The encode tile uses AVX512F + DQ only (no VL forms), which
  // cpu_supports_avx512() already requires of this table; it reproduces
  // the avx2 tile per pair, so the backend's encodings are unchanged.
  k.cos_rbf_tile_f32 = cos_rbf_tile_f32_avx512;
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
