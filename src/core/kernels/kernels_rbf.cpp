// The fused RBF encode tile, Kernels::cos_rbf_tile_f32, on every backend.
//
// The bases are a feature-major panel: the weight of feature i in output
// dimension r sits at bases[i * ld + r]. Every output is one chain,
//
//   acc = +0;  acc = fma(bases[i * ld + r], x[i], acc) for i = 0 .. F - 1;
//   h = cos(acc + bias[r]),
//
// where cos is the Cephes cosf reduction and polynomials (cos_cephes below)
// for |angle| < 8192, and libm's std::cos for every other angle: the 3-part
// pi/4 reduction loses the argument past that range, and NaN and +-Inf
// land there too. The SIMD bodies put output dimensions in lanes, so each
// lane runs exactly this chain: there is no horizontal sum and no tail in
// F, and a value never depends on its neighbours, on the block shape or on
// the backend. Scalar, avx2 and avx512 therefore encode bit for bit alike
// (NaN payloads aside), and each entry of a many-flow, many-dimension call
// equals a one-flow, one-dimension call on the same pair.
//
// Every fused step is an explicit FMA (std::fma or an fmadd intrinsic), and
// this file is compiled with -ffp-contract=off, so the compiler fuses
// nothing else: the rounding of each step is fixed by the source, not by
// the optimizer or the -march a build selects.
//
// Register blocking (the rank-1 update of Goto & van de Geijn, "Anatomy of
// High-Performance Matrix Multiplication", ACM TOMS 2008): a block is NF
// flows x NV vectors of output dimensions. Per feature it loads NV vectors
// of the panel row, broadcasts NF flow values and issues NF * NV
// independent FMAs. The avx512 body runs 4 flows x 4 zmm (a 64-dimension
// strip, 20 KiB of panel at F = 78) or 1 flow x 8 zmm for a one-flow call;
// the avx2 body 4 flows x 2 ymm, or 1 flow x 8 ymm. Strips are the outer
// loop, so a strip of the panel stays cache-resident while the call's flows
// stream past it. A ragged last strip runs masked on the fewest vectors
// that cover it: no load or store touches a float past `dims`, so nothing
// past the panel's last element is read.
#include "core/kernels/kernels_rbf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// GCC 12's AVX-512 headers build some intrinsics on _mm512_undefined_*(),
// which -Wuninitialized flags under -Werror (GCC PR105593), as in
// kernels_avx512.cpp; the warnings point inside avx512fintrin.h.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#endif

namespace cyberhd::core::detail {
namespace {

// Cephes cosf: 4/pi, pi/4 in three parts, and the cos and sin polynomials
// on [-pi/4, pi/4].
constexpr float kFourOverPi = 1.27323954473516f;
constexpr float kDp1 = -0.78515625f;
constexpr float kDp2 = -2.4187564849853515625e-4f;
constexpr float kDp3 = -3.77489497744594108e-8f;
constexpr float kCos0 = 2.443315711809948e-5f;
constexpr float kCos1 = -1.388731625493765e-3f;
constexpr float kCos2 = 4.166664568298827e-2f;
constexpr float kSin0 = -1.9515295891e-4f;
constexpr float kSin1 = 8.3321608736e-3f;
constexpr float kSin2 = -1.6666654611e-1f;
/// Angles with !(|angle| < kRange) take std::cos.
constexpr float kRange = 8192.0f;

/// Cephes cosine of an angle with |angle| < kRange: the even octant index
/// j of |angle| / (pi/4), the extended-precision reduction |angle| - j pi/4
/// in three FMAs, then the octant's degree-4 polynomial and sign. The
/// vector bodies run these operations lane for lane.
float cos_cephes(float angle) {
  float x = std::fabs(angle);
  std::int32_t j = static_cast<std::int32_t>(x * kFourOverPi);
  j = (j + 1) & ~1;
  const float y = static_cast<float>(j);
  j -= 2;
  const std::uint32_t sign = static_cast<std::uint32_t>(~j & 4) << 29;
  const bool use_sin = (j & 2) == 0;
  x = std::fma(y, kDp1, x);
  x = std::fma(y, kDp2, x);
  x = std::fma(y, kDp3, x);
  const float z = x * x;
  float yc = std::fma(kCos0, z, kCos1);
  yc = std::fma(yc, z, kCos2);
  yc = (yc * z) * z;
  yc = std::fma(-0.5f, z, yc);
  yc = yc + 1.0f;
  float ys = std::fma(kSin0, z, kSin1);
  ys = std::fma(ys, z, kSin2);
  ys = std::fma(ys, z * x, x);
  return std::bit_cast<float>(
      std::bit_cast<std::uint32_t>(use_sin ? ys : yc) ^ sign);
}

float cos_rbf(float angle) {
  return std::fabs(angle) < kRange ? cos_cephes(angle) : std::cos(angle);
}

}  // namespace

// The reference: one flow at a time, 16 output dimensions per pass over the
// panel rows (a loop the compiler may vectorize; each lane's chain stays
// the same).
void cos_rbf_tile_f32_scalar(const float* bases, std::size_t ld,
                             std::size_t dims, std::size_t features,
                             const float* x, std::size_t num_x,
                             std::size_t x_stride, const float* biases,
                             float* h, std::size_t h_stride) {
  constexpr std::size_t kStrip = 16;
  for (std::size_t f = 0; f < num_x; ++f) {
    const float* xf = x + f * x_stride;
    float* hf = h + f * h_stride;
    for (std::size_t r = 0; r < dims; r += kStrip) {
      const std::size_t n = std::min(kStrip, dims - r);
      float acc[kStrip] = {};
      for (std::size_t i = 0; i < features; ++i) {
        const float* row = bases + i * ld + r;
        for (std::size_t k = 0; k < n; ++k) {
          acc[k] = std::fma(row[k], xf[i], acc[k]);
        }
      }
      for (std::size_t k = 0; k < n; ++k) {
        hf[r + k] = cos_rbf(acc[k] + biases[r + k]);
      }
    }
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

namespace {

/// One cos_rbf_tile_f32 call's operands.
struct RbfCall {
  const float* bases;
  std::size_t ld;
  std::size_t dims;
  std::size_t features;
  const float* x;
  std::size_t num_x;
  std::size_t x_stride;
  const float* biases;
  float* h;
  std::size_t h_stride;
};

// Register allocation of the block bodies. The chain loop's accumulators
// are indexed by f and v, so those loops are unrolled completely, which
// keeps every accumulator in a register. The cosine epilogue stages the
// angles through memory and stays a rolled loop: unrolled, its many live
// values made g++ spill accumulators inside the chain loop instead.
#define CYBERHD_UNROLL _Pragma("GCC unroll 16")
#define CYBERHD_ROLLED _Pragma("GCC unroll 1")

// ---- avx2 --------------------------------------------------------------------

#define CYBERHD_AVX2 __attribute__((target("avx2,fma")))

CYBERHD_AVX2 inline __m256 abs8(__m256 v) {
  return _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
}

/// cos_cephes on 8 lanes.
CYBERHD_AVX2 inline __m256 cos_cephes8(__m256 angle) {
  __m256 x = abs8(angle);
  __m256i j =
      _mm256_cvttps_epi32(_mm256_mul_ps(x, _mm256_set1_ps(kFourOverPi)));
  j = _mm256_add_epi32(j, _mm256_set1_epi32(1));
  j = _mm256_and_si256(j, _mm256_set1_epi32(~1));
  const __m256 y = _mm256_cvtepi32_ps(j);
  j = _mm256_sub_epi32(j, _mm256_set1_epi32(2));
  const __m256i sign =
      _mm256_slli_epi32(_mm256_andnot_si256(j, _mm256_set1_epi32(4)), 29);
  const __m256 use_sin = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
      _mm256_and_si256(j, _mm256_set1_epi32(2)), _mm256_setzero_si256()));
  x = _mm256_fmadd_ps(y, _mm256_set1_ps(kDp1), x);
  x = _mm256_fmadd_ps(y, _mm256_set1_ps(kDp2), x);
  x = _mm256_fmadd_ps(y, _mm256_set1_ps(kDp3), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 yc = _mm256_fmadd_ps(_mm256_set1_ps(kCos0), z, _mm256_set1_ps(kCos1));
  yc = _mm256_fmadd_ps(yc, z, _mm256_set1_ps(kCos2));
  yc = _mm256_mul_ps(_mm256_mul_ps(yc, z), z);
  yc = _mm256_fnmadd_ps(_mm256_set1_ps(0.5f), z, yc);
  yc = _mm256_add_ps(yc, _mm256_set1_ps(1.0f));
  __m256 ys = _mm256_fmadd_ps(_mm256_set1_ps(kSin0), z, _mm256_set1_ps(kSin1));
  ys = _mm256_fmadd_ps(ys, z, _mm256_set1_ps(kSin2));
  ys = _mm256_fmadd_ps(ys, _mm256_mul_ps(z, x), x);
  return _mm256_xor_ps(_mm256_blendv_ps(yc, ys, use_sin),
                       _mm256_castsi256_ps(sign));
}

/// h[k] = cos_rbf(angle[k]) for the lanes of `keep` (all 8 unless kRagged).
template <bool kRagged>
CYBERHD_AVX2 inline void store_cos8(float* h, __m256 angle, __m256i keep) {
  __m256 c = cos_cephes8(angle);
  int off = _mm256_movemask_ps(
      _mm256_cmp_ps(abs8(angle), _mm256_set1_ps(kRange), _CMP_NLT_UQ));
  if (kRagged) off &= _mm256_movemask_ps(_mm256_castsi256_ps(keep));
  if (off != 0) [[unlikely]] {
    alignas(32) float a[8];
    alignas(32) float v[8];
    _mm256_store_ps(a, angle);
    _mm256_store_ps(v, c);
    for (int k = 0; k < 8; ++k) {
      if ((off >> k) & 1) v[k] = std::cos(a[k]);
    }
    c = _mm256_load_ps(v);
  }
  if (kRagged) {
    _mm256_maskstore_ps(h, keep, c);
  } else {
    _mm256_storeu_ps(h, c);
  }
}

struct Avx2 {
  static constexpr std::size_t kLanes = 8;

  /// Flows [f, f + NF) x NV ymm of output dimensions from r; with kRagged
  /// only the first n of them are loaded and stored.
  template <int NF, int NV, bool kRagged>
  CYBERHD_AVX2 static void block(const RbfCall& c, std::size_t f,
                                 std::size_t r, std::size_t n) {
    const float* bases = c.bases + r;
    const std::size_t ld = c.ld;
    const float* x = c.x + f * c.x_stride;
    const std::size_t x_stride = c.x_stride;
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i keep[NV];
    CYBERHD_UNROLL
    for (int v = 0; v < NV; ++v) {
      keep[v] = kRagged ? _mm256_cmpgt_epi32(
                              _mm256_set1_epi32(static_cast<int>(n) - 8 * v),
                              lane)
                        : _mm256_set1_epi32(-1);
    }
    __m256 acc[NF][NV];
    CYBERHD_UNROLL
    for (int k = 0; k < NF; ++k) {
      CYBERHD_UNROLL
      for (int v = 0; v < NV; ++v) acc[k][v] = _mm256_setzero_ps();
    }
    for (std::size_t i = 0; i < c.features; ++i) {
      const float* row = bases + i * ld;
      __m256 b[NV];
      CYBERHD_UNROLL
      for (int v = 0; v < NV; ++v) {
        b[v] = kRagged ? _mm256_maskload_ps(row + 8 * v, keep[v])
                       : _mm256_loadu_ps(row + 8 * v);
      }
      CYBERHD_UNROLL
      for (int k = 0; k < NF; ++k) {
        const __m256 xi = _mm256_set1_ps(x[k * x_stride + i]);
        CYBERHD_UNROLL
        for (int v = 0; v < NV; ++v) {
          acc[k][v] = _mm256_fmadd_ps(b[v], xi, acc[k][v]);
        }
      }
    }
    alignas(32) float angle[NF * NV][8];
    CYBERHD_UNROLL
    for (int v = 0; v < NV; ++v) {
      const __m256 bias =
          kRagged ? _mm256_maskload_ps(c.biases + r + 8 * v, keep[v])
                  : _mm256_loadu_ps(c.biases + r + 8 * v);
      CYBERHD_UNROLL
      for (int k = 0; k < NF; ++k) {
        _mm256_store_ps(angle[k * NV + v], _mm256_add_ps(acc[k][v], bias));
      }
    }
    float* h = c.h + f * c.h_stride + r;
    CYBERHD_ROLLED
    for (int k = 0; k < NF * NV; ++k) {
      store_cos8<kRagged>(h + (k / NV) * c.h_stride + 8 * (k % NV),
                          _mm256_load_ps(angle[k]), keep[k % NV]);
    }
  }
};

// ---- avx512 ------------------------------------------------------------------

#define CYBERHD_AVX512 __attribute__((target("avx512f,avx512dq,avx2,fma")))

/// cos_cephes on 16 lanes.
CYBERHD_AVX512 inline __m512 cos_cephes16(__m512 angle) {
  __m512 x = _mm512_abs_ps(angle);
  __m512i j =
      _mm512_cvttps_epi32(_mm512_mul_ps(x, _mm512_set1_ps(kFourOverPi)));
  j = _mm512_add_epi32(j, _mm512_set1_epi32(1));
  j = _mm512_and_si512(j, _mm512_set1_epi32(~1));
  const __m512 y = _mm512_cvtepi32_ps(j);
  j = _mm512_sub_epi32(j, _mm512_set1_epi32(2));
  const __m512i sign =
      _mm512_slli_epi32(_mm512_andnot_si512(j, _mm512_set1_epi32(4)), 29);
  const __mmask16 use_sin = _mm512_testn_epi32_mask(j, _mm512_set1_epi32(2));
  x = _mm512_fmadd_ps(y, _mm512_set1_ps(kDp1), x);
  x = _mm512_fmadd_ps(y, _mm512_set1_ps(kDp2), x);
  x = _mm512_fmadd_ps(y, _mm512_set1_ps(kDp3), x);
  const __m512 z = _mm512_mul_ps(x, x);
  __m512 yc = _mm512_fmadd_ps(_mm512_set1_ps(kCos0), z, _mm512_set1_ps(kCos1));
  yc = _mm512_fmadd_ps(yc, z, _mm512_set1_ps(kCos2));
  yc = _mm512_mul_ps(_mm512_mul_ps(yc, z), z);
  yc = _mm512_fnmadd_ps(_mm512_set1_ps(0.5f), z, yc);
  yc = _mm512_add_ps(yc, _mm512_set1_ps(1.0f));
  __m512 ys = _mm512_fmadd_ps(_mm512_set1_ps(kSin0), z, _mm512_set1_ps(kSin1));
  ys = _mm512_fmadd_ps(ys, z, _mm512_set1_ps(kSin2));
  ys = _mm512_fmadd_ps(ys, _mm512_mul_ps(z, x), x);
  return _mm512_castsi512_ps(_mm512_xor_si512(
      _mm512_castps_si512(_mm512_mask_blend_ps(use_sin, yc, ys)), sign));
}

/// h[k] = cos_rbf(angle[k]) for the lanes of `keep`.
CYBERHD_AVX512 inline void store_cos16(float* h, __m512 angle,
                                       __mmask16 keep) {
  __m512 c = cos_cephes16(angle);
  const __mmask16 off = _mm512_mask_cmp_ps_mask(
      keep, _mm512_abs_ps(angle), _mm512_set1_ps(kRange), _CMP_NLT_UQ);
  if (off != 0) [[unlikely]] {
    alignas(64) float a[16];
    alignas(64) float v[16];
    _mm512_store_ps(a, angle);
    _mm512_store_ps(v, c);
    for (int k = 0; k < 16; ++k) {
      if ((off >> k) & 1) v[k] = std::cos(a[k]);
    }
    c = _mm512_load_ps(v);
  }
  _mm512_mask_storeu_ps(h, keep, c);
}

/// The first n of lanes [lo, lo + 16) as a mask.
inline __mmask16 lanes_below(std::size_t n, std::size_t lo) {
  const std::size_t k = n > lo ? std::min<std::size_t>(16, n - lo) : 0;
  return static_cast<__mmask16>((1u << k) - 1);
}

struct Avx512 {
  static constexpr std::size_t kLanes = 16;

  /// Avx2::block on zmm vectors.
  template <int NF, int NV, bool kRagged>
  CYBERHD_AVX512 static void block(const RbfCall& c, std::size_t f,
                                   std::size_t r, std::size_t n) {
    const float* bases = c.bases + r;
    const std::size_t ld = c.ld;
    const float* x = c.x + f * c.x_stride;
    const std::size_t x_stride = c.x_stride;
    __mmask16 keep[NV];
    CYBERHD_UNROLL
    for (int v = 0; v < NV; ++v) {
      keep[v] = kRagged ? lanes_below(n, 16 * static_cast<std::size_t>(v))
                        : static_cast<__mmask16>(0xffff);
    }
    __m512 acc[NF][NV];
    CYBERHD_UNROLL
    for (int k = 0; k < NF; ++k) {
      CYBERHD_UNROLL
      for (int v = 0; v < NV; ++v) acc[k][v] = _mm512_setzero_ps();
    }
    for (std::size_t i = 0; i < c.features; ++i) {
      const float* row = bases + i * ld;
      __m512 b[NV];
      CYBERHD_UNROLL
      for (int v = 0; v < NV; ++v) {
        b[v] = kRagged ? _mm512_maskz_loadu_ps(keep[v], row + 16 * v)
                       : _mm512_loadu_ps(row + 16 * v);
      }
      CYBERHD_UNROLL
      for (int k = 0; k < NF; ++k) {
        const __m512 xi = _mm512_set1_ps(x[k * x_stride + i]);
        CYBERHD_UNROLL
        for (int v = 0; v < NV; ++v) {
          acc[k][v] = _mm512_fmadd_ps(b[v], xi, acc[k][v]);
        }
      }
    }
    alignas(64) float angle[NF * NV][16];
    CYBERHD_UNROLL
    for (int v = 0; v < NV; ++v) {
      const __m512 bias =
          _mm512_maskz_loadu_ps(keep[v], c.biases + r + 16 * v);
      CYBERHD_UNROLL
      for (int k = 0; k < NF; ++k) {
        _mm512_store_ps(angle[k * NV + v], _mm512_add_ps(acc[k][v], bias));
      }
    }
    float* h = c.h + f * c.h_stride + r;
    CYBERHD_ROLLED
    for (int k = 0; k < NF * NV; ++k) {
      store_cos16(h + (k / NV) * c.h_stride + 16 * (k % NV),
                  _mm512_load_ps(angle[k]), keep[k % NV]);
    }
  }
};

// ---- the blocking, shared by both bodies -------------------------------------

/// Every flow of the call against the strip of n output dimensions from r,
/// NF flows per block (a 4-flow call's leftover flows in one smaller
/// block).
template <class Body, int NF, int NV, bool kRagged>
void rbf_strip(const RbfCall& c, std::size_t r, std::size_t n) {
  std::size_t f = 0;
  for (; f + NF <= c.num_x; f += NF) {
    Body::template block<NF, NV, kRagged>(c, f, r, n);
  }
  if constexpr (NF == 4) {
    switch (c.num_x - f) {
      case 3:
        Body::template block<3, NV, kRagged>(c, f, r, n);
        break;
      case 2:
        Body::template block<2, NV, kRagged>(c, f, r, n);
        break;
      case 1:
        Body::template block<1, NV, kRagged>(c, f, r, n);
        break;
      default:
        break;
    }
  }
}

/// The ragged last strip of n < kLanes * NV dimensions, on the fewest
/// vectors that cover it.
template <class Body, int NF, int NV>
void rbf_ragged(const RbfCall& c, std::size_t r, std::size_t n) {
  if constexpr (NV > 1) {
    if (n <= Body::kLanes * (NV - 1)) {
      rbf_ragged<Body, NF, NV - 1>(c, r, n);
      return;
    }
  }
  rbf_strip<Body, NF, NV, true>(c, r, n);
}

/// The call in strips of NV vectors of output dimensions, NF flows per
/// block.
template <class Body, int NF, int NV>
void rbf_tile(const RbfCall& c) {
  constexpr std::size_t kStrip = Body::kLanes * NV;
  std::size_t r = 0;
  for (; r + kStrip <= c.dims; r += kStrip) {
    rbf_strip<Body, NF, NV, false>(c, r, kStrip);
  }
  if (r < c.dims) rbf_ragged<Body, NF, NV>(c, r, c.dims - r);
}

}  // namespace

void cos_rbf_tile_f32_avx2(const float* bases, std::size_t ld,
                           std::size_t dims, std::size_t features,
                           const float* x, std::size_t num_x,
                           std::size_t x_stride, const float* biases,
                           float* h, std::size_t h_stride) {
  const RbfCall c{bases, ld, dims, features, x, num_x, x_stride, biases, h,
                  h_stride};
  (num_x == 1 ? rbf_tile<Avx2, 1, 8> : rbf_tile<Avx2, 4, 2>)(c);
}

void cos_rbf_tile_f32_avx512(const float* bases, std::size_t ld,
                             std::size_t dims, std::size_t features,
                             const float* x, std::size_t num_x,
                             std::size_t x_stride, const float* biases,
                             float* h, std::size_t h_stride) {
  const RbfCall c{bases, ld, dims, features, x, num_x, x_stride, biases, h,
                  h_stride};
  (num_x == 1 ? rbf_tile<Avx512, 1, 8> : rbf_tile<Avx512, 4, 4>)(c);
}

#endif

}  // namespace cyberhd::core::detail
