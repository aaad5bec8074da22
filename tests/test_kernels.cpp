// Tests for the runtime-dispatched kernel layer (core/kernels/):
//  * scalar and AVX2 backends agree bit-exactly on the integer kernels
//    (XOR/popcount, int8 dot) and to rounding tolerance on the float
//    kernels, on randomized inputs including non-multiple-of-64/8 tails;
//  * the float similarity tile reproduces dot_f32 per pair bit-exactly per
//    backend;
//  * the RBF encode tile is exact across backends: every backend matches
//    the scalar reference bit for bit, each entry equals a one-flow,
//    one-dimension call (what keeps encode() and encode_dims() coherent),
//    and no backend's encode tile reads past its inputs;
//  * predict/scores and predict_batch/scores_batch reproduce written-out
//    references (tests/scoring_reference.hpp) bit-exactly for CyberHD and
//    its quantized snapshots;
//  * concurrent const predict() calls are safe and deterministic (the
//    scratch-buffer race regression test).
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <thread>
#include <vector>

#include "core/bitpack.hpp"
#include "core/kernels/kernels.hpp"
#include "core/matrix.hpp"
#include "core/quantize.hpp"
#include "core/rng.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/quantized.hpp"
#include "scoring_reference.hpp"

namespace cyberhd {
namespace {

const std::size_t kTailSizes[] = {0,  1,  3,   7,   8,   15,  16, 17,
                                  63, 64, 65,  100, 118, 127, 128, 130,
                                  512, 1000, 4099};

std::vector<float> gaussian_vec(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<float> v(n);
  core::fill_gaussian(rng, v.data(), n, 0.0f, 1.0f);
  return v;
}

/// The AVX2 backend when this host can run it, else nullptr (tests that
/// need it GTEST_SKIP).
const core::Kernels* runnable_avx2() {
  return core::cpu_supports_avx2() ? core::avx2_kernels() : nullptr;
}

/// The AVX-512 backend when this host can run it, else nullptr.
const core::Kernels* runnable_avx512() {
  return core::cpu_supports_avx512() ? core::avx512_kernels() : nullptr;
}

TEST(KernelDispatch, ActiveBackendIsAlwaysValid) {
  const core::Kernels& k = core::active_kernels();
  ASSERT_NE(k.name, nullptr);
  ASSERT_NE(k.dot_f32, nullptr);
  ASSERT_NE(k.axpy_f32, nullptr);
  ASSERT_NE(k.mul_acc_f32, nullptr);
  ASSERT_NE(k.cos_rbf_tile_f32, nullptr);
  ASSERT_NE(k.xor_popcount_words, nullptr);
  ASSERT_NE(k.quantized_dot_i8, nullptr);
  ASSERT_NE(k.similarities_tile_f32_gather, nullptr);
  ASSERT_NE(k.similarities_tile_i8_gather, nullptr);
  ASSERT_NE(k.hamming_tile_1b_gather, nullptr);
}

TEST(KernelParity, DotF32) {
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  for (std::size_t n : kTailSizes) {
    const auto a = gaussian_vec(n, 100 + n);
    const auto b = gaussian_vec(n, 200 + n);
    const float d_scalar = scalar.dot_f32(a.data(), b.data(), n);
    const float d_avx2 = avx2->dot_f32(a.data(), b.data(), n);
    // Backends reassociate the sum; bound the difference by a few ulps of
    // the accumulated magnitude sum_i |a_i b_i|.
    double mag = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mag += std::abs(static_cast<double>(a[i]) * b[i]);
    }
    EXPECT_NEAR(d_scalar, d_avx2, 1e-6 * mag + 1e-6) << "n=" << n;
  }
}

TEST(KernelParity, AxpyAndMulAcc) {
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  for (std::size_t n : kTailSizes) {
    const auto a = gaussian_vec(n, 300 + n);
    const auto b = gaussian_vec(n, 400 + n);
    auto y1 = gaussian_vec(n, 500 + n);
    auto y2 = y1;
    scalar.axpy_f32(0.37f, a.data(), y1.data(), n);
    avx2->axpy_f32(0.37f, a.data(), y2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // Elementwise: only mul+add vs fused-multiply-add rounding differs.
      EXPECT_NEAR(y1[i], y2[i], 1e-6f * (1.0f + std::abs(y1[i])))
          << "axpy n=" << n << " i=" << i;
    }
    auto acc1 = gaussian_vec(n, 600 + n);
    auto acc2 = acc1;
    scalar.mul_acc_f32(a.data(), b.data(), acc1.data(), n);
    avx2->mul_acc_f32(a.data(), b.data(), acc2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(acc1[i], acc2[i], 1e-6f * (1.0f + std::abs(acc1[i])))
          << "mul_acc n=" << n << " i=" << i;
    }
  }
}

TEST(KernelParity, XorPopcountWordsBitExact) {
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  core::Rng rng(7);
  for (std::size_t words :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{31}, std::size_t{32}, std::size_t{33}, std::size_t{64},
        std::size_t{257}}) {
    std::vector<std::uint64_t> a(words), b(words);
    for (auto& w : a) w = rng.next_u64();
    for (auto& w : b) w = rng.next_u64();
    EXPECT_EQ(scalar.xor_popcount_words(a.data(), b.data(), words),
              avx2->xor_popcount_words(a.data(), b.data(), words))
        << "words=" << words;
  }
}

TEST(KernelParity, HammingOnPackedTailDims) {
  // PackedBits at dimensionalities straddling the 64-bit word boundary:
  // hamming() (whatever backend is active) must match a bit-by-bit count.
  for (std::size_t dims : {1u, 63u, 64u, 65u, 130u, 1000u, 4099u}) {
    const core::PackedBits a = core::pack_signs(gaussian_vec(dims, 900 + dims));
    const core::PackedBits b = core::pack_signs(gaussian_vec(dims, 901 + dims));
    std::size_t expected = 0;
    for (std::size_t i = 0; i < dims; ++i) {
      if (a.get(i) != b.get(i)) ++expected;
    }
    EXPECT_EQ(hamming(a, b), expected) << "dims=" << dims;
  }
}

TEST(KernelParity, QuantizedDotI8BitExact) {
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  core::Rng rng(11);
  for (std::size_t n : kTailSizes) {
    std::vector<std::int8_t> a(n), b(n);
    for (auto& v : a) v = static_cast<std::int8_t>(rng.next_below(256));
    for (auto& v : b) v = static_cast<std::int8_t>(rng.next_below(256));
    EXPECT_EQ(scalar.quantized_dot_i8(a.data(), b.data(), n),
              avx2->quantized_dot_i8(a.data(), b.data(), n))
        << "n=" << n;
  }
  // Saturated worst case across the 32-bit accumulator chunk boundary.
  const std::size_t big = 16 * 32768 + 777;
  std::vector<std::int8_t> a(big, 127), b(big, 127);
  EXPECT_EQ(scalar.quantized_dot_i8(a.data(), b.data(), big),
            avx2->quantized_dot_i8(a.data(), b.data(), big));
  for (auto& v : b) v = -128;
  EXPECT_EQ(scalar.quantized_dot_i8(a.data(), b.data(), big),
            avx2->quantized_dot_i8(a.data(), b.data(), big));
}

// ---- gather (row-pointer) tile kernels -------------------------------------
// Every batch scorer reads its rows through a pointer table. The tables
// below shuffle the row order ((r * 7 + 3) % rows is a permutation for
// every tested row count), so the tests also prove the kernels follow
// arbitrary pointer tables rather than assuming h + r * dims.

/// Every backend this host can run.
std::vector<const core::Kernels*> runnable_backends() {
  std::vector<const core::Kernels*> backends = {&core::scalar_kernels()};
  if (const core::Kernels* avx2 = runnable_avx2()) backends.push_back(avx2);
  if (const core::Kernels* avx512 = runnable_avx512()) {
    backends.push_back(avx512);
  }
  return backends;
}

/// Every backend's float gather tile must reproduce its own dot_f32 per
/// (row, class) pair bit-for-bit — the contract the batch scorer (serving
/// and the minibatch trainer) and the sign-projection encoder build their
/// "batching never changes results" guarantee on. Rows straddle the 4-row
/// register block, classes the four-class block of the leftover rows (with
/// no tail and tails of 1 and 2), dims the SIMD widths and tails.
TEST(KernelGather, SimilaritiesTileF32GatherMatchesPerPairDotBitExactly) {
  for (const core::Kernels* k : runnable_backends()) {
    for (std::size_t rows : {1u, 3u, 4u, 5u, 8u, 17u}) {
      for (std::size_t classes : {1u, 2u, 3u, 4u, 5u, 8u, 10u}) {
        for (std::size_t dims : {1u, 7u, 8u, 16u, 17u, 31u, 65u, 100u, 118u,
                                 130u, 512u}) {
          const auto h = gaussian_vec(rows * dims, 9000 + rows + dims);
          const auto cls =
              gaussian_vec(classes * dims, 9500 + classes + dims);
          std::vector<const float*> tbl(rows);
          for (std::size_t r = 0; r < rows; ++r) {
            tbl[r] = h.data() + ((r * 7 + 3) % rows) * dims;
          }
          std::vector<float> out(rows * classes, -1.0f);
          k->similarities_tile_f32_gather(tbl.data(), rows, cls.data(),
                                          classes, dims, out.data());
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < classes; ++c) {
              EXPECT_EQ(out[r * classes + c],
                        k->dot_f32(tbl[r], cls.data() + c * dims, dims))
                  << k->name << " rows=" << rows << " classes=" << classes
                  << " dims=" << dims << " r=" << r << " c=" << c;
            }
          }
        }
      }
    }
  }
}

/// Every backend's int8 gather tile must reproduce the scalar per-pair
/// quantized_dot_i8 bit-for-bit — all the math is exact integer, so unlike
/// the float tile there is no rounding latitude, on any backend including
/// the VNNI kernel when the avx512 table carries it. Rows straddle the
/// 4-row register block, dims the 16- and 64-lane vector widths and tails,
/// and levels cover the full int8 range.
TEST(KernelGather, SimilaritiesTileI8GatherMatchesPerPairDotExactly) {
  const core::Kernels& scalar = core::scalar_kernels();
  core::Rng rng(21);
  for (const core::Kernels* k : runnable_backends()) {
    for (std::size_t rows : {1u, 3u, 4u, 5u, 8u, 17u}) {
      for (std::size_t classes : {1u, 2u, 3u, 10u}) {
        for (std::size_t dims : {1u, 7u, 15u, 16u, 17u, 63u, 64u, 65u, 100u,
                                 118u, 130u, 512u, 1000u}) {
          std::vector<std::int8_t> h(rows * dims), cls(classes * dims);
          for (auto& v : h) {
            v = static_cast<std::int8_t>(rng.next_below(256));
          }
          for (auto& v : cls) {
            v = static_cast<std::int8_t>(rng.next_below(256));
          }
          std::vector<const std::int8_t*> tbl(rows);
          for (std::size_t r = 0; r < rows; ++r) {
            tbl[r] = h.data() + ((r * 7 + 3) % rows) * dims;
          }
          std::vector<std::int64_t> out(rows * classes, -1);
          k->similarities_tile_i8_gather(tbl.data(), rows, cls.data(),
                                         classes, dims, out.data());
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < classes; ++c) {
              EXPECT_EQ(out[r * classes + c],
                        scalar.quantized_dot_i8(tbl[r], cls.data() + c * dims,
                                                dims))
                  << k->name << " rows=" << rows << " classes=" << classes
                  << " dims=" << dims << " r=" << r << " c=" << c;
            }
          }
        }
      }
    }
  }
}

TEST(KernelTile, SimilaritiesTileI8SaturatedAccumulatorChunks) {
  // Saturated worst case across every backend's 32-bit accumulator chunk
  // boundary (AVX2 caps at 32768 rounds of 16 lanes, VNNI at 8192 rounds
  // of 64 — both 524288 dims), plus a ragged tail. The rows go through an
  // identity pointer table.
  const std::size_t big = 64 * 8192 + 77;
  const std::size_t rows = 5;
  std::vector<std::int8_t> h(rows * big, 127);
  std::vector<std::int8_t> cls(2 * big, 127);
  for (std::size_t i = big; i < 2 * big; ++i) {
    cls[i] = -128;
  }
  std::vector<const std::int8_t*> tbl(rows);
  for (std::size_t r = 0; r < rows; ++r) tbl[r] = h.data() + r * big;
  const core::Kernels& scalar = core::scalar_kernels();
  for (const core::Kernels* k : runnable_backends()) {
    std::vector<std::int64_t> out(rows * 2, 0);
    k->similarities_tile_i8_gather(tbl.data(), rows, cls.data(), 2, big,
                                   out.data());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(out[r * 2 + c],
                  scalar.quantized_dot_i8(tbl[r], cls.data() + c * big, big))
            << k->name << " r=" << r << " c=" << c;
      }
    }
  }
}

/// The 1-bit gather tile against the scalar per-pair XOR-popcount, exact on
/// every backend (the VPOPCNTDQ kernel included where the CPU has it).
TEST(KernelGather, HammingTile1bGatherMatchesPerPairPopcountExactly) {
  const core::Kernels& scalar = core::scalar_kernels();
  core::Rng rng(23);
  for (const core::Kernels* k : runnable_backends()) {
    for (std::size_t rows : {1u, 3u, 4u, 5u, 8u, 17u}) {
      for (std::size_t classes : {1u, 2u, 3u, 10u}) {
        for (std::size_t words : {1u, 2u, 7u, 8u, 9u, 31u, 64u, 257u}) {
          std::vector<std::uint64_t> h(rows * words), cls(classes * words);
          for (auto& w : h) w = rng.next_u64();
          for (auto& w : cls) w = rng.next_u64();
          std::vector<const std::uint64_t*> tbl(rows);
          for (std::size_t r = 0; r < rows; ++r) {
            tbl[r] = h.data() + ((r * 7 + 3) % rows) * words;
          }
          std::vector<std::uint32_t> out(rows * classes, 0xffffffffu);
          k->hamming_tile_1b_gather(tbl.data(), rows, cls.data(), classes,
                                    words, out.data());
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < classes; ++c) {
              EXPECT_EQ(out[r * classes + c],
                        static_cast<std::uint32_t>(scalar.xor_popcount_words(
                            tbl[r], cls.data() + c * words, words)))
                  << k->name << " rows=" << rows << " classes=" << classes
                  << " words=" << words << " r=" << r << " c=" << c;
            }
          }
        }
      }
    }
  }
}

// ---- AVX-512 backend parity ------------------------------------------------

TEST(KernelParity, Avx512FloatKernels) {
  const core::Kernels* avx512 = runnable_avx512();
  if (avx512 == nullptr) GTEST_SKIP() << "AVX-512 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  for (std::size_t n : kTailSizes) {
    const auto a = gaussian_vec(n, 700 + n);
    const auto b = gaussian_vec(n, 800 + n);
    const float d_scalar = scalar.dot_f32(a.data(), b.data(), n);
    const float d_avx512 = avx512->dot_f32(a.data(), b.data(), n);
    double mag = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mag += std::abs(static_cast<double>(a[i]) * b[i]);
    }
    EXPECT_NEAR(d_scalar, d_avx512, 1e-6 * mag + 1e-6) << "dot n=" << n;

    auto y1 = gaussian_vec(n, 810 + n);
    auto y2 = y1;
    scalar.axpy_f32(0.37f, a.data(), y1.data(), n);
    avx512->axpy_f32(0.37f, a.data(), y2.data(), n);
    auto acc1 = gaussian_vec(n, 820 + n);
    auto acc2 = acc1;
    scalar.mul_acc_f32(a.data(), b.data(), acc1.data(), n);
    avx512->mul_acc_f32(a.data(), b.data(), acc2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y1[i], y2[i], 1e-6f * (1.0f + std::abs(y1[i])))
          << "axpy n=" << n << " i=" << i;
      EXPECT_NEAR(acc1[i], acc2[i], 1e-6f * (1.0f + std::abs(acc1[i])))
          << "mul_acc n=" << n << " i=" << i;
    }
  }
}

TEST(KernelParity, Avx512XorPopcountBitExact) {
  const core::Kernels* avx512 = runnable_avx512();
  if (avx512 == nullptr) GTEST_SKIP() << "AVX-512 unavailable on this host";
  // Parity must hold whether the table carries the VPOPCNTDQ kernel or the
  // inherited avx2 nibble-LUT (both are exact integer kernels).
  const core::Kernels& scalar = core::scalar_kernels();
  core::Rng rng(13);
  for (std::size_t words :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{257}}) {
    std::vector<std::uint64_t> a(words), b(words);
    for (auto& w : a) w = rng.next_u64();
    for (auto& w : b) w = rng.next_u64();
    EXPECT_EQ(scalar.xor_popcount_words(a.data(), b.data(), words),
              avx512->xor_popcount_words(a.data(), b.data(), words))
        << "words=" << words;
  }
}

// ---- the fused RBF encode tile ----------------------------------------------
//
// The bases are a feature-major panel, cols (features) rows of `ld` floats:
// the weight of feature i in output dimension r sits at bases[i * ld + r],
// and only r < rows (the output dimensions) is part of the panel.

/// A cols x ld panel of N(0, 1) weights whose pad columns [rows, ld) hold
/// NaN: a kernel that folded a pad float into an output would turn it NaN.
std::vector<float> rbf_panel(std::size_t cols, std::size_t rows,
                             std::size_t ld, std::uint64_t seed) {
  const auto w = gaussian_vec(cols * rows, seed);
  std::vector<float> panel(cols * ld, std::nanf(""));
  for (std::size_t i = 0; i < cols; ++i) {
    std::copy_n(w.begin() + static_cast<std::ptrdiff_t>(i * rows), rows,
                panel.begin() + static_cast<std::ptrdiff_t>(i * ld));
  }
  return panel;
}

/// rows biases spread over a few periods of the cosine.
std::vector<float> rbf_biases(std::size_t rows, std::uint64_t seed) {
  auto biases = gaussian_vec(rows, seed);
  for (auto& v : biases) v *= 3.0f;
  return biases;
}

/// Equal bits, or NaN on both sides (payloads are not pinned).
bool same_encoding(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

TEST(KernelParity, CosRbfRows) {
  // One flow against a block of output dimensions (the per-sample encode's
  // shape): every backend runs the same FMA chain and cosine per output, so
  // the SIMD bodies reproduce the scalar reference bit for bit.
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  for (const core::Kernels* k : runnable_backends()) {
    for (std::size_t rows : {1u, 5u, 8u, 9u, 16u, 17u, 64u}) {
      for (std::size_t cols : {1u, 3u, 24u, 118u}) {
        const auto bases = rbf_panel(cols, rows, rows, 1000 + rows * cols);
        const auto x = gaussian_vec(cols, 2000 + cols);
        const auto biases = rbf_biases(rows, 3000 + rows);
        std::vector<float> want(rows), got(rows);
        scalar.cos_rbf_tile_f32(bases.data(), rows, rows, cols, x.data(), 1,
                                cols, biases.data(), want.data(), rows);
        k->cos_rbf_tile_f32(bases.data(), rows, rows, cols, x.data(), 1,
                            cols, biases.data(), got.data(), rows);
        for (std::size_t r = 0; r < rows; ++r) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(got[r]),
                    std::bit_cast<std::uint32_t>(want[r]))
              << k->name << " rows=" << rows << " cols=" << cols
              << " r=" << r;
        }
      }
    }
  }
}

TEST(KernelParity, CosRbfRowsHugeAngleFallsBackToLibm) {
  // An angle far outside the polynomial's reduction range comes back as
  // libm's cosine of it, on every backend; an in-range one stays within a
  // few float ulps of libm.
  const float base[] = {30000.0f, 1.0f};  // one feature, two dimensions
  const float x[] = {1.0f};
  const float bias[] = {0.25f, 0.0f};
  for (const core::Kernels* k : runnable_backends()) {
    float h[2] = {0.0f, 0.0f};
    k->cos_rbf_tile_f32(base, 2, 2, 1, x, 1, 1, bias, h, 2);
    EXPECT_EQ(h[0], std::cos(30000.25f)) << k->name;
    EXPECT_NEAR(h[1], std::cos(1.0f), 1e-6) << k->name;
  }
}

/// One flow against one dimension (the per-dimension refresh's shape):
/// column r of a panel at leading dimension ld.
float cos_rbf_one(const core::Kernels& k, const float* bases, std::size_t ld,
                  std::size_t r, std::size_t cols, const float* x,
                  float bias) {
  float h = 0.0f;
  k.cos_rbf_tile_f32(bases + r, ld, 1, cols, x, 1, cols, &bias, &h, 1);
  return h;
}

/// Every backend's encode tile must reproduce, per (flow, dimension) entry,
/// a one-flow, one-dimension call bit-for-bit — the contract the batched
/// encode path (cache miss batches, encode_batch, the streamed trainer),
/// the one-flow encode() and the per-dimension encode_dims() build their
/// "tiling never changes encodings" guarantee on. Flow counts straddle the
/// 4-flow register block, dimension counts the 8- and 16-lane vectors and
/// the strips, cols odd and even feature counts (78 is the CIC-IDS-2017
/// width). The panel is read at ld > rows and the output written at
/// h_stride > rows — the interior-panel shape — and the pad floats
/// between rows and h_stride must come back untouched.
TEST(KernelTile, CosRbfTileMatchesPerFlowRowsBitExactly) {
  for (const core::Kernels* k : runnable_backends()) {
    for (std::size_t flows : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 17u}) {
      for (std::size_t rows : {1u, 5u, 8u, 9u, 16u, 17u, 64u, 100u}) {
        for (std::size_t cols : {1u, 3u, 4u, 7u, 24u, 78u, 118u}) {
          const std::size_t ld = rows + 3;
          const auto bases = rbf_panel(cols, rows, ld, 5000 + rows * cols);
          const auto x = gaussian_vec(flows * cols, 6000 + flows * cols);
          const auto biases = rbf_biases(rows, 7000 + rows);
          const std::size_t h_stride = rows + 5;
          std::vector<float> h_tile(flows * h_stride, -2.0f);
          k->cos_rbf_tile_f32(bases.data(), ld, rows, cols, x.data(), flows,
                              cols, biases.data(), h_tile.data(), h_stride);
          for (std::size_t f = 0; f < flows; ++f) {
            for (std::size_t r = 0; r < rows; ++r) {
              EXPECT_EQ(h_tile[f * h_stride + r],
                        cos_rbf_one(*k, bases.data(), ld, r, cols,
                                    x.data() + f * cols, biases[r]))
                  << k->name << " flows=" << flows << " rows=" << rows
                  << " cols=" << cols << " f=" << f << " r=" << r;
            }
            for (std::size_t r = rows; r < h_stride; ++r) {
              EXPECT_EQ(h_tile[f * h_stride + r], -2.0f)
                  << k->name << " pad overwritten at f=" << f << " r=" << r;
            }
          }
        }
      }
    }
  }
}

/// Every backend encodes exactly as the scalar reference does. cols sweeps
/// every feature count up to 130, rows straddle the 8- and 16-lane vectors,
/// the 16-, 64- and 128-dimension strips and their ragged edges, and flows
/// the 4-flow blocks and their leftovers. The panel is read at ld > rows
/// (its NaN pad must not reach an output) and the output written at
/// h_stride > rows (its pad must stay untouched). One bias puts a lane past
/// the polynomial's |angle| < 8192 range, onto libm; one flow carries a
/// NaN feature and one an infinite one, whose outputs are NaN everywhere.
TEST(KernelTile, CosRbfTileIsExactAcrossBackends) {
  const core::Kernels& scalar = core::scalar_kernels();
  const std::vector<const core::Kernels*> backends = runnable_backends();
  if (backends.size() == 1) GTEST_SKIP() << "no SIMD backend on this host";
  for (std::size_t cols = 1; cols <= 130; ++cols) {
    for (std::size_t rows :
         {1u, 7u, 8u, 15u, 16u, 17u, 63u, 64u, 65u, 512u}) {
      const std::size_t ld = rows + 3;
      const auto bases = rbf_panel(cols, rows, ld, 9000 + rows * cols);
      auto biases = rbf_biases(rows, 9100 + rows);
      biases[rows / 2] = 10000.0f;
      const std::size_t h_stride = rows + 3;
      for (std::size_t flows : {1u, 2u, 3u, 4u, 5u, 22u, 65u}) {
        auto x = gaussian_vec(flows * cols, 9200 + flows * cols);
        if (flows >= 3) {
          x[1 * cols + cols / 2] = std::nanf("");
          x[2 * cols + cols - 1] =
              cols % 2 == 0 ? std::numeric_limits<float>::infinity()
                            : -std::numeric_limits<float>::infinity();
        }
        std::vector<float> want(flows * h_stride, -2.0f);
        scalar.cos_rbf_tile_f32(bases.data(), ld, rows, cols, x.data(),
                                flows, cols, biases.data(), want.data(),
                                h_stride);
        for (const core::Kernels* k : backends) {
          if (k == &scalar) continue;
          std::vector<float> got(flows * h_stride, -2.0f);
          k->cos_rbf_tile_f32(bases.data(), ld, rows, cols, x.data(), flows,
                              cols, biases.data(), got.data(), h_stride);
          std::size_t mismatches = 0;
          std::size_t first = 0;
          for (std::size_t i = 0; i < got.size(); ++i) {
            const bool pad = i % h_stride >= rows;
            if (!same_encoding(got[i], want[i]) || (pad && got[i] != -2.0f)) {
              if (mismatches++ == 0) first = i;
            }
          }
          EXPECT_EQ(mismatches, 0u)
              << k->name << " cols=" << cols << " rows=" << rows
              << " flows=" << flows << " first at f=" << first / h_stride
              << " r=" << first % h_stride << ": " << got[first]
              << " vs scalar " << want[first];
        }
        if (flows >= 3) {
          for (std::size_t r = 0; r < rows; ++r) {
            EXPECT_TRUE(std::isnan(want[1 * h_stride + r]) &&
                        std::isnan(want[2 * h_stride + r]))
                << "a non-finite feature must encode as NaN, r=" << r;
          }
        }
      }
    }
  }
}

/// `n` floats placed flush against an inaccessible page, so a read of one
/// float past the end faults (masked vector loads do not fault on their
/// masked-off lanes, so only a real over-read does).
class GuardedFloats {
 public:
  explicit GuardedFloats(std::size_t n) {
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = (n * sizeof(float) + page - 1) / page * page;
    size_ = bytes + page;
    void* map = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<char*>(map);
    if (mprotect(base_ + bytes, page, PROT_NONE) != 0) {
      munmap(base_, size_);
      throw std::bad_alloc();
    }
    data_ = reinterpret_cast<float*>(base_ + bytes) - n;
  }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;
  ~GuardedFloats() { munmap(base_, size_); }

  float* data() const noexcept { return data_; }

 private:
  char* base_ = nullptr;
  std::size_t size_ = 0;
  float* data_ = nullptr;
};

TEST(KernelTile, CosRbfTileReadsNothingPastItsInputs) {
  // The panel's last element (feature cols - 1, dimension rows - 1), the
  // last flow row and the bias vector each end at an inaccessible page: a
  // full-width load past the last dimension or the last feature crashes
  // the test. The panel is read at ld = rows and at ld > rows, whose last
  // row then stops short of its pad. Every feature count up to 40, with
  // dimension and flow counts that reach every block shape's ragged edge.
  for (std::size_t cols = 1; cols <= 40; ++cols) {
    for (std::size_t rows : {1u, 9u, 17u, 65u, 130u}) {
      for (std::size_t ld : {rows, rows + 5}) {
        for (std::size_t flows : {1u, 2u, 5u}) {
          const GuardedFloats bases((cols - 1) * ld + rows);
          const GuardedFloats x(flows * cols);
          const GuardedFloats biases(rows);
          const auto b = gaussian_vec((cols - 1) * ld + rows, 9300 + cols);
          const auto xv = gaussian_vec(flows * cols, 9400 + cols);
          std::copy(b.begin(), b.end(), bases.data());
          std::copy(xv.begin(), xv.end(), x.data());
          std::fill_n(biases.data(), rows, 0.5f);
          std::vector<float> h(flows * rows);
          for (const core::Kernels* k : runnable_backends()) {
            k->cos_rbf_tile_f32(bases.data(), ld, rows, cols, x.data(),
                                flows, cols, biases.data(), h.data(), rows);
            EXPECT_TRUE(std::isfinite(h.back()))
                << k->name << " cols=" << cols;
          }
        }
      }
    }
  }
}

TEST(KernelTile, CosRbfTilePanelDecompositionIsExact) {
  // An interior panel of dimensions [p, p + pr) is the call on bases + p,
  // biases + p, h + p at the whole panel's ld. Panel boundaries must be
  // invisible: any split — including a ragged tail panel when D is not a
  // multiple of the panel size — reassembles the one-shot tile result
  // bit-for-bit on every backend.
  const std::size_t dims = 53;  // not a multiple of any panel below
  const std::size_t cols = 24;
  const std::size_t flows = 6;
  const auto bases = rbf_panel(cols, dims, dims, 8100);
  const auto x = gaussian_vec(flows * cols, 8200);
  const auto biases = rbf_biases(dims, 8300);
  for (const core::Kernels* k : runnable_backends()) {
    std::vector<float> whole(flows * dims, -2.0f);
    k->cos_rbf_tile_f32(bases.data(), dims, dims, cols, x.data(), flows,
                        cols, biases.data(), whole.data(), dims);
    for (std::size_t panel : {1u, 8u, 16u, 32u}) {
      std::vector<float> split(flows * dims, -3.0f);
      for (std::size_t p = 0; p < dims; p += panel) {
        const std::size_t pr = std::min(panel, dims - p);
        k->cos_rbf_tile_f32(bases.data() + p, dims, pr, cols, x.data(),
                            flows, cols, biases.data() + p,
                            split.data() + p, dims);
      }
      for (std::size_t i = 0; i < split.size(); ++i) {
        EXPECT_EQ(split[i], whole[i])
            << k->name << " panel=" << panel << " i=" << i;
      }
    }
  }
}

TEST(KernelTile, CosRbfTileHonorsFlowStride) {
  // Flows handed to the kernel straight out of a wider row layout
  // (x_stride > cols): only the first `cols` entries of each flow row may
  // participate — the pad columns are garbage on purpose.
  const std::size_t rows = 19;
  const std::size_t cols = 118;
  const std::size_t flows = 5;
  const std::size_t x_stride = cols + 7;
  const auto bases = rbf_panel(cols, rows, rows, 8400);
  const auto x = gaussian_vec(flows * x_stride, 8500);
  const auto biases = rbf_biases(rows, 8600);
  for (const core::Kernels* k : runnable_backends()) {
    std::vector<float> h_tile(flows * rows, -2.0f);
    k->cos_rbf_tile_f32(bases.data(), rows, rows, cols, x.data(), flows,
                        x_stride, biases.data(), h_tile.data(), rows);
    std::vector<float> h_row(rows);
    for (std::size_t f = 0; f < flows; ++f) {
      // The same flow read on its own, out of the strided layout.
      k->cos_rbf_tile_f32(bases.data(), rows, rows, cols,
                          x.data() + f * x_stride, 1, cols, biases.data(),
                          h_row.data(), rows);
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(h_tile[f * rows + r], h_row[r])
            << k->name << " f=" << f << " r=" << r;
      }
    }
  }
}

// ---- batch inference parity ------------------------------------------------

struct TrainedFixture {
  core::Matrix x{180, 6};
  std::vector<int> y = std::vector<int>(180);
  hdc::CyberHdClassifier model;

  explicit TrainedFixture(hdc::EncoderKind kind, bool parallel)
      : model(config(kind, parallel)) {
    core::Rng rng(17);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < x.cols(); ++f) {
        x(i, f) = 0.4f * static_cast<float>(cls) +
                  static_cast<float>(rng.gaussian(0.0, 0.08));
      }
      y[i] = cls;
    }
    model.fit(x, y, 3);
  }

  static hdc::CyberHdConfig config(hdc::EncoderKind kind, bool parallel) {
    hdc::CyberHdConfig cfg;
    cfg.dims = 128;
    cfg.encoder = kind;
    cfg.regen_steps = 4;
    cfg.final_epochs = 3;
    cfg.parallel = parallel;
    return cfg;
  }
};

class BatchParity
    : public ::testing::TestWithParam<std::tuple<hdc::EncoderKind, bool>> {};

TEST_P(BatchParity, PredictBatchMatchesPredictLoop) {
  const auto [kind, parallel] = GetParam();
  const TrainedFixture t(kind, parallel);
  const core::Matrix ref =
      reference::scores(t.model.encoder(), t.model.model(), t.x);
  std::vector<int> batched(t.x.rows());
  t.model.predict_batch(t.x, batched);
  for (std::size_t i = 0; i < t.x.rows(); ++i) {
    const int expected = static_cast<int>(core::argmax(ref.row(i)));
    EXPECT_EQ(batched[i], expected) << "row " << i;
    EXPECT_EQ(t.model.predict(t.x.row(i)), expected) << "row " << i;
  }
}

TEST_P(BatchParity, ScoresBatchMatchesScoresBitExactly) {
  const auto [kind, parallel] = GetParam();
  const TrainedFixture t(kind, parallel);
  const core::Matrix ref =
      reference::scores(t.model.encoder(), t.model.model(), t.x);
  core::Matrix batched;
  t.model.scores_batch(t.x, batched);
  ASSERT_EQ(batched.rows(), t.x.rows());
  ASSERT_EQ(batched.cols(), 3u);
  std::vector<float> single(3);
  for (std::size_t i = 0; i < t.x.rows(); ++i) {
    t.model.scores(t.x.row(i), single);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(batched(i, c), ref(i, c)) << "row " << i << " class " << c;
      EXPECT_EQ(single[c], ref(i, c)) << "row " << i << " class " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BatchParity,
    ::testing::Combine(::testing::Values(hdc::EncoderKind::kRbf,
                                         hdc::EncoderKind::kSignProjection,
                                         hdc::EncoderKind::kIdLevel),
                       ::testing::Bool()));

TEST(QuantizedBatchParity, PredictBatchMatchesLoopAtAllBitwidths) {
  const TrainedFixture t(hdc::EncoderKind::kRbf, /*parallel=*/true);
  for (int bits : core::kSupportedBitwidths) {
    const hdc::QuantizedCyberHd q(t.model, bits);
    const core::Matrix ref =
        reference::scores(t.model.encoder(), q.model(), t.x);
    std::vector<int> batched(t.x.rows());
    q.predict_batch(t.x, batched);
    core::Matrix scores_batched;
    q.scores_batch(t.x, scores_batched);
    std::vector<float> single(q.num_classes());
    for (std::size_t i = 0; i < t.x.rows(); ++i) {
      const int expected = static_cast<int>(core::argmax(ref.row(i)));
      EXPECT_EQ(batched[i], expected) << "bits=" << bits << " row " << i;
      EXPECT_EQ(q.predict(t.x.row(i)), expected)
          << "bits=" << bits << " row " << i;
      q.scores(t.x.row(i), single);
      for (std::size_t c = 0; c < single.size(); ++c) {
        EXPECT_EQ(scores_batched(i, c), ref(i, c))
            << "bits=" << bits << " row " << i << " class " << c;
        EXPECT_EQ(single[c], ref(i, c))
            << "bits=" << bits << " row " << i << " class " << c;
      }
    }
  }
}

TEST(QuantizedBatchParity, Int8FastPathMatchesCosineQuantized) {
  // The SIMD int8 scoring path — pack_row, then a one-row
  // similarities_packed — must reproduce the reference cosine_quantized()
  // result bit-for-bit at every sub-byte bitwidth.
  const TrainedFixture t(hdc::EncoderKind::kRbf, /*parallel=*/false);
  for (int bits : {2, 4, 8}) {
    const hdc::QuantizedHdcModel qm(t.model.model(), bits);
    std::vector<float> h(t.model.physical_dims());
    t.model.encoder().encode(t.x.row(0), h);
    std::vector<std::int8_t> packed(qm.packed_row_bytes());
    qm.pack_row(h, reinterpret_cast<unsigned char*>(packed.data()));
    const std::int8_t* row = packed.data();
    std::vector<float> scores(qm.num_classes());
    qm.similarities_packed(hdc::PackedRows(&row, 1, qm.dims(), bits),
                           scores.data(), core::ExecutionContext::serial());
    const core::QuantizedVector q = core::quantize(h, bits);
    for (std::size_t c = 0; c < qm.num_classes(); ++c) {
      EXPECT_EQ(scores[c], core::cosine_quantized(q, qm.level_classes()[c]))
          << "bits=" << bits << " class " << c;
    }
  }
}

TEST(ConcurrentPredict, ConstCallsFromManyThreadsAreDeterministic) {
  // Regression for the mutable-scratch race: concurrent const predict()
  // and scores() calls must produce exactly the serial results.
  const TrainedFixture t(hdc::EncoderKind::kRbf, /*parallel=*/false);
  std::vector<int> expected(t.x.rows());
  for (std::size_t i = 0; i < t.x.rows(); ++i) {
    expected[i] = t.model.predict(t.x.row(i));
  }
  const std::size_t kThreads = 8;
  std::vector<std::vector<int>> results(kThreads,
                                        std::vector<int>(t.x.rows()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = 0; i < t.x.rows(); ++i) {
        results[w][i] = t.model.predict(t.x.row(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t w = 0; w < kThreads; ++w) {
    EXPECT_EQ(results[w], expected) << "thread " << w;
  }
}

}  // namespace
}  // namespace cyberhd
