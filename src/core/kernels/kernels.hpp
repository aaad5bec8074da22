// Runtime-dispatched SIMD kernel layer.
//
// Every arithmetic hot path in the library — float dot products, the fused
// RBF encode (dot + bias + cos), packed XOR/popcount similarity, and the
// quantized int8 dot — funnels through one table of function pointers, the
// Kernels struct. Three backends are provided:
//
//  * scalar — portable C++, the reference semantics. Identical loop
//    structure to the pre-kernel code for dot, axpy and bind-and-bundle;
//    the RBF encode tile's reference is an std::fma chain per output
//    (kernels_rbf.cpp).
//  * avx2   — AVX2+FMA intrinsics (x86-64 only), selected at startup via
//    CPUID. 8/16-lane float kernels, a vpshufb nibble-LUT popcount, a
//    vpmaddwd int8 dot, and a ymm body of the fused RBF encode tile.
//  * avx512 — AVX-512F 32-lane float kernels (dot, axpy, the blocked
//    similarity tile), a zmm body of the fused RBF encode tile, a
//    VPOPCNTDQ popcount and a VNNI int8 tile when the CPU has them; the
//    int8 dot (and, without those extensions, the popcount and int8 tile)
//    is inherited from the avx2 table, which any AVX-512 machine also runs.
//
// Selection happens exactly once (first call to active_kernels()): the
// best table the CPUID feature bits allow — avx512, then avx2, then
// scalar. The environment variable CYBERHD_KERNELS overrides the choice
// ("scalar" forces the portable backend anywhere; "avx2"/"avx512" ask for
// a SIMD backend and fall back to the best available when the CPU lacks
// it). The dispatch is independent of the CYBERHD_NATIVE build flag: a
// portable -march=x86-64 binary still runs the AVX2/AVX-512 backends on
// capable hardware.
//
// Contracts shared by all backends:
//  * integer kernels (xor_popcount_words, quantized_dot_i8, and the packed
//    serving tiles similarities_tile_i8_gather / hamming_tile_1b_gather)
//    are exact — backends must agree bit-for-bit;
//  * the fused RBF encode tile (cos_rbf_tile_f32) is exact too: every
//    backend computes each output as the same FMA chain and the same
//    cosine, so backends agree bit-for-bit, and each entry of a call is
//    bit-identical to a one-flow, one-dimension call on the same pair —
//    encode() and encode_dims() stay consistent after regeneration;
//  * the other float kernels (dot_f32, axpy_f32, mul_acc_f32 and
//    similarities_tile_f32_gather) may reassociate sums or fuse, so
//    backends agree only to rounding (tests pin the tolerance);
//  * within one backend, every similarities_tile_f32_gather entry is
//    bit-identical to dot_f32 on its (row, class) pair.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cyberhd::core {

/// Table of the library's arithmetic hot-path kernels. All pointers are
/// always non-null; spans are passed as raw pointer + length because these
/// are the innermost loops.
struct Kernels {
  /// Backend name for logs/benches ("scalar", "avx2").
  const char* name;

  /// sum_i a[i] * b[i].
  float (*dot_f32)(const float* a, const float* b, std::size_t n);

  /// y[i] += alpha * x[i].
  void (*axpy_f32)(float alpha, const float* x, float* y, std::size_t n);

  /// acc[i] += a[i] * b[i] (elementwise bind-and-bundle of the ID/level
  /// encoder).
  void (*mul_acc_f32)(const float* a, const float* b, float* acc,
                      std::size_t n);

  /// Multi-flow fused RBF encode tile over a feature-major base panel:
  ///   h[f * h_stride + r] = cos(acc + biases[r]),
  ///   acc = +0; acc = fma(bases[i * ld + r], x[f * x_stride + i], acc)
  ///         for i = 0 .. features - 1,
  /// for f in [0, num_x), r in [0, dims). `bases` is a features x dims
  /// panel read at leading dimension `ld` >= dims (row i holds feature
  /// i's weight in every output dimension), `x` holds num_x flow rows at
  /// stride `x_stride` floats, and `h` receives each flow's encodings at
  /// stride `h_stride` floats. An interior panel [p0, p0 + dims) of a
  /// wider one is the call on bases + p0, biases + p0, h + p0 with the
  /// wider panel's ld; one dimension is dims = 1. cos is the Cephes
  /// polynomial cosine for |angle| < 8192 and std::cos for every other
  /// angle (including NaN and +-Inf). Each output is that one chain in
  /// that order on every backend — SIMD lanes are output dimensions — so
  /// each h entry is bit-identical across backends (NaN payloads aside)
  /// and to a one-flow, one-dimension call on the same pair. No backend reads a panel, bias
  /// or flow float past the ones the formula names, or writes h outside
  /// [0, dims) of each flow row.
  void (*cos_rbf_tile_f32)(const float* bases, std::size_t ld,
                           std::size_t dims, std::size_t features,
                           const float* x, std::size_t num_x,
                           std::size_t x_stride, const float* biases,
                           float* h, std::size_t h_stride);

  /// sum_i popcount(a[i] ^ b[i]) — the Hamming distance of two packed
  /// bipolar hypervectors (bitpack.hpp guarantees padding bits are zero).
  std::size_t (*xor_popcount_words)(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n);

  /// sum_i a[i] * b[i] over signed 8-bit levels, accumulated in int64 —
  /// the quantized-domain dot for bitwidths <= 8.
  std::int64_t (*quantized_dot_i8)(const std::int8_t* a, const std::int8_t* b,
                                   std::size_t n);

  // -- gather (row-pointer) scoring tiles ------------------------------------
  // Every batch scorer reads its query rows through a per-row pointer
  // table: stage 1 of the serving pipeline hands stage 2 rows borrowed
  // from the encode cache ring and miss rows from the staging block, any
  // mix, and a contiguous batch is a table with one pointer per row.
  // h_rows[r] points at query row r (rows need not be contiguous or
  // ordered); `classes` is a row-major num_classes block.

  /// Blocked float similarity tile: raw dot products of the query rows
  /// against every class hypervector,
  ///   out[r * num_classes + c] = dot(h_rows[r], classes + c * dims)
  /// for r in [0, rows), c in [0, num_classes). SIMD backends
  /// register-block over query rows so each class row is loaded once per
  /// row block (class vectors stay cache-resident while the rows stream),
  /// and score the rows left over against four classes per pass, but
  /// every individual dot accumulates in exactly dot_f32's order —
  /// each out entry is bit-identical to a per-pair dot_f32 call on the
  /// same backend. The float batch scorer (serving and the minibatch
  /// trainer) and the sign-projection encoder's tile run on it.
  void (*similarities_tile_f32_gather)(const float* const* h_rows,
                                       std::size_t rows, const float* classes,
                                       std::size_t num_classes,
                                       std::size_t dims, float* out);

  /// Blocked int8 similarity tile: raw integer dot products of the query
  /// rows against every quantized class row,
  ///   out[r * num_classes + c] = sum_i h_rows[r][i] * classes[c*dims + i]
  /// for r in [0, rows), c in [0, num_classes). Register-blocked like the
  /// float tile (SIMD backends amortize each class load over a block of
  /// query rows), but exact-integer like quantized_dot_i8: every backend
  /// must agree bit-for-bit with a per-pair scalar dot. The stage-2 kernel
  /// of the packed quantized serving pipeline (bits in {2, 4, 8}).
  void (*similarities_tile_i8_gather)(const std::int8_t* const* h_rows,
                                      std::size_t rows,
                                      const std::int8_t* classes,
                                      std::size_t num_classes,
                                      std::size_t dims, std::int64_t* out);

  /// Packed-XOR/popcount Hamming tile over 64-bit words:
  ///   out[r * num_classes + c] =
  ///       sum_w popcount(h_rows[r][w] ^ classes[c*words + w])
  /// for r in [0, rows), c in [0, num_classes), over packed bipolar rows
  /// (bitpack.hpp's tail-masking invariant applies to the query rows and
  /// the class block alike). Exact-integer: all backends agree
  /// bit-for-bit. The stage-2 kernel of the 1-bit packed serving pipeline.
  void (*hamming_tile_1b_gather)(const std::uint64_t* const* h_rows,
                                 std::size_t rows,
                                 const std::uint64_t* classes,
                                 std::size_t num_classes, std::size_t words,
                                 std::uint32_t* out);
};

/// The portable reference backend. Always available.
const Kernels& scalar_kernels() noexcept;

/// The AVX2+FMA backend, or nullptr when this binary was built for a
/// non-x86 target. A non-null return says the code exists, not that the
/// CPU can run it — check cpu_supports_avx2() before calling it directly.
const Kernels* avx2_kernels() noexcept;

/// The AVX-512 backend (32-lane float kernels and a zmm encode tile
/// layered over the avx2 table, VPOPCNTDQ popcount and VNNI int8 tile when
/// the CPU reports them), or nullptr when this binary
/// was built for a non-x86 target. As with avx2_kernels(), a non-null
/// return says the code exists — check cpu_supports_avx512() before
/// calling it directly.
const Kernels* avx512_kernels() noexcept;

/// True when the running CPU reports AVX2 and FMA.
bool cpu_supports_avx2() noexcept;

/// True when the running CPU reports the AVX-512 foundation set this
/// backend needs (F + DQ, plus the AVX2+FMA the inherited kernels use).
bool cpu_supports_avx512() noexcept;

/// True when the running CPU additionally reports AVX512VPOPCNTDQ (the
/// vectorized 64-bit popcount; Ice Lake and newer).
bool cpu_supports_avx512_vpopcntdq() noexcept;

/// True when the running CPU additionally reports AVX512VNNI (vpdpbusd,
/// the fused 8-bit dot-product accumulate; Cascade Lake and newer). Gates
/// the VNNI variant of similarities_tile_i8_gather the same way VPOPCNTDQ gates
/// the vectorized popcount — requested-but-absent falls back to the
/// inherited avx2 tile.
bool cpu_supports_avx512_vnni() noexcept;

/// The backend selected for this process (CPUID once at first use;
/// overridable via CYBERHD_KERNELS=scalar|avx2|avx512).
const Kernels& active_kernels() noexcept;

}  // namespace cyberhd::core
