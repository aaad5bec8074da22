// Hyperdimensional encoders.
//
// An encoder maps an F-dimensional feature vector into D-dimensional
// hyperspace. CyberHD's key requirement on the encoder is *per-dimension
// regenerability*: every output dimension depends on its own private slice
// of encoder state (one base vector + bias), so a dimension judged
// insignificant can be resampled without touching any other dimension.
//
// Three families are provided:
//  * RbfEncoder        — random Fourier features, cos(b_d . x + c_d). The
//                        encoder the paper uses for cybersecurity data
//                        ("an encoder inspired by the Radial Basis
//                        Function"). Approximates a Gaussian kernel.
//  * SignProjectionEncoder — sign(b_d . x): the classic bipolar random
//                        projection of early HDC classifiers [Rahimi 2016].
//  * IdLevelEncoder    — record-based ID/level binding over quantized
//                        features, the other classic HDC encoding; included
//                        because the paper's step (A) selects an encoding
//                        "depending on the data type".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "core/exec/execution_context.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"

namespace cyberhd::hdc {

/// Encoder families selectable through CyberHdConfig.
enum class EncoderKind { kRbf, kSignProjection, kIdLevel };

/// Abstract encoder from feature space (F dims) to hyperspace (D dims).
class Encoder {
 public:
  virtual ~Encoder() = default;

  /// Which family this encoder belongs to (used by persistence checks).
  virtual EncoderKind kind() const noexcept = 0;

  /// Feature-space dimensionality F.
  virtual std::size_t input_dim() const noexcept = 0;
  /// Hyperspace (physical) dimensionality D.
  virtual std::size_t output_dim() const noexcept = 0;

  /// Encode one sample: h must have size output_dim().
  virtual void encode(std::span<const float> x,
                      std::span<float> h) const = 0;

  /// Recompute only the listed hyperspace dimensions of one sample.
  /// Used after regeneration so re-encoding a dataset costs
  /// O(n * |dims| * F) instead of O(n * D * F).
  virtual void encode_dims(std::span<const float> x,
                           std::span<const std::size_t> dims,
                           std::span<float> h) const = 0;

  /// Resample the encoder state behind the listed dimensions from the
  /// encoder's prior. This is step (H) of the CyberHD workflow.
  virtual void regenerate(std::span<const std::size_t> dims,
                          core::Rng& rng) = 0;

  /// Deep copy (encoders are cheap relative to datasets).
  virtual std::unique_ptr<Encoder> clone() const = 0;

  /// Write this encoder (including a kind tag) to a binary stream.
  virtual void serialize(std::ostream& out) const = 0;

  /// Encode every row of X into the matching row of H (resized to
  /// X.rows() x output_dim()). The sample range splits across the
  /// context's pool when it has one. Rides encode_tile().
  void encode_batch(const core::Matrix& x, core::Matrix& h,
                    const core::ExecutionContext& exec =
                        core::ExecutionContext::serial()) const;

  /// Batched encode of rows [begin, end) of X, row i landing at
  /// out + (i - begin) * out_stride (out_stride >= output_dim() floats).
  /// The range is split into plan_encode_tile flow blocks across the
  /// context's pool; each block runs through encode_tile_block. Every
  /// batch-encode consumer — encode_batch, the encode-cache miss driver,
  /// fit()'s streamed windows, the quantized packer — funnels through here.
  void encode_tile(const core::Matrix& x, std::size_t begin, std::size_t end,
                   float* out, std::size_t out_stride,
                   const core::ExecutionContext& exec) const;

  /// Serial building block of encode_tile: encode rows [begin, end) of X
  /// on the calling thread. The default walks the rows one encode() at a
  /// time; families whose state is one base panel (the RBF and
  /// sign-projection encoders) override it with a register-blocked tile
  /// over the flow block — every value bit-identical to the per-row walk
  /// on the same backend.
  virtual void encode_tile_block(const core::Matrix& x, std::size_t begin,
                                 std::size_t end, float* out,
                                 std::size_t out_stride,
                                 const core::ExecutionContext& exec) const;

  /// Recompute columns `dims` of H for every row of X (after regeneration).
  /// The default loops encode_dims() row by row; families whose
  /// per-dimension state can be gathered into one compact panel (the RBF
  /// encoder) override it to refresh blocks of samples through the
  /// multi-flow encode tile — per-value results are bit-identical either
  /// way.
  virtual void encode_batch_dims(const core::Matrix& x,
                                 std::span<const std::size_t> dims,
                                 core::Matrix& h,
                                 const core::ExecutionContext& exec =
                                     core::ExecutionContext::serial()) const;
};

/// Random-Fourier-feature encoder: h_d = cos(b_d . x + c_d) with
/// b_d ~ N(0, (1/lengthscale^2) I) and c_d ~ U[0, 2pi). Encodes the RBF
/// kernel: E[h(x) . h(y)] ~ exp(-|x-y|^2 / (2 lengthscale^2)) * D / 2.
///
/// The bases live in memory as one feature-major F x D panel — row i holds
/// feature i's weight in every dimension, so dimension d's b_d is column d
/// — which is the layout cos_rbf_tile_f32 streams with output dimensions
/// in SIMD lanes. Every encode, per sample, per dimension or batched, is
/// one call of that kernel on the panel (or on a gathered copy of some of
/// its columns), so all of them compute each value the same way on every
/// backend. Saved models keep the D x F layout, and each dimension draws
/// its F weights then its bias from the Rng, as it always has.
class RbfEncoder final : public Encoder {
 public:
  friend std::unique_ptr<Encoder> deserialize_encoder(std::istream&);

  /// Create with D output dims over F input features. `lengthscale` is the
  /// Gaussian kernel lengthscale (base vectors are sampled with stddev
  /// 1/lengthscale).
  RbfEncoder(std::size_t input_dim, std::size_t output_dim, core::Rng& rng,
             float lengthscale = 1.0f);

  EncoderKind kind() const noexcept override { return EncoderKind::kRbf; }
  std::size_t input_dim() const noexcept override { return bases_.rows(); }
  std::size_t output_dim() const noexcept override { return bases_.cols(); }
  void encode(std::span<const float> x, std::span<float> h) const override;
  void encode_dims(std::span<const float> x,
                   std::span<const std::size_t> dims,
                   std::span<float> h) const override;
  /// GEMM-shaped batched encode: one cos_rbf_tile_f32 call over the whole
  /// panel and the block's flows. The kernel walks the panel in
  /// dimension strips that stay in L1 while the flows stream past, so each
  /// base weight is fetched once per block instead of once per flow.
  /// Bit-identical to per-row encode() (the tile kernel's contract).
  void encode_tile_block(const core::Matrix& x, std::size_t begin,
                         std::size_t end, float* out,
                         std::size_t out_stride,
                         const core::ExecutionContext& exec) const override;
  /// Regeneration-refresh fast path: gathers the listed dimensions'
  /// columns and biases into one compact F x |dims| panel once, then
  /// refreshes plan_encode_tile(|dims|, F).flow_rows samples per
  /// multi-flow cos_rbf_tile_f32 call into a reused scratch, scattered
  /// into the touched columns (the default would issue |dims|
  /// one-dimension kernel calls per sample).
  void encode_batch_dims(const core::Matrix& x,
                         std::span<const std::size_t> dims, core::Matrix& h,
                         const core::ExecutionContext& exec =
                             core::ExecutionContext::serial()) const override;
  void regenerate(std::span<const std::size_t> dims,
                  core::Rng& rng) override;
  std::unique_ptr<Encoder> clone() const override;

  void serialize(std::ostream& out) const override;

  /// The base panel, F x D (feature-major): column d is dimension d's
  /// private base vector. serialize() writes its D x F transpose.
  const core::Matrix& bases() const noexcept { return bases_; }
  /// Per-dimension phase shifts (size D).
  std::span<const float> biases() const noexcept { return biases_; }
  float lengthscale() const noexcept { return lengthscale_; }

 private:
  RbfEncoder() = default;
  /// Draws dimension d's base vector (column d), then its bias.
  void sample_dim(std::size_t d, core::Rng& rng);

  core::Matrix bases_;         // F x D
  std::vector<float> biases_;  // D
  float lengthscale_ = 1.0f;
};

/// Bipolar random projection: h_d = sign(b_d . x), b_d ~ N(0, I).
/// The static encoder of first-generation HDC classifiers.
class SignProjectionEncoder final : public Encoder {
 public:
  SignProjectionEncoder(std::size_t input_dim, std::size_t output_dim,
                        core::Rng& rng);

  EncoderKind kind() const noexcept override {
    return EncoderKind::kSignProjection;
  }
  std::size_t input_dim() const noexcept override { return bases_.cols(); }
  std::size_t output_dim() const noexcept override { return bases_.rows(); }
  void encode(std::span<const float> x, std::span<float> h) const override;
  void encode_dims(std::span<const float> x,
                   std::span<const std::size_t> dims,
                   std::span<float> h) const override;
  /// Batched encode through the float scoring tile
  /// (similarities_tile_f32_gather over a table of the block's rows: flows
  /// in the role of query rows, base panels in the role of class blocks)
  /// with a trivial sign epilogue — the tile's per-pair dots are
  /// bit-identical to encode()'s dot_f32 calls on the same backend.
  void encode_tile_block(const core::Matrix& x, std::size_t begin,
                         std::size_t end, float* out,
                         std::size_t out_stride,
                         const core::ExecutionContext& exec) const override;
  void regenerate(std::span<const std::size_t> dims,
                  core::Rng& rng) override;
  std::unique_ptr<Encoder> clone() const override;
  void serialize(std::ostream& out) const override;

 private:
  friend std::unique_ptr<Encoder> deserialize_encoder(std::istream&);
  SignProjectionEncoder() = default;
  core::Matrix bases_;  // D x F
};

/// Record-based ID/level encoder: each feature f owns a random bipolar ID
/// hypervector; each of Q quantization levels owns a level hypervector built
/// by progressive flipping (so nearby levels stay similar); a sample encodes
/// as sum_f ID_f * L_{level(x_f)} (elementwise bind, then bundle).
/// Inputs are expected in [0, 1] (values are clamped).
///
/// Deliberately NOT routed through the encode-tile kernel: each output
/// value gathers from per-feature level rows selected by the sample's
/// quantized feature values, so there is no shared contiguous base panel
/// two flows could stream together — the batched form would be a
/// different (gather-heavy) kernel, not a reuse win. It keeps the
/// base-class per-row encode_tile_block.
class IdLevelEncoder final : public Encoder {
 public:
  IdLevelEncoder(std::size_t input_dim, std::size_t output_dim,
                 core::Rng& rng, std::size_t num_levels = 32);

  EncoderKind kind() const noexcept override { return EncoderKind::kIdLevel; }
  std::size_t input_dim() const noexcept override { return num_features_; }
  std::size_t output_dim() const noexcept override { return dims_; }
  void encode(std::span<const float> x, std::span<float> h) const override;
  void encode_dims(std::span<const float> x,
                   std::span<const std::size_t> dims,
                   std::span<float> h) const override;
  void regenerate(std::span<const std::size_t> dims,
                  core::Rng& rng) override;
  std::unique_ptr<Encoder> clone() const override;
  void serialize(std::ostream& out) const override;

  std::size_t num_levels() const noexcept { return num_levels_; }

 private:
  friend std::unique_ptr<Encoder> deserialize_encoder(std::istream&);
  IdLevelEncoder() = default;
  std::size_t level_of(float v) const noexcept;

  std::size_t num_features_ = 0;
  std::size_t dims_ = 0;
  std::size_t num_levels_ = 0;
  // id_[f * dims_ + d] and level_[q * dims_ + d], values in {-1, +1}.
  std::vector<float> id_;
  std::vector<float> level_;
};

/// Printable name of an encoder kind.
const char* to_string(EncoderKind kind) noexcept;

/// Factory for the families above. `rbf_lengthscale` is used only by the
/// RBF family (pass a median-heuristic estimate for data-adaptive scaling).
std::unique_ptr<Encoder> make_encoder(EncoderKind kind, std::size_t input_dim,
                                      std::size_t output_dim, core::Rng& rng,
                                      float rbf_lengthscale = 1.0f);

/// Reconstruct any encoder previously written by Encoder::serialize().
/// Throws std::runtime_error on malformed input.
std::unique_ptr<Encoder> deserialize_encoder(std::istream& in);

/// The median heuristic for kernel lengthscales: the square root of the
/// median squared Euclidean distance over random sample pairs. Returns 1
/// for degenerate inputs (fewer than 2 rows or all-identical data).
float median_heuristic_lengthscale(const core::Matrix& x, core::Rng& rng,
                                   std::size_t max_pairs = 2048);

}  // namespace cyberhd::hdc
