// The HDC associative memory: one class hypervector per class.
//
// Training bundles encoded samples into class hypervectors; inference
// assigns a query to the class with the highest cosine similarity (steps
// (C), (I), (J) of the CyberHD workflow). The model also exposes the two
// statistics regeneration needs: a row-normalized copy (step (D)/(E)) and
// the per-dimension variance across classes (step (F)).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/exec/execution_context.hpp"
#include "core/matrix.hpp"
#include "hdc/encoded_batch.hpp"

namespace cyberhd::hdc {

/// Class-hypervector matrix (num_classes x dims) with cosine scoring.
class HdcModel {
 public:
  /// The cosine-normalization expression of similarities_into, the scorer
  /// behind every HDC score (serving, per-sample calls, the trainer);
  /// zero-norm queries and classes score 0.
  static float cosine_from_dot(float dot, float query_norm,
                               float class_norm) noexcept {
    return (query_norm == 0.0f || class_norm == 0.0f)
               ? 0.0f
               : dot / (query_norm * class_norm);
  }

  HdcModel() = default;
  /// Zero-initialized model for `num_classes` classes in `dims` dimensions.
  HdcModel(std::size_t num_classes, std::size_t dims);

  std::size_t num_classes() const noexcept { return classes_.rows(); }
  std::size_t dims() const noexcept { return classes_.cols(); }

  /// Mutable class hypervector.
  std::span<float> class_vector(std::size_t cls) noexcept {
    return classes_.row(cls);
  }
  /// Read-only class hypervector.
  std::span<const float> class_vector(std::size_t cls) const noexcept {
    return classes_.row(cls);
  }
  const core::Matrix& weights() const noexcept { return classes_; }
  core::Matrix& weights() noexcept { return classes_; }

  /// Add an encoded sample into a class (one-shot bundling). `weight`
  /// scales the contribution.
  void bundle(std::size_t cls, std::span<const float> h,
              float weight = 1.0f) noexcept;

  /// Row-wise similarities of a whole encoded batch: `scores` is resized to
  /// h.rows() x num_classes(). The rows become a one-pointer-per-row table
  /// in this thread's ScoringWorkspace (f32_rows) and are scored by
  /// similarities_into — the one batch scorer.
  void similarities_batch(const core::Matrix& h, core::Matrix& scores,
                          const core::ExecutionContext& exec =
                              core::ExecutionContext::serial()) const;

  /// The batch scorer (stage 2 of the serving pipeline, and the
  /// minibatch trainer's frozen-model scoring): writes
  /// h.rows() x num_classes() floats row-major at `out`, caller-owned
  /// storage, so the staged scores_batch paths score one sub-batch
  /// straight into its row range of the full output matrix. Rows are read
  /// through the view's pointer table (borrowed cache-ring rows, staging
  /// rows, any mix). Class norms are computed once, rows stream through the
  /// register-blocked similarities_tile_f32_gather kernel in cache-derived
  /// chunks (ExecutionContext::score_block_rows; class vectors stay
  /// resident), and the row range splits across the context's pool. Each
  /// entry is bit-identical to cosine_from_dot over core::dot and
  /// core::norm2 on its row, for any tile split or thread count.
  void similarities_into(const EncodedRows& h, float* out,
                         const core::ExecutionContext& exec =
                             core::ExecutionContext::serial()) const;

  /// The same scorer with the class norms supplied: `class_norms[c]` must
  /// be class_norm(c) of the model as it stands. The trainer keeps them
  /// across an epoch and recomputes only the classes an update touched;
  /// the overload above computes them and delegates here, so every score
  /// comes out of this one body.
  void similarities_into(const EncodedRows& h,
                         std::span<const float> class_norms, float* out,
                         const core::ExecutionContext& exec =
                             core::ExecutionContext::serial()) const;

  /// core::norm2 of one class hypervector: the norm every score divides
  /// by.
  float class_norm(std::size_t cls) const noexcept {
    return core::norm2(classes_.row(cls));
  }

  /// L2-normalize every class hypervector in place (step (D)).
  void normalize_rows() noexcept;

  /// Per-dimension variance across L2-normalized class hypervectors
  /// (step (E)+(F)); `out` has dims() entries. The model itself is not
  /// modified. Dimensions whose variance is low carry class-common
  /// information and are candidates for regeneration.
  void dimension_variances(std::span<float> out) const;

  /// Zero the given dimensions in every class hypervector (step (G):
  /// dropping dimensions from the model before the encoder resamples them).
  void zero_dimensions(std::span<const std::size_t> dims) noexcept;

  /// Indices of the `count` lowest-variance dimensions (ties broken by
  /// index). Helper shared by the regeneration controller and tests.
  static std::vector<std::size_t> lowest_k(std::span<const float> values,
                                           std::size_t count);

 private:
  core::Matrix classes_;  // num_classes x dims
};

}  // namespace cyberhd::hdc
