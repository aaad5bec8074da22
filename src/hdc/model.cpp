#include "hdc/model.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/kernels/kernels.hpp"
#include "core/stats.hpp"
#include "hdc/scoring_workspace.hpp"

namespace cyberhd::hdc {

HdcModel::HdcModel(std::size_t num_classes, std::size_t dims)
    : classes_(num_classes, dims) {
  assert(num_classes > 0 && dims > 0);
}

void HdcModel::bundle(std::size_t cls, std::span<const float> h,
                      float weight) noexcept {
  assert(cls < num_classes());
  core::axpy(weight, h, classes_.row(cls));
}

void HdcModel::similarities_batch(const core::Matrix& h,
                                  core::Matrix& scores,
                                  const core::ExecutionContext& exec) const {
  scores.resize(h.rows(), num_classes());
  std::vector<const float*>& rows = ScoringWorkspace::tl().f32_rows;
  rows.resize(h.rows());
  for (std::size_t r = 0; r < h.rows(); ++r) rows[r] = h.row(r).data();
  similarities_into(EncodedRows(rows.data(), h.rows(), h.cols()),
                    scores.data(), exec);
}

void HdcModel::similarities_into(const EncodedRows& h, float* out,
                                 const core::ExecutionContext& exec) const {
  if (h.rows() == 0) return;
  // Class norms live in the thread-local workspace: recomputed every call
  // (the model may have changed), but the vector's allocation is reused —
  // the steady-state serving flush touches no allocator here.
  std::vector<float>& class_norms = ScoringWorkspace::tl().class_norms;
  class_norms.resize(num_classes());
  for (std::size_t c = 0; c < class_norms.size(); ++c) {
    class_norms[c] = class_norm(c);
  }
  similarities_into(h, class_norms, out, exec);
}

void HdcModel::similarities_into(const EncodedRows& h,
                                 std::span<const float> class_norms,
                                 float* out,
                                 const core::ExecutionContext& exec) const {
  assert(h.dims() == dims());
  assert(class_norms.size() == num_classes());
  if (h.rows() == 0) return;
  const std::size_t C = num_classes();
  const std::size_t D = dims();
  // Tile-internal blocking: each worker streams its row range through the
  // register-blocked gather tile kernel in chunks small enough that the
  // chunk's rows stay L2-resident for the norm pass right after the kernel
  // pass (and the class-vector block stays cache-resident throughout); the
  // chunk size is derived from the machine's cache model, not hand-tuned.
  // The kernel's per-dot accumulation equals dot_f32's, so cosine_from_dot
  // on the raw dots reproduces the core::dot reference bit-for-bit.
  const std::size_t tile_rows = exec.score_block_rows(D);
  const core::Kernels& k = exec.kernels();
  const float* const* rows_tbl = h.row_ptrs();
  const auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; t += tile_rows) {
      const std::size_t rows = std::min(tile_rows, end - t);
      float* block = out + t * C;
      k.similarities_tile_f32_gather(rows_tbl + t, rows, classes_.data(), C,
                                     D, block);
      for (std::size_t r = 0; r < rows; ++r) {
        const float hn = core::norm2(h.row(t + r));
        for (std::size_t c = 0; c < C; ++c) {
          float& s = block[r * C + c];
          s = cosine_from_dot(s, hn, class_norms[c]);
        }
      }
    }
  };
  exec.parallel_for(h.rows(), body, /*grain=*/32);
}

void HdcModel::normalize_rows() noexcept {
  for (std::size_t c = 0; c < num_classes(); ++c) {
    core::normalize_l2(classes_.row(c));
  }
}

void HdcModel::dimension_variances(std::span<float> out) const {
  assert(out.size() == dims());
  // Work on a normalized copy so magnitude differences between classes
  // (driven by class frequency) do not masquerade as discriminative
  // variance — this is exactly the paper's normalize-then-variance order.
  core::Matrix normalized = classes_;
  for (std::size_t c = 0; c < normalized.rows(); ++c) {
    core::normalize_l2(normalized.row(c));
  }
  core::column_variances(normalized.data(), normalized.rows(),
                         normalized.cols(), out);
}

void HdcModel::zero_dimensions(std::span<const std::size_t> dims_list) noexcept {
  for (std::size_t c = 0; c < num_classes(); ++c) {
    auto row = classes_.row(c);
    for (std::size_t d : dims_list) {
      assert(d < dims());
      row[d] = 0.0f;
    }
  }
}

std::vector<std::size_t> HdcModel::lowest_k(std::span<const float> values,
                                            std::size_t count) {
  count = std::min(count, values.size());
  std::vector<std::size_t> idx(values.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + count, idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (values[a] != values[b]) {
                        return values[a] < values[b];
                      }
                      return a < b;
                    });
  idx.resize(count);
  return idx;
}

}  // namespace cyberhd::hdc
