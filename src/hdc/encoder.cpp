#include "hdc/encoder.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>
#include <ostream>
#include <stdexcept>

#include "core/io.hpp"
#include "core/kernels/kernels.hpp"

namespace cyberhd::hdc {

void Encoder::encode_batch(const core::Matrix& x, core::Matrix& h,
                           const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  h.resize(x.rows(), output_dim());
  encode_tile(x, 0, x.rows(), h.data(), h.cols(), exec);
}

void Encoder::encode_tile(const core::Matrix& x, std::size_t begin,
                          std::size_t end, float* out,
                          std::size_t out_stride,
                          const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  assert(begin <= end && end <= x.rows());
  assert(out_stride >= output_dim());
  const std::size_t m = end - begin;
  if (m == 0) return;
  // Flow-block split: chunk boundaries only group independent per-row
  // encodes, so results never depend on the block size or worker count.
  const core::EncodeTilePlan plan =
      exec.plan_encode_tile(output_dim(), input_dim());
  exec.parallel_for(
      m,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; t += plan.flow_rows) {
          const std::size_t e = std::min(hi, t + plan.flow_rows);
          encode_tile_block(x, begin + t, begin + e, out + t * out_stride,
                            out_stride, exec);
        }
      },
      /*grain=*/plan.flow_rows);
}

void Encoder::encode_tile_block(const core::Matrix& x, std::size_t begin,
                                std::size_t end, float* out,
                                std::size_t out_stride,
                                const core::ExecutionContext&) const {
  for (std::size_t i = begin; i < end; ++i) {
    encode(x.row(i), {out + (i - begin) * out_stride, output_dim()});
  }
}

void Encoder::encode_batch_dims(const core::Matrix& x,
                                std::span<const std::size_t> dims,
                                core::Matrix& h,
                                const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  assert(h.rows() == x.rows() && h.cols() == output_dim());
  exec.parallel_for(
      x.rows(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          encode_dims(x.row(i), dims, h.row(i));
        }
      },
      /*grain=*/16);
}

// ---- RbfEncoder ------------------------------------------------------------

RbfEncoder::RbfEncoder(std::size_t input_dim, std::size_t output_dim,
                       core::Rng& rng, float lengthscale)
    : bases_(input_dim, output_dim),
      biases_(output_dim, 0.0f),
      lengthscale_(lengthscale) {
  assert(input_dim > 0 && output_dim > 0 && lengthscale > 0.0f);
  for (std::size_t d = 0; d < output_dim; ++d) sample_dim(d, rng);
}

void RbfEncoder::sample_dim(std::size_t d, core::Rng& rng) {
  // Dimension d's F base weights, then its bias: the draw order of the
  // saved D x F layout's row d, so a seed gives the same encoder as ever.
  const float stddev = 1.0f / lengthscale_;
  for (std::size_t i = 0; i < input_dim(); ++i) {
    bases_(i, d) = static_cast<float>(rng.gaussian(0.0f, stddev));
  }
  biases_[d] =
      static_cast<float>(rng.uniform(0.0, 2.0 * std::numbers::pi));
}

void RbfEncoder::encode(std::span<const float> x, std::span<float> h) const {
  assert(x.size() == input_dim());
  assert(h.size() == output_dim());
  // One fused one-flow tile call over the whole F x D panel.
  core::active_kernels().cos_rbf_tile_f32(
      bases_.data(), output_dim(), output_dim(), input_dim(), x.data(), 1,
      input_dim(), biases_.data(), h.data(), output_dim());
}

void RbfEncoder::encode_dims(std::span<const float> x,
                             std::span<const std::size_t> dims,
                             std::span<float> h) const {
  assert(x.size() == input_dim());
  assert(h.size() == output_dim());
  const core::Kernels& k = core::active_kernels();
  for (std::size_t d : dims) {
    assert(d < output_dim());
    // Column d of the panel: a one-dimension call is bit-identical to the
    // same entry of the full encode (kernels.hpp contract), so regenerated
    // columns match a fresh encode.
    k.cos_rbf_tile_f32(bases_.data() + d, output_dim(), 1, input_dim(),
                       x.data(), 1, input_dim(), &biases_[d], &h[d], 1);
  }
}

void RbfEncoder::encode_tile_block(const core::Matrix& x, std::size_t begin,
                                   std::size_t end, float* out,
                                   std::size_t out_stride,
                                   const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  if (end == begin) return;
  exec.kernels().cos_rbf_tile_f32(bases_.data(), output_dim(), output_dim(),
                                  input_dim(), x.row(begin).data(),
                                  end - begin, x.cols(), biases_.data(), out,
                                  out_stride);
}

void RbfEncoder::encode_batch_dims(const core::Matrix& x,
                                   std::span<const std::size_t> dims,
                                   core::Matrix& h,
                                   const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  assert(h.rows() == x.rows() && h.cols() == output_dim());
  if (dims.empty() || x.rows() == 0) return;
  // Gather the touched dimensions' private state once: their columns of
  // the panel as a compact F x |dims| panel, plus a bias vector. Flow
  // blocks then refresh through the multi-flow tile into a reused scratch,
  // scattered into the touched columns; every value is the same chain a
  // fresh encode runs (kernels.hpp contract).
  const std::size_t nd = dims.size();
  const std::size_t features = input_dim();
  core::Matrix gathered_bases(features, nd);
  std::vector<float> gathered_biases(nd);
  for (std::size_t j = 0; j < nd; ++j) {
    assert(dims[j] < output_dim());
    gathered_biases[j] = biases_[dims[j]];
  }
  for (std::size_t i = 0; i < features; ++i) {
    const float* src = bases_.row(i).data();
    float* dst = gathered_bases.row(i).data();
    for (std::size_t j = 0; j < nd; ++j) dst[j] = src[dims[j]];
  }
  const core::EncodeTilePlan plan = exec.plan_encode_tile(nd, features);
  const core::Kernels& k = exec.kernels();
  exec.parallel_for(
      x.rows(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<float> fresh(std::min(plan.flow_rows, end - begin) * nd);
        for (std::size_t t = begin; t < end; t += plan.flow_rows) {
          const std::size_t e = std::min(end, t + plan.flow_rows);
          k.cos_rbf_tile_f32(gathered_bases.data(), nd, nd, features,
                             x.row(t).data(), e - t, x.cols(),
                             gathered_biases.data(), fresh.data(), nd);
          for (std::size_t i = t; i < e; ++i) {
            const float* src = fresh.data() + (i - t) * nd;
            auto row = h.row(i);
            for (std::size_t j = 0; j < nd; ++j) row[dims[j]] = src[j];
          }
        }
      },
      /*grain=*/plan.flow_rows);
}

void RbfEncoder::regenerate(std::span<const std::size_t> dims,
                            core::Rng& rng) {
  for (std::size_t d : dims) {
    assert(d < output_dim());
    sample_dim(d, rng);
  }
}

std::unique_ptr<Encoder> RbfEncoder::clone() const {
  return std::make_unique<RbfEncoder>(*this);
}

// ---- SignProjectionEncoder --------------------------------------------------

SignProjectionEncoder::SignProjectionEncoder(std::size_t input_dim,
                                             std::size_t output_dim,
                                             core::Rng& rng)
    : bases_(output_dim, input_dim) {
  assert(input_dim > 0 && output_dim > 0);
  core::fill_gaussian(rng, bases_.data(), bases_.size(), 0.0f, 1.0f);
}

void SignProjectionEncoder::encode(std::span<const float> x,
                                   std::span<float> h) const {
  assert(x.size() == input_dim());
  assert(h.size() == output_dim());
  const core::Kernels& k = core::active_kernels();
  const std::size_t cols = input_dim();
  for (std::size_t d = 0; d < output_dim(); ++d) {
    h[d] = k.dot_f32(bases_.row(d).data(), x.data(), cols) >= 0.0f ? 1.0f
                                                                   : -1.0f;
  }
}

void SignProjectionEncoder::encode_tile_block(
    const core::Matrix& x, std::size_t begin, std::size_t end, float* out,
    std::size_t out_stride, const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  const std::size_t m = end - begin;
  if (m == 0) return;
  const std::size_t dims = output_dim();
  const std::size_t features = input_dim();
  const core::EncodeTilePlan plan = exec.plan_encode_tile(dims, features);
  const core::Kernels& k = exec.kernels();
  // The similarity tile already computes exactly the dots this encoder
  // signs (flows as query rows, a base panel as the class block), with
  // per-pair values bit-identical to encode()'s dot_f32 calls. The sign
  // epilogue scatters the pr-stride panel into the out rows. The row table
  // and the dot panel are per-thread scratch that only grows, so a warm
  // call allocates nothing.
  thread_local std::vector<const float*> rows;
  thread_local std::vector<float> dots;
  rows.resize(m);
  for (std::size_t i = 0; i < m; ++i) rows[i] = x.row(begin + i).data();
  const std::size_t panel = std::min<std::size_t>(plan.panel_rows, dims);
  if (dots.size() < m * panel) dots.resize(m * panel);
  for (std::size_t p = 0; p < dims; p += plan.panel_rows) {
    const std::size_t pr = std::min(plan.panel_rows, dims - p);
    k.similarities_tile_f32_gather(rows.data(), m,
                                   bases_.data() + p * features, pr,
                                   features, dots.data());
    for (std::size_t i = 0; i < m; ++i) {
      float* dst = out + i * out_stride + p;
      const float* src = dots.data() + i * pr;
      for (std::size_t r = 0; r < pr; ++r) {
        dst[r] = src[r] >= 0.0f ? 1.0f : -1.0f;
      }
    }
  }
}

void SignProjectionEncoder::encode_dims(std::span<const float> x,
                                        std::span<const std::size_t> dims,
                                        std::span<float> h) const {
  const core::Kernels& k = core::active_kernels();
  const std::size_t cols = input_dim();
  for (std::size_t d : dims) {
    assert(d < output_dim());
    h[d] = k.dot_f32(bases_.row(d).data(), x.data(), cols) >= 0.0f ? 1.0f
                                                                   : -1.0f;
  }
}

void SignProjectionEncoder::regenerate(std::span<const std::size_t> dims,
                                       core::Rng& rng) {
  for (std::size_t d : dims) {
    assert(d < output_dim());
    core::fill_gaussian(rng, bases_.row(d).data(), bases_.cols(), 0.0f, 1.0f);
  }
}

std::unique_ptr<Encoder> SignProjectionEncoder::clone() const {
  return std::make_unique<SignProjectionEncoder>(*this);
}

// ---- IdLevelEncoder ---------------------------------------------------------

IdLevelEncoder::IdLevelEncoder(std::size_t input_dim, std::size_t output_dim,
                               core::Rng& rng, std::size_t num_levels)
    : num_features_(input_dim),
      dims_(output_dim),
      num_levels_(num_levels),
      id_(input_dim * output_dim),
      level_(num_levels * output_dim) {
  assert(input_dim > 0 && output_dim > 0 && num_levels >= 2);
  for (float& v : id_) v = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  // Thermometer construction: level 0 is random; each dimension flips at
  // most once, at a uniformly random level, with probability 1/2. Adjacent
  // levels then differ in ~D/(2(Q-1)) positions while levels 0 and Q-1
  // differ in ~D/2 — i.e. the extremes are near-orthogonal.
  for (std::size_t d = 0; d < dims_; ++d) {
    const float base = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    // Level index at which this dimension flips; num_levels_ = never.
    const std::size_t flip_at =
        rng.bernoulli(0.5) ? 1 + rng.next_below(num_levels_ - 1)
                           : num_levels_;
    for (std::size_t q = 0; q < num_levels_; ++q) {
      level_[q * dims_ + d] = q >= flip_at ? -base : base;
    }
  }
}

std::size_t IdLevelEncoder::level_of(float v) const noexcept {
  const float clamped = std::clamp(v, 0.0f, 1.0f);
  auto q = static_cast<std::size_t>(clamped *
                                    static_cast<float>(num_levels_ - 1) +
                                    0.5f);
  return std::min(q, num_levels_ - 1);
}

void IdLevelEncoder::encode(std::span<const float> x,
                            std::span<float> h) const {
  assert(x.size() == num_features_);
  assert(h.size() == dims_);
  std::fill(h.begin(), h.end(), 0.0f);
  const core::Kernels& k = core::active_kernels();
  for (std::size_t f = 0; f < num_features_; ++f) {
    const float* id = id_.data() + f * dims_;
    const float* lv = level_.data() + level_of(x[f]) * dims_;
    k.mul_acc_f32(id, lv, h.data(), dims_);
  }
}

void IdLevelEncoder::encode_dims(std::span<const float> x,
                                 std::span<const std::size_t> dims,
                                 std::span<float> h) const {
  assert(x.size() == num_features_);
  for (std::size_t d : dims) h[d] = 0.0f;
  for (std::size_t f = 0; f < num_features_; ++f) {
    const float* id = id_.data() + f * dims_;
    const float* lv = level_.data() + level_of(x[f]) * dims_;
    for (std::size_t d : dims) h[d] += id[d] * lv[d];
  }
}

void IdLevelEncoder::regenerate(std::span<const std::size_t> dims,
                                core::Rng& rng) {
  // Dimension d's private state is component d of every ID and level
  // hypervector; resample them with the same flip-once construction the
  // constructor uses.
  for (std::size_t d : dims) {
    assert(d < dims_);
    for (std::size_t f = 0; f < num_features_; ++f) {
      id_[f * dims_ + d] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    }
    const float base = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    const std::size_t flip_at =
        rng.bernoulli(0.5) ? 1 + rng.next_below(num_levels_ - 1)
                           : num_levels_;
    for (std::size_t q = 0; q < num_levels_; ++q) {
      level_[q * dims_ + d] = q >= flip_at ? -base : base;
    }
  }
}

std::unique_ptr<Encoder> IdLevelEncoder::clone() const {
  return std::make_unique<IdLevelEncoder>(*this);
}

// ---- serialization -----------------------------------------------------------

namespace {

void write_matrix(std::ostream& out, const core::Matrix& m) {
  core::io::write_u64(out, m.rows());
  core::io::write_u64(out, m.cols());
  core::io::write_f32_array(out, {m.data(), m.size()});
}

core::Matrix read_matrix(std::istream& in) {
  const std::size_t rows = core::io::read_u64(in);
  const std::size_t cols = core::io::read_u64(in);
  // A shape whose product wraps would match a small (or empty) payload and
  // load dimensions with no storage behind them.
  if (cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols) {
    throw std::runtime_error("matrix shape overflows");
  }
  const std::vector<float> data = core::io::read_f32_array(in);
  if (data.size() != rows * cols) {
    throw std::runtime_error("matrix payload size mismatch");
  }
  core::Matrix m(rows, cols);
  std::copy(data.begin(), data.end(), m.data());
  return m;
}

}  // namespace

void RbfEncoder::serialize(std::ostream& out) const {
  // The stream keeps the D x F layout (row d is dimension d's bases), so
  // saved models load across the panel's in-memory transposition.
  core::io::write_tag(out, "ERBF");
  core::io::write_f32(out, lengthscale_);
  write_matrix(out, bases_.transposed());
  core::io::write_f32_array(out, biases_);
}

void SignProjectionEncoder::serialize(std::ostream& out) const {
  core::io::write_tag(out, "ESGN");
  write_matrix(out, bases_);
}

void IdLevelEncoder::serialize(std::ostream& out) const {
  core::io::write_tag(out, "EIDL");
  core::io::write_u64(out, num_features_);
  core::io::write_u64(out, dims_);
  core::io::write_u64(out, num_levels_);
  core::io::write_f32_array(out, id_);
  core::io::write_f32_array(out, level_);
}

std::unique_ptr<Encoder> deserialize_encoder(std::istream& in) {
  char tag[4];
  in.read(tag, 4);
  if (!in) throw std::runtime_error("truncated encoder stream");
  const std::string kind(tag, 4);
  if (kind == "ERBF") {
    auto enc = std::unique_ptr<RbfEncoder>(new RbfEncoder());
    enc->lengthscale_ = core::io::read_f32(in);
    enc->bases_ = read_matrix(in).transposed();
    enc->biases_ = core::io::read_f32_array(in);
    if (enc->biases_.size() != enc->bases_.cols()) {
      throw std::runtime_error("rbf bias/bases mismatch");
    }
    return enc;
  }
  if (kind == "ESGN") {
    auto enc =
        std::unique_ptr<SignProjectionEncoder>(new SignProjectionEncoder());
    enc->bases_ = read_matrix(in);
    return enc;
  }
  if (kind == "EIDL") {
    auto enc = std::unique_ptr<IdLevelEncoder>(new IdLevelEncoder());
    enc->num_features_ = core::io::read_u64(in);
    enc->dims_ = core::io::read_u64(in);
    enc->num_levels_ = core::io::read_u64(in);
    // level_of maps onto [0, num_levels - 1]: fewer than 2 levels (the
    // constructor's floor) would index a missing level table.
    if (enc->num_levels_ < 2) {
      throw std::runtime_error("id-level encoder needs at least 2 levels");
    }
    // Table shapes whose products wrap would match small (or empty)
    // arrays and load dimensions with no storage behind them.
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    if (enc->dims_ != 0 && (enc->num_features_ > kMax / enc->dims_ ||
                            enc->num_levels_ > kMax / enc->dims_)) {
      throw std::runtime_error("id-level shape overflows");
    }
    enc->id_ = core::io::read_f32_array(in);
    enc->level_ = core::io::read_f32_array(in);
    if (enc->id_.size() != enc->num_features_ * enc->dims_ ||
        enc->level_.size() != enc->num_levels_ * enc->dims_) {
      throw std::runtime_error("id-level payload mismatch");
    }
    return enc;
  }
  throw std::runtime_error("unknown encoder tag: " + kind);
}

// ---- factory ----------------------------------------------------------------

const char* to_string(EncoderKind kind) noexcept {
  switch (kind) {
    case EncoderKind::kRbf:
      return "rbf";
    case EncoderKind::kSignProjection:
      return "sign-projection";
    case EncoderKind::kIdLevel:
      return "id-level";
  }
  return "unknown";
}

std::unique_ptr<Encoder> make_encoder(EncoderKind kind, std::size_t input_dim,
                                      std::size_t output_dim, core::Rng& rng,
                                      float rbf_lengthscale) {
  switch (kind) {
    case EncoderKind::kRbf:
      return std::make_unique<RbfEncoder>(input_dim, output_dim, rng,
                                          rbf_lengthscale);
    case EncoderKind::kSignProjection:
      return std::make_unique<SignProjectionEncoder>(input_dim, output_dim,
                                                     rng);
    case EncoderKind::kIdLevel:
      return std::make_unique<IdLevelEncoder>(input_dim, output_dim, rng);
  }
  return nullptr;
}

float median_heuristic_lengthscale(const core::Matrix& x, core::Rng& rng,
                                   std::size_t max_pairs) {
  if (x.rows() < 2 || max_pairs == 0) return 1.0f;
  std::vector<float> dist_sq;
  dist_sq.reserve(max_pairs);
  for (std::size_t p = 0; p < max_pairs; ++p) {
    const std::size_t i = rng.next_below(x.rows());
    std::size_t j = rng.next_below(x.rows() - 1);
    if (j >= i) ++j;
    const auto a = x.row(i);
    const auto b = x.row(j);
    float d = 0.0f;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const float diff = a[c] - b[c];
      d += diff * diff;
    }
    dist_sq.push_back(d);
  }
  auto mid = dist_sq.begin() +
             static_cast<std::ptrdiff_t>(dist_sq.size() / 2);
  std::nth_element(dist_sq.begin(), mid, dist_sq.end());
  const float median = *mid;
  return median > 0.0f ? std::sqrt(median) : 1.0f;
}

}  // namespace cyberhd::hdc
