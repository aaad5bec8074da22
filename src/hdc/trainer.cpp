#include "hdc/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/kernels/kernels.hpp"

namespace cyberhd::hdc {

namespace {

// Stripe sizing of the one-shot bundle: inputs under 2 * 512 rows stay
// single-stripe (bit-identical to the historical sequential bundle into a
// zero model); larger ones split into up to 16 fixed stripes so
// initialize() parallelizes without the result depending on thread count.
constexpr std::size_t kInitStripeMinRows = 512;
constexpr std::size_t kInitMaxStripes = 16;

// Column striping of the update replay: boundaries are multiples of 16
// floats (one full zmm vector, a whole number of ymm vectors and cache
// lines), so every backend's axpy runs identical full-vector arithmetic
// inside a stripe — the bit-identity precondition. Stripes below 512
// columns aren't worth the dispatch.
constexpr std::size_t kUpdateStripeAlign = 16;
constexpr std::size_t kUpdateMinStripeCols = 512;

// Read-prefetch every 64-byte cache line of `row` into L1.
void prefetch_row(std::span<const float> row) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  constexpr std::size_t kLineFloats = 64 / sizeof(float);
  for (std::size_t i = 0; i < row.size(); i += kLineFloats) {
    __builtin_prefetch(row.data() + i, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)row;
#endif
}

}  // namespace

// ---- InitAccumulator --------------------------------------------------------

InitAccumulator::InitAccumulator(std::size_t num_classes, std::size_t dims,
                                 std::size_t total_rows)
    : total_rows_(total_rows) {
  const std::size_t stripes = std::clamp<std::size_t>(
      total_rows / kInitStripeMinRows, 1, kInitMaxStripes);
  stripe_rows_ = std::max<std::size_t>(1, (total_rows + stripes - 1) / stripes);
  stripe_sums_.assign(stripes, core::Matrix(num_classes, dims));
  stripe_means_.assign(stripes, std::vector<double>(dims, 0.0));
  stripe_counts_.assign(stripes, std::vector<std::size_t>(num_classes, 0));
}

std::size_t InitAccumulator::stripe_of(std::size_t global_row) const noexcept {
  return std::min(global_row / stripe_rows_, num_stripes() - 1);
}

std::pair<std::size_t, std::size_t> InitAccumulator::stripe_range(
    std::size_t s) const noexcept {
  const std::size_t begin = s * stripe_rows_;
  return {std::min(begin, total_rows_),
          std::min(begin + stripe_rows_, total_rows_)};
}

void InitAccumulator::accumulate(const core::Matrix& encoded,
                                 std::span<const int> labels,
                                 std::size_t begin, std::size_t end,
                                 std::size_t row_offset) {
  assert(end <= encoded.rows() && end <= labels.size());
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t s = stripe_of(row_offset + i);
    const int y = labels[i];
    assert(y >= 0 &&
           static_cast<std::size_t>(y) < stripe_counts_[s].size());
    const auto h = encoded.row(i);
    core::axpy(1.0f, h, stripe_sums_[s].row(static_cast<std::size_t>(y)));
    auto& mean = stripe_means_[s];
    for (std::size_t d = 0; d < h.size(); ++d) mean[d] += h[d];
    ++stripe_counts_[s][static_cast<std::size_t>(y)];
  }
}

void InitAccumulator::finish(HdcModel& model, const TrainerConfig& config) {
  const std::size_t num_classes = model.num_classes();
  const std::size_t dims = model.dims();
  for (std::size_t s = 0; s < num_stripes(); ++s) {
    assert(stripe_sums_[s].rows() == num_classes &&
           stripe_sums_[s].cols() == dims);
    for (std::size_t c = 0; c < num_classes; ++c) {
      core::axpy(1.0f, stripe_sums_[s].row(c), model.class_vector(c));
    }
  }
  if (config.center_initialization && total_rows_ > 0) {
    // Grand-mean encoding, then subtract each class's share of it so class
    // hypervectors start with purely discriminative content. Stripes merge
    // in index order, keeping the sums independent of how rows were fed in.
    std::vector<double> mean(dims, 0.0);
    std::vector<std::size_t> counts(num_classes, 0);
    for (std::size_t s = 0; s < num_stripes(); ++s) {
      for (std::size_t d = 0; d < dims; ++d) mean[d] += stripe_means_[s][d];
      for (std::size_t c = 0; c < num_classes; ++c) {
        counts[c] += stripe_counts_[s][c];
      }
    }
    const double inv_n = 1.0 / static_cast<double>(total_rows_);
    for (std::size_t c = 0; c < num_classes; ++c) {
      auto cv = model.class_vector(c);
      const double share = static_cast<double>(counts[c]) * inv_n;
      for (std::size_t d = 0; d < cv.size(); ++d) {
        cv[d] -= static_cast<float>(share * mean[d]);
      }
    }
  }
}

// ---- UpdateAccumulator ------------------------------------------------------

void UpdateAccumulator::collect(const EncodedRows& tile, const int* labels,
                                std::span<const float> scores,
                                std::size_t num_classes, EpochStats& stats) {
  const std::size_t rows = tile.rows();
  assert(scores.size() >= rows * num_classes);
  tile_ = tile;
  updates_.clear();
  touched_.assign(num_classes, 0);
  const auto step_weight = [&](float score) {
    return config_.similarity_weighted
               ? config_.learning_rate * (1.0f - score)
               : config_.learning_rate;
  };
  const auto record = [&](std::size_t r, std::size_t cls, float weight) {
    updates_.push_back({static_cast<std::uint32_t>(r),
                        static_cast<std::uint32_t>(cls), weight});
    touched_[cls] = 1;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    const auto truth = static_cast<std::size_t>(labels[r]);
    const std::span<const float> row_scores{scores.data() + r * num_classes,
                                            num_classes};
    const std::size_t pred = core::argmax(row_scores);
    if (pred != truth) {
      ++stats.mispredicted;
      // Truth before pred, matching the serial rule's axpy order (only the
      // per-class subsequence order matters — the axpys touch different
      // model rows — but keeping it identical costs nothing).
      record(r, truth, step_weight(row_scores[truth]));
      record(r, pred, -step_weight(row_scores[pred]));
    } else if (config_.reinforce_correct) {
      record(r, truth, step_weight(row_scores[truth]));
    }
  }
}

void UpdateAccumulator::apply(HdcModel& model,
                              const core::ExecutionContext& exec) const {
  if (updates_.empty()) return;
  assert(model.dims() == tile_.dims());
  const std::size_t dims = tile_.dims();
  const core::Kernels& k = exec.kernels();
  // Replay the whole update list restricted to columns [d0, d1): every
  // class's updates land in visit order, and the 16-float boundary keeps
  // each element's axpy arithmetic identical to a full-row call.
  const auto replay = [&](std::size_t d0, std::size_t d1) {
    for (const Update& u : updates_) {
      k.axpy_f32(u.weight, tile_.row(u.row).data() + d0,
                 model.class_vector(u.cls).data() + d0, d1 - d0);
    }
  };
  const std::size_t stripes =
      std::min(exec.workers(),
               std::max<std::size_t>(1, dims / kUpdateMinStripeCols));
  if (exec.pool() == nullptr || stripes <= 1) {
    replay(0, dims);
    return;
  }
  const std::size_t stripe_cols =
      ((dims + stripes - 1) / stripes + kUpdateStripeAlign - 1) /
      kUpdateStripeAlign * kUpdateStripeAlign;
  exec.parallel_for(
      stripes,
      [&](std::size_t s_begin, std::size_t s_end) {
        for (std::size_t s = s_begin; s < s_end; ++s) {
          const std::size_t d0 = s * stripe_cols;
          if (d0 >= dims) continue;
          replay(d0, std::min(dims, d0 + stripe_cols));
        }
      },
      /*grain=*/1);
}

void UpdateAccumulator::refresh_norms(const HdcModel& model,
                                      std::span<float> class_norms) const {
  assert(class_norms.size() == touched_.size());
  for (std::size_t c = 0; c < touched_.size(); ++c) {
    if (touched_[c] != 0) class_norms[c] = model.class_norm(c);
  }
}

// ---- Trainer ----------------------------------------------------------------

void Trainer::initialize(HdcModel& model, const core::Matrix& encoded,
                         std::span<const int> labels) const {
  assert(encoded.rows() == labels.size());
  assert(encoded.cols() == model.dims());
  InitAccumulator acc(model.num_classes(), model.dims(), encoded.rows());
  // One task per stripe: the partition is fixed by the row count, so the
  // merged result is the same whichever worker handles which stripe.
  exec_.parallel_for(
      acc.num_stripes(),
      [&](std::size_t s_begin, std::size_t s_end) {
        for (std::size_t s = s_begin; s < s_end; ++s) {
          const auto [begin, end] = acc.stripe_range(s);
          acc.accumulate(encoded, labels, begin, end, /*row_offset=*/0);
        }
      },
      /*grain=*/1);
  acc.finish(model, config_);
}

std::vector<std::size_t> Trainer::epoch_order(std::size_t n, core::Rng& rng,
                                              bool shuffle) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (shuffle) rng.shuffle(order);
  return order;
}

void Trainer::update_tile(HdcModel& model, const EncodedRows& rows,
                          const int* labels, EpochStats& stats) const {
  const std::size_t n = rows.rows();
  if (n == 0) return;
  const std::size_t batch = std::min(resolved_batch_size(rows.dims()), n);
  // A one-row tile gains nothing from the pool: score and replay it on a
  // pool-less copy of the context (same kernels and cache model, so an
  // injected backend still applies).
  const core::ExecutionContext serial(nullptr, &exec_.kernels(),
                                      exec_.cache());
  const core::ExecutionContext& ctx = batch > 1 ? exec_ : serial;
  const std::size_t classes = model.num_classes();
  std::vector<float> scores(batch * classes);
  // One tile's updates change only the classes they touch, so the norms
  // are computed once here and the touched ones recomputed after each
  // apply(), with the class_norm() the scorer would run: every score keeps
  // its bits.
  std::vector<float> class_norms(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    class_norms[c] = model.class_norm(c);
  }
  UpdateAccumulator acc(config_);
  for (std::size_t t = 0; t < n; t += batch) {
    const EncodedRows tile(rows.row_ptrs() + t, std::min(batch, n - t),
                           rows.dims());
    // The shuffled visit order reads the encoded set from outer cache; a
    // one-row tile is scored too fast to hide that, so start loading the
    // next sample now.
    if (batch == 1 && t + 1 < n) prefetch_row(rows.row(t + 1));
    // Frozen-model scoring through the batch scorer (the same bits for any
    // split), then the serial decision sweep and the striped replay —
    // deterministic for every worker count.
    model.similarities_into(tile, class_norms, scores.data(), ctx);
    acc.collect(tile, labels + t, scores, classes, stats);
    acc.apply(model, ctx);
    acc.refresh_norms(model, class_norms);
  }
}

EpochStats Trainer::train_epoch(HdcModel& model, const core::Matrix& encoded,
                                std::span<const int> labels,
                                core::Rng& rng) const {
  assert(encoded.rows() == labels.size());
  assert(encoded.cols() == model.dims());
  const std::size_t n = encoded.rows();
  const std::vector<std::size_t> order =
      epoch_order(n, rng, config_.shuffle);
  // One row-pointer table and label array over the visit order: every
  // tile is a window of them, and no encoded row is copied.
  std::vector<const float*> rows(n);
  std::vector<int> visit_labels(n);
  for (std::size_t j = 0; j < n; ++j) {
    rows[j] = encoded.row(order[j]).data();
    visit_labels[j] = labels[order[j]];
  }
  EpochStats stats;
  stats.samples = n;
  update_tile(model, EncodedRows(rows.data(), n, encoded.cols()),
              visit_labels.data(), stats);
  return stats;
}

void Trainer::train_tile(HdcModel& model, const core::Matrix& tile,
                         std::span<const int> labels,
                         EpochStats& stats) const {
  const std::size_t n = labels.size();
  assert(tile.rows() >= n);
  assert(tile.cols() == model.dims());
  std::vector<const float*> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = tile.row(i).data();
  update_tile(model, EncodedRows(rows.data(), n, tile.cols()), labels.data(),
              stats);
}

EpochStats Trainer::train(HdcModel& model, const core::Matrix& encoded,
                          std::span<const int> labels, std::size_t epochs,
                          core::Rng& rng) const {
  EpochStats last;
  for (std::size_t e = 0; e < epochs; ++e) {
    last = train_epoch(model, encoded, labels, rng);
  }
  return last;
}

double Trainer::evaluate(const HdcModel& model, const core::Matrix& encoded,
                         std::span<const int> labels,
                         const core::ExecutionContext& exec) {
  assert(encoded.rows() == labels.size());
  if (encoded.rows() == 0) return 0.0;
  core::Matrix scores;
  model.similarities_batch(encoded, scores, exec);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < encoded.rows(); ++i) {
    if (core::argmax(scores.row(i)) == static_cast<std::size_t>(labels[i])) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(encoded.rows());
}

}  // namespace cyberhd::hdc
