// The serving workloads of the repository benchmark and the benchmark-side
// tracing of each layer's public calls.
//
// Layers (this repository's modules):
//   serve   — serve::SubmissionQueue, the serve::Server batcher, ResultSlot
//             delivery;
//   cache   — hdc/encode_cache;
//   encoder — hdc/encoder, plus the fused packed encode;
//   model   — scoring in hdc/model and hdc/quantized;
//   trainer — hdc/trainer, regen and schedule, as CyberHdClassifier::fit
//             drives them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/classifier.hpp"
#include "core/matrix.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/quantized.hpp"

namespace perfbench {

/// One run's settings: the command-line arguments plus the pinned settings
/// BENCHMARK.json's command carries (hdbench requires every one of them).
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON path ("" = none)
  long linger_us = 0;
  std::size_t cache_rows = 0;
  std::size_t ring_slots = 0;
  double rate_fps = 0.0;         // the workload's one fixed offered rate
  double p99_limit_us = 0.0;     // the capacity search's latency limit
  std::size_t window_flows = 0;  // flows per latency-percentile window
  std::size_t population = 0;    // distinct flows the traffic draws from
  std::size_t fit_rows = 0;      // training rows of the served model
  std::uint64_t model_seed = 0;  // seed of the served model's flows
  double accuracy_floor = 0.0;   // the served model's held-out accuracy
};

Report run_serving(const Options& opt);

/// Add every per-layer metric the workload did not measure as 0 (its layer
/// does not run there), then print the per-layer table: each metric, its
/// value, and the end-to-end metric and workload it is predicted to move.
void finish_layer_report(Report& report, const std::string& workload);

// ---- serving-side tracing ---------------------------------------------------

/// One traced scores_block call: the model-side span of one flush (or one
/// planner block of it) and the time its layers took inside it.
struct BlockCall {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint32_t rows = 0;
  std::int64_t cache_ns = 0;    // EncodeCache::encode_entries_borrowed
  std::int64_t encoder_ns = 0;  // encode tiles inside its miss callback
  std::uint32_t encoder_rows = 0;
  std::int64_t model_ns = 0;    // the row-pointer scorer
  std::int64_t release_ns = 0;  // BorrowGuard::release
};

/// A core::Classifier decorator over a served CyberHD model whose
/// scores_block makes the same public calls the wrapped model's own
/// scores_block makes, in the same order, and times each one:
///   1. EncodeCache::encode_entries_borrowed, with a miss callback that
///      gathers the missed rows into ws.miss_raw and runs
///      Encoder::encode_tile (float) or
///      QuantizedCyberHd::encode_tile_packed (1-bit);
///   2. the row-pointer scorer (HdcModel::similarities_into or
///      QuantizedHdcModel::similarities_packed);
///   3. the borrow release.
/// The wrapped model must have its encode cache armed.
class TracedModel final : public cyberhd::core::Classifier {
 public:
  TracedModel(const cyberhd::hdc::CyberHdClassifier& model, Tracer& tracer);
  TracedModel(const cyberhd::hdc::QuantizedCyberHd& model, Tracer& tracer);

  void fit(const cyberhd::core::Matrix& x, std::span<const int> y,
           std::size_t num_classes) override;
  std::size_t num_classes() const noexcept override {
    return base_.num_classes();
  }
  int predict(std::span<const float> x) const override {
    return base_.predict(x);
  }
  void scores(std::span<const float> x,
              std::span<float> out) const override {
    base_.scores(x, out);
  }
  std::size_t preferred_batch_rows(
      const cyberhd::core::Matrix& x) const override {
    return base_.preferred_batch_rows(x);
  }
  void scores_block(const cyberhd::core::Matrix& x, std::size_t begin,
                    std::size_t end,
                    cyberhd::core::Matrix& out) const override;
  std::string name() const override { return "traced:" + base_.name(); }

  /// The calls recorded so far, in completion order.
  std::vector<BlockCall> calls() const;

 private:
  const cyberhd::core::Classifier& base_;
  const cyberhd::hdc::CyberHdClassifier* float_ = nullptr;
  const cyberhd::hdc::QuantizedCyberHd* packed_ = nullptr;
  Tracer& tracer_;
  mutable std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;
  mutable std::vector<BlockCall> calls_;
};

/// Sums of the layer times of a set of block calls.
struct LayerTotals {
  std::uint64_t rows = 0;
  std::int64_t cache_self_ns = 0;  // cache driver minus encoder, plus release
  std::int64_t encoder_ns = 0;
  std::uint64_t encoder_rows = 0;
  std::int64_t model_ns = 0;
};
LayerTotals sum_calls(std::span<const BlockCall> calls);

/// Report the cache/encoder/model metrics of traced scoring: the scoring
/// and encoding layer totals, cache counter deltas, the model's shape.
struct ScoringShape {
  std::size_t dims = 0;
  std::size_t features = 0;
  std::size_t classes = 0;
  int bits = 32;             // 32 = float rows, 1 = packed sign words
  std::size_t tile_rows = 1;  // rows per scoring tile (score_block_rows)
};
void report_scoring_layers(Report& report, const LayerTotals& scoring,
                           const LayerTotals& encoding,
                           const ScoringShape& shape, std::uint64_t hits,
                           std::uint64_t misses, std::uint64_t evictions,
                           double resident_mib);

// ---- training-side tracing --------------------------------------------------

/// Layer times of one traced fit.
struct FitTrace {
  double wall_s = 0.0;
  double encode_s = 0.0;   // Encoder::encode_batch
  double bundle_s = 0.0;   // Trainer::initialize
  double regen_s = 0.0;    // RegenController::step (in ScheduleDriver)
  double refresh_s = 0.0;  // encode_batch_dims + re-bundle
  std::vector<double> epoch_ms;  // Trainer::train_epoch, per call
  std::uint64_t updates = 0;     // mispredicted samples over all epochs
  std::size_t rows = 0;
  /// The traced class matrix is bit-identical to `reference`.
  bool matches = false;
};

/// Re-run fit()'s in-memory path call for call — the same RNG forks,
/// encoder, trainer and hdc::ScheduleDriver, with phase callbacks making
/// the same public calls as fit()'s — timing every phase. `reference` is
/// the class matrix fit() produced on the same inputs.
FitTrace traced_fit(const cyberhd::core::Matrix& x, std::span<const int> y,
                    std::size_t num_classes,
                    const cyberhd::hdc::CyberHdConfig& config,
                    const cyberhd::core::Matrix& reference, Tracer& tracer);
void report_trainer_layers(Report& report, const FitTrace& fit);

}  // namespace perfbench
