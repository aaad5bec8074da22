// HDC training: one-shot bundling plus adaptive iterative refinement.
//
// The adaptive rule is the paper's section III "HDC Learning": for an
// encoded sample H with true label l, compute cosine similarities delta to
// every class hypervector; if the argmax l' differs from l, update
//   C_l  <- C_l  + eta * (1 - delta_l ) * H
//   C_l' <- C_l' - eta * (1 - delta_l') * H
// so that common patterns (delta ~ 1) barely perturb the model while novel
// patterns (delta ~ 0) move it strongly — the saturation-avoidance weighting
// that lets HDC converge in few epochs.
//
// The engine is cache-tiled and thread-parallel, with every policy knob
// (kernel backend, worker pool, tile sizes) supplied by one
// core::ExecutionContext instead of scattered pool pointers and hand-tuned
// constants:
//  * Adaptive epochs run in minibatch tiles (TrainerConfig::batch_size;
//    0 = auto, derived from the machine's L2 by the context): the model's
//    batch scorer (HdcModel::similarities_into, the one serving uses)
//    scores a whole tile of shuffled samples against the frozen model —
//    split across the context's pool — then the (1 - delta)-weighted
//    updates replay through the UpdateAccumulator, also thread-parallel
//    yet bit-identical for every worker count. Training reads its rows
//    through an EncodedRows view (train_rows): a row-pointer table over
//    the visit order, so no sample is copied, and fit() hands an epoch
//    over window by window. batch_size = 1 reproduces the classic
//    sample-at-a-time rule bit-exactly; larger tiles are the
//    OnlineHD-style minibatch approximation (scores lag the updates by at
//    most one tile).
//  * One-shot bundling runs through fixed row stripes (a function of the
//    row count only), each accumulated independently and merged in stripe
//    order, so the model is bit-identical for any thread count and any
//    split of the rows into windows: initialize() is the one-window case.
//  * evaluate() rides HdcModel::similarities_batch (the same batch scorer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/exec/execution_context.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "hdc/encoded_batch.hpp"
#include "hdc/model.hpp"

namespace cyberhd::hdc {

/// Hyper-parameters of the adaptive trainer.
struct TrainerConfig {
  /// Learning rate eta of the adaptive update.
  float learning_rate = 1.0f;
  /// When true (the paper's rule), updates are scaled by (1 - delta): the
  /// less familiar the sample, the stronger the update. When false, a
  /// plain perceptron-style constant-step update — the ablation baseline.
  bool similarity_weighted = true;
  /// When true, epochs visit samples in a freshly shuffled order.
  bool shuffle = true;
  /// When true, even correctly-classified samples reinforce their class by
  /// eta * (1 - delta) * H (pure NeuralHD uses mispredict-only updates;
  /// reinforcement slightly smooths small-class hypervectors).
  bool reinforce_correct = false;
  /// Remove the across-class common mode from the one-shot bundle: after
  /// bundling, subtract each class's share of the grand-mean encoding.
  /// Without this, every class hypervector is dominated by the mean
  /// encoding direction, cosine similarities start near 1 for all classes,
  /// and the (1 - delta)-weighted updates crawl through a long plateau.
  bool center_initialization = true;
  /// Minibatch tile size of the adaptive epoch: this many shuffled samples
  /// are scored against the frozen model with one blocked tile-kernel call
  /// before their updates are applied in visit order. 1 (the default) is
  /// the classic sequential rule, bit-exactly; larger tiles trade a
  /// bounded score lag for tile-kernel throughput and thread-parallel
  /// scoring and updates. 0 = auto: the execution context derives the
  /// L2-resident sweet spot from the cache topology
  /// (ExecutionContext::score_block_rows).
  std::size_t batch_size = 1;
};

/// Result of one training epoch.
struct EpochStats {
  std::size_t samples = 0;
  std::size_t mispredicted = 0;
  /// Training accuracy observed during the epoch (before each update).
  double accuracy() const noexcept {
    return samples == 0 ? 0.0
                        : 1.0 - static_cast<double>(mispredicted) /
                                    static_cast<double>(samples);
  }
};

/// Striped one-shot-bundling accumulator — the deterministic core behind
/// Trainer::initialize and fit()'s bundle phase.
///
/// Rows are partitioned into fixed stripes by their *global* index (the
/// partition depends only on the total row count), each stripe keeps its
/// own float class sums and double mean sums, and finish() merges stripes
/// in index order. Because the arithmetic never depends on which thread
/// processed a stripe or on how the rows were split into windows,
/// initialize() over 1, 2, or 8 workers and a window-by-window
/// accumulation all produce bit-identical models. With a single stripe
/// (small inputs) the result is bit-identical to the historical
/// sequential bundle-into-a-zero-model.
class InitAccumulator {
 public:
  InitAccumulator(std::size_t num_classes, std::size_t dims,
                  std::size_t total_rows);

  /// Bundle one window of encoded rows: row i of `rows`, labelled
  /// labels[i], carries global index row_offset + i. The window splits at
  /// the stripe boundaries it reaches, one task per stripe on the
  /// context's pool. Windows must arrive in index order, so every stripe
  /// sums its rows in the same order however the set was split.
  void accumulate(const EncodedRows& rows, std::span<const int> labels,
                  std::size_t row_offset, const core::ExecutionContext& exec);

  /// Merge the stripes into `model` in stripe order and, when the config
  /// asks for it, remove the across-class common mode.
  void finish(HdcModel& model, const TrainerConfig& config);

 private:
  std::size_t num_stripes() const noexcept { return stripe_sums_.size(); }

  std::size_t total_rows_;
  std::size_t stripe_rows_;
  std::vector<core::Matrix> stripe_sums_;              // per stripe: C x D
  std::vector<std::vector<double>> stripe_means_;      // per stripe: D
  std::vector<std::vector<std::size_t>> stripe_counts_;  // per stripe: C
};

/// Deterministic, thread-parallel application of one scored tile's
/// adaptive updates — what removes the serial axpy pass that capped
/// multi-core minibatch training.
///
/// collect() is the decision pass: serial and cheap (O(rows x classes)),
/// it reads the frozen tile scores, counts mispredictions, and records the
/// update list (row, class, step weight) in visit order. apply() replays
/// that list over the model in column stripes split across the context's
/// pool. Stripe boundaries are multiples of 16 floats, so every kernel
/// backend's axpy runs full SIMD vectors inside a stripe with the scalar
/// tail only at the true row end — the per-element arithmetic is exactly
/// the full-row axpy's, which makes the striped replay bit-identical to
/// the serial update rule for every worker count and stripe split.
class UpdateAccumulator {
 public:
  explicit UpdateAccumulator(const TrainerConfig& config)
      : config_(config) {}

  /// Decision pass over one scored tile: `tile` views its encoded
  /// samples, `scores` their frozen cosine rows (tile.rows() x
  /// num_classes). Mispredictions accumulate into `stats`; the recorded
  /// update list replaces any previous one. apply() reads the rows through
  /// the view, so its pointer table must outlive the replay.
  void collect(const EncodedRows& tile, const int* labels,
               std::span<const float> scores, std::size_t num_classes,
               EpochStats& stats);

  /// Replay the recorded updates onto `model`, columns striped across the
  /// context's pool (serially when it has none). Bit-identical to applying
  /// them serially in visit order, for any worker count.
  void apply(HdcModel& model, const core::ExecutionContext& exec) const;

  /// After apply(): recompute HdcModel::class_norm of every class the
  /// recorded updates touched, once each however many updates it took.
  /// The other entries of `class_norms` still hold their classes' exact
  /// norms, since their vectors did not change.
  void refresh_norms(const HdcModel& model,
                     std::span<float> class_norms) const;

  std::size_t num_updates() const noexcept { return updates_.size(); }

 private:
  struct Update {
    std::uint32_t row;
    std::uint32_t cls;
    float weight;  // signed step: eta * (1 - delta), negated for the
                   // mispredicted class
  };

  TrainerConfig config_;
  EncodedRows tile_;
  std::vector<Update> updates_;
  std::vector<char> touched_;  // per class: updated by this tile
};

/// Trains an HdcModel over pre-encoded data. All parallelism and tiling
/// policy comes from the ExecutionContext given at construction (the
/// default is strictly serial).
class Trainer {
 public:
  explicit Trainer(TrainerConfig config = {},
                   const core::ExecutionContext& exec =
                       core::ExecutionContext::serial())
      : config_(config), exec_(exec) {}

  const TrainerConfig& config() const noexcept { return config_; }
  const core::ExecutionContext& exec() const noexcept { return exec_; }

  /// The minibatch size one epoch over `dims`-wide data actually uses:
  /// config().batch_size, or the context's cache-derived
  /// score_block_rows(dims) when batch_size == 0 (auto) — the L2 sweet
  /// spot is the block the scorer streams. Benches report this so CSV
  /// rows from different hosts stay comparable.
  std::size_t resolved_batch_size(std::size_t dims) const noexcept {
    return config_.batch_size != 0 ? config_.batch_size
                                   : exec_.score_block_rows(dims);
  }

  /// One-shot initialization: bundle every encoded sample into its class
  /// (the classic single-pass HDC "training") as one InitAccumulator
  /// window. The model must match (num_classes x dims) of the data.
  /// Stripes split across the context's pool; the result is bit-identical
  /// for every thread count.
  void initialize(HdcModel& model, const core::Matrix& encoded,
                  std::span<const int> labels) const;

  /// One adaptive epoch over the encoded data: train_rows over the rows
  /// in epoch_order(). Returns per-epoch stats.
  EpochStats train_epoch(HdcModel& model, const core::Matrix& encoded,
                         std::span<const int> labels, core::Rng& rng) const;

  /// Run `epochs` adaptive epochs; returns stats of the final epoch.
  EpochStats train(HdcModel& model, const core::Matrix& encoded,
                   std::span<const int> labels, std::size_t epochs,
                   core::Rng& rng) const;

  /// Apply the adaptive rule to `rows` in order (`labels` alongside), in
  /// resolved_batch_size() tiles. Each tile is scored against the frozen
  /// model by HdcModel::similarities_into, then its updates replay through
  /// the UpdateAccumulator — both split across the context's pool when
  /// the batch is larger than one row. The class norms are computed once
  /// per call and only the touched classes' recomputed after each tile, so
  /// the scores keep their bits. Mispredictions accumulate into `stats`
  /// (`stats.samples` is the caller's bookkeeping). Feeding an epoch
  /// window by window along epoch_order() reproduces train_epoch
  /// bit-exactly when the window size is a multiple of the batch size.
  void train_rows(HdcModel& model, const EncodedRows& rows,
                  std::span<const int> labels, EpochStats& stats) const;

  /// The sample visit order of one epoch: [0, n) shuffled when `shuffle`.
  /// Exposed so fit() draws exactly the same sequence from the same
  /// generator as train_epoch.
  static std::vector<std::size_t> epoch_order(std::size_t n, core::Rng& rng,
                                              bool shuffle);

  /// Accuracy of the model over an encoded set (no updates). Rides
  /// HdcModel::similarities_batch, so it scores at tile-kernel speed and
  /// splits across the context's pool.
  static double evaluate(const HdcModel& model, const core::Matrix& encoded,
                         std::span<const int> labels,
                         const core::ExecutionContext& exec =
                             core::ExecutionContext::serial());

 private:
  TrainerConfig config_;
  core::ExecutionContext exec_;
};

}  // namespace cyberhd::hdc
