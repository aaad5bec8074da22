// CyberHdClassifier — the public facade of the paper's system.
//
// Wires together the encoder, the adaptive trainer, and the regeneration
// controller into the training loop of Fig. 2:
//
//   encode -> one-shot bundle -> [ adaptive epochs -> normalize ->
//   variance -> drop R% -> regenerate bases -> re-encode touched dims ] x N
//   -> final adaptive epochs
//
// The schedule control flow lives once, in hdc::ScheduleDriver; fit()
// plugs in either the in-memory phases (encode everything up front) or the
// streamed phases (tile-at-a-time encode→train, O(tile x D) peak memory).
// All parallelism and tiling policy flows through one
// core::ExecutionContext selected by config().parallel.
//
// With `regen_rate == 0` (or `regen_steps == 0`) this degrades exactly to
// the static-encoder baseline HDC the paper compares against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "core/exec/execution_context.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "hdc/encode_cache.hpp"
#include "hdc/encoder.hpp"
#include "hdc/model.hpp"
#include "hdc/regen.hpp"
#include "hdc/schedule.hpp"
#include "hdc/trainer.hpp"

namespace cyberhd::hdc {

/// Configuration of a CyberHD classifier.
struct CyberHdConfig {
  /// Physical hypervector dimensionality D.
  std::size_t dims = 512;
  /// Encoder family (RBF for cybersecurity data, per the paper).
  EncoderKind encoder = EncoderKind::kRbf;
  /// RBF kernel lengthscale; <= 0 selects the median heuristic (estimate
  /// the median pairwise training distance and match the kernel to it),
  /// the standard way to scale random Fourier features to a dataset.
  float lengthscale = 0.0f;
  /// Multiplier applied to the median-heuristic lengthscale when
  /// `lengthscale <= 0`. Intrusion corpora need a kernel sharper than the
  /// median pair distance — minority attack families live at small scales —
  /// so the domain default is below 1.
  float lengthscale_factor = 0.40f;
  /// Fraction of dimensions regenerated per step (the paper's R). 0 gives
  /// the static baseline HDC.
  double regen_rate = 0.25;
  /// Number of regeneration steps over the whole fit. With annealing the
  /// default schedule regenerates ~ 0.25 * 57 / 2 * D ~ 7.2x D dims,
  /// landing the effective dimensionality near the paper's D* = 8x D.
  std::size_t regen_steps = 57;
  /// Linearly anneal the regeneration rate from `regen_rate` to 0 across
  /// the steps (heavy feature search early, gentle late so the refined
  /// model is not disturbed). Total regenerated ~ rate * steps * D / 2.
  bool regen_anneal = true;
  /// Adaptive epochs between consecutive regeneration steps.
  std::size_t epochs_per_step = 1;
  /// Adaptive epochs after the final regeneration.
  std::size_t final_epochs = 10;
  /// Learning rate of the adaptive update. Class hypervectors start at
  /// bundled-sum scale, so sub-1 rates keep refinement from oscillating.
  float learning_rate = 0.3f;
  /// Use the paper's similarity-weighted (1 - delta) update; false gives a
  /// plain perceptron step (ablation).
  bool similarity_weighted_update = true;
  /// Re-bundle regenerated dimensions from the full training set right
  /// after resampling them (cheap one-shot relearn of the fresh dims);
  /// the adaptive epochs then refine. Disable to rely on adaptive updates
  /// alone, as an ablation.
  bool rebundle_after_regen = true;
  /// Minibatch tile size of the adaptive trainer: score this many shuffled
  /// samples against the frozen model in one blocked tile-kernel pass,
  /// then replay their (1 - delta)-weighted updates through the
  /// deterministic UpdateAccumulator — scoring and updates both split
  /// across the thread pool, bit-identical for every worker count. 1 (the
  /// default) reproduces the classic sample-at-a-time rule bit-exactly;
  /// larger tiles are the OnlineHD-style minibatch approximation that
  /// trades a bounded score lag for cache-tiled training throughput.
  /// 0 = auto: the execution context derives the L2-resident sweet spot
  /// from the machine's cache topology (pin it with CYBERHD_L2_BYTES for
  /// cross-host comparable runs).
  std::size_t batch_size = 1;
  /// Rows per encode→train chunk of fit(). 0 (the default) encodes the
  /// whole training set up front — peak encode memory O(n x D). When > 0,
  /// fit() streams: each phase (one-shot bundling, adaptive epochs, the
  /// regeneration re-bundles) encodes `train_tile_rows` rows at a time
  /// into one reused buffer, keeping peak encode memory at O(tile x D) at
  /// the price of re-encoding every epoch. With batch_size == 1 the
  /// streamed fit is bit-identical to the in-memory fit.
  std::size_t train_tile_rows = 0;
  /// Seed for encoder sampling, shuffling, and regeneration.
  std::uint64_t seed = 0xc1beau;
  /// Run encode, scoring, and update passes on the process execution
  /// context's thread pool; false pins everything to one thread.
  bool parallel = true;
};

/// The paper's classifier. Also usable as a plain core::Classifier.
class CyberHdClassifier final : public core::Classifier {
 public:
  explicit CyberHdClassifier(CyberHdConfig config = {});

  const CyberHdConfig& config() const noexcept { return config_; }

  /// The execution context this classifier's batch and training paths run
  /// on: the process context (global pool) when config().parallel, the
  /// serial context otherwise.
  const core::ExecutionContext& exec() const noexcept {
    return config_.parallel ? core::ExecutionContext::process()
                            : core::ExecutionContext::serial();
  }

  // core::Classifier ---------------------------------------------------------
  /// Throws std::invalid_argument, leaving the classifier unchanged, when
  /// x has no rows, y.size() != x.rows(), or a label lies outside
  /// [0, num_classes).
  void fit(const core::Matrix& x, std::span<const int> y,
           std::size_t num_classes) override;
  std::size_t num_classes() const noexcept override { return num_classes_; }
  int predict(std::span<const float> x) const override;
  std::string name() const override;

  /// Class-membership scores (cosine similarities) of one raw sample;
  /// `scores` has num_classes entries. Useful for alert thresholds. Runs
  /// as a one-row block of the pipeline below, encode cache bypassed, and
  /// allocates nothing once warm. predict() is its argmax. Both throw
  /// std::invalid_argument, touching nothing, on a miswidth span.
  void scores(std::span<const float> x,
              std::span<float> scores) const override;

  // -- the stage-split serving pipeline --------------------------------------
  // scores_batch (the core::Classifier driver) walks `x` in sub-batches
  // the L3-aware planner sizes (preferred_batch_rows) and runs each
  // through scores_block: stage 1 (encode_block over float entries, the
  // stage 1 QuantizedCyberHd shares) encodes the block — borrowing
  // repeated rows from the content-addressed encode cache in place — and
  // stage 2 streams the EncodedRows view through the gather tile scorer
  // while it is still L3-resident. Per-row results do not depend on the
  // block split or on the cache (on, off, or borrowed); predict_batch and
  // the per-sample calls ride the same scorer.

  /// Sub-batch size of the staged driver: the execution context's serving
  /// plan (ExecutionContext::plan_serving: one L3-resident block per
  /// shared-L3 domain).
  std::size_t preferred_batch_rows(const core::Matrix& x) const override;

  /// Stage 1 + stage 2 over one planned block (see class comment).
  void scores_block(const core::Matrix& x, std::size_t begin,
                    std::size_t end, core::Matrix& out) const override;

  /// Resize the serving encode cache: `capacity_rows` rows of raw +
  /// encoded storage split into `shards` independently locked partitions
  /// (0 = the CYBERHD_CACHE_SHARDS / topology default); capacity 0
  /// disables caching entirely. fit() and load() install the
  /// CYBERHD_ENCODE_CACHE env default automatically; call this to re-pin
  /// it (tests pin tiny evicting caches, servers size it to their flow
  /// working set). Resets hit/miss statistics.
  void set_encode_cache(std::size_t capacity_rows, std::size_t shards = 0);

  /// The serving encode cache, or nullptr when disabled. Exposes stats()
  /// and clear(); safe to use concurrently with scoring calls.
  EncodeCache* encode_cache() const noexcept { return encode_cache_.get(); }

  /// Diagnostics of the last fit() call.
  const FitReport& last_fit_report() const noexcept { return report_; }

  /// Effective dimensionality D* = D + total regenerated (paper Table I).
  std::size_t effective_dims() const noexcept;
  /// Physical dimensionality D.
  std::size_t physical_dims() const noexcept { return config_.dims; }

  /// The trained associative memory (valid after fit()).
  const HdcModel& model() const noexcept { return model_; }
  /// Mutable access for the fault subsystem: bit-flip injection and the
  /// serving integrity audit corrupt/heal the deployed weights in place
  /// (mirrors QuantizedCyberHd::model()). Not for concurrent use with
  /// scoring.
  HdcModel& model() noexcept { return model_; }
  /// The (possibly regenerated) encoder (valid after fit()).
  const Encoder& encoder() const;

  /// Default chunk size of the streamed class-matrix section: models whose
  /// weight payload exceeds this stream through fixed-size
  /// CRC32C-checksummed chunks (tag MDLC) with writer memory bounded by
  /// one chunk; smaller models keep the single-section MDL0 layout.
  static constexpr std::size_t kDefaultModelChunkBytes = 1 << 20;

  /// Persist the trained classifier (config, encoder, class hypervectors,
  /// and the effective-D ledger) to a binary stream. Format version 2:
  /// CRC32C-checksummed sections (config, encoder, model); the model
  /// section switches to the chunked MDLC layout when its payload exceeds
  /// `model_chunk_bytes`, so a D x classes matrix beyond RAM never has to
  /// be buffered whole. Tests pass a tiny chunk size to force the chunked
  /// layout on small models.
  void save(std::ostream& out,
            std::size_t model_chunk_bytes = kDefaultModelChunkBytes) const;
  /// Convenience: save to a file. Throws std::runtime_error on I/O error.
  void save_file(const std::string& path) const;
  /// Reconstruct a trained classifier from a stream written by save().
  /// Accepts the checksummed version-2 format (with either model-section
  /// layout, single MDL0 or chunked MDLC) and the pre-checksum version-1
  /// layout. Throws std::runtime_error on malformed or corrupt input
  /// (checksum failures name the offending section).
  static CyberHdClassifier load(std::istream& in);
  /// Convenience: load from a file.
  static CyberHdClassifier load_file(const std::string& path);

 private:
  /// Build the in-memory fit phases (whole training set encoded up front)
  /// and run them through the ScheduleDriver.
  void fit_in_memory(const core::Matrix& x, std::span<const int> y,
                     std::size_t num_classes, const Trainer& trainer,
                     const ScheduleDriver& driver, core::Rng& train_rng);
  /// Build the streamed fit phases (tile-at-a-time encode→train in one
  /// reused O(tile x D) buffer) and run them through the same driver.
  void fit_streamed(const core::Matrix& x, std::span<const int> y,
                    std::size_t num_classes, const Trainer& trainer,
                    const ScheduleDriver& driver, core::Rng& train_rng);
  /// The one scorer: encode_block through `cache` (nullptr encodes every
  /// row), then similarities_into, over rows [begin, end) of `x` into
  /// (end - begin) x num_classes() floats at `out`.
  void score_rows(const core::Matrix& x, std::size_t begin, std::size_t end,
                  EncodeCache* cache, float* out) const;

  CyberHdConfig config_;
  std::unique_ptr<Encoder> encoder_;
  HdcModel model_;
  std::optional<RegenController> regen_;
  FitReport report_;
  std::size_t num_classes_ = 0;
  // Serving-side encode cache (stage 1 of the pipeline); nullptr when
  // disabled. The EncodeCache is internally synchronized, so const
  // scoring calls from many threads stay safe.
  std::unique_ptr<EncodeCache> encode_cache_;
};

/// Convenience: a static-encoder baseline HDC (regeneration disabled) at
/// the given dimensionality — the paper's "BaselineHD (D = ...)".
CyberHdConfig baseline_hd_config(std::size_t dims, std::uint64_t seed = 1);

}  // namespace cyberhd::hdc
