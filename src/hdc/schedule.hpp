// The shared training-schedule driver behind CyberHdClassifier::fit().
//
// The CyberHD fit loop of Fig. 2 — one-shot bundle, then N cycles of
// [adaptive epochs -> drop-and-regenerate -> refresh touched dims], then
// final epochs — used to exist twice: once over an in-memory encoded
// matrix and once in the streamed tile-at-a-time variant, differing only
// in how rows are produced and how regenerated columns are refreshed.
// ScheduleDriver owns that control flow exactly once; the two fit paths
// supply their row production and refresh strategies as SchedulePhases
// callbacks. Because the driver performs the same sequence of trainer,
// regeneration, and RNG operations the duplicated loops performed, the
// streamed == in-memory bit-identity contract is preserved by
// construction (and still pinned by tests).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "hdc/encoder.hpp"
#include "hdc/model.hpp"
#include "hdc/regen.hpp"
#include "hdc/trainer.hpp"

namespace cyberhd::hdc {

/// Per-fit diagnostics: accuracy trajectory, the regeneration ledger and
/// where the wall-clock time went.
struct FitReport {
  /// Training accuracy after each adaptive epoch, in order.
  std::vector<double> epoch_accuracy;
  /// Dimensions regenerated at each step.
  std::vector<std::size_t> regenerated_per_step;
  /// Final effective dimensionality D*.
  std::size_t effective_dims = 0;
  /// Total adaptive epochs run.
  std::size_t epochs = 0;
  /// Rows of the largest encoded buffer fit() held resident: the full
  /// training-set row count on the in-memory path, the tile row count when
  /// streaming — the observable for memory-bound deployments (and tests).
  std::size_t peak_encode_rows = 0;
  /// Wall-clock seconds of each phase, read from a steady clock once per
  /// phase call (never per sample), so they sum to at most fit()'s wall
  /// time:
  ///  * encode_s — the up-front encode of the in-memory fit (0 when fit()
  ///    streams: its encodes run inside the phases that need them);
  ///  * bundle_s — the one-shot bundle;
  ///  * epochs_s — every adaptive epoch;
  ///  * regen_s — the regeneration steps (variance, drop, resample);
  ///  * refresh_s — the refreshes of the regenerated dimensions.
  double encode_s = 0.0;
  double bundle_s = 0.0;
  double epochs_s = 0.0;
  double regen_s = 0.0;
  double refresh_s = 0.0;
};

/// The schedule knobs the driver consumes (a projection of CyberHdConfig).
struct ScheduleConfig {
  double regen_rate = 0.0;
  std::size_t regen_steps = 0;
  std::size_t epochs_per_step = 0;
  std::size_t final_epochs = 0;

  bool regenerating() const noexcept {
    return regen_rate > 0.0 && regen_steps > 0;
  }
};

/// The strategy callbacks a fit path plugs into the driver. All three are
/// required; each runs over whatever row storage the path owns.
struct SchedulePhases {
  /// One-shot initialization: bundle every training sample into the model.
  std::function<void()> bundle;
  /// One adaptive epoch over the whole training set, returning its stats.
  /// The callback draws its visit order from the training RNG, so calls
  /// must happen exactly in driver order — which they do, since only the
  /// driver calls it.
  std::function<EpochStats()> run_epoch;
  /// A regeneration step just resampled `dims`: refresh whatever encoded
  /// state the path caches and (when configured) re-bundle the touched
  /// model columns.
  std::function<void(std::span<const std::size_t> dims)> refresh_dims;
};

/// Centered re-bundle of freshly regenerated dimensions: double-precision
/// class sums minus each class's share of the grand mean, written straight
/// into the touched model columns. A raw bundle would hand the fresh
/// dimensions mostly class-common mass — exactly what the variance
/// criterion exists to remove. Shared by the in-memory and streamed regen
/// phases (and the golden-fit regression tests) so the arithmetic compiles
/// exactly once, which is what keeps their bit-identity contracts honest.
class RegenRebundle {
 public:
  RegenRebundle(std::size_t num_classes, std::span<const std::size_t> dims);

  /// Accumulate one encoded row (only the regenerated entries are read).
  void add_row(std::span<const float> h, std::size_t cls);

  /// Write the centered values into the model's touched columns.
  void apply(HdcModel& model, std::span<const int> labels) const;

 private:
  std::span<const std::size_t> dims_;
  std::vector<double> class_sum_;
  std::vector<double> total_sum_;
};

/// Runs the bundle -> [epochs -> regenerate -> refresh] x N -> final-epochs
/// schedule, recording the epoch-accuracy trajectory, the regeneration
/// ledger and the phase clocks (all but encode_s) into a FitReport.
class ScheduleDriver {
 public:
  ScheduleDriver(ScheduleConfig config, RegenController& regen,
                 HdcModel& model, Encoder& encoder, core::Rng& regen_rng)
      : config_(config),
        regen_(regen),
        model_(model),
        encoder_(encoder),
        regen_rng_(regen_rng) {}

  void run(FitReport& report, const SchedulePhases& phases) const;

 private:
  ScheduleConfig config_;
  RegenController& regen_;
  HdcModel& model_;
  Encoder& encoder_;
  core::Rng& regen_rng_;
};

}  // namespace cyberhd::hdc
