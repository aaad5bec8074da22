#include "hdc/schedule.hpp"

#include <cassert>

#include "core/timer.hpp"

namespace cyberhd::hdc {

RegenRebundle::RegenRebundle(std::size_t num_classes,
                             std::span<const std::size_t> dims)
    : dims_(dims),
      class_sum_(num_classes * dims.size(), 0.0),
      total_sum_(dims.size(), 0.0) {}

void RegenRebundle::add_row(std::span<const float> h, std::size_t cls) {
  const std::size_t nd = dims_.size();
  for (std::size_t j = 0; j < nd; ++j) {
    const double v = h[dims_[j]];
    class_sum_[cls * nd + j] += v;
    total_sum_[j] += v;
  }
}

void RegenRebundle::apply(HdcModel& model,
                          std::span<const int> labels) const {
  const std::size_t nd = dims_.size();
  std::vector<double> counts(model.num_classes(), 0.0);
  for (const int y : labels) counts[static_cast<std::size_t>(y)] += 1.0;
  const double inv_n = 1.0 / static_cast<double>(labels.size());
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    auto cv = model.class_vector(c);
    for (std::size_t j = 0; j < nd; ++j) {
      cv[dims_[j]] = static_cast<float>(
          class_sum_[c * nd + j] - counts[c] * total_sum_[j] * inv_n);
    }
  }
}

void ScheduleDriver::run(FitReport& report,
                         const SchedulePhases& phases) const {
  assert(phases.bundle && phases.run_epoch && phases.refresh_dims);
  const auto timed = [](double& seconds, auto&& phase) {
    const core::Timer timer;
    phase();
    seconds += timer.seconds();
  };
  timed(report.bundle_s, phases.bundle);

  const auto run_epochs = [&](std::size_t count) {
    for (std::size_t e = 0; e < count; ++e) {
      EpochStats stats;
      timed(report.epochs_s, [&] { stats = phases.run_epoch(); });
      report.epoch_accuracy.push_back(stats.accuracy());
      ++report.epochs;
    }
  };

  // Regeneration cycles: retrain, then drop-and-regenerate (steps D..H of
  // the workflow), then let the caller refresh the touched columns.
  if (config_.regenerating()) {
    for (std::size_t s = 0; s < config_.regen_steps; ++s) {
      run_epochs(config_.epochs_per_step);
      RegenStep step;
      timed(report.regen_s,
            [&] { step = regen_.step(model_, encoder_, regen_rng_); });
      report.regenerated_per_step.push_back(step.dims.size());
      if (!step.dims.empty()) {
        timed(report.refresh_s, [&] { phases.refresh_dims(step.dims); });
      }
    }
  }
  run_epochs(config_.final_epochs);
  report.effective_dims = regen_.effective_dims();
}

}  // namespace cyberhd::hdc
