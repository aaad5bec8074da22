// The repository benchmark's accuracy floors, checked in tier-1.
//
// perfbench fits the model it serves and refuses a run whose held-out
// accuracy falls below the workload's pinned floor (BENCHMARK.json's
// accuracy_floor): 0.97 for the float model (cold-float) and 0.84 for its
// 1-bit snapshot (hot-1bit). A change to the arithmetic of the encoder or
// of fit() moves that model, so this test builds the same one — the
// CIC-IDS-2017 synthesizer at model seed 1, 2 x 4000 generated flows split
// in half, the library's defaults (the paper configuration) at D = 512 and
// seed 3 — and checks both floors before a benchmark run would.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/quantized.hpp"
#include "nids/datasets.hpp"
#include "nids/preprocess.hpp"

namespace cyberhd {
namespace {

std::size_t correct(const core::Classifier& model, const core::Matrix& x,
                    std::span<const int> y) {
  std::vector<int> predicted(x.rows());
  model.predict_batch(x, predicted);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    hits += predicted[i] == y[i] ? 1 : 0;
  }
  return hits;
}

TEST(ServedModel, BenchmarkAccuracyFloorsHold) {
  constexpr std::uint64_t kModelSeed = 1;
  constexpr std::size_t kFitRows = 4000;
  const nids::FlowSynthesizer synth =
      nids::make_synthesizer(nids::DatasetId::kCicIds2017, kModelSeed);
  const nids::TrainTestSplit split = nids::preprocess(
      synth.generate(2 * kFitRows, 0), 0.5, kModelSeed ^ 0x5eedULL);
  hdc::CyberHdConfig cfg;  // the library defaults are the paper's config
  cfg.dims = 512;
  cfg.seed = 3;
  hdc::CyberHdClassifier model(cfg);
  model.fit(split.train.x, split.train.y, split.train.num_classes);
  const hdc::QuantizedCyberHd one_bit(model, 1);

  const std::size_t n = split.test.size();
  const std::size_t float_hits = correct(model, split.test.x, split.test.y);
  const std::size_t bit_hits = correct(one_bit, split.test.x, split.test.y);
  std::printf("served model: float %zu/%zu, 1-bit %zu/%zu held-out flows\n",
              float_hits, n, bit_hits, n);
  EXPECT_GE(static_cast<double>(float_hits), 0.97 * static_cast<double>(n));
  EXPECT_GE(static_cast<double>(bit_hits), 0.84 * static_cast<double>(n));
}

}  // namespace
}  // namespace cyberhd
