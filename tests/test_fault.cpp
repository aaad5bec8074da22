// Tests for fault/bitflip: statistical flip-rate contracts, determinism,
// and the robustness ordering Fig. 5 depends on.
#include "fault/bitflip.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/quantized.hpp"

namespace cyberhd::fault {
namespace {

hdc::CyberHdClassifier trained_blob_model(core::Matrix& x,
                                          std::vector<int>& y) {
  const float centers[3][4] = {{0.2f, 0.2f, 0.8f, 0.5f},
                               {0.8f, 0.3f, 0.2f, 0.4f},
                               {0.5f, 0.8f, 0.5f, 0.9f}};
  core::Rng rng(5);
  const std::size_t per_class = 60;
  x.resize(3 * per_class, 4);
  y.resize(3 * per_class);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t row = c * per_class + i;
      for (std::size_t f = 0; f < 4; ++f) {
        x(row, f) =
            centers[c][f] + static_cast<float>(rng.gaussian(0.0, 0.06));
      }
      y[row] = static_cast<int>(c);
    }
  }
  hdc::CyberHdConfig cfg;
  cfg.dims = 512;
  cfg.regen_steps = 4;
  cfg.final_epochs = 4;
  cfg.parallel = false;
  hdc::CyberHdClassifier model(cfg);
  model.fit(x, y, 3);
  return model;
}

TEST(InjectFloats, ZeroRateIsNoop) {
  std::vector<float> values = {1.0f, -2.0f, 3.5f};
  const auto original = values;
  core::Rng rng(3);
  const FlipReport r = inject_floats(values, 0.0, rng);
  EXPECT_EQ(r.bits_flipped, 0u);
  EXPECT_EQ(values, original);
}

TEST(InjectFloats, ObservedRateMatchesRequested) {
  std::vector<float> values(10000, 1.0f);
  core::Rng rng(7);
  const FlipReport r = inject_floats(values, 0.05, rng);
  EXPECT_EQ(r.bits_considered, 10000u * 32u);
  EXPECT_NEAR(r.observed_rate(), 0.05, 0.003);
}

TEST(InjectFloats, FullRateFlipsEverything) {
  std::vector<float> values = {0.0f};
  core::Rng rng(9);
  const FlipReport r = inject_floats(values, 1.0, rng);
  EXPECT_EQ(r.bits_flipped, 32u);
  // All bits of +0.0f flipped = all-ones pattern = a NaN.
  EXPECT_TRUE(std::isnan(values[0]));
}

TEST(InjectFloats, DeterministicGivenRng) {
  std::vector<float> a(100, 2.5f), b(100, 2.5f);
  core::Rng r1(11), r2(11);
  inject_floats(a, 0.1, r1);
  inject_floats(b, 0.1, r2);
  EXPECT_EQ(a, b);
}

TEST(InjectHdc, OneBitFlipRate) {
  core::Matrix x;
  std::vector<int> y;
  const auto model = trained_blob_model(x, y);
  hdc::QuantizedHdcModel q(model.model(), 1);
  core::Rng rng(13);
  const FlipReport r = inject_hdc(q, 0.10, rng);
  EXPECT_EQ(r.bits_considered, q.storage_bits());
  EXPECT_NEAR(r.observed_rate(), 0.10, 0.03);
}

TEST(InjectHdc, MultiBitFlipRate) {
  core::Matrix x;
  std::vector<int> y;
  const auto model = trained_blob_model(x, y);
  hdc::QuantizedHdcModel q(model.model(), 8);
  core::Rng rng(17);
  const FlipReport r = inject_hdc(q, 0.02, rng);
  EXPECT_EQ(r.bits_considered, q.storage_bits());
  EXPECT_NEAR(r.observed_rate(), 0.02, 0.005);
}

TEST(InjectHdc, ZeroRateKeepsPredictions) {
  core::Matrix x;
  std::vector<int> y;
  const auto model = trained_blob_model(x, y);
  hdc::QuantizedCyberHd q(model, 4);
  const double before = q.evaluate(x, y);
  core::Rng rng(19);
  inject_hdc(q.model(), 0.0, rng);
  EXPECT_EQ(q.evaluate(x, y), before);
}

TEST(InjectHdc, LevelsStayInRangeAfterInjection) {
  core::Matrix x;
  std::vector<int> y;
  const auto model = trained_blob_model(x, y);
  hdc::QuantizedHdcModel q(model.model(), 4);
  core::Rng rng(23);
  inject_hdc(q, 0.3, rng);
  for (const auto& qv : q.level_classes()) {
    for (auto level : qv.levels) {
      EXPECT_GE(level, -7);
      EXPECT_LE(level, 7);
    }
  }
}

TEST(InjectHdc, OneBitModelToleratesModerateFlips) {
  // The holographic-robustness property: 1-bit HDC at a 2% flip rate
  // should lose very little accuracy.
  core::Matrix x;
  std::vector<int> y;
  const auto model = trained_blob_model(x, y);
  const hdc::QuantizedCyberHd clean(model, 1);
  const double clean_acc = clean.evaluate(x, y);
  double total_loss = 0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    hdc::QuantizedCyberHd faulty(model, 1);
    core::Rng rng(100 + t);
    inject_hdc(faulty.model(), 0.02, rng);
    total_loss += clean_acc - faulty.evaluate(x, y);
  }
  EXPECT_LT(total_loss / trials, 0.03);
}

TEST(InjectMlp, ChangesWeightsAtExpectedRate) {
  core::Matrix x(40, 2);
  std::vector<int> y(40);
  core::Rng data_rng(29);
  for (std::size_t i = 0; i < 40; ++i) {
    x(i, 0) = static_cast<float>(data_rng.gaussian(0, 1));
    x(i, 1) = static_cast<float>(data_rng.gaussian(0, 1));
    y[i] = x(i, 0) > 0 ? 1 : 0;
  }
  baselines::MlpConfig cfg;
  cfg.hidden = {16};
  cfg.epochs = 3;
  baselines::Mlp mlp(cfg);
  mlp.fit(x, y, 2);
  const std::size_t params = mlp.num_parameters();
  core::Rng rng(31);
  const FlipReport r = inject_mlp(mlp, 0.01, rng);
  EXPECT_EQ(r.bits_considered, params * 32u);
  EXPECT_NEAR(r.observed_rate(), 0.01, 0.005);
}

TEST(InjectMlpQuantized, CountsAndBoundedDamage) {
  core::Matrix x(60, 2);
  std::vector<int> y(60);
  core::Rng data_rng(37);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = static_cast<float>(data_rng.gaussian(0, 1));
    x(i, 1) = static_cast<float>(data_rng.gaussian(0, 1));
    y[i] = x(i, 0) > 0 ? 1 : 0;
  }
  baselines::MlpConfig cfg;
  cfg.hidden = {16};
  cfg.epochs = 10;
  baselines::Mlp mlp(cfg);
  mlp.fit(x, y, 2);
  const std::size_t params = mlp.num_parameters();
  core::Rng rng(41);
  const FlipReport r = inject_mlp_quantized(mlp, 8, 0.05, rng);
  EXPECT_EQ(r.bits_considered, params * 8u);
  EXPECT_NEAR(r.observed_rate(), 0.05, 0.02);
  // Fixed-point damage is bounded: no NaN/Inf anywhere.
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    const auto& w = mlp.layer_weights(l);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_TRUE(std::isfinite(w.data()[i]));
    }
  }
}

TEST(RobustnessOrdering, OneBitLosesLessThanEightBit) {
  // The core Fig. 5 mechanism, as a testable invariant: at a 5% flip rate,
  // averaged over seeds, 1-bit HDC loses no more accuracy than 8-bit HDC.
  core::Matrix x;
  std::vector<int> y;
  const auto model = trained_blob_model(x, y);
  const auto mean_loss = [&](int bits) {
    const hdc::QuantizedCyberHd clean(model, bits);
    const double clean_acc = clean.evaluate(x, y);
    double loss = 0;
    const int trials = 6;
    for (int t = 0; t < trials; ++t) {
      hdc::QuantizedCyberHd faulty(model, bits);
      core::Rng rng(200 + t);
      inject_hdc(faulty.model(), 0.05, rng);
      loss += clean_acc - faulty.evaluate(x, y);
    }
    return loss / trials;
  };
  EXPECT_LE(mean_loss(1), mean_loss(8) + 0.02);
}

}  // namespace
}  // namespace cyberhd::fault
