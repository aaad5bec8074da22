// Unit tests for hdc/regen: variance-ranked dropping, the effective-D
// ledger, annealing, and the fresh-dimension grace period.
#include "hdc/regen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/rng.hpp"
#include "hdc/encoder.hpp"
#include "hdc/model.hpp"

namespace cyberhd::hdc {
namespace {

struct RegenFixture {
  HdcModel model{3, 64};
  std::unique_ptr<Encoder> encoder;
  core::Rng rng{11};

  RegenFixture() {
    core::Rng enc_rng(7);
    encoder = std::make_unique<RbfEncoder>(4, 64, enc_rng);
    // Give the model non-trivial per-dimension variance.
    core::Rng data_rng(13);
    for (std::size_t c = 0; c < 3; ++c) {
      std::vector<float> h(64);
      core::fill_gaussian(data_rng, h.data(), h.size(), 0.0f, 1.0f);
      model.bundle(c, h);
    }
  }
};

TEST(RegenController, DimsPerStep) {
  RegenController c(512, 0.25);
  EXPECT_EQ(c.dims_per_step(), 128u);
  RegenController zero(512, 0.0);
  EXPECT_EQ(zero.dims_per_step(), 0u);
  RegenController small(10, 0.05);
  EXPECT_EQ(small.dims_per_step(), 0u);  // floor
}

TEST(RegenController, ZeroRateStepIsNoop) {
  RegenFixture f;
  RegenController c(64, 0.0);
  const HdcModel before = f.model;
  const RegenStep step = c.step(f.model, *f.encoder, f.rng);
  EXPECT_TRUE(step.dims.empty());
  EXPECT_EQ(step.effective_dims, 64u);
  EXPECT_EQ(c.total_regenerated(), 0u);
  EXPECT_EQ(f.model.weights(), before.weights());
}

TEST(RegenController, StepZeroesModelAndBooksLedger) {
  RegenFixture f;
  RegenController c(64, 0.25);
  const RegenStep step = c.step(f.model, *f.encoder, f.rng);
  ASSERT_EQ(step.dims.size(), 16u);
  for (std::size_t d : step.dims) {
    for (std::size_t cls = 0; cls < 3; ++cls) {
      EXPECT_EQ(f.model.class_vector(cls)[d], 0.0f);
    }
  }
  EXPECT_EQ(c.total_regenerated(), 16u);
  EXPECT_EQ(c.effective_dims(), 80u);
  EXPECT_EQ(step.effective_dims, 80u);
  EXPECT_EQ(c.steps(), 1u);
}

TEST(RegenController, DropsLowestVarianceDims) {
  HdcModel model(2, 4);
  // dim 2 constant across classes (lowest variance after normalize);
  // dims 0,1,3 vary.
  model.bundle(0, std::vector<float>{1.0f, -1.0f, 0.5f, 0.3f});
  model.bundle(1, std::vector<float>{-1.0f, 1.0f, 0.5f, -0.3f});
  core::Rng enc_rng(3);
  RbfEncoder enc(2, 4, enc_rng);
  RegenController c(4, 0.25);  // one dim per step
  core::Rng rng(5);
  const RegenStep step = c.step(model, enc, rng);
  ASSERT_EQ(step.dims.size(), 1u);
  EXPECT_EQ(step.dims[0], 2u);
}

TEST(RegenController, GracePeriodProtectsFreshDims) {
  RegenFixture f;
  RegenController c(64, 0.25);
  const RegenStep first = c.step(f.model, *f.encoder, f.rng);
  // Freshly zeroed dims have variance 0 — without the grace period the
  // second step would pick exactly the same dims again.
  const RegenStep second = c.step(f.model, *f.encoder, f.rng);
  std::set<std::size_t> first_set(first.dims.begin(), first.dims.end());
  for (std::size_t d : second.dims) {
    EXPECT_FALSE(first_set.contains(d)) << "dim " << d << " re-dropped";
  }
}

TEST(RegenController, LedgerAccumulatesAcrossSteps) {
  RegenFixture f;
  RegenController c(64, 0.125);  // 8 dims/step
  for (int s = 1; s <= 5; ++s) {
    c.step(f.model, *f.encoder, f.rng);
    EXPECT_EQ(c.total_regenerated(), 8u * static_cast<std::size_t>(s));
    EXPECT_EQ(c.effective_dims(), 64u + 8u * static_cast<std::size_t>(s));
  }
  EXPECT_EQ(c.steps(), 5u);
}

TEST(RegenController, AnnealDecaysLinearly) {
  RegenController c(100, 0.40, /*anneal_steps=*/4);
  EXPECT_DOUBLE_EQ(c.current_rate(), 0.40);
  EXPECT_EQ(c.dims_per_step(), 40u);
  RegenFixture f;
  HdcModel model(3, 100);
  core::Rng enc_rng(17);
  RbfEncoder enc(4, 100, enc_rng);
  core::Rng data_rng(19);
  for (std::size_t cls = 0; cls < 3; ++cls) {
    std::vector<float> h(100);
    core::fill_gaussian(data_rng, h.data(), h.size(), 0.0f, 1.0f);
    model.bundle(cls, h);
  }
  core::Rng rng(23);
  std::vector<std::size_t> per_step;
  for (int s = 0; s < 6; ++s) {
    per_step.push_back(c.step(model, enc, rng).dims.size());
  }
  EXPECT_EQ(per_step[0], 40u);  // 0.40
  EXPECT_EQ(per_step[1], 30u);  // 0.30
  EXPECT_EQ(per_step[2], 20u);  // 0.20
  EXPECT_EQ(per_step[3], 10u);  // 0.10
  EXPECT_EQ(per_step[4], 0u);   // annealed out
  EXPECT_EQ(per_step[5], 0u);
  EXPECT_EQ(c.total_regenerated(), 100u);
}

TEST(RegenController, NoAnnealKeepsConstantRate) {
  RegenController c(100, 0.20, /*anneal_steps=*/0);
  EXPECT_DOUBLE_EQ(c.current_rate(), 0.20);
  RegenFixture f;
  HdcModel model(2, 100);
  core::Rng data_rng(29);
  for (std::size_t cls = 0; cls < 2; ++cls) {
    std::vector<float> h(100);
    core::fill_gaussian(data_rng, h.data(), h.size(), 0.0f, 1.0f);
    model.bundle(cls, h);
  }
  core::Rng enc_rng(31);
  RbfEncoder enc(4, 100, enc_rng);
  core::Rng rng(37);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(c.step(model, enc, rng).dims.size(), 20u);
  }
}

TEST(RegenController, StepRegeneratesEncoderRows) {
  RegenFixture f;
  RegenController c(64, 0.25);
  const auto* rbf = dynamic_cast<RbfEncoder*>(f.encoder.get());
  ASSERT_NE(rbf, nullptr);
  const core::Matrix bases_before = rbf->bases();
  const RegenStep step = c.step(f.model, *f.encoder, f.rng);
  const core::Matrix& bases_after = rbf->bases();
  // The panel is F x D: dimension d's base vector is column d.
  for (std::size_t d : step.dims) {
    bool changed = false;
    for (std::size_t i = 0; i < bases_before.rows(); ++i) {
      if (bases_before(i, d) != bases_after(i, d)) changed = true;
    }
    EXPECT_TRUE(changed) << "dim " << d;
  }
}

TEST(RegenController, DimsAreUniqueWithinStep) {
  RegenFixture f;
  RegenController c(64, 0.5);
  const RegenStep step = c.step(f.model, *f.encoder, f.rng);
  std::set<std::size_t> unique(step.dims.begin(), step.dims.end());
  EXPECT_EQ(unique.size(), step.dims.size());
}

// Parameterized sweep over regeneration rates: ledger arithmetic holds.
class RegenRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(RegenRateSweep, EffectiveDimsArithmetic) {
  const double rate = GetParam();
  RegenFixture f;
  RegenController c(64, rate);
  core::Rng rng(41);
  const std::size_t per_step = c.dims_per_step();
  for (int s = 0; s < 4; ++s) c.step(f.model, *f.encoder, rng);
  EXPECT_EQ(c.effective_dims(), 64u + 4u * per_step);
}

INSTANTIATE_TEST_SUITE_P(Rates, RegenRateSweep,
                         ::testing::Values(0.0, 0.05, 0.125, 0.25, 0.4));

}  // namespace
}  // namespace cyberhd::hdc
