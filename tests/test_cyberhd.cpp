// Tests for the CyberHdClassifier facade: end-to-end learning, config
// validation, the regeneration ledger, and baseline equivalence.
#include "hdc/cyberhd.hpp"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "hdc/regen.hpp"
#include "hdc/trainer.hpp"

namespace cyberhd::hdc {
namespace {

/// Three Gaussian blobs in 4-d feature space, values in [0, 1].
struct Blobs {
  core::Matrix x;
  std::vector<int> y;

  explicit Blobs(std::size_t per_class, std::uint64_t seed = 3) {
    const float centers[3][4] = {{0.2f, 0.2f, 0.8f, 0.5f},
                                 {0.8f, 0.3f, 0.2f, 0.4f},
                                 {0.5f, 0.8f, 0.5f, 0.9f}};
    core::Rng rng(seed);
    x.resize(3 * per_class, 4);
    y.resize(3 * per_class);
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t i = 0; i < per_class; ++i) {
        const std::size_t row = c * per_class + i;
        for (std::size_t f = 0; f < 4; ++f) {
          x(row, f) = centers[c][f] +
                      static_cast<float>(rng.gaussian(0.0, 0.06));
        }
        y[row] = static_cast<int>(c);
      }
    }
  }
};

CyberHdConfig small_config(std::size_t dims = 128) {
  CyberHdConfig cfg;
  cfg.dims = dims;
  cfg.regen_rate = 0.2;
  cfg.regen_steps = 5;
  cfg.epochs_per_step = 1;
  cfg.final_epochs = 3;
  cfg.parallel = false;
  return cfg;
}

TEST(CyberHdClassifier, RejectsBadConfig) {
  CyberHdConfig bad_dims;
  bad_dims.dims = 0;
  EXPECT_THROW(CyberHdClassifier{bad_dims}, std::invalid_argument);
  CyberHdConfig bad_rate;
  bad_rate.regen_rate = 1.0;
  EXPECT_THROW(CyberHdClassifier{bad_rate}, std::invalid_argument);
  CyberHdConfig negative_rate;
  negative_rate.regen_rate = -0.1;
  EXPECT_THROW(CyberHdClassifier{negative_rate}, std::invalid_argument);
}

TEST(CyberHdClassifier, FitRejectsEmptyData) {
  CyberHdClassifier model(small_config());
  core::Matrix empty(0, 4);
  EXPECT_THROW(model.fit(empty, {}, 2), std::invalid_argument);
}

TEST(CyberHdClassifier, FitRejectsLabelsOutsideTheClassRange) {
  const Blobs data(20);
  CyberHdClassifier model(small_config());
  model.fit(data.x, data.y, 3);
  std::vector<float> before(3);
  model.scores(data.x.row(0), before);

  std::vector<int> too_big = data.y;
  too_big[7] = 3;
  EXPECT_THROW(model.fit(data.x, too_big, 3), std::invalid_argument);
  std::vector<int> negative = data.y;
  negative.back() = -1;
  EXPECT_THROW(model.fit(data.x, negative, 3), std::invalid_argument);
  const std::span<const int> short_labels(data.y.data(), data.y.size() - 1);
  EXPECT_THROW(model.fit(data.x, short_labels, 3), std::invalid_argument);
  // No class range at all: every label is outside it.
  EXPECT_THROW(model.fit(data.x, data.y, 0), std::invalid_argument);

  // Each rejection came before any member changed: the earlier fit still
  // serves, unchanged.
  EXPECT_EQ(model.num_classes(), 3u);
  std::vector<float> after(3);
  model.scores(data.x.row(0), after);
  EXPECT_EQ(after, before);
}

TEST(CyberHdClassifier, LearnsBlobs) {
  const Blobs data(80);
  CyberHdClassifier model(small_config());
  model.fit(data.x, data.y, 3);
  EXPECT_GT(model.evaluate(data.x, data.y), 0.95);
}

TEST(CyberHdClassifier, EffectiveDimsLedger) {
  const Blobs data(40);
  auto cfg = small_config(100);
  cfg.regen_rate = 0.2;  // 20 dims/step before annealing
  cfg.regen_steps = 4;
  cfg.regen_anneal = false;
  CyberHdClassifier model(cfg);
  model.fit(data.x, data.y, 3);
  EXPECT_EQ(model.effective_dims(), 100u + 4u * 20u);
  EXPECT_EQ(model.physical_dims(), 100u);
  EXPECT_EQ(model.last_fit_report().effective_dims, 180u);
  EXPECT_EQ(model.last_fit_report().regenerated_per_step.size(), 4u);
}

TEST(CyberHdClassifier, AnnealedLedgerIsHalved) {
  const Blobs data(40);
  auto cfg = small_config(100);
  cfg.regen_rate = 0.4;
  cfg.regen_steps = 4;  // 40 + 30 + 20 + 10 = 100 regenerated
  cfg.regen_anneal = true;
  CyberHdClassifier model(cfg);
  model.fit(data.x, data.y, 3);
  EXPECT_EQ(model.effective_dims(), 200u);
}

TEST(CyberHdClassifier, ZeroRateIsStaticBaseline) {
  const Blobs data(50);
  auto cfg = small_config();
  cfg.regen_rate = 0.0;
  cfg.regen_steps = 0;
  CyberHdClassifier model(cfg);
  model.fit(data.x, data.y, 3);
  EXPECT_EQ(model.effective_dims(), cfg.dims);
  EXPECT_NE(model.name().find("BaselineHD"), std::string::npos);
}

TEST(CyberHdClassifier, NameReflectsMode) {
  CyberHdClassifier regen(small_config());
  EXPECT_NE(regen.name().find("CyberHD"), std::string::npos);
  EXPECT_NE(regen.name().find("128"), std::string::npos);
  CyberHdClassifier base(baseline_hd_config(256));
  EXPECT_NE(base.name().find("BaselineHD"), std::string::npos);
}

TEST(CyberHdClassifier, DeterministicAcrossRuns) {
  const Blobs data(60);
  CyberHdClassifier a(small_config()), b(small_config());
  a.fit(data.x, data.y, 3);
  b.fit(data.x, data.y, 3);
  for (std::size_t i = 0; i < data.x.rows(); ++i) {
    EXPECT_EQ(a.predict(data.x.row(i)), b.predict(data.x.row(i)));
  }
}

TEST(CyberHdClassifier, DifferentSeedsDifferentEncoders) {
  const Blobs data(60);
  auto cfg_a = small_config();
  auto cfg_b = small_config();
  cfg_b.seed = cfg_a.seed + 1;
  CyberHdClassifier a(cfg_a), b(cfg_b);
  a.fit(data.x, data.y, 3);
  b.fit(data.x, data.y, 3);
  std::vector<float> ha(cfg_a.dims), hb(cfg_a.dims);
  a.encoder().encode(data.x.row(0), ha);
  b.encoder().encode(data.x.row(0), hb);
  EXPECT_NE(ha, hb);
}

TEST(CyberHdClassifier, ScoresAreCosines) {
  const Blobs data(60);
  CyberHdClassifier model(small_config());
  model.fit(data.x, data.y, 3);
  std::vector<float> scores(3);
  model.scores(data.x.row(0), scores);
  for (float s : scores) {
    EXPECT_GE(s, -1.0f - 1e-5f);
    EXPECT_LE(s, 1.0f + 1e-5f);
  }
  // Prediction agrees with argmax of scores.
  const int pred = model.predict(data.x.row(0));
  EXPECT_EQ(pred, static_cast<int>(core::argmax(scores)));
}

TEST(CyberHdClassifier, PerSampleCallsRejectMiswidthSpans) {
  // A narrow feature span would be read past its end by the encode tile
  // and a short score span written past its end: both throw before
  // anything is touched. The spans view larger buffers, so an overrun
  // would land on the sentinels checked below instead of the heap.
  const Blobs data(60);
  CyberHdClassifier model(small_config());
  model.fit(data.x, data.y, 3);
  const std::vector<float> features(6, 0.5f);
  std::vector<float> scores(5, -7.0f);
  const std::span<const float> narrow(features.data(), 3);
  const std::span<const float> wide(features.data(), 5);
  const std::span<const float> row = data.x.row(0);
  EXPECT_THROW(model.predict(narrow), std::invalid_argument);
  EXPECT_THROW(model.predict(wide), std::invalid_argument);
  EXPECT_THROW(model.scores(narrow, {scores.data(), 3}),
               std::invalid_argument);
  EXPECT_THROW(model.scores(row, {scores.data(), 2}), std::invalid_argument);
  EXPECT_THROW(model.scores(row, {scores.data(), 4}), std::invalid_argument);
  EXPECT_EQ(scores, std::vector<float>(5, -7.0f));

  model.scores(row, {scores.data(), 3});
  EXPECT_EQ(scores[3], -7.0f);
  EXPECT_EQ(static_cast<int>(core::argmax({scores.data(), 3})),
            model.predict(row));
}

TEST(CyberHdClassifier, FitReportTracksEpochs) {
  const Blobs data(40);
  auto cfg = small_config();
  cfg.regen_steps = 3;
  cfg.epochs_per_step = 2;
  cfg.final_epochs = 4;
  CyberHdClassifier model(cfg);
  model.fit(data.x, data.y, 3);
  EXPECT_EQ(model.last_fit_report().epochs, 3u * 2u + 4u);
  EXPECT_EQ(model.last_fit_report().epoch_accuracy.size(), 10u);
}

TEST(CyberHdClassifier, FitReportClocksEveryPhaseWithinFitWallTime) {
  const Blobs data(40);
  auto cfg = small_config();
  cfg.regen_steps = 3;
  cfg.epochs_per_step = 2;
  for (const std::size_t tile_rows : {0u, 32u}) {
    cfg.train_tile_rows = tile_rows;
    CyberHdClassifier model(cfg);
    const core::Timer wall;
    model.fit(data.x, data.y, 3);
    const double fit_s = wall.seconds();
    const FitReport& r = model.last_fit_report();
    ASSERT_EQ(r.regenerated_per_step.size(), 3u);
    ASSERT_GT(r.regenerated_per_step[0], 0u);
    // The streamed fit encodes inside its phases, never up front.
    if (tile_rows == 0) {
      EXPECT_GT(r.encode_s, 0.0);
    } else {
      EXPECT_EQ(r.encode_s, 0.0);
    }
    EXPECT_GT(r.bundle_s, 0.0) << "tile_rows=" << tile_rows;
    EXPECT_GT(r.epochs_s, 0.0) << "tile_rows=" << tile_rows;
    EXPECT_GT(r.regen_s, 0.0) << "tile_rows=" << tile_rows;
    EXPECT_GT(r.refresh_s, 0.0) << "tile_rows=" << tile_rows;
    EXPECT_LE(r.encode_s + r.bundle_s + r.epochs_s + r.regen_s + r.refresh_s,
              fit_s)
        << "tile_rows=" << tile_rows;
  }
}

TEST(CyberHdClassifier, RefitResetsState) {
  const Blobs data(40);
  CyberHdClassifier model(small_config());
  model.fit(data.x, data.y, 3);
  const std::size_t eff_first = model.effective_dims();
  model.fit(data.x, data.y, 3);
  EXPECT_EQ(model.effective_dims(), eff_first);  // ledger reset, not doubled
}

TEST(CyberHdClassifier, EncoderAccessAfterFit) {
  const Blobs data(40);
  CyberHdClassifier model(small_config());
  model.fit(data.x, data.y, 3);
  EXPECT_EQ(model.encoder().output_dim(), 128u);
  EXPECT_EQ(model.encoder().input_dim(), 4u);
}

TEST(CyberHdClassifier, ParallelAndSerialAgree) {
  const Blobs data(60);
  auto serial_cfg = small_config();
  serial_cfg.parallel = false;
  auto parallel_cfg = small_config();
  parallel_cfg.parallel = true;
  CyberHdClassifier s(serial_cfg), p(parallel_cfg);
  s.fit(data.x, data.y, 3);
  p.fit(data.x, data.y, 3);
  for (std::size_t i = 0; i < data.x.rows(); i += 7) {
    EXPECT_EQ(s.predict(data.x.row(i)), p.predict(data.x.row(i)));
  }
}

TEST(CyberHdClassifier, BaselineConfigDisablesRegeneration) {
  const CyberHdConfig cfg = baseline_hd_config(333, 9);
  EXPECT_EQ(cfg.dims, 333u);
  EXPECT_EQ(cfg.regen_rate, 0.0);
  EXPECT_EQ(cfg.regen_steps, 0u);
  EXPECT_EQ(cfg.seed, 9u);
}

// ---- tiled / streaming training engine --------------------------------------

TEST(CyberHdTiledTraining, StreamedFitIsBitIdenticalToInMemoryFit) {
  // batch_size = 1 and a tile smaller than the dataset: the streamed
  // encode→train path must rebuild the exact in-memory model (same epoch
  // orders from the same generator, same per-row encodes, same updates).
  const Blobs data(80);  // 240 rows
  auto cfg = small_config();
  CyberHdClassifier in_memory(cfg);
  in_memory.fit(data.x, data.y, 3);
  auto streamed_cfg = cfg;
  streamed_cfg.train_tile_rows = 64;
  CyberHdClassifier streamed(streamed_cfg);
  streamed.fit(data.x, data.y, 3);
  ASSERT_EQ(streamed.model().weights(), in_memory.model().weights());
  EXPECT_EQ(streamed.last_fit_report().epochs,
            in_memory.last_fit_report().epochs);
  EXPECT_EQ(streamed.last_fit_report().epoch_accuracy,
            in_memory.last_fit_report().epoch_accuracy);
}

TEST(CyberHdTiledTraining, StreamingBoundsPeakEncodeBuffer) {
  // A dataset much larger than the configured tile: the resident encode
  // buffer must stay at O(tile x D), not O(n x D).
  const Blobs data(200);  // 600 rows
  auto cfg = small_config();
  cfg.regen_steps = 2;
  cfg.final_epochs = 2;
  cfg.train_tile_rows = 48;
  CyberHdClassifier model(cfg);
  model.fit(data.x, data.y, 3);
  EXPECT_EQ(model.last_fit_report().peak_encode_rows, 48u);
  EXPECT_GT(model.evaluate(data.x, data.y), 0.9);

  auto dense_cfg = cfg;
  dense_cfg.train_tile_rows = 0;
  CyberHdClassifier dense(dense_cfg);
  dense.fit(data.x, data.y, 3);
  EXPECT_EQ(dense.last_fit_report().peak_encode_rows, data.x.rows());
}

TEST(CyberHdTiledTraining, OversizedTileFallsBackToInMemory) {
  const Blobs data(40);  // 120 rows
  auto cfg = small_config();
  cfg.train_tile_rows = 4096;  // larger than the dataset
  CyberHdClassifier tiled(cfg);
  tiled.fit(data.x, data.y, 3);
  EXPECT_EQ(tiled.last_fit_report().peak_encode_rows, data.x.rows());
  CyberHdClassifier plain(small_config());
  plain.fit(data.x, data.y, 3);
  ASSERT_EQ(tiled.model().weights(), plain.model().weights());
}

TEST(CyberHdTiledTraining, MinibatchFitStaysAccurate) {
  const Blobs data(100);
  auto cfg = small_config();
  CyberHdClassifier sequential(cfg);
  sequential.fit(data.x, data.y, 3);
  auto mb_cfg = cfg;
  mb_cfg.batch_size = 32;
  CyberHdClassifier minibatch(mb_cfg);
  minibatch.fit(data.x, data.y, 3);
  const double seq_acc = sequential.evaluate(data.x, data.y);
  const double mb_acc = minibatch.evaluate(data.x, data.y);
  EXPECT_NEAR(mb_acc, seq_acc, 0.01);
  EXPECT_GT(mb_acc, 0.93);
}

TEST(CyberHdTiledTraining, StreamedMinibatchFitStaysAccurate) {
  // Streaming and minibatching compose: regen retrain cycles ride the
  // tiled path with sub-batched updates.
  const Blobs data(100);
  auto cfg = small_config();
  CyberHdClassifier sequential(cfg);
  sequential.fit(data.x, data.y, 3);
  auto mb_cfg = cfg;
  mb_cfg.batch_size = 16;
  mb_cfg.train_tile_rows = 64;
  CyberHdClassifier streamed(mb_cfg);
  streamed.fit(data.x, data.y, 3);
  EXPECT_EQ(streamed.last_fit_report().peak_encode_rows, 64u);
  EXPECT_NEAR(streamed.evaluate(data.x, data.y),
              sequential.evaluate(data.x, data.y), 0.02);
}

// ---- golden fit: the pre-ScheduleDriver control flow, replicated ------------

/// The pre-refactor in-memory fit() loop at batch_size = 1, reconstructed
/// verbatim from public APIs: same RNG forks, same encoder construction,
/// same epoch/regen/rebundle sequence. The ScheduleDriver-based fit() must
/// reproduce it bit-for-bit — this is the regression guard for the
/// schedule-loop collapse.
HdcModel golden_fit(const CyberHdConfig& cfg, const core::Matrix& x,
                    std::span<const int> y, std::size_t num_classes) {
  core::Rng rng(cfg.seed);
  core::Rng encoder_rng = rng.fork(1);
  core::Rng train_rng = rng.fork(2);
  core::Rng regen_rng = rng.fork(3);

  float lengthscale = cfg.lengthscale;
  if (cfg.encoder == EncoderKind::kRbf && lengthscale <= 0.0f) {
    core::Rng median_rng = rng.fork(4);
    lengthscale = cfg.lengthscale_factor *
                  median_heuristic_lengthscale(x, median_rng);
  }
  const auto encoder = make_encoder(cfg.encoder, x.cols(), cfg.dims,
                                    encoder_rng, lengthscale);
  HdcModel model(num_classes, cfg.dims);
  RegenController regen(cfg.dims, cfg.regen_rate,
                        cfg.regen_anneal ? cfg.regen_steps : 0);
  Trainer trainer(TrainerConfig{
      .learning_rate = cfg.learning_rate,
      .similarity_weighted = cfg.similarity_weighted_update,
      .batch_size = cfg.batch_size});

  core::Matrix encoded;
  encoder->encode_batch(x, encoded);
  trainer.initialize(model, encoded, y);

  const auto run_epochs = [&](std::size_t count) {
    for (std::size_t e = 0; e < count; ++e) {
      trainer.train_epoch(model, encoded, y, train_rng);
    }
  };
  // The historical centered re-bundle of regenerated columns, through the
  // same compiled RegenRebundle the library uses (duplicating the float
  // arithmetic here would let per-TU codegen differences — e.g.
  // -march=native FMA contraction in the library but not the test —
  // masquerade as regressions).
  const auto rebundle = [&](std::span<const std::size_t> dims) {
    RegenRebundle rb(num_classes, dims);
    for (std::size_t i = 0; i < encoded.rows(); ++i) {
      rb.add_row(encoded.row(i), static_cast<std::size_t>(y[i]));
    }
    rb.apply(model, y);
  };

  if (cfg.regen_rate > 0.0 && cfg.regen_steps > 0) {
    for (std::size_t s = 0; s < cfg.regen_steps; ++s) {
      run_epochs(cfg.epochs_per_step);
      const RegenStep step = regen.step(model, *encoder, regen_rng);
      if (!step.dims.empty()) {
        encoder->encode_batch_dims(x, step.dims, encoded);
        if (cfg.rebundle_after_regen) rebundle(step.dims);
      }
    }
  }
  run_epochs(cfg.final_epochs);
  return model;
}

TEST(CyberHdGoldenFit, ScheduleDriverFitIsBitIdenticalToPreRefactorLoop) {
  const Blobs data(60);
  auto cfg = small_config();  // batch_size = 1, parallel = false
  const HdcModel golden = golden_fit(cfg, data.x, data.y, 3);
  CyberHdClassifier model(cfg);
  model.fit(data.x, data.y, 3);
  ASSERT_EQ(model.model().weights(), golden.weights());
}

TEST(CyberHdGoldenFit, StaticBaselineMatchesGoldenLoopToo) {
  const Blobs data(60);
  auto cfg = small_config();
  cfg.regen_rate = 0.0;
  cfg.regen_steps = 0;
  const HdcModel golden = golden_fit(cfg, data.x, data.y, 3);
  CyberHdClassifier model(cfg);
  model.fit(data.x, data.y, 3);
  ASSERT_EQ(model.model().weights(), golden.weights());
}

// Encoder-kind sweep: the facade learns blobs with every encoder family.
class CyberHdEncoderSweep : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(CyberHdEncoderSweep, LearnsBlobs) {
  const Blobs data(80);
  auto cfg = small_config(256);
  cfg.encoder = GetParam();
  CyberHdClassifier model(cfg);
  model.fit(data.x, data.y, 3);
  EXPECT_GT(model.evaluate(data.x, data.y), 0.9)
      << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Encoders, CyberHdEncoderSweep,
                         ::testing::Values(EncoderKind::kRbf,
                                           EncoderKind::kSignProjection,
                                           EncoderKind::kIdLevel));

}  // namespace
}  // namespace cyberhd::hdc
