// Unit tests for hdc/trainer: bundled initialization (with and without
// centering), the adaptive update rule, and convergence on separable data.
#include "hdc/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "hdc/encoder.hpp"
#include "scoring_reference.hpp"

namespace cyberhd::hdc {
namespace {

/// Gaussian blobs in the unit square (sd 0.08), one per class, encoded
/// through an RBF encoder. With s = classes - 1, class k is centred at
/// (0.25 + 0.5 k / s, 0.25 + 0.5 (3k mod classes) / s): two classes sit in
/// opposite corners, well separated, and seven spread over the square
/// about 2.3 sd apart, so their epochs keep mispredicting.
struct BlobFixture {
  core::Matrix encoded;
  std::vector<int> labels;
  std::size_t dims;
  std::size_t classes;

  explicit BlobFixture(std::size_t n_per_class, std::uint64_t seed = 5,
                       std::size_t dims_ = 128, std::size_t classes_ = 2)
      : dims(dims_), classes(classes_) {
    core::Rng rng(seed);
    core::Matrix raw(classes * n_per_class, 2);
    labels.resize(classes * n_per_class);
    const auto span01 = static_cast<double>(classes - 1);
    for (std::size_t i = 0; i < n_per_class; ++i) {
      for (std::size_t k = 0; k < classes; ++k) {
        const std::size_t row = k * n_per_class + i;
        const double cx = 0.25 + 0.5 * static_cast<double>(k) / span01;
        const double cy =
            0.25 + 0.5 * static_cast<double>(3 * k % classes) / span01;
        raw(row, 0) = static_cast<float>(rng.gaussian(cx, 0.08));
        raw(row, 1) = static_cast<float>(rng.gaussian(cy, 0.08));
        labels[row] = static_cast<int>(k);
      }
    }
    core::Rng enc_rng(seed + 1);
    RbfEncoder enc(2, dims, enc_rng, 0.5f);
    enc.encode_batch(raw, encoded);
  }
};

TEST(Trainer, InitializeBundlesPerClass) {
  core::Matrix encoded(4, 3);
  encoded(0, 0) = 1;
  encoded(1, 0) = 1;
  encoded(2, 1) = 1;
  encoded(3, 2) = 1;
  const std::vector<int> labels = {0, 0, 1, 1};
  HdcModel model(2, 3);
  Trainer trainer(TrainerConfig{.center_initialization = false});
  trainer.initialize(model, encoded, labels);
  EXPECT_FLOAT_EQ(model.class_vector(0)[0], 2.0f);
  EXPECT_FLOAT_EQ(model.class_vector(1)[1], 1.0f);
  EXPECT_FLOAT_EQ(model.class_vector(1)[2], 1.0f);
}

TEST(Trainer, CenteredInitializationRemovesCommonMode) {
  // All samples share a large common component along dim 0.
  core::Matrix encoded(4, 2);
  encoded(0, 0) = 10; encoded(0, 1) = 1;
  encoded(1, 0) = 10; encoded(1, 1) = 1;
  encoded(2, 0) = 10; encoded(2, 1) = -1;
  encoded(3, 0) = 10; encoded(3, 1) = -1;
  const std::vector<int> labels = {0, 0, 1, 1};
  HdcModel model(2, 2);
  Trainer trainer(TrainerConfig{.center_initialization = true});
  trainer.initialize(model, encoded, labels);
  // Common dim cancels; discriminative dim survives with opposite signs.
  EXPECT_NEAR(model.class_vector(0)[0], 0.0f, 1e-5f);
  EXPECT_NEAR(model.class_vector(1)[0], 0.0f, 1e-5f);
  EXPECT_GT(model.class_vector(0)[1], 0.5f);
  EXPECT_LT(model.class_vector(1)[1], -0.5f);
}

TEST(Trainer, CenteredInitializationWeightsByClassSize) {
  // Class sizes 3 and 1: each class's share of the mean is proportional.
  core::Matrix encoded(4, 1);
  encoded(0, 0) = 1;
  encoded(1, 0) = 1;
  encoded(2, 0) = 1;
  encoded(3, 0) = 1;
  const std::vector<int> labels = {0, 0, 0, 1};
  HdcModel model(2, 1);
  Trainer trainer;
  trainer.initialize(model, encoded, labels);
  // bundle(c0)=3, share=3/4*4*1=3 -> 0; bundle(c1)=1, share=1 -> 0.
  EXPECT_NEAR(model.class_vector(0)[0], 0.0f, 1e-5f);
  EXPECT_NEAR(model.class_vector(1)[0], 0.0f, 1e-5f);
}

TEST(Trainer, EpochStatsAccuracy) {
  EpochStats s;
  s.samples = 10;
  s.mispredicted = 3;
  EXPECT_DOUBLE_EQ(s.accuracy(), 0.7);
  EpochStats empty;
  EXPECT_EQ(empty.accuracy(), 0.0);
}

TEST(Trainer, LearnsSeparableBlobs) {
  BlobFixture fixture(100);
  HdcModel model(2, fixture.dims);
  Trainer trainer;
  trainer.initialize(model, fixture.encoded, fixture.labels);
  core::Rng rng(7);
  trainer.train(model, fixture.encoded, fixture.labels, 5, rng);
  const double acc =
      Trainer::evaluate(model, fixture.encoded, fixture.labels);
  EXPECT_GT(acc, 0.97);
}

TEST(Trainer, TrainingImprovesOverInitialization) {
  BlobFixture fixture(150, /*seed=*/11);
  HdcModel model(2, fixture.dims);
  Trainer trainer(TrainerConfig{.center_initialization = false});
  trainer.initialize(model, fixture.encoded, fixture.labels);
  const double before =
      Trainer::evaluate(model, fixture.encoded, fixture.labels);
  core::Rng rng(13);
  trainer.train(model, fixture.encoded, fixture.labels, 10, rng);
  const double after =
      Trainer::evaluate(model, fixture.encoded, fixture.labels);
  EXPECT_GE(after, before);
  EXPECT_GT(after, 0.95);
}

TEST(Trainer, MispredictionCountDropsAcrossEpochs) {
  BlobFixture fixture(200, /*seed=*/17);
  HdcModel model(2, fixture.dims);
  Trainer trainer;
  trainer.initialize(model, fixture.encoded, fixture.labels);
  core::Rng rng(19);
  const EpochStats first =
      trainer.train_epoch(model, fixture.encoded, fixture.labels, rng);
  EpochStats last;
  for (int e = 0; e < 8; ++e) {
    last = trainer.train_epoch(model, fixture.encoded, fixture.labels, rng);
  }
  EXPECT_LE(last.mispredicted, first.mispredicted);
}

TEST(Trainer, NoUpdatesWhenAllCorrect) {
  // A model that already classifies everything correctly must not change.
  core::Matrix encoded(2, 2);
  encoded(0, 0) = 1;
  encoded(1, 1) = 1;
  const std::vector<int> labels = {0, 1};
  HdcModel model(2, 2);
  model.bundle(0, std::vector<float>{1, 0});
  model.bundle(1, std::vector<float>{0, 1});
  Trainer trainer;
  core::Rng rng(23);
  const auto w00 = model.class_vector(0)[0];
  const EpochStats stats =
      trainer.train_epoch(model, encoded, labels, rng);
  EXPECT_EQ(stats.mispredicted, 0u);
  EXPECT_EQ(model.class_vector(0)[0], w00);
}

TEST(Trainer, SimilarityWeightedUpdatesAreSmallerForFamiliarData) {
  // Construct a misprediction where the true-class similarity is high:
  // the (1 - delta) rule must move less than the plain perceptron rule.
  core::Matrix encoded(1, 2);
  encoded(0, 0) = 1.0f;
  encoded(0, 1) = 0.1f;
  const std::vector<int> labels = {0};
  const auto run = [&](bool weighted) {
    HdcModel model(2, 2);
    model.bundle(0, std::vector<float>{0.9f, 0.0f});
    model.bundle(1, std::vector<float>{1.0f, 0.2f});  // wins initially
    Trainer trainer(TrainerConfig{.learning_rate = 1.0f,
                                  .similarity_weighted = weighted,
                                  .center_initialization = false});
    core::Rng rng(29);
    trainer.train_epoch(model, encoded, labels, rng);
    return model.class_vector(0)[0];
  };
  const float weighted_w = run(true);
  const float plain_w = run(false);
  EXPECT_LT(weighted_w, plain_w);  // smaller step for familiar pattern
  EXPECT_GT(weighted_w, 0.9f);     // but still moved toward the sample
}

TEST(Trainer, ReinforceCorrectGrowsTrueClass) {
  // The class vector is not perfectly aligned with the sample (cos < 1),
  // so the (1 - delta) reinforcement is strictly positive.
  core::Matrix encoded(1, 2);
  encoded(0, 0) = 1.0f;
  encoded(0, 1) = 0.5f;
  const std::vector<int> labels = {0};
  HdcModel model(2, 2);
  model.bundle(0, std::vector<float>{0.5f, 0.0f});
  Trainer trainer(TrainerConfig{.reinforce_correct = true,
                                .center_initialization = false});
  core::Rng rng(31);
  trainer.train_epoch(model, encoded, labels, rng);
  EXPECT_GT(model.class_vector(0)[0], 0.5f);
}

TEST(Trainer, EvaluateEmptyIsZero) {
  HdcModel model(2, 4);
  core::Matrix empty(0, 4);
  EXPECT_EQ(Trainer::evaluate(model, empty, {}), 0.0);
}

// ---- tiled-engine regression suite -----------------------------------------

/// The adaptive epoch written out as the golden reference: shuffle, then
/// for each tile of config.batch_size visit-order samples, score every row
/// with the written-out cosine (tests/scoring_reference.hpp) against the
/// model as it stood before the tile, then apply the tile's
/// (1 - delta)-weighted updates in visit order.
/// batch_size = 1 is the classic sequential rule, verbatim. The trainer
/// must reproduce it bit-for-bit on any context.
EpochStats golden_sequential_epoch(const TrainerConfig& config,
                                   HdcModel& model,
                                   const core::Matrix& encoded,
                                   std::span<const int> labels,
                                   core::Rng& rng) {
  const std::size_t n = encoded.rows();
  const std::size_t batch = config.batch_size;
  const std::size_t classes = model.num_classes();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (config.shuffle) rng.shuffle(order);
  EpochStats stats;
  stats.samples = n;
  const auto step_weight = [&](float score) {
    return config.similarity_weighted ? config.learning_rate * (1.0f - score)
                                      : config.learning_rate;
  };
  std::vector<float> scores(batch * classes);
  for (std::size_t t = 0; t < n; t += batch) {
    const std::size_t m = std::min(batch, n - t);
    for (std::size_t j = 0; j < m; ++j) {
      reference::similarities(model, encoded.row(order[t + j]),
                              {scores.data() + j * classes, classes});
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t idx = order[t + j];
      const auto h = encoded.row(idx);
      const auto truth = static_cast<std::size_t>(labels[idx]);
      const std::span<const float> row_scores{scores.data() + j * classes,
                                              classes};
      const std::size_t pred = core::argmax(row_scores);
      if (pred != truth) {
        ++stats.mispredicted;
        core::axpy(step_weight(row_scores[truth]), h,
                   model.class_vector(truth));
        core::axpy(-step_weight(row_scores[pred]), h,
                   model.class_vector(pred));
      } else if (config.reinforce_correct) {
        core::axpy(step_weight(row_scores[truth]), h,
                   model.class_vector(truth));
      }
    }
  }
  return stats;
}

TEST(TrainerTiled, EpochIsBitExactToWrittenOutRuleAtEveryBatchAndPool) {
  // 1024 dims: on the 4-worker pool the update replay splits the class
  // matrix into column stripes, and 64-row tiles split their scoring. The
  // golden rule recomputes every class norm for every row; the trainer
  // keeps them and recomputes only the classes a tile's updates touched.
  // Seven classes pin that: an update leaves at least five untouched, a
  // tile of 4-64 rows refreshes its touched classes once, and one-row
  // scoring runs the four-class block plus a three-class tail.
  const BlobFixture fixtures[] = {
      BlobFixture(120, /*seed=*/43, /*dims_=*/1024),
      BlobFixture(60, /*seed=*/43, /*dims_=*/1024, /*classes_=*/7)};
  core::ThreadPool pool1(1), pool4(4);
  const std::pair<const char*, core::ExecutionContext> contexts[] = {
      {"serial", core::ExecutionContext::serial()},
      {"pool(1)", core::ExecutionContext(&pool1)},
      {"pool(4)", core::ExecutionContext(&pool4)}};
  for (const BlobFixture& fixture : fixtures) {
    std::size_t mispredicted = 0;
    for (const std::size_t batch : {1u, 4u, 16u, 64u}) {
      for (const auto& [ctx_name, ctx] : contexts) {
        for (const bool weighted : {true, false}) {
          for (const bool reinforce : {false, true}) {
            TrainerConfig cfg;
            cfg.learning_rate = 0.3f;
            cfg.similarity_weighted = weighted;
            cfg.reinforce_correct = reinforce;
            cfg.batch_size = batch;
            Trainer trainer(cfg, ctx);
            HdcModel tiled(fixture.classes, fixture.dims);
            HdcModel golden(fixture.classes, fixture.dims);
            trainer.initialize(tiled, fixture.encoded, fixture.labels);
            trainer.initialize(golden, fixture.encoded, fixture.labels);
            ASSERT_EQ(tiled.weights(), golden.weights());
            core::Rng rng_tiled(47), rng_golden(47);
            for (int e = 0; e < 3; ++e) {
              const EpochStats t = trainer.train_epoch(
                  tiled, fixture.encoded, fixture.labels, rng_tiled);
              const EpochStats g = golden_sequential_epoch(
                  cfg, golden, fixture.encoded, fixture.labels, rng_golden);
              mispredicted += g.mispredicted;
              EXPECT_EQ(t.samples, g.samples);
              EXPECT_EQ(t.mispredicted, g.mispredicted)
                  << fixture.classes << " classes batch=" << batch << " "
                  << ctx_name << " weighted=" << weighted
                  << " reinforce=" << reinforce << " epoch " << e;
              // Bit-exact: float-for-float identical class hypervectors.
              ASSERT_EQ(tiled.weights(), golden.weights())
                  << fixture.classes << " classes batch=" << batch << " "
                  << ctx_name << " weighted=" << weighted
                  << " reinforce=" << reinforce << " epoch " << e;
            }
          }
        }
      }
    }
    // The two blobs never mispredict (only reinforcement updates them);
    // the seven must, or their kept norms go untested.
    if (fixture.classes > 2) {
      EXPECT_GT(mispredicted, 0u);
    }
  }
}

TEST(TrainerTiled, MinibatchAccuracyTracksSequential) {
  // The minibatch rule freezes scores for one tile, so it is an
  // approximation — but on separable data it must land within a point of
  // the sequential rule, and still converge.
  BlobFixture fixture(200, /*seed=*/53);
  const auto final_accuracy = [&](std::size_t batch) {
    TrainerConfig cfg;
    cfg.learning_rate = 0.3f;
    cfg.batch_size = batch;
    Trainer trainer(cfg);
    HdcModel model(2, fixture.dims);
    trainer.initialize(model, fixture.encoded, fixture.labels);
    core::Rng rng(59);
    trainer.train(model, fixture.encoded, fixture.labels, 5, rng);
    return Trainer::evaluate(model, fixture.encoded, fixture.labels);
  };
  const double sequential = final_accuracy(1);
  for (std::size_t batch : {8u, 32u, 128u}) {
    const double minibatch = final_accuracy(batch);
    EXPECT_NEAR(minibatch, sequential, 0.01) << "batch=" << batch;
    EXPECT_GT(minibatch, 0.95) << "batch=" << batch;
  }
}

TEST(TrainerTiled, MinibatchEpochCountsMispredictionsAgainstFrozenScores) {
  // One tile covering the whole epoch: every sample is scored against the
  // initialized model, so the stats must match evaluate() on that model.
  BlobFixture fixture(60, /*seed=*/61);
  TrainerConfig cfg;
  cfg.batch_size = 1 << 20;  // one tile
  cfg.shuffle = false;
  Trainer trainer(cfg);
  HdcModel model(2, fixture.dims);
  trainer.initialize(model, fixture.encoded, fixture.labels);
  const double acc_before =
      Trainer::evaluate(model, fixture.encoded, fixture.labels);
  core::Rng rng(67);
  const EpochStats stats =
      trainer.train_epoch(model, fixture.encoded, fixture.labels, rng);
  EXPECT_DOUBLE_EQ(stats.accuracy(), acc_before);
}

TEST(TrainerTiled, InitializeIsBitIdenticalAcrossThreadCounts) {
  // 4096 rows split into fixed stripes: pools of 1, 2, and 8 workers (and
  // no pool at all) must build float-identical models.
  const std::size_t n = 4096, dims = 64, classes = 3;
  core::Rng rng(71);
  core::Matrix encoded(n, dims);
  core::fill_gaussian(rng, encoded.data(), encoded.size(), 0.0f, 1.0f);
  std::vector<int> labels(n);
  for (auto& y : labels) {
    y = static_cast<int>(rng.next_below(classes));
  }
  Trainer serial_trainer;
  HdcModel reference(classes, dims);
  serial_trainer.initialize(reference, encoded, labels);
  for (std::size_t workers : {1u, 2u, 8u}) {
    core::ThreadPool pool(workers);
    Trainer trainer({}, core::ExecutionContext(&pool));
    HdcModel model(classes, dims);
    trainer.initialize(model, encoded, labels);
    ASSERT_EQ(model.weights(), reference.weights())
        << workers << " workers";
  }
}

TEST(TrainerTiled, ParallelEpochScoringIsDeterministic) {
  // Minibatch scoring and the update replay both split across the pool —
  // the trained model must not depend on the worker count.
  BlobFixture fixture(150, /*seed=*/73);
  const auto train_with = [&](core::ThreadPool* pool) {
    TrainerConfig cfg;
    cfg.batch_size = 32;
    Trainer trainer(cfg, pool != nullptr
                             ? core::ExecutionContext(pool)
                             : core::ExecutionContext::serial());
    HdcModel model(2, fixture.dims);
    trainer.initialize(model, fixture.encoded, fixture.labels);
    core::Rng rng(79);
    trainer.train(model, fixture.encoded, fixture.labels, 3, rng);
    return model;
  };
  const HdcModel serial = train_with(nullptr);
  for (std::size_t workers : {2u, 8u}) {
    core::ThreadPool pool(workers);
    const HdcModel parallel = train_with(&pool);
    ASSERT_EQ(parallel.weights(), serial.weights()) << workers << " workers";
  }
}

TEST(TrainerTiled, EvaluatePoolMatchesSerial) {
  BlobFixture fixture(100, /*seed=*/83);
  HdcModel model(2, fixture.dims);
  Trainer trainer;
  trainer.initialize(model, fixture.encoded, fixture.labels);
  core::ThreadPool pool(4);
  EXPECT_DOUBLE_EQ(
      Trainer::evaluate(model, fixture.encoded, fixture.labels),
      Trainer::evaluate(model, fixture.encoded, fixture.labels,
                        core::ExecutionContext(&pool)));
}

TEST(TrainerTiled, WindowedBundlingMatchesInitialize) {
  // Bundling one encoded set through windows of 7, 80 and 513 rows — each
  // size has windows that straddle the boundary of the two 600-row
  // stripes — must build initialize()'s model, serially and on 4 workers.
  // The rows are small integers, so every sum is exact: uncentered, the
  // model must also equal the class sums taken directly, which a row
  // dropped or counted twice at a stripe boundary would break even where
  // initialize() shares the mistake.
  const std::size_t n = 1200, dims = 64, classes = 3;
  core::Rng rng(113);
  core::Matrix encoded(n, dims);
  std::vector<int> labels(n);
  core::Matrix class_sums(classes, dims);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng.next_below(classes));
    for (std::size_t d = 0; d < dims; ++d) {
      encoded(i, d) = static_cast<float>(rng.next_below(5)) - 2.0f;
      class_sums(static_cast<std::size_t>(labels[i]), d) += encoded(i, d);
    }
  }
  std::vector<const float*> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = encoded.row(i).data();
  core::ThreadPool pool(4);
  for (const core::ExecutionContext& ctx :
       {core::ExecutionContext::serial(), core::ExecutionContext(&pool)}) {
    for (const bool centered : {true, false}) {
      TrainerConfig cfg;
      cfg.center_initialization = centered;
      const Trainer trainer(cfg, ctx);
      HdcModel reference(classes, dims);
      trainer.initialize(reference, encoded, labels);
      if (!centered) {
        ASSERT_EQ(reference.weights(), class_sums);
      }
      for (const std::size_t window : {7u, 80u, 513u}) {
        InitAccumulator acc(classes, dims, n);
        for (std::size_t t = 0; t < n; t += window) {
          const std::size_t m = std::min(window, n - t);
          acc.accumulate(EncodedRows(rows.data() + t, m, dims),
                         std::span<const int>(labels).subspan(t, m), t, ctx);
        }
        HdcModel model(classes, dims);
        acc.finish(model, cfg);
        ASSERT_EQ(model.weights(), reference.weights())
            << window << "-row windows, " << ctx.workers()
            << " workers, centered " << centered;
      }
    }
  }
}

TEST(TrainerTiled, TrainRowsMatchesEpochOnPreGatheredOrder) {
  // Feeding an epoch through train_rows in window-sized chunks of the
  // epoch_order sequence, each gathered into one reused tile, reproduces
  // train_epoch exactly (window a multiple of batch_size).
  BlobFixture fixture(90, /*seed=*/89);
  TrainerConfig cfg;
  cfg.batch_size = 4;
  Trainer trainer(cfg);
  HdcModel whole(2, fixture.dims), tiled(2, fixture.dims);
  trainer.initialize(whole, fixture.encoded, fixture.labels);
  trainer.initialize(tiled, fixture.encoded, fixture.labels);
  core::Rng rng_whole(97), rng_tiled(97);
  const EpochStats whole_stats = trainer.train_epoch(
      whole, fixture.encoded, fixture.labels, rng_whole);

  const std::size_t n = fixture.encoded.rows();
  const auto order = Trainer::epoch_order(n, rng_tiled, cfg.shuffle);
  const std::size_t tile_rows = 16;  // multiple of batch_size
  core::Matrix tile(tile_rows, fixture.dims);
  std::vector<const float*> tile_ptrs(tile_rows);
  for (std::size_t i = 0; i < tile_rows; ++i) {
    tile_ptrs[i] = tile.row(i).data();
  }
  std::vector<int> tile_labels(tile_rows);
  EpochStats tiled_stats;
  tiled_stats.samples = n;
  for (std::size_t t = 0; t < n; t += tile_rows) {
    const std::size_t m = std::min(tile_rows, n - t);
    for (std::size_t i = 0; i < m; ++i) {
      const auto src = fixture.encoded.row(order[t + i]);
      std::copy(src.begin(), src.end(), tile.row(i).begin());
      tile_labels[i] = fixture.labels[order[t + i]];
    }
    trainer.train_rows(tiled, EncodedRows(tile_ptrs.data(), m, fixture.dims),
                       {tile_labels.data(), m}, tiled_stats);
  }
  EXPECT_EQ(tiled_stats.mispredicted, whole_stats.mispredicted);
  ASSERT_EQ(tiled.weights(), whole.weights());
}

// ---- UpdateAccumulator: parallel update replay -----------------------------

/// The serial adaptive update rule, verbatim: given frozen scores for a
/// tile, apply the (1 - delta)-weighted axpys sample by sample in visit
/// order. The UpdateAccumulator's striped replay must match bit-for-bit.
void serial_update_rule(const TrainerConfig& cfg, HdcModel& model,
                        const core::Matrix& tile,
                        std::span<const int> labels,
                        const core::Matrix& scores, EpochStats& stats) {
  const auto step_weight = [&](float score) {
    return cfg.similarity_weighted ? cfg.learning_rate * (1.0f - score)
                                   : cfg.learning_rate;
  };
  for (std::size_t r = 0; r < tile.rows(); ++r) {
    const auto h = tile.row(r);
    const auto truth = static_cast<std::size_t>(labels[r]);
    const auto row_scores = scores.row(r);
    const std::size_t pred = core::argmax(row_scores);
    if (pred != truth) {
      ++stats.mispredicted;
      core::axpy(step_weight(row_scores[truth]), h,
                 model.class_vector(truth));
      core::axpy(-step_weight(row_scores[pred]), h,
                 model.class_vector(pred));
    } else if (cfg.reinforce_correct) {
      core::axpy(step_weight(row_scores[truth]), h,
                 model.class_vector(truth));
    }
  }
}

/// A random scored tile at striping-relevant dimensionality (several
/// 16-float-aligned column stripes engage on multi-worker pools).
struct UpdateFixture {
  static constexpr std::size_t kRows = 64;
  static constexpr std::size_t kDims = 2048;
  static constexpr std::size_t kClasses = 5;
  core::Matrix tile{kRows, kDims};
  core::Matrix scores{kRows, kClasses};
  core::Matrix initial{kClasses, kDims};
  std::vector<int> labels = std::vector<int>(kRows);
  std::vector<const float*> row_ptrs = std::vector<const float*>(kRows);

  UpdateFixture() {
    core::Rng rng(101);
    core::fill_gaussian(rng, tile.data(), tile.size(), 0.0f, 1.0f);
    core::fill_uniform(rng, scores.data(), scores.size(), -1.0f, 1.0f);
    core::fill_gaussian(rng, initial.data(), initial.size(), 0.0f, 1.0f);
    for (auto& y : labels) y = static_cast<int>(rng.next_below(kClasses));
    for (std::size_t r = 0; r < kRows; ++r) row_ptrs[r] = tile.row(r).data();
  }

  /// The tile as the trainer hands it over: a row-pointer view.
  EncodedRows view() const { return {row_ptrs.data(), kRows, kDims}; }

  HdcModel fresh_model() const {
    HdcModel m(kClasses, kDims);
    for (std::size_t c = 0; c < kClasses; ++c) {
      std::copy(initial.row(c).begin(), initial.row(c).end(),
                m.class_vector(c).begin());
    }
    return m;
  }
};

TEST(UpdateAccumulator, BitIdenticalAcrossWorkersAndVsSerialRule) {
  const UpdateFixture f;
  for (const bool weighted : {true, false}) {
    for (const bool reinforce : {false, true}) {
      TrainerConfig cfg;
      cfg.learning_rate = 0.3f;
      cfg.similarity_weighted = weighted;
      cfg.reinforce_correct = reinforce;

      HdcModel golden = f.fresh_model();
      EpochStats golden_stats;
      serial_update_rule(cfg, golden, f.tile, f.labels, f.scores,
                         golden_stats);
      ASSERT_GT(golden_stats.mispredicted, 0u);  // the fixture must bite

      for (std::size_t workers : {1u, 2u, 8u}) {
        core::ThreadPool pool(workers);
        const core::ExecutionContext ctx(&pool);
        HdcModel model = f.fresh_model();
        EpochStats stats;
        UpdateAccumulator acc(cfg);
        acc.collect(f.view(), f.labels.data(),
                    {f.scores.data(), f.scores.size()},
                    UpdateFixture::kClasses, stats);
        acc.apply(model, ctx);
        EXPECT_EQ(stats.mispredicted, golden_stats.mispredicted)
            << workers << " workers";
        ASSERT_EQ(model.weights(), golden.weights())
            << "weighted=" << weighted << " reinforce=" << reinforce
            << " workers=" << workers;
      }
    }
  }
}

TEST(UpdateAccumulator, SerialContextMatchesPooledContexts) {
  const UpdateFixture f;
  TrainerConfig cfg;
  cfg.learning_rate = 0.5f;
  UpdateAccumulator acc(cfg);
  HdcModel serial_model = f.fresh_model();
  EpochStats stats;
  acc.collect(f.view(), f.labels.data(), {f.scores.data(), f.scores.size()},
              UpdateFixture::kClasses, stats);
  acc.apply(serial_model, core::ExecutionContext::serial());
  core::ThreadPool pool(4);
  HdcModel pooled_model = f.fresh_model();
  acc.apply(pooled_model, core::ExecutionContext(&pool));
  ASSERT_EQ(pooled_model.weights(), serial_model.weights());
}

TEST(UpdateAccumulator, MinibatchEpochIsBitIdenticalAcrossWorkerCounts) {
  // End-to-end: a minibatch epoch at striping-relevant dimensionality must
  // train the exact same model on 1, 2, and 8 workers as serially — the
  // scoring split and the update replay are both in play here.
  const std::size_t n = 256, dims = 2048, classes = 4;
  core::Rng rng(103);
  core::Matrix encoded(n, dims);
  core::fill_gaussian(rng, encoded.data(), encoded.size(), 0.0f, 1.0f);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i % classes);
    encoded(i, 0) += 2.0f * static_cast<float>(labels[i]);
  }
  const auto train_with = [&](const core::ExecutionContext& ctx) {
    TrainerConfig cfg;
    cfg.learning_rate = 0.3f;
    cfg.batch_size = 64;
    Trainer trainer(cfg, ctx);
    HdcModel model(classes, dims);
    trainer.initialize(model, encoded, labels);
    core::Rng train_rng(107);
    trainer.train(model, encoded, labels, 3, train_rng);
    return model;
  };
  const HdcModel serial = train_with(core::ExecutionContext::serial());
  for (std::size_t workers : {1u, 2u, 8u}) {
    core::ThreadPool pool(workers);
    const HdcModel parallel = train_with(core::ExecutionContext(&pool));
    ASSERT_EQ(parallel.weights(), serial.weights())
        << workers << " workers";
  }
}

TEST(UpdateAccumulator, AutoBatchResolvesFromContext) {
  TrainerConfig cfg;
  cfg.batch_size = 0;  // auto
  const Trainer trainer(cfg, core::ExecutionContext::serial());
  EXPECT_EQ(trainer.resolved_batch_size(10240),
            core::ExecutionContext::serial().score_block_rows(10240));
  TrainerConfig pinned;
  pinned.batch_size = 7;
  EXPECT_EQ(Trainer(pinned).resolved_batch_size(10240), 7u);
}

// Parameterized: training converges for a sweep of learning rates.
class TrainerLrSweep : public ::testing::TestWithParam<float> {};

TEST_P(TrainerLrSweep, ConvergesOnBlobs) {
  BlobFixture fixture(100, /*seed=*/37);
  HdcModel model(2, fixture.dims);
  Trainer trainer(TrainerConfig{.learning_rate = GetParam()});
  trainer.initialize(model, fixture.encoded, fixture.labels);
  core::Rng rng(41);
  trainer.train(model, fixture.encoded, fixture.labels, 10, rng);
  EXPECT_GT(Trainer::evaluate(model, fixture.encoded, fixture.labels), 0.95)
      << "lr=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(LearningRates, TrainerLrSweep,
                         ::testing::Values(0.05f, 0.1f, 0.3f, 0.5f, 1.0f));

}  // namespace
}  // namespace cyberhd::hdc
