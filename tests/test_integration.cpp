// Integration tests across modules: the full NIDS pipeline (synthesize ->
// preprocess -> train -> evaluate), the model zoo on one dataset, the
// quantize-then-inject deployment path, and the regeneration-vs-static
// comparison the paper's headline rests on.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/mlp.hpp"
#include "core/stats.hpp"
#include "baselines/static_hd.hpp"
#include "baselines/svm.hpp"
#include "fault/bitflip.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/quantized.hpp"
#include "nids/datasets.hpp"
#include "nids/preprocess.hpp"

namespace cyberhd {
namespace {

/// One shared medium-size prepared dataset (NSL-KDD-like) for the suite.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const nids::FlowSynthesizer synth =
        nids::make_synthesizer(nids::DatasetId::kNslKdd, 7);
    const nids::Dataset raw = synth.generate(3000, 0);
    split_ = new nids::TrainTestSplit(nids::preprocess(raw, 0.3, 42));
  }
  static void TearDownTestSuite() {
    delete split_;
    split_ = nullptr;
  }
  static const nids::TrainTestSplit& split() { return *split_; }

 private:
  static nids::TrainTestSplit* split_;
};

nids::TrainTestSplit* PipelineTest::split_ = nullptr;

TEST_F(PipelineTest, CyberHdBeatsMajorityClass) {
  hdc::CyberHdConfig cfg;
  cfg.dims = 256;
  cfg.regen_steps = 10;
  cfg.final_epochs = 6;
  hdc::CyberHdClassifier model(cfg);
  model.fit(split().train.x, split().train.y, split().train.num_classes);
  const double acc = model.evaluate(split().test.x, split().test.y);
  // Majority class (normal) is 53%; a trained model must beat it widely.
  EXPECT_GT(acc, 0.80);
}

TEST_F(PipelineTest, AllClassifiersClearTheFloor) {
  const std::size_t k = split().train.num_classes;
  std::vector<std::unique_ptr<core::Classifier>> zoo;
  {
    baselines::MlpConfig cfg;
    cfg.hidden = {32};
    cfg.epochs = 8;
    zoo.push_back(std::make_unique<baselines::Mlp>(cfg));
  }
  zoo.push_back(std::make_unique<baselines::LinearSvm>());
  {
    baselines::KernelSvmConfig cfg;
    cfg.epochs = 2;
    cfg.sv_budget = 512;
    zoo.push_back(std::make_unique<baselines::KernelSvm>(cfg));
  }
  {
    hdc::CyberHdConfig cfg = hdc::baseline_hd_config(256);
    cfg.final_epochs = 15;
    zoo.push_back(std::make_unique<hdc::CyberHdClassifier>(cfg));
  }
  for (auto& model : zoo) {
    model->fit(split().train.x, split().train.y, k);
    EXPECT_GT(model->evaluate(split().test.x, split().test.y), 0.75)
        << model->name();
  }
}

TEST_F(PipelineTest, MinibatchTrainingMatchesSequentialOnNids) {
  // The acceptance bound of the tiled trainer: on the synthetic NIDS
  // workload, minibatch fit() lands within half a point of the
  // sample-at-a-time rule.
  hdc::CyberHdConfig cfg;
  cfg.dims = 256;
  cfg.regen_steps = 10;
  cfg.final_epochs = 6;
  hdc::CyberHdClassifier sequential(cfg);
  sequential.fit(split().train.x, split().train.y,
                 split().train.num_classes);
  const double seq_acc = sequential.evaluate(split().test.x, split().test.y);
  auto mb_cfg = cfg;
  mb_cfg.batch_size = 64;
  hdc::CyberHdClassifier minibatch(mb_cfg);
  minibatch.fit(split().train.x, split().train.y,
                split().train.num_classes);
  const double mb_acc = minibatch.evaluate(split().test.x, split().test.y);
  EXPECT_NEAR(mb_acc, seq_acc, 0.005);
  EXPECT_GT(mb_acc, 0.80);
}

TEST_F(PipelineTest, ConfusionMatrixOnTestSet) {
  hdc::CyberHdConfig cfg;
  cfg.dims = 256;
  cfg.regen_steps = 8;
  hdc::CyberHdClassifier model(cfg);
  model.fit(split().train.x, split().train.y, split().train.num_classes);
  core::ConfusionMatrix cm(split().train.num_classes);
  for (std::size_t i = 0; i < split().test.x.rows(); ++i) {
    cm.add(static_cast<std::size_t>(split().test.y[i]),
           static_cast<std::size_t>(model.predict(split().test.x.row(i))));
  }
  EXPECT_EQ(cm.total(), split().test.size());
  EXPECT_NEAR(cm.accuracy(),
              model.evaluate(split().test.x, split().test.y), 1e-12);
  // Benign recall must be solid for a usable NIDS.
  EXPECT_GT(cm.recall(split().test.benign_class), 0.8);
  EXPECT_LT(cm.false_positive_rate(split().test.benign_class), 0.2);
}

TEST_F(PipelineTest, RegenerationBeatsStaticAtSameDims) {
  // The paper's central claim, at test scale: with a deliberately sharp
  // kernel (dimensionality-starved regime), a regenerating model at D
  // outperforms a static encoder at the same D.
  const std::size_t k = split().train.num_classes;
  hdc::CyberHdConfig static_cfg = hdc::baseline_hd_config(192);
  static_cfg.lengthscale_factor = 0.3f;
  static_cfg.final_epochs = 40;
  hdc::CyberHdClassifier static_model(static_cfg);
  static_model.fit(split().train.x, split().train.y, k);

  hdc::CyberHdConfig regen_cfg;
  regen_cfg.dims = 192;
  regen_cfg.lengthscale_factor = 0.3f;
  regen_cfg.regen_rate = 0.25;
  regen_cfg.regen_steps = 30;
  regen_cfg.final_epochs = 10;
  hdc::CyberHdClassifier regen_model(regen_cfg);
  regen_model.fit(split().train.x, split().train.y, k);

  const double static_acc =
      static_model.evaluate(split().test.x, split().test.y);
  const double regen_acc =
      regen_model.evaluate(split().test.x, split().test.y);
  // Regeneration must win by a margin, not merely tie: on this split it
  // reads about 0.81 against static's 0.64.
  EXPECT_GT(regen_acc, static_acc + 0.10)
      << "static " << static_acc << ", regen " << regen_acc;
  EXPECT_GT(regen_model.effective_dims(), regen_model.physical_dims());
}

TEST_F(PipelineTest, QuantizedDeploymentRetainsAccuracy) {
  hdc::CyberHdConfig cfg;
  cfg.dims = 256;
  cfg.regen_steps = 8;
  hdc::CyberHdClassifier model(cfg);
  model.fit(split().train.x, split().train.y, split().train.num_classes);
  const double float_acc = model.evaluate(split().test.x, split().test.y);
  for (int bits : {8, 1}) {
    const hdc::QuantizedCyberHd q(model, bits);
    const double q_acc = q.evaluate(split().test.x, split().test.y);
    EXPECT_GT(q_acc, float_acc - 0.08) << "bits=" << bits;
  }
}

TEST_F(PipelineTest, FaultInjectionDegradesMlpMoreThanOneBitHdc) {
  // Fig. 5's claim as an invariant: at a 5% flip rate the fp32 MLP loses
  // more accuracy than 1-bit HDC, averaged over injection seeds.
  const std::size_t k = split().train.num_classes;
  baselines::MlpConfig mlp_cfg;
  mlp_cfg.hidden = {32};
  mlp_cfg.epochs = 8;
  baselines::Mlp mlp(mlp_cfg);
  mlp.fit(split().train.x, split().train.y, k);
  const double mlp_clean = mlp.evaluate(split().test.x, split().test.y);

  hdc::CyberHdConfig cfg;
  cfg.dims = 256;
  cfg.regen_steps = 8;
  hdc::CyberHdClassifier hd(cfg);
  hd.fit(split().train.x, split().train.y, k);
  const hdc::QuantizedCyberHd hd_clean(hd, 1);
  const double hd_clean_acc =
      hd_clean.evaluate(split().test.x, split().test.y);

  const int trials = 3;
  double mlp_loss = 0, hd_loss = 0;
  for (int t = 0; t < trials; ++t) {
    baselines::Mlp mlp_faulty = mlp;
    core::Rng rng_m(300 + t);
    fault::inject_mlp(mlp_faulty, 0.05, rng_m);
    mlp_loss += mlp_clean -
                mlp_faulty.evaluate(split().test.x, split().test.y);

    hdc::QuantizedCyberHd hd_faulty(hd, 1);
    core::Rng rng_h(400 + t);
    fault::inject_hdc(hd_faulty.model(), 0.05, rng_h);
    hd_loss += hd_clean_acc -
               hd_faulty.evaluate(split().test.x, split().test.y);
  }
  EXPECT_GT(mlp_loss / trials, hd_loss / trials);
}

TEST(CrossDataset, AllFourCorporaTrainEndToEnd) {
  for (nids::DatasetId id : nids::kAllDatasets) {
    const nids::FlowSynthesizer synth = nids::make_synthesizer(id, 9);
    const nids::Dataset raw = synth.generate(1200, 0);
    const nids::TrainTestSplit split = nids::preprocess(raw, 0.3, 17);
    hdc::CyberHdConfig cfg;
    cfg.dims = 256;
    cfg.regen_steps = 8;
    cfg.final_epochs = 6;
    hdc::CyberHdClassifier model(cfg);
    model.fit(split.train.x, split.train.y, split.train.num_classes);
    EXPECT_GT(model.evaluate(split.test.x, split.test.y), 0.7)
        << nids::to_string(id);
  }
}

TEST(OnlineDetection, PerFlowPathMatchesBatchPath) {
  // The streaming example's code path: expand_one + scaler must classify
  // identically to the batch pipeline.
  const nids::FlowSynthesizer synth =
      nids::make_synthesizer(nids::DatasetId::kNslKdd, 7);
  const nids::Dataset raw = synth.generate(800, 0);
  const core::Matrix expanded = nids::expand_features(raw);
  nids::MinMaxScaler scaler;
  scaler.fit(expanded);
  core::Matrix scaled = expanded;
  scaler.transform(scaled);

  hdc::CyberHdConfig cfg;
  cfg.dims = 128;
  cfg.regen_steps = 4;
  hdc::CyberHdClassifier model(cfg);
  model.fit(scaled, raw.y, raw.schema.num_classes());

  std::vector<float> one(raw.schema.encoded_width());
  for (std::size_t i = 0; i < 50; ++i) {
    nids::expand_one(raw.schema, raw.x.row(i), one);
    core::Matrix single(1, one.size());
    std::copy(one.begin(), one.end(), single.row(0).data());
    scaler.transform(single);
    EXPECT_EQ(model.predict(single.row(0)), model.predict(scaled.row(i)));
  }
}

}  // namespace
}  // namespace cyberhd
