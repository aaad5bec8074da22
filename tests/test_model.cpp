// Unit tests for hdc/model: bundling, cosine scoring, normalization, and
// the variance statistic regeneration ranks dimensions by.
#include "hdc/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "scoring_reference.hpp"

namespace cyberhd::hdc {
namespace {

/// Scores of one query through the batch scorer, as a one-row block.
std::vector<float> one_row_scores(const HdcModel& m,
                                  const std::vector<float>& h) {
  core::Matrix query(1, h.size());
  std::copy(h.begin(), h.end(), query.data());
  core::Matrix scores;
  m.similarities_batch(query, scores);
  return {scores.data(), scores.data() + scores.size()};
}

TEST(HdcModel, ConstructionZeroed) {
  HdcModel m(3, 16);
  EXPECT_EQ(m.num_classes(), 3u);
  EXPECT_EQ(m.dims(), 16u);
  for (std::size_t c = 0; c < 3; ++c) {
    for (float v : m.class_vector(c)) EXPECT_EQ(v, 0.0f);
  }
}

TEST(HdcModel, BundleAccumulates) {
  HdcModel m(2, 3);
  const std::vector<float> h1 = {1, 2, 3};
  const std::vector<float> h2 = {1, 0, -1};
  m.bundle(0, h1);
  m.bundle(0, h2);
  m.bundle(1, h2, 2.0f);
  EXPECT_FLOAT_EQ(m.class_vector(0)[0], 2.0f);
  EXPECT_FLOAT_EQ(m.class_vector(0)[2], 2.0f);
  EXPECT_FLOAT_EQ(m.class_vector(1)[0], 2.0f);
  EXPECT_FLOAT_EQ(m.class_vector(1)[2], -2.0f);
}

TEST(HdcModel, SimilaritiesAreCosines) {
  HdcModel m(2, 2);
  m.bundle(0, std::vector<float>{1, 0});
  m.bundle(1, std::vector<float>{0, 1});
  const std::vector<float> scores = one_row_scores(m, {1, 0});
  EXPECT_NEAR(scores[0], 1.0f, 1e-6f);
  EXPECT_NEAR(scores[1], 0.0f, 1e-6f);
}

TEST(HdcModel, ZeroClassScoresZero) {
  HdcModel m(2, 4);
  m.bundle(0, std::vector<float>{1, 1, 1, 1});
  const std::vector<float> scores = one_row_scores(m, {1, 1, 1, 1});
  EXPECT_NEAR(scores[0], 1.0f, 1e-6f);
  EXPECT_EQ(scores[1], 0.0f);  // class 1 never bundled
}

TEST(HdcModel, ArgmaxOfScoresPicksNearest) {
  // argmax of the one-row scores — what predict() returns for an encoded
  // query.
  HdcModel m(3, 4);
  m.bundle(0, std::vector<float>{1, 0, 0, 0});
  m.bundle(1, std::vector<float>{0, 1, 0, 0});
  m.bundle(2, std::vector<float>{0, 0, 1, 1});
  EXPECT_EQ(core::argmax(one_row_scores(m, {0.9f, 0.1f, 0, 0})), 0u);
  EXPECT_EQ(core::argmax(one_row_scores(m, {0, 1, 0.1f, 0})), 1u);
  EXPECT_EQ(core::argmax(one_row_scores(m, {0, 0, 1, 0.9f})), 2u);
}

TEST(HdcModel, NormalizeRows) {
  HdcModel m(2, 3);
  m.bundle(0, std::vector<float>{3, 0, 4});
  m.bundle(1, std::vector<float>{0, 0, 0});  // zero row untouched
  m.normalize_rows();
  EXPECT_NEAR(core::norm2(m.class_vector(0)), 1.0f, 1e-6f);
  EXPECT_EQ(core::norm2(m.class_vector(1)), 0.0f);
}

TEST(HdcModel, DimensionVariancesIdentifyCommonDims) {
  HdcModel m(3, 3);
  // Dim 0 identical across classes (common), dim 1 distinct, dim 2 wildly
  // distinct. Rows are already unit-ish; normalization happens inside.
  m.bundle(0, std::vector<float>{1.0f, 0.1f, 0.5f});
  m.bundle(1, std::vector<float>{1.0f, 0.2f, -0.5f});
  m.bundle(2, std::vector<float>{1.0f, 0.3f, 0.0f});
  std::vector<float> var(3);
  m.dimension_variances(var);
  EXPECT_LT(var[0], var[2]);
  EXPECT_LT(var[1], var[2]);
}

TEST(HdcModel, DimensionVariancesDoesNotModifyModel) {
  HdcModel m(2, 2);
  m.bundle(0, std::vector<float>{5, 3});
  const float before = m.class_vector(0)[0];
  std::vector<float> var(2);
  m.dimension_variances(var);
  EXPECT_EQ(m.class_vector(0)[0], before);
}

TEST(HdcModel, NormalizationPreventsMagnitudeMasquerade) {
  // Two classes pointing the same direction but at different magnitudes:
  // raw variance would be large everywhere, normalized variance ~ 0.
  HdcModel m(2, 2);
  m.bundle(0, std::vector<float>{1, 1});
  m.bundle(1, std::vector<float>{100, 100});
  std::vector<float> var(2);
  m.dimension_variances(var);
  EXPECT_NEAR(var[0], 0.0f, 1e-8f);
  EXPECT_NEAR(var[1], 0.0f, 1e-8f);
}

TEST(HdcModel, ZeroDimensions) {
  HdcModel m(2, 4);
  m.bundle(0, std::vector<float>{1, 2, 3, 4});
  m.bundle(1, std::vector<float>{5, 6, 7, 8});
  const std::vector<std::size_t> dims = {1, 3};
  m.zero_dimensions(dims);
  EXPECT_EQ(m.class_vector(0)[1], 0.0f);
  EXPECT_EQ(m.class_vector(0)[3], 0.0f);
  EXPECT_EQ(m.class_vector(1)[1], 0.0f);
  EXPECT_EQ(m.class_vector(0)[0], 1.0f);
  EXPECT_EQ(m.class_vector(1)[2], 7.0f);
}

TEST(HdcModel, LowestKBasic) {
  const std::vector<float> values = {5, 1, 4, 0, 3};
  const auto idx = HdcModel::lowest_k(values, 2);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 3u);
  EXPECT_EQ(idx[1], 1u);
}

TEST(HdcModel, LowestKTiesBrokenByIndex) {
  const std::vector<float> values = {2, 1, 1, 1};
  const auto idx = HdcModel::lowest_k(values, 2);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 2u);
}

TEST(HdcModel, LowestKClampsCount) {
  const std::vector<float> values = {1, 2};
  const auto idx = HdcModel::lowest_k(values, 10);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(HdcModel, LowestKZero) {
  const std::vector<float> values = {1, 2};
  EXPECT_TRUE(HdcModel::lowest_k(values, 0).empty());
}

TEST(HdcModel, SimilaritiesBatchMatchesPerSampleAcrossTileBoundary) {
  // 600 rows straddles the scoring tile (score_block_rows) many times
  // over: every row must still be bit-identical to the written-out
  // cosine_from_dot(core::dot, core::norm2, core::norm2) reference.
  const std::size_t n = 600, dims = 70, classes = 4;
  core::Rng rng(5);
  HdcModel model(classes, dims);
  for (std::size_t c = 0; c < classes; ++c) {
    std::vector<float> h(dims);
    core::fill_gaussian(rng, h.data(), dims, 0.0f, 1.0f);
    model.bundle(c, h);
  }
  core::Matrix queries(n, dims);
  core::fill_gaussian(rng, queries.data(), queries.size(), 0.0f, 1.0f);
  core::Matrix batched;
  model.similarities_batch(queries, batched);
  ASSERT_EQ(batched.rows(), n);
  ASSERT_EQ(batched.cols(), classes);
  std::vector<float> single(classes);
  for (std::size_t i = 0; i < n; ++i) {
    reference::similarities(model, queries.row(i), single);
    for (std::size_t c = 0; c < classes; ++c) {
      EXPECT_EQ(batched(i, c), single[c]) << "row " << i << " class " << c;
    }
  }
}

TEST(HdcModel, SimilaritiesBatchEmptyInput) {
  HdcModel model(3, 16);
  core::Matrix empty(0, 16), scores;
  model.similarities_batch(empty, scores);
  EXPECT_EQ(scores.rows(), 0u);
  EXPECT_EQ(scores.cols(), 3u);
}

}  // namespace
}  // namespace cyberhd::hdc
