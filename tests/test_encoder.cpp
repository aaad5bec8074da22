// Unit tests for hdc/encoder: shape/determinism contracts, per-dimension
// regeneration semantics, batch-vs-single consistency, and the RFF kernel
// approximation property that justifies the RBF encoder.
#include "hdc/encoder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/kernels/kernels.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"

namespace cyberhd::hdc {
namespace {

std::vector<float> random_input(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<float> x(n);
  core::fill_uniform(rng, x.data(), n, 0.0f, 1.0f);
  return x;
}

TEST(RbfEncoder, Shapes) {
  core::Rng rng(1);
  RbfEncoder enc(10, 64, rng);
  EXPECT_EQ(enc.input_dim(), 10u);
  EXPECT_EQ(enc.output_dim(), 64u);
  // The base panel is feature-major: F x D.
  EXPECT_EQ(enc.bases().rows(), 10u);
  EXPECT_EQ(enc.bases().cols(), 64u);
  EXPECT_EQ(enc.biases().size(), 64u);
}

TEST(RbfEncoder, OutputsBoundedByCosine) {
  core::Rng rng(2);
  RbfEncoder enc(8, 256, rng);
  const auto x = random_input(8, 3);
  std::vector<float> h(256);
  enc.encode(x, h);
  for (float v : h) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(RbfEncoder, DeterministicGivenSeed) {
  core::Rng rng1(5), rng2(5);
  RbfEncoder a(6, 32, rng1), b(6, 32, rng2);
  const auto x = random_input(6, 7);
  std::vector<float> ha(32), hb(32);
  a.encode(x, ha);
  b.encode(x, hb);
  EXPECT_EQ(ha, hb);
}

TEST(RbfEncoder, EncodeDimsMatchesEncode) {
  core::Rng rng(9);
  RbfEncoder enc(5, 40, rng);
  const auto x = random_input(5, 11);
  std::vector<float> full(40), partial(40, -99.0f);
  enc.encode(x, full);
  const std::vector<std::size_t> dims = {0, 7, 13, 39};
  enc.encode_dims(x, dims, partial);
  for (std::size_t d : dims) EXPECT_FLOAT_EQ(partial[d], full[d]);
  EXPECT_FLOAT_EQ(partial[1], -99.0f);  // untouched
}

TEST(RbfEncoder, RegenerateChangesOnlySelectedDims) {
  core::Rng rng(13);
  RbfEncoder enc(6, 50, rng);
  const auto x = random_input(6, 17);
  std::vector<float> before(50);
  enc.encode(x, before);
  const std::vector<std::size_t> dims = {3, 20, 49};
  core::Rng regen_rng(99);
  enc.regenerate(dims, regen_rng);
  std::vector<float> after(50);
  enc.encode(x, after);
  for (std::size_t d = 0; d < 50; ++d) {
    const bool selected =
        std::find(dims.begin(), dims.end(), d) != dims.end();
    if (!selected) {
      EXPECT_FLOAT_EQ(after[d], before[d]) << "dim " << d;
    }
  }
  // With continuous resampling the selected dims change almost surely.
  int changed = 0;
  for (std::size_t d : dims) {
    if (after[d] != before[d]) ++changed;
  }
  EXPECT_EQ(changed, 3);
}

TEST(RbfEncoder, CloneIsIndependent) {
  core::Rng rng(19);
  RbfEncoder enc(4, 16, rng);
  auto copy = enc.clone();
  core::Rng regen_rng(7);
  const std::vector<std::size_t> dims = {0, 1};
  enc.regenerate(dims, regen_rng);
  const auto x = random_input(4, 23);
  std::vector<float> h1(16), h2(16);
  enc.encode(x, h1);
  copy->encode(x, h2);
  EXPECT_NE(h1[0], h2[0]);  // original changed, clone did not
}

TEST(RbfEncoder, KernelApproximation) {
  // E[h(x).h(y)] / (D/2) ~ exp(-|x-y|^2 / (2 ls^2)); check at D large.
  core::Rng rng(29);
  const float ls = 1.0f;
  RbfEncoder enc(4, 16384, rng, ls);
  std::vector<float> x = {0.1f, 0.4f, 0.7f, 0.2f};
  std::vector<float> y = {0.3f, 0.2f, 0.5f, 0.6f};
  std::vector<float> hx(enc.output_dim()), hy(enc.output_dim());
  enc.encode(x, hx);
  enc.encode(y, hy);
  float dist_sq = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    dist_sq += (x[i] - y[i]) * (x[i] - y[i]);
  }
  const double expect = std::exp(-dist_sq / (2.0 * ls * ls));
  const double got = core::dot(hx, hy) /
                     (static_cast<double>(enc.output_dim()) / 2.0);
  EXPECT_NEAR(got, expect, 0.05);
}

TEST(RbfEncoder, LengthscaleControlsSmoothness) {
  // A sharper kernel (smaller lengthscale) separates nearby points more.
  core::Rng rng1(31), rng2(31);
  RbfEncoder smooth(3, 4096, rng1, 4.0f);
  RbfEncoder sharp(3, 4096, rng2, 0.25f);
  const std::vector<float> x = {0.5f, 0.5f, 0.5f};
  const std::vector<float> y = {0.6f, 0.4f, 0.55f};
  std::vector<float> a(4096), b(4096);
  smooth.encode(x, a);
  smooth.encode(y, b);
  const float cos_smooth = core::cosine(a, b);
  sharp.encode(x, a);
  sharp.encode(y, b);
  const float cos_sharp = core::cosine(a, b);
  EXPECT_GT(cos_smooth, cos_sharp);
}

TEST(SignProjectionEncoder, OutputsAreBipolar) {
  core::Rng rng(37);
  SignProjectionEncoder enc(7, 128, rng);
  const auto x = random_input(7, 41);
  std::vector<float> h(128);
  enc.encode(x, h);
  for (float v : h) EXPECT_TRUE(v == 1.0f || v == -1.0f);
}

TEST(SignProjectionEncoder, EncodeDimsMatches) {
  core::Rng rng(43);
  SignProjectionEncoder enc(5, 64, rng);
  const auto x = random_input(5, 47);
  std::vector<float> full(64), partial(64, 0.0f);
  enc.encode(x, full);
  std::vector<std::size_t> dims;
  for (std::size_t d = 0; d < 64; d += 3) dims.push_back(d);
  enc.encode_dims(x, dims, partial);
  for (std::size_t d : dims) EXPECT_EQ(partial[d], full[d]);
}

TEST(IdLevelEncoder, NeighbourLevelsAreSimilar) {
  core::Rng rng(53);
  IdLevelEncoder enc(1, 8192, rng, 32);
  std::vector<float> h0(8192), h1(8192), h31(8192);
  const std::vector<float> v0 = {0.0f};
  const std::vector<float> v1 = {1.0f / 31.0f};
  const std::vector<float> v31 = {1.0f};
  enc.encode(v0, h0);
  enc.encode(v1, h1);
  enc.encode(v31, h31);
  const float near = core::cosine(h0, h1);
  const float far = core::cosine(h0, h31);
  EXPECT_GT(near, 0.9f);  // adjacent levels nearly identical
  EXPECT_LT(far, 0.2f);   // extreme levels near orthogonal
}

TEST(IdLevelEncoder, ClampsOutOfRangeInputs) {
  core::Rng rng(59);
  IdLevelEncoder enc(2, 256, rng);
  std::vector<float> h1(256), h2(256);
  enc.encode(std::vector<float>{-5.0f, 2.0f}, h1);
  enc.encode(std::vector<float>{0.0f, 1.0f}, h2);
  EXPECT_EQ(h1, h2);
}

TEST(IdLevelEncoder, RegenerateChangesOnlySelectedDims) {
  core::Rng rng(61);
  IdLevelEncoder enc(3, 64, rng);
  const std::vector<float> x = {0.2f, 0.8f, 0.5f};
  std::vector<float> before(64), after(64);
  enc.encode(x, before);
  core::Rng regen_rng(5);
  const std::vector<std::size_t> dims = {10, 11};
  enc.regenerate(dims, regen_rng);
  enc.encode(x, after);
  for (std::size_t d = 0; d < 64; ++d) {
    if (d != 10 && d != 11) {
      EXPECT_EQ(after[d], before[d]);
    }
  }
}

TEST(EncoderBatch, MatchesSingleEncodes) {
  core::Rng rng(67);
  RbfEncoder enc(6, 48, rng);
  core::Matrix x(20, 6);
  core::Rng data_rng(71);
  core::fill_uniform(data_rng, x.data(), x.size(), 0.0f, 1.0f);
  core::Matrix h_serial, h_parallel;
  enc.encode_batch(x, h_serial);
  core::ThreadPool pool(4);
  enc.encode_batch(x, h_parallel, core::ExecutionContext(&pool));
  EXPECT_EQ(h_serial, h_parallel);
  std::vector<float> one(48);
  enc.encode(x.row(7), one);
  for (std::size_t d = 0; d < 48; ++d) {
    EXPECT_FLOAT_EQ(h_serial(7, d), one[d]);
  }
}

TEST(EncoderBatch, BatchDimsUpdatesColumns) {
  // The regeneration refresh at the paper shape (F = 78 CIC-IDS-2017
  // features, D = 512, ~25% of the dims regenerated) runs flow blocks of
  // plan_encode_tile(|dims|, F).flow_rows rows through the multi-flow
  // tile. Row counts straddle one block, serially and on 4 workers; the
  // refreshed matrix must equal a fresh full encode bit for bit.
  constexpr std::size_t kFeatures = 78;
  constexpr std::size_t kDims = 512;
  std::vector<std::size_t> dims;
  core::Rng pick_rng(66);
  for (std::size_t d = 0; d < kDims; ++d) {
    if (pick_rng.next_below(4) == 0) dims.push_back(d);
  }
  const std::size_t block =
      core::ExecutionContext::serial()
          .plan_encode_tile(dims.size(), kFeatures)
          .flow_rows;
  core::ThreadPool pool(4);
  const core::ExecutionContext pooled(&pool);
  for (std::size_t rows : {std::size_t{1}, block - 1, block, block + 1,
                           std::size_t{100}}) {
    for (const core::ExecutionContext* exec :
         {&core::ExecutionContext::serial(), &pooled}) {
      core::Rng rng(73);
      RbfEncoder enc(kFeatures, kDims, rng);
      core::Matrix x(rows, kFeatures);
      core::Rng data_rng(79 + rows);
      core::fill_uniform(data_rng, x.data(), x.size(), 0.0f, 1.0f);
      core::Matrix h;
      enc.encode_batch(x, h, *exec);
      core::Rng regen_rng(83);
      enc.regenerate(dims, regen_rng);
      core::Matrix h_updated = h;
      enc.encode_batch_dims(x, dims, h_updated, *exec);
      core::Matrix h_full;
      enc.encode_batch(x, h_full, *exec);
      EXPECT_EQ(h_updated, h_full)
          << "rows=" << rows << " pooled=" << (exec == &pooled);
    }
  }
}

/// Every backend this host can run.
std::vector<const core::Kernels*> runnable_backends() {
  std::vector<const core::Kernels*> backends = {&core::scalar_kernels()};
  if (core::cpu_supports_avx2()) backends.push_back(core::avx2_kernels());
  if (core::cpu_supports_avx512()) backends.push_back(core::avx512_kernels());
  return backends;
}

TEST(EncoderBatch, EncodesIdenticallyOnEveryBackend) {
  // The encode tile is exact across backends, so a batched encode and a
  // regeneration refresh write the same bytes under a context carrying any
  // backend's table: at the served shape (F = 78, D = 512) and at a ragged
  // D, with a refresh of a ragged number of dimensions.
  constexpr std::size_t kFeatures = 78;
  for (std::size_t dims_out : {std::size_t{512}, std::size_t{100}}) {
    std::vector<std::size_t> dims;
    for (std::size_t d = 3; d < dims_out; d += 7) dims.push_back(d);
    core::Matrix x(37, kFeatures);
    core::Rng data_rng(61);
    core::fill_uniform(data_rng, x.data(), x.size(), 0.0f, 1.0f);
    core::Matrix want_batch, want_refresh;
    for (const core::Kernels* k : runnable_backends()) {
      const core::ExecutionContext exec(nullptr, k,
                                        core::CacheTopology::detected());
      core::Rng rng(59);
      RbfEncoder enc(kFeatures, dims_out, rng);
      core::Matrix h;
      enc.encode_batch(x, h, exec);
      core::Rng regen_rng(67);
      enc.regenerate(dims, regen_rng);
      core::Matrix refreshed = h;
      enc.encode_batch_dims(x, dims, refreshed, exec);
      if (k == &core::scalar_kernels()) {
        want_batch = h;
        want_refresh = refreshed;
        continue;
      }
      EXPECT_EQ(std::memcmp(h.data(), want_batch.data(),
                            h.size() * sizeof(float)),
                0)
          << k->name << " D=" << dims_out;
      EXPECT_EQ(std::memcmp(refreshed.data(), want_refresh.data(),
                            refreshed.size() * sizeof(float)),
                0)
          << k->name << " D=" << dims_out;
    }
  }
}

TEST(Factory, CreatesAllKinds) {
  core::Rng rng(89);
  for (EncoderKind kind : {EncoderKind::kRbf, EncoderKind::kSignProjection,
                           EncoderKind::kIdLevel}) {
    auto enc = make_encoder(kind, 5, 32, rng);
    ASSERT_NE(enc, nullptr);
    EXPECT_EQ(enc->input_dim(), 5u);
    EXPECT_EQ(enc->output_dim(), 32u);
  }
}

TEST(Factory, KindNames) {
  EXPECT_STREQ(to_string(EncoderKind::kRbf), "rbf");
  EXPECT_STREQ(to_string(EncoderKind::kSignProjection), "sign-projection");
  EXPECT_STREQ(to_string(EncoderKind::kIdLevel), "id-level");
}

TEST(MedianHeuristic, RecoversKnownScale) {
  // Points on a grid with typical pairwise distance ~ known value.
  core::Matrix x(200, 2);
  core::Rng rng(97);
  core::fill_gaussian(rng, x.data(), x.size(), 0.0f, 1.0f);
  core::Rng h_rng(101);
  const float ls = median_heuristic_lengthscale(x, h_rng);
  // For 2-d standard normals, median pair distance ~ sqrt(2 * 2 * ln 2)
  // ~ 1.66; allow generous tolerance.
  EXPECT_GT(ls, 1.0f);
  EXPECT_LT(ls, 2.5f);
}

TEST(MedianHeuristic, DegenerateInputsReturnOne) {
  core::Matrix single(1, 3);
  core::Rng rng(103);
  EXPECT_EQ(median_heuristic_lengthscale(single, rng), 1.0f);
  core::Matrix constant(10, 3, 2.0f);
  EXPECT_EQ(median_heuristic_lengthscale(constant, rng), 1.0f);
}

// Property sweep: every encoder kind keeps encode_dims consistent with
// encode after interleaved regeneration.
class EncoderKindSweep : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(EncoderKindSweep, RegenerateThenEncodeDimsConsistent) {
  core::Rng rng(107);
  auto enc = make_encoder(GetParam(), 6, 40, rng);
  const auto x = random_input(6, 109);
  core::Rng regen_rng(113);
  for (int round = 0; round < 3; ++round) {
    const std::vector<std::size_t> dims = {static_cast<std::size_t>(round),
                                           10u + round, 30u + round};
    enc->regenerate(dims, regen_rng);
    std::vector<float> full(40), partial(40, 0.0f);
    enc->encode(x, full);
    enc->encode_dims(x, dims, partial);
    for (std::size_t d : dims) EXPECT_FLOAT_EQ(partial[d], full[d]);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, EncoderKindSweep,
                         ::testing::Values(EncoderKind::kRbf,
                                           EncoderKind::kSignProjection,
                                           EncoderKind::kIdLevel));

}  // namespace
}  // namespace cyberhd::hdc
