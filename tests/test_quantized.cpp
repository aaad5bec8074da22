// Tests for hdc/quantized: post-training quantization fidelity across
// bitwidths and the packed 1-bit popcount inference path.
#include "hdc/quantized.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"

namespace cyberhd::hdc {
namespace {

struct TrainedFixture {
  core::Matrix x;
  std::vector<int> y;
  CyberHdClassifier model;

  TrainedFixture() : model(make_config()) {
    const float centers[3][4] = {{0.2f, 0.2f, 0.8f, 0.5f},
                                 {0.8f, 0.3f, 0.2f, 0.4f},
                                 {0.5f, 0.8f, 0.5f, 0.9f}};
    core::Rng rng(5);
    const std::size_t per_class = 70;
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
    model.fit(x, y, 3);
  }

  static CyberHdConfig make_config() {
    CyberHdConfig cfg;
    cfg.dims = 256;
    cfg.regen_steps = 4;
    cfg.final_epochs = 4;
    cfg.parallel = false;
    return cfg;
  }
};

TEST(QuantizedHdcModel, RejectsUnsupportedBitwidth) {
  HdcModel m(2, 8);
  EXPECT_THROW(QuantizedHdcModel(m, 3), std::invalid_argument);
  EXPECT_THROW(QuantizedHdcModel(m, 0), std::invalid_argument);
}

TEST(QuantizedHdcModel, StorageLayoutPerBitwidth) {
  HdcModel m(3, 64);
  QuantizedHdcModel one(m, 1);
  EXPECT_EQ(one.packed_classes().size(), 3u);
  EXPECT_TRUE(one.level_classes().empty());
  QuantizedHdcModel eight(m, 8);
  EXPECT_EQ(eight.level_classes().size(), 3u);
  EXPECT_TRUE(eight.packed_classes().empty());
  EXPECT_EQ(one.storage_bits(), 3u * 64u * 1u);
  EXPECT_EQ(eight.storage_bits(), 3u * 64u * 8u);
}

TEST(QuantizedHdcModel, HighBitwidthMatchesFloatPredictions) {
  TrainedFixture f;
  const QuantizedCyberHd q(f.model, 16);
  std::vector<int> quantized(f.x.rows()), full(f.x.rows());
  q.predict_batch(f.x, quantized);
  f.model.predict_batch(f.x, full);
  EXPECT_EQ(quantized, full);
}

TEST(QuantizedHdcModel, AccuracyDegradesGracefullyWithBits) {
  TrainedFixture f;
  const double float_acc = f.model.evaluate(f.x, f.y);
  for (int bits : {8, 4, 2, 1}) {
    const QuantizedCyberHd q(f.model, bits);
    // Even 1-bit HDC retains most accuracy — the holographic property.
    EXPECT_GT(q.evaluate(f.x, f.y), float_acc - 0.10) << "bits=" << bits;
  }
}

TEST(QuantizedHdcModel, OneBitUsesSignAgreement) {
  HdcModel m(2, 128);
  core::Rng rng(7);
  std::vector<float> proto(128);
  core::fill_gaussian(rng, proto.data(), proto.size(), 0.0f, 1.0f);
  m.bundle(0, proto);
  std::vector<float> anti(proto);
  core::scale(anti, -1.0f);
  m.bundle(1, anti);
  const QuantizedHdcModel q(m, 1);
  // The prototype itself, packed and scored as a one-row block, must
  // classify as class 0 with similarity 1.
  std::vector<std::uint64_t> words(q.packed_row_bytes() /
                                   sizeof(std::uint64_t));
  q.pack_row(proto, reinterpret_cast<unsigned char*>(words.data()));
  const std::uint64_t* row = words.data();
  std::vector<float> scores(2);
  q.similarities_packed(PackedRows(&row, 1, q.dims()), scores.data(),
                        core::ExecutionContext::serial());
  EXPECT_FLOAT_EQ(scores[0], 1.0f);
  EXPECT_FLOAT_EQ(scores[1], -1.0f);
  EXPECT_EQ(core::argmax(scores), 0u);
}

TEST(QuantizedCyberHd, EndToEndPredictions) {
  TrainedFixture f;
  const QuantizedCyberHd q8(f.model, 8);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < f.x.rows(); ++i) {
    if (q8.predict(f.x.row(i)) == f.y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(f.x.rows()),
            0.9);
}

TEST(QuantizedCyberHd, PerSampleCallsRejectMiswidthSpans) {
  // As for CyberHdClassifier: a narrow feature span or a short score span
  // throws before anything is read or written, at every bitwidth. The
  // spans view larger buffers, so an overrun would land on the sentinels.
  TrainedFixture f;
  const std::vector<float> features(6, 0.5f);
  const std::span<const float> narrow(features.data(), 3);
  const std::span<const float> wide(features.data(), 5);
  const std::span<const float> row = f.x.row(0);
  for (int bits : core::kSupportedBitwidths) {
    const QuantizedCyberHd q(f.model, bits);
    std::vector<float> scores(5, -7.0f);
    EXPECT_THROW(q.predict(narrow), std::invalid_argument) << bits;
    EXPECT_THROW(q.predict(wide), std::invalid_argument) << bits;
    EXPECT_THROW(q.scores(narrow, {scores.data(), 3}), std::invalid_argument)
        << bits;
    EXPECT_THROW(q.scores(row, {scores.data(), 2}), std::invalid_argument)
        << bits;
    EXPECT_THROW(q.scores(row, {scores.data(), 4}), std::invalid_argument)
        << bits;
    EXPECT_EQ(scores, std::vector<float>(5, -7.0f)) << bits;

    q.scores(row, {scores.data(), 3});
    EXPECT_EQ(scores[3], -7.0f) << bits;
    EXPECT_EQ(static_cast<int>(core::argmax({scores.data(), 3})),
              q.predict(row))
        << bits;
  }
}

TEST(QuantizedCyberHd, NameIncludesBitsAndDims) {
  TrainedFixture f;
  const QuantizedCyberHd q(f.model, 4);
  EXPECT_NE(q.name().find("q4"), std::string::npos);
  EXPECT_NE(q.name().find("256"), std::string::npos);
  EXPECT_EQ(q.bits(), 4);
}

TEST(QuantizedCyberHd, FitThrows) {
  TrainedFixture f;
  QuantizedCyberHd q(f.model, 8);
  EXPECT_THROW(q.fit(f.x, f.y, 3), std::logic_error);
}

TEST(QuantizedCyberHd, IndependentOfSourceAfterSnapshot) {
  TrainedFixture f;
  const QuantizedCyberHd q(f.model, 8);
  const int before = q.predict(f.x.row(0));
  // Retrain the source with a different seed; the snapshot must not move.
  auto cfg = TrainedFixture::make_config();
  cfg.seed = 999;
  f.model = CyberHdClassifier(cfg);
  f.model.fit(f.x, f.y, 3);
  EXPECT_EQ(q.predict(f.x.row(0)), before);
}

TEST(QuantizedCyberHd, FusedTileEncodeMatchesEncodeThenPack) {
  // encode_tile_packed quantizes each finished float row straight out of
  // the tile's scratch — the packed bytes must be identical to the
  // encode-then-pack_row reference at every packed bitwidth, for full
  // batches, sub-ranges, and strided destinations alike.
  TrainedFixture f;
  std::vector<float> h(f.model.physical_dims());
  for (int bits : {1, 2, 4, 8}) {
    const QuantizedCyberHd q(f.model, bits);
    const std::size_t row_bytes = q.model().packed_row_bytes();
    std::vector<unsigned char> ref(row_bytes);

    std::vector<unsigned char> fused(f.x.rows() * row_bytes, 0xaa);
    q.encode_tile_packed(f.x, 0, f.x.rows(), fused.data(), row_bytes);
    for (std::size_t i = 0; i < f.x.rows(); ++i) {
      f.model.encoder().encode(f.x.row(i), h);
      q.model().pack_row(h, ref.data());
      EXPECT_EQ(std::memcmp(fused.data() + i * row_bytes, ref.data(),
                            row_bytes),
                0)
          << "bits=" << bits << " row " << i;
    }

    // A sub-range into a strided destination: rows land at dst + i *
    // dst_stride and the pad bytes between row_bytes and the stride stay
    // untouched.
    const std::size_t begin = 17, end = 60;
    const std::size_t stride = row_bytes + 13;
    std::vector<unsigned char> strided((end - begin) * stride, 0xc3);
    q.encode_tile_packed(f.x, begin, end, strided.data(), stride);
    for (std::size_t i = 0; i < end - begin; ++i) {
      f.model.encoder().encode(f.x.row(begin + i), h);
      q.model().pack_row(h, ref.data());
      EXPECT_EQ(
          std::memcmp(strided.data() + i * stride, ref.data(), row_bytes), 0)
          << "bits=" << bits << " row " << begin + i;
      for (std::size_t b = row_bytes; b < stride; ++b) {
        EXPECT_EQ(strided[i * stride + b], 0xc3)
            << "bits=" << bits << " pad overwritten at row " << i;
      }
    }
  }
}

// Bitwidth sweep: quantized accuracy is monotone (allowing small noise) in
// bitwidth on the blob task.
class QuantizedBitSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantizedBitSweep, RetainsAccuracy) {
  TrainedFixture f;
  const QuantizedCyberHd q(f.model, GetParam());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < f.x.rows(); ++i) {
    if (q.predict(f.x.row(i)) == f.y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(f.x.rows()),
            0.85)
      << "bits=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizedBitSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace cyberhd::hdc
