// Tests for model persistence: encoder round trips for every family, full
// classifier save/load equivalence, CRC32C payload-corruption rejection,
// hostile length and shape fields in encoder streams, and back-compat with
// the pre-checksum version-1 layout.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/encoder.hpp"

namespace cyberhd::hdc {
namespace {

std::vector<float> probe_input(std::size_t n) {
  core::Rng rng(77);
  std::vector<float> x(n);
  core::fill_uniform(rng, x.data(), n, 0.0f, 1.0f);
  return x;
}

class EncoderRoundTrip : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(EncoderRoundTrip, EncodesIdentically) {
  core::Rng rng(3);
  const auto original = make_encoder(GetParam(), 7, 48, rng);
  std::stringstream buffer;
  original->serialize(buffer);
  const std::string saved = buffer.str();
  const auto restored = deserialize_encoder(buffer);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->input_dim(), 7u);
  EXPECT_EQ(restored->output_dim(), 48u);
  const auto x = probe_input(7);
  std::vector<float> h1(48), h2(48);
  original->encode(x, h1);
  restored->encode(x, h2);
  EXPECT_EQ(h1, h2);
  std::stringstream resaved;
  restored->serialize(resaved);
  EXPECT_EQ(resaved.str(), saved) << "a loaded encoder re-saves byte for byte";
}

TEST(RbfEncoderFormat, StreamKeepsTheDimensionMajorLayoutAndDrawOrder) {
  // The in-memory panel is F x D, but the ERBF stream stays D x F — row d
  // is dimension d's F weights — and each dimension still draws its F
  // weights, then its bias, so models saved before the panel's
  // transposition load unchanged. Written out from the Rng here.
  constexpr std::size_t kFeatures = 3;
  constexpr std::size_t kDims = 5;
  constexpr float kLengthscale = 0.5f;
  core::Rng rng(41);
  const RbfEncoder enc(kFeatures, kDims, rng, kLengthscale);
  core::Rng draws(41);
  std::vector<float> bases, biases;
  for (std::size_t d = 0; d < kDims; ++d) {
    for (std::size_t i = 0; i < kFeatures; ++i) {
      bases.push_back(
          static_cast<float>(draws.gaussian(0.0, 1.0 / kLengthscale)));
    }
    biases.push_back(
        static_cast<float>(draws.uniform(0.0, 2.0 * std::numbers::pi)));
  }
  std::ostringstream want;
  core::io::write_tag(want, "ERBF");
  core::io::write_f32(want, kLengthscale);
  core::io::write_u64(want, kDims);
  core::io::write_u64(want, kFeatures);
  core::io::write_f32_array(want, bases);
  core::io::write_f32_array(want, biases);
  std::stringstream got;
  enc.serialize(got);
  EXPECT_EQ(got.str(), want.str());
}

INSTANTIATE_TEST_SUITE_P(Kinds, EncoderRoundTrip,
                         ::testing::Values(EncoderKind::kRbf,
                                           EncoderKind::kSignProjection,
                                           EncoderKind::kIdLevel));

TEST(DeserializeEncoder, RejectsGarbage) {
  std::stringstream buffer("XXXXnot an encoder");
  EXPECT_THROW(deserialize_encoder(buffer), std::runtime_error);
}

TEST(DeserializeEncoder, RejectsTruncation) {
  core::Rng rng(5);
  const RbfEncoder enc(4, 16, rng);
  std::stringstream buffer;
  enc.serialize(buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(deserialize_encoder(truncated), std::runtime_error);
}

struct TrainedSmall {
  core::Matrix x{120, 3};
  std::vector<int> y = std::vector<int>(120);
  CyberHdClassifier model;

  TrainedSmall() : model(config()) {
    core::Rng rng(9);
    for (std::size_t i = 0; i < 120; ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < 3; ++f) {
        x(i, f) = 0.3f * static_cast<float>(cls) +
                  static_cast<float>(rng.gaussian(0.0, 0.05));
      }
      y[i] = cls;
    }
    model.fit(x, y, 3);
  }

  static CyberHdConfig config() {
    CyberHdConfig cfg;
    cfg.dims = 96;
    cfg.regen_steps = 4;
    cfg.final_epochs = 3;
    cfg.parallel = false;
    return cfg;
  }
};

// ---- hostile encoder streams ----------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CYBERHD_NO_ADDRESS_SPACE_CAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CYBERHD_NO_ADDRESS_SPACE_CAP 1
#endif
#endif

#ifndef CYBERHD_NO_ADDRESS_SPACE_CAP
/// A 40-byte ERBF stream whose bases declare a rows x cols matrix and a
/// matching float count, but carry only 8 payload bytes.
std::string hostile_rbf_stream(std::uint64_t rows, std::uint64_t cols) {
  std::ostringstream out;
  core::io::write_tag(out, "ERBF");
  core::io::write_f32(out, 1.0f);
  core::io::write_u64(out, rows);
  core::io::write_u64(out, cols);
  core::io::write_u64(out, rows * cols);
  core::io::write_u64(out, 0);
  return out.str();
}

/// Death-test child: load `bytes` as an encoder under a 1 GiB address-space
/// cap. Exits 0 after printing a std::runtime_error, 1 on std::bad_alloc,
/// and 2 when the stream loads.
[[noreturn]] void load_encoder_under_1gib_cap(const std::string& bytes) {
  const rlimit cap{1ull << 30, 1ull << 30};
  setrlimit(RLIMIT_AS, &cap);
  std::istringstream in(bytes);
  try {
    deserialize_encoder(in);
  } catch (const std::bad_alloc&) {
    std::fputs("bad_alloc\n", stderr);
    std::_Exit(1);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::_Exit(0);
  }
  std::_Exit(2);
}
#endif

TEST(HostileEncoderStream, DeclaredArrayPastTheStreamFailsBeforeAllocating) {
#ifdef CYBERHD_NO_ADDRESS_SPACE_CAP
  GTEST_SKIP() << "an address-space cap conflicts with sanitizer shadow "
                  "memory";
#else
  // A 40-byte stream declaring 2^28 (1 GiB) or 2^31 (8 GiB) floats must be
  // rejected as truncated before the array is allocated: under the cap an
  // allocation attempt dies of std::bad_alloc instead.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::uint64_t shapes[][2] = {{1u << 14, 1u << 14},
                                     {1u << 16, 1u << 15}};
  for (const auto& shape : shapes) {
    const std::string bytes = hostile_rbf_stream(shape[0], shape[1]);
    ASSERT_EQ(bytes.size(), 40u);
    EXPECT_EXIT(load_encoder_under_1gib_cap(bytes),
                ::testing::ExitedWithCode(0), "truncated")
        << shape[0] * shape[1] << " floats declared";
  }
#endif
}

TEST(HostileEncoderStream, WrappingMatrixShapeIsRejected) {
  // rows = cols = 2^32 wraps rows * cols to 0, which an empty payload
  // would match: the encoder must not load dimensions with no storage.
  std::ostringstream out;
  core::io::write_tag(out, "ESGN");
  core::io::write_u64(out, 1ull << 32);
  core::io::write_u64(out, 1ull << 32);
  core::io::write_u64(out, 0);
  std::istringstream in(out.str());
  EXPECT_THROW(deserialize_encoder(in), std::runtime_error);
}

TEST(HostileEncoderStream, WrappingIdLevelShapeIsRejected) {
  // num_features * dims and num_levels * dims (2 * 2^63) both wrap to 0,
  // which the empty tables would match: the stream must not load as a
  // 2 -> 2^63 encoder with no storage behind it.
  std::ostringstream out;
  core::io::write_tag(out, "EIDL");
  core::io::write_u64(out, 2);          // num_features
  core::io::write_u64(out, 1ull << 63);  // dims
  core::io::write_u64(out, 2);          // num_levels
  core::io::write_u64(out, 0);          // empty id table
  core::io::write_u64(out, 0);          // empty level table
  std::istringstream in(out.str());
  try {
    deserialize_encoder(in);
    FAIL() << "a wrapping id-level shape must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
        << e.what();
  }
}

TEST(HostileEncoderStream, IdLevelWithFewerThanTwoLevelsIsRejected) {
  // Well-formed tables for 2 features x 4 dims at 0 and at 1 level: the
  // quantizer maps onto [0, num_levels - 1], so with 0 levels the first
  // encode would index past the empty level table. Both must fail at load.
  for (const std::uint64_t levels : {std::uint64_t{0}, std::uint64_t{1}}) {
    SCOPED_TRACE(::testing::Message() << levels << " levels");
    std::ostringstream out;
    core::io::write_tag(out, "EIDL");
    core::io::write_u64(out, 2);       // num_features
    core::io::write_u64(out, 4);       // dims
    core::io::write_u64(out, levels);  // num_levels
    core::io::write_f32_array(out, std::vector<float>(2 * 4, 1.0f));
    core::io::write_f32_array(out, std::vector<float>(levels * 4, 1.0f));
    std::istringstream in(out.str());
    try {
      deserialize_encoder(in);
      FAIL() << "an id-level stream with fewer than 2 levels must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("at least 2 levels"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ClassifierPersistence, StreamRoundTripPredictsIdentically) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  const CyberHdClassifier restored = CyberHdClassifier::load(buffer);
  for (std::size_t i = 0; i < t.x.rows(); ++i) {
    EXPECT_EQ(restored.predict(t.x.row(i)), t.model.predict(t.x.row(i)));
  }
}

TEST(ClassifierPersistence, PreservesLedgerAndConfig) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  const CyberHdClassifier restored = CyberHdClassifier::load(buffer);
  EXPECT_EQ(restored.effective_dims(), t.model.effective_dims());
  EXPECT_EQ(restored.physical_dims(), t.model.physical_dims());
  EXPECT_EQ(restored.config().dims, t.model.config().dims);
  EXPECT_EQ(restored.config().seed, t.model.config().seed);
  EXPECT_EQ(restored.name(), t.model.name());
}

TEST(ClassifierPersistence, PreservesScores) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  const CyberHdClassifier restored = CyberHdClassifier::load(buffer);
  std::vector<float> s1(3), s2(3);
  t.model.scores(t.x.row(0), s1);
  restored.scores(t.x.row(0), s2);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(s1[c], s2[c]);
}

TEST(ClassifierPersistence, FileRoundTrip) {
  const TrainedSmall t;
  const std::string path = ::testing::TempDir() + "/cyberhd_model.bin";
  t.model.save_file(path);
  const CyberHdClassifier restored = CyberHdClassifier::load_file(path);
  EXPECT_EQ(restored.predict(t.x.row(5)), t.model.predict(t.x.row(5)));
  std::remove(path.c_str());
}

TEST(ClassifierPersistence, LoadRejectsBadMagic) {
  std::stringstream buffer("JUNKxxxxxxxxxxxxxxxx");
  EXPECT_THROW(CyberHdClassifier::load(buffer), std::runtime_error);
}

TEST(ClassifierPersistence, LoadRejectsTruncation) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() - 64));
  EXPECT_THROW(CyberHdClassifier::load(truncated), std::runtime_error);
}

TEST(ClassifierPersistence, LoadFileRejectsMissingFile) {
  EXPECT_THROW(CyberHdClassifier::load_file("/no/such/model.bin"),
               std::runtime_error);
}

TEST(ClassifierPersistence, RestoredModelCanRefit) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  CyberHdClassifier restored = CyberHdClassifier::load(buffer);
  restored.fit(t.x, t.y, 3);  // refit must work and reset the ledger
  EXPECT_GT(restored.evaluate(t.x, t.y), 0.9);
}

// ---- round-trip hardening: every encoder family, drift, truncation ---------

/// A small classifier trained with the given encoder family.
CyberHdClassifier trained_with(EncoderKind kind) {
  CyberHdConfig cfg = TrainedSmall::config();
  cfg.encoder = kind;
  CyberHdClassifier model(cfg);
  core::Rng rng(9);
  core::Matrix x(120, 3);
  std::vector<int> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    const int cls = static_cast<int>(i % 3);
    for (std::size_t f = 0; f < 3; ++f) {
      x(i, f) = 0.3f * static_cast<float>(cls) +
                static_cast<float>(rng.gaussian(0.0, 0.05));
    }
    y[i] = cls;
  }
  model.fit(x, y, 3);
  return model;
}

class ClassifierRoundTrip : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(ClassifierRoundTrip, PredictsAndScoresIdentically) {
  const CyberHdClassifier model = trained_with(GetParam());
  std::stringstream buffer;
  model.save(buffer);
  const CyberHdClassifier restored = CyberHdClassifier::load(buffer);
  EXPECT_EQ(restored.encoder().kind(), GetParam());
  const auto probe = probe_input(3);
  EXPECT_EQ(restored.predict(probe), model.predict(probe));
  std::vector<float> s1(3), s2(3);
  model.scores(probe, s1);
  restored.scores(probe, s2);
  EXPECT_EQ(s1, s2);
}

TEST_P(ClassifierRoundTrip, EveryStrictPrefixIsRejected) {
  const CyberHdClassifier model = trained_with(GetParam());
  std::stringstream buffer;
  model.save(buffer);
  const std::string full = buffer.str();
  // Sweep prefix lengths (every byte near the header, coarser through the
  // payload): a truncated stream must never load silently.
  const std::size_t step = std::max<std::size_t>(1, full.size() / 97);
  for (std::size_t len = 0; len < full.size();
       len += (len < 64 ? 1 : step)) {
    std::stringstream truncated(full.substr(0, len));
    EXPECT_THROW(CyberHdClassifier::load(truncated), std::runtime_error)
        << "prefix of " << len << " / " << full.size() << " bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ClassifierRoundTrip,
                         ::testing::Values(EncoderKind::kRbf,
                                           EncoderKind::kSignProjection,
                                           EncoderKind::kIdLevel));

class EncoderTruncation : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(EncoderTruncation, EveryStrictPrefixIsRejected) {
  core::Rng rng(3);
  const auto enc = make_encoder(GetParam(), 7, 48, rng);
  std::stringstream buffer;
  enc->serialize(buffer);
  const std::string full = buffer.str();
  const std::size_t step = std::max<std::size_t>(1, full.size() / 97);
  for (std::size_t len = 0; len < full.size();
       len += (len < 40 ? 1 : step)) {
    std::stringstream truncated(full.substr(0, len));
    EXPECT_THROW(deserialize_encoder(truncated), std::runtime_error)
        << "prefix of " << len << " / " << full.size() << " bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, EncoderTruncation,
                         ::testing::Values(EncoderKind::kRbf,
                                           EncoderKind::kSignProjection,
                                           EncoderKind::kIdLevel));

namespace {

/// Swap two little-endian u64 fields in a serialized byte string.
std::string swap_u64_fields(std::string bytes, std::size_t off_a,
                            std::size_t off_b) {
  for (std::size_t i = 0; i < 8; ++i) {
    std::swap(bytes[off_a + i], bytes[off_b + i]);
  }
  return bytes;
}

/// One checksummed section of a version-2 CYHD stream, located by byte
/// offsets into the serialized string.
struct SectionSpan {
  std::string tag;
  std::size_t payload_offset = 0;
  std::size_t payload_size = 0;
  std::size_t crc_offset = 0;
};

std::uint64_t read_le_u64(const std::string& bytes, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

/// Walk the v2 framing ("CYHD" + version word, then tag|size|payload|crc
/// sections) and return the section spans.
std::vector<SectionSpan> parse_sections(const std::string& bytes) {
  std::vector<SectionSpan> sections;
  std::size_t off = 4 + 8;  // tag + version word
  while (off + 12 <= bytes.size()) {
    SectionSpan s;
    s.tag = bytes.substr(off, 4);
    s.payload_size = read_le_u64(bytes, off + 4);
    s.payload_offset = off + 12;
    s.crc_offset = s.payload_offset + s.payload_size;
    sections.push_back(s);
    off = s.crc_offset + 8;
  }
  return sections;
}

/// Recompute and patch a section's stored CRC after tampering with its
/// payload — for drift tests that must reach the field cross-checks
/// *behind* the checksum layer.
void fix_section_crc(std::string& bytes, const SectionSpan& s) {
  const std::uint64_t crc = cyberhd::core::io::crc32c(
      bytes.data() + s.payload_offset, s.payload_size);
  std::memcpy(bytes.data() + s.crc_offset, &crc, sizeof(crc));
}

}  // namespace

TEST(FieldOrderDrift, RbfSwappedMatrixShapeIsRejected) {
  core::Rng rng(3);
  const RbfEncoder enc(7, 48, rng);
  std::stringstream buffer;
  enc.serialize(buffer);
  // Layout: tag(4) + lengthscale f32(4) + bases rows u64(8) + cols u64(8).
  // Swapping rows/cols keeps the payload size consistent (48*7 == 7*48), so
  // only the bias/rows cross-check can catch the drift.
  const std::string drifted = swap_u64_fields(buffer.str(), 8, 16);
  std::stringstream in(drifted);
  try {
    deserialize_encoder(in);
    FAIL() << "swapped rows/cols fields must not deserialize";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mismatch"), std::string::npos)
        << "error should say what is inconsistent, got: " << e.what();
  }
}

TEST(FieldOrderDrift, IdLevelSwappedDimsFieldsAreRejected) {
  core::Rng rng(3);
  const IdLevelEncoder enc(7, 48, rng);
  std::stringstream buffer;
  enc.serialize(buffer);
  // Layout: tag(4) + num_features u64(4..) + dims u64(12..) + levels u64.
  // num_features * dims survives the swap; the level-store size check is
  // what must reject it.
  const std::string drifted = swap_u64_fields(buffer.str(), 4, 12);
  std::stringstream in(drifted);
  EXPECT_THROW(deserialize_encoder(in), std::runtime_error);
}

TEST(FieldOrderDrift, ClassifierEncoderKindMismatchIsRejected) {
  const TrainedSmall t;  // RBF encoder
  std::stringstream buffer;
  t.model.save(buffer);
  std::string bytes = buffer.str();
  // v2 layout: the encoder-kind u64 sits at offset 8 of the CFG0 section
  // payload (after dims). Claim the payload holds an ID/level encoder
  // while the serialized encoder is an RBF one — and re-seal the section
  // checksum, so the *cross-check* (not the CRC) must catch the drift.
  const auto sections = parse_sections(bytes);
  ASSERT_GE(sections.size(), 3u);
  ASSERT_EQ(sections[0].tag, "CFG0");
  bytes[sections[0].payload_offset + 8] =
      static_cast<char>(EncoderKind::kIdLevel);
  fix_section_crc(bytes, sections[0]);
  std::stringstream in(bytes);
  try {
    CyberHdClassifier::load(in);
    FAIL() << "encoder-kind drift must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("encoder kind"), std::string::npos)
        << "error should name the drifted field, got: " << e.what();
  }
}

TEST(FieldOrderDrift, HeaderModelClassCountMismatchIsRejected) {
  // CFG0's num_classes and the model section's k must agree: the staged
  // scores_batch driver sizes outputs from the header while scoring
  // writes one column per model class, so a mismatched (yet
  // individually CRC-valid) file must be rejected at load, not become an
  // out-of-bounds write at serving time.
  const TrainedSmall t;  // 3 classes
  std::stringstream buffer;
  t.model.save(buffer);
  std::string bytes = buffer.str();
  const auto sections = parse_sections(bytes);
  ASSERT_GE(sections.size(), 3u);
  ASSERT_EQ(sections[0].tag, "CFG0");
  // num_classes is the 10th header field: offset 8+8+4+8+8+8+8+4+8 = 64.
  ASSERT_EQ(bytes[sections[0].payload_offset + 64], 3);
  bytes[sections[0].payload_offset + 64] = 4;
  fix_section_crc(bytes, sections[0]);
  std::stringstream in(bytes);
  try {
    CyberHdClassifier::load(in);
    FAIL() << "class-count mismatch must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("inconsistent"), std::string::npos)
        << e.what();
  }
}

TEST(HostileModelStream, WrappingClassCountIsRejected) {
  // CFG0's num_classes and MDL0's class count agree at k = 2^59 + 3, and
  // k * 96 wraps to 288 = the model's real weight count: a check of
  // count == k * dims alone would load a model of 2^59 + 3 classes over
  // 288 weights, whose class rows run far past its storage.
  const TrainedSmall t;  // D = 96, 3 classes
  std::stringstream buffer;
  t.model.save(buffer);
  std::string bytes = buffer.str();
  const auto sections = parse_sections(bytes);
  ASSERT_GE(sections.size(), 3u);
  ASSERT_EQ(sections[0].tag, "CFG0");
  ASSERT_EQ(sections[2].tag, "MDL0");
  const std::uint64_t k = (1ull << 59) + 3;
  ASSERT_EQ(k * 96, 288u);
  // num_classes is CFG0's 10th field (offset 64); k leads MDL0's payload.
  ASSERT_EQ(read_le_u64(bytes, sections[0].payload_offset + 64), 3u);
  ASSERT_EQ(read_le_u64(bytes, sections[2].payload_offset), 3u);
  std::memcpy(bytes.data() + sections[0].payload_offset + 64, &k, sizeof(k));
  std::memcpy(bytes.data() + sections[2].payload_offset, &k, sizeof(k));
  fix_section_crc(bytes, sections[0]);
  fix_section_crc(bytes, sections[2]);
  std::stringstream in(bytes);
  try {
    CyberHdClassifier::load(in);
    FAIL() << "a wrapping class count must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("inconsistent"), std::string::npos)
        << e.what();
  }
}

TEST(FieldOrderDrift, ClassifierOutOfRangeEncoderKindIsRejected) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  std::string bytes = buffer.str();
  const auto sections = parse_sections(bytes);
  ASSERT_GE(sections.size(), 1u);
  bytes[sections[0].payload_offset + 8] = 9;  // no such EncoderKind
  fix_section_crc(bytes, sections[0]);
  std::stringstream in(bytes);
  EXPECT_THROW(CyberHdClassifier::load(in), std::runtime_error);
}

// ---- checksummed sections: corruption rejection + v1 back-compat -----------

TEST(ChecksummedFormat, SaveWritesThreeSections) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  const std::string bytes = buffer.str();
  EXPECT_EQ(bytes.substr(0, 4), "CYHD");
  EXPECT_EQ(read_le_u64(bytes, 4), 2u);  // format version
  const auto sections = parse_sections(bytes);
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_EQ(sections[0].tag, "CFG0");
  EXPECT_EQ(sections[1].tag, "ENC0");
  EXPECT_EQ(sections[2].tag, "MDL0");
  // The sections tile the stream exactly.
  EXPECT_EQ(sections.back().crc_offset + 8, bytes.size());
}

TEST(ChecksummedFormat, FlippedPayloadByteInEverySectionIsRejected) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  const std::string clean = buffer.str();
  const auto sections = parse_sections(clean);
  ASSERT_EQ(sections.size(), 3u);
  for (const SectionSpan& s : sections) {
    ASSERT_GT(s.payload_size, 0u) << s.tag;
    // Sweep flip positions across the payload: first, last, and a spread
    // of interior bytes. CRC32C detects every single-byte error, so each
    // tampered stream must fail with an error naming the section.
    std::vector<std::size_t> positions = {0, s.payload_size - 1};
    const std::size_t step = std::max<std::size_t>(1, s.payload_size / 13);
    for (std::size_t p = step; p < s.payload_size; p += step) {
      positions.push_back(p);
    }
    for (const std::size_t pos : positions) {
      std::string tampered = clean;
      tampered[s.payload_offset + pos] ^= 0x40;
      std::stringstream in(tampered);
      try {
        CyberHdClassifier::load(in);
        FAIL() << "flipped byte " << pos << " of section " << s.tag
               << " must not load";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                  std::string::npos)
            << s.tag << " byte " << pos << ": " << e.what();
        EXPECT_NE(std::string(e.what()).find(s.tag), std::string::npos)
            << "error should name the section, got: " << e.what();
      }
    }
  }
}

TEST(ChecksummedFormat, CorruptSizeWordIsRejectedWithoutHugeAllocation) {
  // The size word sits outside the CRC; a flipped high bit must fail as a
  // truncated/implausible section, bounded by the actual stream length —
  // never as a multi-GiB allocation attempt.
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  const std::string clean = buffer.str();
  const auto sections = parse_sections(clean);
  ASSERT_EQ(sections.size(), 3u);
  for (const SectionSpan& s : sections) {
    const std::size_t size_offset = s.payload_offset - 8;
    for (const std::size_t byte : {0u, 3u, 7u}) {  // low, mid, high bits
      std::string tampered = clean;
      tampered[size_offset + byte] ^= 0x80;
      std::stringstream in(tampered);
      EXPECT_THROW(CyberHdClassifier::load(in), std::runtime_error)
          << s.tag << " size byte " << byte;
    }
  }
}

TEST(ChecksummedFormat, TamperedChecksumWordIsRejected) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  std::string bytes = buffer.str();
  const auto sections = parse_sections(bytes);
  ASSERT_EQ(sections.size(), 3u);
  bytes[sections[1].crc_offset] ^= 0x01;
  std::stringstream in(bytes);
  EXPECT_THROW(CyberHdClassifier::load(in), std::runtime_error);
}

namespace {

/// Write the pre-checksum version-1 layout (the exact field sequence PR 3
/// emitted) from a trained classifier's public state — the fixture for
/// the back-compat contract.
void save_v1_layout(const CyberHdClassifier& model, std::ostream& out) {
  namespace io = cyberhd::core::io;
  const CyberHdConfig& cfg = model.config();
  io::write_tag(out, "CYHD");
  io::write_u64(out, 1);  // format version
  io::write_u64(out, cfg.dims);
  io::write_u64(out, static_cast<std::uint64_t>(cfg.encoder));
  io::write_f32(out, static_cast<float>(cfg.regen_rate));
  io::write_u64(out, cfg.regen_steps);
  io::write_u64(out, cfg.regen_anneal ? 1 : 0);
  io::write_u64(out, cfg.epochs_per_step);
  io::write_u64(out, cfg.final_epochs);
  io::write_f32(out, cfg.learning_rate);
  io::write_u64(out, cfg.seed);
  io::write_u64(out, model.num_classes());
  io::write_u64(out, model.effective_dims() - model.physical_dims());
  io::write_u64(out, model.last_fit_report().regenerated_per_step.size());
  model.encoder().serialize(out);
  io::write_u64(out, model.model().num_classes());
  io::write_u64(out, model.model().dims());
  io::write_f32_array(out, {model.model().weights().data(),
                            model.model().weights().size()});
}

}  // namespace

// ---- chunked model section (MDLC): streaming writer back-compat ------------

/// Byte offset of the MDLC tag in a stream written with a forced-small
/// chunk size (right after the CFG0 and ENC0 sections).
std::size_t mdlc_offset(const std::string& bytes) {
  std::size_t off = 4 + 8;  // "CYHD" + version word
  for (int i = 0; i < 2; ++i) {  // CFG0, ENC0
    const std::uint64_t size = read_le_u64(bytes, off + 4);
    off += 12 + size + 8;
  }
  EXPECT_EQ(bytes.substr(off, 4), "MDLC");
  return off;
}

TEST(ChunkedFormat, ForcedChunkedSaveRoundTripsIdentically) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer, /*model_chunk_bytes=*/64);
  const std::string bytes = buffer.str();
  mdlc_offset(bytes);  // asserts the chunked layout actually engaged
  const CyberHdClassifier restored = CyberHdClassifier::load(buffer);
  EXPECT_EQ(restored.model().weights(), t.model.model().weights());
  for (std::size_t i = 0; i < t.x.rows(); i += 7) {
    EXPECT_EQ(restored.predict(t.x.row(i)), t.model.predict(t.x.row(i)));
  }
}

TEST(ChunkedFormat, ChunkedAndBufferedLayoutsRestoreTheSameModel) {
  const TrainedSmall t;
  std::stringstream chunked, buffered;
  t.model.save(chunked, /*model_chunk_bytes=*/128);
  t.model.save(buffered);  // small model: stays MDL0
  const CyberHdClassifier from_chunked = CyberHdClassifier::load(chunked);
  const CyberHdClassifier from_buffered = CyberHdClassifier::load(buffered);
  EXPECT_EQ(from_chunked.model().weights(),
            from_buffered.model().weights());
  EXPECT_EQ(from_chunked.effective_dims(), from_buffered.effective_dims());
}

TEST(ChunkedFormat, SmallModelsKeepTheBufferedLayoutByDefault) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer);
  const auto sections = parse_sections(buffer.str());
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_EQ(sections[2].tag, "MDL0");
}

TEST(ChunkedFormat, EveryStrictPrefixIsRejected) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer, /*model_chunk_bytes=*/64);
  const std::string full = buffer.str();
  const std::size_t step = std::max<std::size_t>(1, full.size() / 97);
  for (std::size_t len = 0; len < full.size();
       len += (len < 64 ? 1 : step)) {
    std::stringstream truncated(full.substr(0, len));
    EXPECT_THROW(CyberHdClassifier::load(truncated), std::runtime_error)
        << "prefix of " << len << " / " << full.size() << " bytes";
  }
  // The sharpest truncation: everything except the 8-byte terminator. The
  // weights are all present, but the unterminated chunk stream must still
  // be rejected.
  std::stringstream no_terminator(full.substr(0, full.size() - 8));
  EXPECT_THROW(CyberHdClassifier::load(no_terminator), std::runtime_error);
}

TEST(ChunkedFormat, FlippedBytesAcrossTheChunkStreamAreRejected) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer, /*model_chunk_bytes=*/64);
  const std::string clean = buffer.str();
  const std::size_t start = mdlc_offset(clean) + 12;  // tag + chunk-size word
  // Sweep flips across the chunk framing (length words, payloads, CRCs,
  // terminator): every one must fail to load. (Flips inside the nominal
  // chunk-size word are excluded — it only sizes the reader's buffer, and
  // a one-bit-larger buffer is not corruption.)
  const std::size_t step =
      std::max<std::size_t>(1, (clean.size() - start) / 61);
  for (std::size_t pos = start; pos < clean.size(); pos += step) {
    std::string tampered = clean;
    tampered[pos] ^= 0x40;
    std::stringstream in(tampered);
    EXPECT_THROW(CyberHdClassifier::load(in), std::runtime_error)
        << "flipped byte at " << pos << " of " << clean.size();
  }
}

TEST(ChunkedFormat, PayloadFlipNamesTheSection) {
  const TrainedSmall t;
  std::stringstream buffer;
  t.model.save(buffer, /*model_chunk_bytes=*/64);
  std::string bytes = buffer.str();
  // First chunk payload starts after MDLC tag(4) + chunk-size(8) +
  // chunk-length(8); flip a byte in the middle of it.
  const std::size_t pos = mdlc_offset(bytes) + 20 + 13;
  bytes[pos] ^= 0x01;
  std::stringstream in(bytes);
  try {
    CyberHdClassifier::load(in);
    FAIL() << "flipped chunk payload byte must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("MDLC"), std::string::npos)
        << "error should name the section, got: " << e.what();
  }
}

TEST(ChunkedFormat, OutOfRangeChunkSizeIsRejectedOnSaveAndLoad) {
  const TrainedSmall t;
  std::stringstream buffer;
  EXPECT_THROW(t.model.save(buffer, 0), std::invalid_argument);
  // A corrupt on-disk chunk-size word of zero must be rejected by name.
  std::stringstream ok;
  t.model.save(ok, /*model_chunk_bytes=*/64);
  std::string bytes = ok.str();
  const std::size_t off = mdlc_offset(bytes);
  for (std::size_t i = 0; i < 8; ++i) bytes[off + 4 + i] = '\0';
  std::stringstream in(bytes);
  try {
    CyberHdClassifier::load(in);
    FAIL() << "zero chunk size must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("MDLC"), std::string::npos)
        << e.what();
  }
}

TEST(ChecksummedFormat, ChecksumLessV1FilesStillLoad) {
  const TrainedSmall t;
  std::stringstream v1;
  save_v1_layout(t.model, v1);
  const CyberHdClassifier restored = CyberHdClassifier::load(v1);
  EXPECT_EQ(restored.effective_dims(), t.model.effective_dims());
  EXPECT_EQ(restored.num_classes(), t.model.num_classes());
  for (std::size_t i = 0; i < t.x.rows(); i += 5) {
    EXPECT_EQ(restored.predict(t.x.row(i)), t.model.predict(t.x.row(i)));
  }
  std::vector<float> s1(3), s2(3);
  t.model.scores(t.x.row(0), s1);
  restored.scores(t.x.row(0), s2);
  EXPECT_EQ(s1, s2);
}

TEST(ChecksummedFormat, V1AndV2RestoreTheSameModel) {
  const TrainedSmall t;
  std::stringstream v1, v2;
  save_v1_layout(t.model, v1);
  t.model.save(v2);
  const CyberHdClassifier from_v1 = CyberHdClassifier::load(v1);
  const CyberHdClassifier from_v2 = CyberHdClassifier::load(v2);
  EXPECT_EQ(from_v1.model().weights(), from_v2.model().weights());
  EXPECT_EQ(from_v1.effective_dims(), from_v2.effective_dims());
}

}  // namespace
}  // namespace cyberhd::hdc
