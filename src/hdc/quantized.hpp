// Quantized HDC inference — the deployment path of Table I and Fig. 5.
//
// After training in float32, the class hypervectors are post-training
// quantized to b bits (b in {32, 16, 8, 4, 2, 1}); queries are quantized on
// the fly at the same width. The 1-bit path packs bipolar vectors into
// 64-bit words and scores with XOR/popcount — the representation whose
// holographic redundancy gives the paper's 12.9x robustness advantage and
// the FPGA its efficiency at low bitwidths. Bitwidths 2..8 score through
// the runtime-dispatched int8 tile kernel (core/kernels/) against cached
// int8 mirrors of the class levels.
//
// The raw quantized storage is exposed so fault/bitflip.cpp can flip bits
// *in the representation that would actually sit in deployed memory*.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/bitpack.hpp"
#include "core/classifier.hpp"
#include "core/exec/execution_context.hpp"
#include "core/quantize.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/encode_cache.hpp"
#include "hdc/encoded_batch.hpp"
#include "hdc/model.hpp"

namespace cyberhd::hdc {

/// A trained associative memory quantized to a fixed bitwidth.
class QuantizedHdcModel {
 public:
  /// Quantize `model`'s class hypervectors to `bits` bits.
  /// Contract: `bits` must be one of {1, 2, 4, 8, 16, 32}; anything else
  /// throws std::invalid_argument. bits == 1 stores sign-packed bipolar
  /// vectors (PackedBits); bits > 1 stores level-coded QuantizedVectors.
  QuantizedHdcModel(const HdcModel& model, int bits);

  /// The bitwidth this model was quantized to (one of {1,2,4,8,16,32}).
  int bits() const noexcept { return bits_; }
  /// Hypervector dimensionality D (unchanged by quantization).
  std::size_t dims() const noexcept { return dims_; }
  std::size_t num_classes() const noexcept;

  /// The bits-16/32 row scorer: quantized-domain cosines of a
  /// float-encoded query (quantized into per-thread scratch) against every
  /// class. Thread-safe. Preconditions: bits() > 8, h.size() == dims(),
  /// scores.size() == num_classes().
  void similarities(std::span<const float> h,
                    std::span<float> scores) const;

  // -- packed-domain batch scoring (bits <= 8) -------------------------------
  // The serving pipeline quantizes each row ONCE at encode time (pack_row)
  // and scores whole packed tiles against the class block through the
  // integer gather tile kernels — no float detour, 1-8 bits moved per
  // dimension. Row for row bit-identical to cosine_bipolar(pack_signs) /
  // cosine_quantized(quantize): the tile dots are exact integers on every
  // backend and the final cosine expression is the same.

  /// Bytes one packed query row occupies (PackedRows::row_bytes at this
  /// model's width). Only meaningful when bits() <= 8.
  std::size_t packed_row_bytes() const noexcept {
    return PackedRows::row_bytes(dims_, bits_);
  }
  /// Quantize a float-encoded query into its packed form: dims() int8
  /// levels (bits 2..8) or ceil(dims/64) packed sign words (bits == 1),
  /// written to `dst` (packed_row_bytes() bytes) through per-thread
  /// scratch. Thread-safe. Precondition: bits() <= 8.
  void pack_row(std::span<const float> h, unsigned char* dst) const;
  /// Quantized-domain cosine scores of packed rows read through the view's
  /// pointer table (rows borrowed from the encode cache ring, staging
  /// rows, any mix): writes h.rows() x num_classes() floats to `out`
  /// (row-major, stride num_classes()), split across `exec`'s pool.
  /// Thread-safe. Preconditions: bits() <= 8, h.bits() == bits(),
  /// h.dims() == dims().
  void similarities_packed(const PackedRows& h, float* out,
                           const core::ExecutionContext& exec) const;

  /// Memory footprint of the class hypervectors in bits (dims * classes *
  /// bitwidth) — what the hardware model prices.
  std::size_t storage_bits() const noexcept;

  /// Rebuild the scoring caches from the raw class storage: the int8 level
  /// mirrors + class norms at bits 2..8, the contiguous class-word block
  /// the hamming tile streams at bits == 1. Call after mutating
  /// level_classes() OR packed_classes() in place — the fault injector
  /// does both. (Scoring used to re-gather the packed words on every call
  /// so packed edits needed no resync; hoisting that gather here is what
  /// made the per-call path allocation-free, at the cost of this contract.)
  void resync();

  // -- raw storage for fault injection --------------------------------------
  // Exactly one of the two stores is populated, selected by bits():
  // packed_classes() when bits() == 1, level_classes() when bits() > 1.
  // The other is empty — callers must branch on bits() before touching them.
  // Writers of either store must call resync() afterwards.
  /// Packed bipolar class vectors; only valid when bits() == 1.
  std::vector<core::PackedBits>& packed_classes() { return packed_; }
  const std::vector<core::PackedBits>& packed_classes() const {
    return packed_;
  }
  /// Level-coded class vectors; only valid when bits() > 1.
  std::vector<core::QuantizedVector>& level_classes() { return levels_; }
  const std::vector<core::QuantizedVector>& level_classes() const {
    return levels_;
  }

 private:
  int bits_;
  std::size_t dims_;
  std::vector<core::PackedBits> packed_;        // bits == 1
  std::vector<core::QuantizedVector> levels_;   // bits > 1
  // Scoring caches for bits in {2, 4, 8}: class levels mirrored as ONE
  // contiguous num_classes x dims int8 block (the class layout the
  // similarities_tile_i8_gather kernel streams), plus each class's sum of
  // squared levels (exact integers held in double, matching
  // cosine_quantized()'s accumulator).
  std::vector<std::int8_t, core::AlignedAllocator<std::int8_t>> classes_i8_;
  std::vector<double> level_sumsq_;
  // Scoring cache for bits == 1: the packed class words gathered into ONE
  // contiguous num_classes x words block (the layout
  // hamming_tile_1b_gather streams), rebuilt by resync().
  std::vector<std::uint64_t, core::AlignedAllocator<std::uint64_t>>
      classes_1b_;
};

/// End-to-end quantized classifier: a trained CyberHD's encoder plus its
/// quantized associative memory. This is the artifact one would flash onto
/// an edge device.
class QuantizedCyberHd final : public core::Classifier {
 public:
  /// Snapshot a trained classifier at the given bitwidth. The encoder is
  /// cloned, so the source may be discarded or retrained afterwards.
  /// Batch calls inherit the source's execution context (the process
  /// context when config().parallel, the serial one otherwise).
  QuantizedCyberHd(const CyberHdClassifier& trained, int bits);

  /// fit() is not supported: quantization is post-training by design.
  void fit(const core::Matrix& x, std::span<const int> y,
           std::size_t num_classes) override;
  std::size_t num_classes() const noexcept override {
    return model_.num_classes();
  }
  int predict(std::span<const float> x) const override;
  /// Quantized-domain cosine similarities of one raw sample; a one-row
  /// block, as in CyberHdClassifier::scores.
  void scores(std::span<const float> x, std::span<float> out) const override;

  // -- stage-split serving pipeline (mirrors CyberHdClassifier) --------------
  // Stage 1 is encode_block, CyberHdClassifier's too; only the row format
  // differs. For bits <= 8 the pipeline is QUANTIZED END TO END: stage 1
  // encodes a row once and immediately packs it (int8 levels, or sign
  // words at bits == 1; encode_tile_packed is the format's tile encoder),
  // the encode cache stores the packed entry, and stage 2 scores the
  // PackedRows view through the integer gather tile kernels — floats
  // never round-trip between the stages. bits 16/32 use float entries
  // (FloatTileEncode) and quantize each row straight from its EncodedRows
  // pointer table.

  /// Sub-batch size of the staged scores_batch driver: the execution
  /// context's L3-aware serving plan over the PACKED row size when
  /// bits() <= 8 (a packed sub-batch fits 4-32x more rows in the same L3
  /// budget), over the float row size otherwise.
  std::size_t preferred_batch_rows(const core::Matrix& x) const override;
  /// One planned block: cached encode of rows [begin, end), then
  /// quantized scoring of the packed (bits <= 8) or float row view into
  /// the block's rows of `out`, split across the execution context's pool.
  /// predict_batch (from core::Classifier) rides the same driver.
  void scores_block(const core::Matrix& x, std::size_t begin,
                    std::size_t end, core::Matrix& out) const override;
  /// Fused tile-encode-and-quantize (bits <= 8), bypassing the cache:
  /// rows [begin, end) of `x` run through the encoder's GEMM-shaped tile
  /// in flow blocks, and each finished float row is quantized straight
  /// out of the block's L2-resident scratch into packed entry i at
  /// dst + i * dst_stride (packed_row_bytes() bytes each) — no
  /// batch-sized float staging matrix ever exists. Same quantize
  /// expression as pack_row, so the packed bytes are bit-identical to
  /// encode-then-pack. The packed row format's tile encoder: encode_block
  /// runs the cache-miss batch and the cache-off block through it.
  void encode_tile_packed(const core::Matrix& x, std::size_t begin,
                          std::size_t end, unsigned char* dst,
                          std::size_t dst_stride) const;

  /// Resize the serving encode cache (0 disables; `shards` = 0 picks the
  /// CYBERHD_CACHE_SHARDS / topology default). The constructor installs
  /// the CYBERHD_ENCODE_CACHE env default; the quantized snapshot owns
  /// its own cache — its cloned encoder's outputs are what it replays.
  /// For bits <= 8 the cache is armed with the packed entry size, so the
  /// same row capacity costs 4-32x fewer bytes than a float cache.
  /// Resets hit/miss statistics.
  void set_encode_cache(std::size_t capacity_rows, std::size_t shards = 0);
  /// The serving encode cache, or nullptr when disabled.
  EncodeCache* encode_cache() const noexcept { return encode_cache_.get(); }

  std::string name() const override;

  int bits() const noexcept { return model_.bits(); }
  QuantizedHdcModel& model() noexcept { return model_; }
  const QuantizedHdcModel& model() const noexcept { return model_; }

 private:
  /// The one scorer, as CyberHdClassifier::score_rows: encode_block over
  /// packed entries and similarities_packed at bits <= 8, over float
  /// entries and the bits-16/32 row scorer above otherwise.
  void score_rows(const core::Matrix& x, std::size_t begin, std::size_t end,
                  EncodeCache* cache, float* out) const;

  std::unique_ptr<Encoder> encoder_;
  QuantizedHdcModel model_;
  core::ExecutionContext exec_;
  std::unique_ptr<EncodeCache> encode_cache_;
};

}  // namespace cyberhd::hdc
