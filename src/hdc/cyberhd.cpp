#include "hdc/cyberhd.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/io.hpp"
#include "core/timer.hpp"

namespace cyberhd::hdc {

CyberHdClassifier::CyberHdClassifier(CyberHdConfig config)
    : config_(config) {
  if (config_.dims == 0) {
    throw std::invalid_argument("CyberHdConfig.dims must be positive");
  }
  // Written so that NaN fails too.
  if (!(config_.regen_rate >= 0.0 && config_.regen_rate < 1.0)) {
    throw std::invalid_argument(
        "CyberHdConfig.regen_rate must be in [0, 1)");
  }
}

void CyberHdClassifier::fit(const core::Matrix& x, std::span<const int> y,
                            std::size_t num_classes) {
  // Checked before any member changes: a label outside the class range
  // would index past the class matrix in every training phase.
  if (y.size() != x.rows()) {
    throw std::invalid_argument("fit() requires one label per sample");
  }
  if (x.rows() == 0) {
    throw std::invalid_argument("fit() requires at least one sample");
  }
  if (std::any_of(y.begin(), y.end(), [&](int label) {
        return label < 0 || static_cast<std::size_t>(label) >= num_classes;
      })) {
    throw std::invalid_argument("fit() labels must lie in [0, num_classes)");
  }
  num_classes_ = num_classes;
  report_ = {};

  core::Rng rng(config_.seed);
  core::Rng encoder_rng = rng.fork(1);
  core::Rng train_rng = rng.fork(2);
  core::Rng regen_rng = rng.fork(3);

  float lengthscale = config_.lengthscale;
  if (config_.encoder == EncoderKind::kRbf && lengthscale <= 0.0f) {
    core::Rng median_rng = rng.fork(4);
    lengthscale = config_.lengthscale_factor *
                  median_heuristic_lengthscale(x, median_rng);
  }
  encoder_ = make_encoder(config_.encoder, x.cols(), config_.dims,
                          encoder_rng, lengthscale);
  model_ = HdcModel(num_classes, config_.dims);
  regen_.emplace(config_.dims, config_.regen_rate,
                 config_.regen_anneal ? config_.regen_steps : 0);

  const core::ExecutionContext& exec_ctx = exec();
  const Trainer trainer(
      TrainerConfig{.learning_rate = config_.learning_rate,
                    .similarity_weighted = config_.similarity_weighted_update,
                    .batch_size = config_.batch_size},
      exec_ctx);
  const ScheduleDriver driver(
      ScheduleConfig{.regen_rate = config_.regen_rate,
                     .regen_steps = config_.regen_steps,
                     .epochs_per_step = config_.epochs_per_step,
                     .final_epochs = config_.final_epochs},
      *regen_, model_, *encoder_, regen_rng);

  // Every phase walks the training set in windows of `tile` rows. When the
  // tile holds every row, the set is encoded once up front and those
  // encodings are kept: a window points into them, and a regeneration
  // step refreshes their touched columns. Otherwise fit() streams: a
  // window gathers its raw rows into one tile-sized buffer and encodes
  // them there, so encode memory stays O(tile x D) at the price of
  // re-encoding every epoch.
  const std::size_t n = x.rows();
  const std::size_t dims = config_.dims;
  const std::size_t tile =
      config_.train_tile_rows == 0 ? n : std::min(config_.train_tile_rows, n);
  const bool resident = tile == n;
  report_.peak_encode_rows = tile;
  core::Matrix encoded;  // resident: every row's encoding; else one tile
  core::Matrix raw;      // streamed: the window's gathered raw rows
  if (resident) {
    const core::Timer encode_timer;
    encoder_->encode_batch(x, encoded, exec_ctx);
    report_.encode_s = encode_timer.seconds();
  } else {
    encoded.resize(tile, dims);
    raw.resize(tile, x.cols());
  }
  std::vector<std::size_t> index_order(n);
  std::iota(index_order.begin(), index_order.end(), 0);
  std::vector<const float*> window_rows(tile);
  std::vector<int> window_labels(tile);
  // Rows order[t], ..., order[t + m - 1], m = min(tile, n - t), as a view
  // of their encodings plus their labels. A streamed window with
  // `fresh_dims` encodes only those columns.
  const auto window = [&](std::span<const std::size_t> order, std::size_t t,
                          std::span<const std::size_t> fresh_dims = {}) {
    const std::size_t m = std::min(tile, n - t);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t row = order[t + i];
      window_labels[i] = y[row];
      if (resident) {
        window_rows[i] = encoded.row(row).data();
      } else {
        const auto src = x.row(row);
        std::copy(src.begin(), src.end(), raw.row(i).begin());
        window_rows[i] = encoded.row(i).data();
      }
    }
    if (!resident) {
      if (fresh_dims.empty()) {
        encoder_->encode_tile(raw, 0, m, encoded.data(), dims, exec_ctx);
      } else {
        // Past a partial last tile, raw still holds an earlier window's
        // rows; their refreshed columns are never read.
        encoder_->encode_batch_dims(raw, fresh_dims, encoded, exec_ctx);
      }
    }
    return std::pair{EncodedRows(window_rows.data(), m, dims),
                     std::span<const int>(window_labels.data(), m)};
  };

  SchedulePhases phases;
  phases.bundle = [&] {
    InitAccumulator acc(num_classes, dims, n);
    for (std::size_t t = 0; t < n; t += tile) {
      const auto [rows, labels] = window(index_order, t);
      acc.accumulate(rows, labels, /*row_offset=*/t, exec_ctx);
    }
    acc.finish(model_, trainer.config());
  };
  // One adaptive epoch: the visit order train_epoch would draw, walked
  // window by window. Minibatches split at window boundaries, so the
  // model is train_epoch's whenever the tile is a multiple of the batch.
  phases.run_epoch = [&] {
    const std::vector<std::size_t> order =
        Trainer::epoch_order(n, train_rng, trainer.config().shuffle);
    EpochStats stats;
    stats.samples = n;
    for (std::size_t t = 0; t < n; t += tile) {
      const auto [rows, labels] = window(order, t);
      trainer.train_rows(model_, rows, labels, stats);
    }
    return stats;
  };
  phases.refresh_dims = [&](std::span<const std::size_t> regenerated) {
    if (resident) {
      encoder_->encode_batch_dims(x, regenerated, encoded, exec_ctx);
    }
    if (!config_.rebundle_after_regen) return;
    RegenRebundle rebundle(num_classes, regenerated);
    for (std::size_t t = 0; t < n; t += tile) {
      const auto [rows, labels] = window(index_order, t, regenerated);
      for (std::size_t i = 0; i < rows.rows(); ++i) {
        rebundle.add_row(rows.row(i), static_cast<std::size_t>(labels[i]));
      }
    }
    rebundle.apply(model_, y);
  };
  driver.run(report_, phases);

  // (Re)fitting replaces the encoder, so every cached encoding is stale;
  // re-arm the serving cache at the env-configured capacity.
  set_encode_cache(EncodeCache::capacity_from_env());
}

int CyberHdClassifier::predict(std::span<const float> x) const {
  std::vector<float>& s = ScoringWorkspace::tl().sample_scores;
  s.resize(num_classes_);
  scores(x, s);
  return static_cast<int>(core::argmax(s));
}

void CyberHdClassifier::scores(std::span<const float> x,
                               std::span<float> out) const {
  assert(encoder_ != nullptr && "predict()/scores() before fit()");
  // Per-sample callers do not replay rows, so the one-row block bypasses
  // the cache: a probe would only add a hash, a lookup and an insert.
  score_rows(ScoringWorkspace::tl().stage_sample(x, encoder_->input_dim(),
                                                 out.size(), num_classes_),
             0, 1, nullptr, out.data());
}

std::size_t CyberHdClassifier::preferred_batch_rows(
    const core::Matrix&) const {
  return exec().plan_serving(config_.dims).batch_rows;
}

void CyberHdClassifier::scores_block(const core::Matrix& x,
                                     std::size_t begin, std::size_t end,
                                     core::Matrix& out) const {
  score_rows(x, begin, end, encode_cache_.get(), out.row(begin).data());
}

void CyberHdClassifier::score_rows(const core::Matrix& x, std::size_t begin,
                                   std::size_t end, EncodeCache* cache,
                                   float* out) const {
  assert(encoder_ != nullptr && "scoring before fit()");
  if (end == begin) return;
  // Stage 1 PINS cache hits in the ring and encodes only the misses into
  // the thread's workspace staging; stage 2 streams the row-pointer view
  // through the gather tile kernel. The pins are released however this
  // scope exits.
  ScoringWorkspace& ws = ScoringWorkspace::tl();
  const BorrowRelease release(ws.borrow);
  const std::size_t dims = encoder_->output_dim();
  encode_block(cache, x, begin, end, dims * sizeof(float),
               FloatTileEncode{*encoder_, exec()}, ws, exec());
  model_.similarities_into(ws.float_rows(end - begin, dims), out, exec());
}

void CyberHdClassifier::set_encode_cache(std::size_t capacity_rows,
                                         std::size_t shards) {
  if (capacity_rows == 0 || encoder_ == nullptr) {
    encode_cache_.reset();
    return;
  }
  encode_cache_ = std::make_unique<EncodeCache>(
      encoder_->input_dim(), encoder_->output_dim(), capacity_rows, shards);
}

std::string CyberHdClassifier::name() const {
  const bool regenerating =
      config_.regen_rate > 0.0 && config_.regen_steps > 0;
  std::string base = regenerating ? "CyberHD" : "BaselineHD";
  return base + "(D=" + std::to_string(config_.dims) + ")";
}

std::size_t CyberHdClassifier::effective_dims() const noexcept {
  return regen_.has_value() ? regen_->effective_dims() : config_.dims;
}

const Encoder& CyberHdClassifier::encoder() const {
  assert(encoder_ != nullptr && "encoder() before fit()");
  return *encoder_;
}

CyberHdConfig baseline_hd_config(std::size_t dims, std::uint64_t seed) {
  CyberHdConfig cfg;
  cfg.dims = dims;
  cfg.regen_rate = 0.0;
  cfg.regen_steps = 0;
  // Comparable total epoch budget to CyberHD's default schedule (57 + 10)
  // so accuracy comparisons isolate the effect of regeneration; the
  // adaptive trainer plateaus well before this point.
  cfg.epochs_per_step = 0;
  cfg.final_epochs = 50;
  cfg.seed = seed;
  return cfg;
}

// ---- persistence -------------------------------------------------------------

namespace {

// Version 2 (current): "CYHD" + version word, then CRC32C-checksummed
// sections — CFG0 (config + trained-state scalars), ENC0 (the encoder
// payload), and the class-hypervector matrix as either MDL0 (one
// buffered section) or MDLC (the same logical bytes streamed through
// fixed-size checksummed chunks; chosen when the payload outgrows the
// chunk size, so writer memory stays bounded). Version 1 is the same
// field sequence without section framing or checksums; load() still
// accepts everything.
constexpr std::uint64_t kFormatVersion = 2;

/// The scalar header fields, shared between the v1 inline layout and the
/// v2 CFG0 section (identical field order — v2 only adds framing).
struct SavedHeader {
  CyberHdConfig cfg;
  std::uint64_t num_classes = 0;
  std::uint64_t total_regenerated = 0;
  std::uint64_t regen_steps_done = 0;
};

void write_header_fields(std::ostream& out, const SavedHeader& h) {
  core::io::write_u64(out, h.cfg.dims);
  core::io::write_u64(out, static_cast<std::uint64_t>(h.cfg.encoder));
  core::io::write_f32(out, static_cast<float>(h.cfg.regen_rate));
  core::io::write_u64(out, h.cfg.regen_steps);
  core::io::write_u64(out, h.cfg.regen_anneal ? 1 : 0);
  core::io::write_u64(out, h.cfg.epochs_per_step);
  core::io::write_u64(out, h.cfg.final_epochs);
  core::io::write_f32(out, h.cfg.learning_rate);
  core::io::write_u64(out, h.cfg.seed);
  core::io::write_u64(out, h.num_classes);
  core::io::write_u64(out, h.total_regenerated);
  core::io::write_u64(out, h.regen_steps_done);
}

SavedHeader read_header_fields(std::istream& in) {
  SavedHeader h;
  h.cfg.dims = core::io::read_u64(in);
  if (h.cfg.dims == 0) throw std::runtime_error("saved dims is 0");
  const std::uint64_t encoder_kind = core::io::read_u64(in);
  if (encoder_kind > static_cast<std::uint64_t>(EncoderKind::kIdLevel)) {
    throw std::runtime_error("unknown encoder kind id " +
                             std::to_string(encoder_kind));
  }
  h.cfg.encoder = static_cast<EncoderKind>(encoder_kind);
  h.cfg.regen_rate = core::io::read_f32(in);
  // The constructor's check, here so that a bad file fails as malformed
  // input (std::runtime_error) and NaN fails too.
  if (!(h.cfg.regen_rate >= 0.0 && h.cfg.regen_rate < 1.0)) {
    throw std::runtime_error("saved regen_rate " +
                             std::to_string(h.cfg.regen_rate) +
                             " is outside [0, 1)");
  }
  h.cfg.regen_steps = core::io::read_u64(in);
  h.cfg.regen_anneal = core::io::read_u64(in) != 0;
  h.cfg.epochs_per_step = core::io::read_u64(in);
  h.cfg.final_epochs = core::io::read_u64(in);
  h.cfg.learning_rate = core::io::read_f32(in);
  h.cfg.seed = core::io::read_u64(in);
  h.num_classes = core::io::read_u64(in);
  h.total_regenerated = core::io::read_u64(in);
  h.regen_steps_done = core::io::read_u64(in);
  return h;
}

}  // namespace

void CyberHdClassifier::save(std::ostream& out,
                             std::size_t model_chunk_bytes) const {
  assert(encoder_ != nullptr && "save() before fit()");
  if (model_chunk_bytes == 0 ||
      model_chunk_bytes > core::io::kMaxSectionChunkBytes) {
    throw std::invalid_argument("save(): model_chunk_bytes out of range");
  }
  core::io::write_tag(out, "CYHD");
  core::io::write_u64(out, kFormatVersion);
  {
    std::ostringstream cfg;
    write_header_fields(
        cfg, SavedHeader{.cfg = config_,
                         .num_classes = num_classes_,
                         .total_regenerated =
                             regen_ ? regen_->total_regenerated() : 0,
                         .regen_steps_done = regen_ ? regen_->steps() : 0});
    core::io::write_section(out, "CFG0", cfg.str());
  }
  {
    std::ostringstream enc;
    encoder_->serialize(enc);
    core::io::write_section(out, "ENC0", enc.str());
  }
  // Model payload (identical logical bytes in both layouts):
  //   u64 num_classes | u64 dims | u64 count | count f32 weights.
  const std::size_t payload_bytes =
      3 * sizeof(std::uint64_t) + model_.weights().size() * sizeof(float);
  if (payload_bytes <= model_chunk_bytes) {
    std::ostringstream mdl;
    core::io::write_u64(mdl, model_.num_classes());
    core::io::write_u64(mdl, model_.dims());
    core::io::write_f32_array(
        mdl, {model_.weights().data(), model_.weights().size()});
    core::io::write_section(out, "MDL0", mdl.str());
    return;
  }
  // Chunked layout: the weights stream straight out of the model through
  // one chunk-sized buffer — nothing proportional to D x classes is ever
  // materialized on the way to disk.
  core::io::write_tag(out, "MDLC");
  core::io::write_u64(out, model_chunk_bytes);
  core::io::ChunkedSectionWriter writer(out, model_chunk_bytes);
  std::ostream chunked(&writer);
  core::io::write_u64(chunked, model_.num_classes());
  core::io::write_u64(chunked, model_.dims());
  core::io::write_u64(chunked, model_.weights().size());
  chunked.write(
      reinterpret_cast<const char*>(model_.weights().data()),
      static_cast<std::streamsize>(model_.weights().size() * sizeof(float)));
  writer.finish();
}

void CyberHdClassifier::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save(out);
  if (!out) throw std::runtime_error("write failed: " + path);
}

CyberHdClassifier CyberHdClassifier::load(std::istream& in) {
  core::io::expect_tag(in, "CYHD");
  const std::uint64_t version = core::io::read_u64(in);
  if (version != 1 && version != 2) {
    throw std::runtime_error("unsupported CyberHD format version " +
                             std::to_string(version));
  }

  // Shared assembly from parsed header + encoder + a stream positioned at
  // the model payload; field semantics are identical across versions.
  const auto assemble = [](SavedHeader h, std::unique_ptr<Encoder> enc,
                           std::istream& mdl_in) -> CyberHdClassifier {
    CyberHdClassifier model(h.cfg);
    model.num_classes_ = h.num_classes;
    if (enc->kind() != h.cfg.encoder) {
      throw std::runtime_error(
          "encoder kind mismatch: config says " +
          std::string(to_string(h.cfg.encoder)) + ", payload holds " +
          std::string(to_string(enc->kind())));
    }
    model.encoder_ = std::move(enc);
    const std::uint64_t k = core::io::read_u64(mdl_in);
    const std::uint64_t dims = core::io::read_u64(mdl_in);
    const std::uint64_t count = core::io::read_u64(mdl_in);
    if (count > (1ULL << 32)) {
      throw std::runtime_error("implausible array size");
    }
    // k must also match the header's class count: the staged scores_batch
    // driver sizes outputs from the header while stage 2 writes one score
    // per *model* class, so a mismatch would become an out-of-bounds
    // write at serving time, not a scoring quirk. k * dims is compared
    // without wrapping (a wrapped product could match a small count):
    // dims equals the header's nonzero D by then, and k > count / dims
    // already means k * dims > count.
    if (k == 0 || k != h.num_classes || dims != h.cfg.dims ||
        model.encoder_->output_dim() != dims || k > count / dims ||
        count != k * dims) {
      throw std::runtime_error("inconsistent CyberHD payload");
    }
    // Read straight into the model's storage: no transient full-size
    // weight vector, so peak load memory is the model itself plus (for
    // the chunked layout) one chunk buffer.
    model.model_ = HdcModel(k, dims);
    mdl_in.read(
        reinterpret_cast<char*>(model.model_.weights().data()),
        static_cast<std::streamsize>(count * sizeof(float)));
    if (!mdl_in) {
      throw std::runtime_error("truncated stream (model weights)");
    }
    model.regen_.emplace(h.cfg.dims, h.cfg.regen_rate,
                         h.cfg.regen_anneal ? h.cfg.regen_steps : 0);
    model.regen_->restore(h.total_regenerated, h.regen_steps_done);
    // A restored model serves immediately: arm the encode cache exactly
    // as a fresh fit() would.
    model.set_encode_cache(EncodeCache::capacity_from_env());
    return model;
  };

  if (version == 2) {
    // Checksummed sections: each payload is CRC-verified before any field
    // of it is parsed, so a flipped byte fails with a section-naming
    // checksum error instead of deserializing garbage.
    std::istringstream cfg_in(core::io::read_section(in, "CFG0"));
    SavedHeader header = read_header_fields(cfg_in);
    std::istringstream enc_in(core::io::read_section(in, "ENC0"));
    std::unique_ptr<Encoder> enc = deserialize_encoder(enc_in);
    // The model section carries either layout: MDL0 (one buffered,
    // checksummed section) or MDLC (the same bytes streamed through
    // fixed-size checksummed chunks, verified chunk by chunk as the
    // weights flow directly into the model). The tag is consumed once and
    // branched on, so non-seekable streams load fine.
    const std::string mdl_tag = core::io::read_tag(in);
    if (mdl_tag == "MDLC") {
      const std::uint64_t chunk_bytes = core::io::read_u64(in);
      core::io::ChunkedSectionReader reader(in, "MDLC", chunk_bytes);
      std::istream chunked(&reader);
      // Rethrow the reader's section-naming errors instead of letting
      // istream swallow them into badbit.
      chunked.exceptions(std::ios::badbit);
      CyberHdClassifier model =
          assemble(std::move(header), std::move(enc), chunked);
      // The chunk stream must end exactly at its terminator — trailing
      // bytes or a missing terminator mean the payload and its header
      // disagree.
      if (chunked.peek() != std::istream::traits_type::eof() ||
          !reader.finished()) {
        throw std::runtime_error("inconsistent CyberHD payload (MDLC)");
      }
      return model;
    }
    if (mdl_tag != "MDL0") {
      throw std::runtime_error("bad model section tag, expected MDL0 or "
                               "MDLC");
    }
    std::istringstream mdl_in(core::io::read_section_body(in, "MDL0"));
    return assemble(std::move(header), std::move(enc), mdl_in);
  }
  // Version 1: the same fields inline, no checksums.
  SavedHeader header = read_header_fields(in);
  std::unique_ptr<Encoder> enc = deserialize_encoder(in);
  return assemble(std::move(header), std::move(enc), in);
}

CyberHdClassifier CyberHdClassifier::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load(in);
}

}  // namespace cyberhd::hdc
