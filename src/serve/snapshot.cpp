#include "serve/snapshot.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/env.hpp"
#include "core/io.hpp"

namespace cyberhd::serve {

SnapshotManager::SnapshotManager(std::size_t keep)
    : keep_(keep != 0
                ? keep
                : static_cast<std::size_t>(
                      core::env::u64("CYBERHD_SNAPSHOT_KEEP", 3, 1, 64))) {}

std::size_t SnapshotManager::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return snaps_.size();
}

void SnapshotManager::capture(const hdc::CyberHdClassifier& model) {
  std::ostringstream out(std::ios::binary);
  model.save(out);
  const std::string s = out.str();
  Snapshot snap;
  snap.bytes.assign(s.begin(), s.end());
  snap.crc = core::io::crc32c(snap.bytes.data(), snap.bytes.size());
  const std::lock_guard<std::mutex> lock(mutex_);
  snaps_.push_front(std::move(snap));
  while (snaps_.size() > keep_) snaps_.pop_back();
}

std::optional<hdc::CyberHdClassifier> SnapshotManager::restore() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Snapshot& snap : snaps_) {
    if (core::io::crc32c(snap.bytes.data(), snap.bytes.size()) != snap.crc) {
      continue;  // rotted in RAM; the buffer CRC catches it pre-parse
    }
    std::istringstream in(
        std::string(snap.bytes.begin(), snap.bytes.end()), std::ios::binary);
    try {
      return hdc::CyberHdClassifier::load(in);
    } catch (const std::runtime_error&) {
      // Section-CRC or format failure: this snapshot is bad too — keep
      // walking toward older ones.
    }
  }
  return std::nullopt;
}

std::vector<unsigned char>& SnapshotManager::buffer(std::size_t i) {
  const std::lock_guard<std::mutex> lock(mutex_);
  assert(i < snaps_.size());
  return snaps_[i].bytes;
}

ModelAuditor::ModelAuditor(hdc::CyberHdClassifier& model,
                           SnapshotManager& snapshots)
    : float_model_(&model), snapshots_(&snapshots) {
  rebaseline();
}

ModelAuditor::ModelAuditor(hdc::QuantizedCyberHd& model,
                           SnapshotManager& snapshots)
    : quant_model_(&model), snapshots_(&snapshots) {
  rebaseline();
}

void ModelAuditor::rebaseline() { reference_crc_ = live_crc(); }

std::uint32_t ModelAuditor::live_crc() const {
  if (float_model_ != nullptr) {
    const core::Matrix& w = float_model_->model().weights();
    return core::io::crc32c(w.data(), w.rows() * w.cols() * sizeof(float));
  }
  // Quantized: checksum the representation that would actually sit in
  // deployed memory — the one fault::inject_hdc flips.
  const hdc::QuantizedHdcModel& m = quant_model_->model();
  std::uint32_t crc = 0;
  if (m.bits() == 1) {
    for (const core::PackedBits& cls : m.packed_classes()) {
      crc = core::io::crc32c(cls.words(),
                         cls.num_words() * sizeof(std::uint64_t), crc);
    }
  } else {
    for (const core::QuantizedVector& cls : m.level_classes()) {
      crc = core::io::crc32c(cls.levels.data(),
                         cls.levels.size() * sizeof(std::int32_t), crc);
    }
  }
  return crc;
}

bool ModelAuditor::heal() {
  std::optional<hdc::CyberHdClassifier> restored = snapshots_->restore();
  if (!restored.has_value()) return false;
  if (float_model_ != nullptr) {
    // Hot swap in place: move-assignment keeps the object address (and
    // every Server reference to it) stable while replacing the guts. The
    // restored model comes with the environment's default cache, so the
    // served cache's capacity and shard count (0: off) are re-armed.
    const hdc::EncodeCache* cache = float_model_->encode_cache();
    const std::size_t rows = cache != nullptr ? cache->capacity() : 0;
    const std::size_t shards = cache != nullptr ? cache->shard_count() : 0;
    *float_model_ = std::move(*restored);
    float_model_->set_encode_cache(rows, shards);
    return true;
  }
  // Re-quantize the restored float weights at the live bitwidth.
  // Quantization is deterministic, so this reproduces the original
  // packed words / level codes bit for bit. The encoder clone inside the
  // quantized classifier was never part of the audited surface and stays
  // as-is; the packed encode cache is dropped conservatively — its
  // entries were derived pre-corruption and remain valid in principle,
  // but an invalidation on swap is cheap and removes the need to prove
  // that for every future model source.
  quant_model_->model() =
      hdc::QuantizedHdcModel(restored->model(), quant_model_->bits());
  if (hdc::EncodeCache* cache = quant_model_->encode_cache()) {
    cache->clear();
  }
  return true;
}

AuditOutcome ModelAuditor::audit_and_heal() {
  if (live_crc() == reference_crc_) return AuditOutcome::kClean;
  if (!heal()) return AuditOutcome::kFailed;
  // The heal rebuilt the exact pre-corruption representation; baseline
  // from it so the next audit compares against what is actually live.
  rebaseline();
  return AuditOutcome::kRecovered;
}

}  // namespace cyberhd::serve
