// ScoringWorkspace — the reusable per-thread scratch that makes a
// steady-state serving flush allocation-free, and BorrowGuard — the RAII
// pin set that makes cache hits zero-copy.
//
// Before this layer, every flush through the serving pipeline allocated:
// the cache's routing scratch (hashes, per-shard row lists), the scorers'
// accumulator tiles (hamming counts, int8 dots), the model's class-norm
// vector, and the miss gather buffers were all per-call std::vectors. None
// of them depends on anything but batch size and model shape, so after a
// warmup pass they can all live in one workspace whose vectors only ever
// grow. The workspace is accessed through a thread_local (tl()), because
// scores_block is const and called concurrently: each server worker gets
// its own scratch with zero synchronization, and the monotonic-growth
// policy means the steady state touches no allocator at all (a test pins
// this with a counting operator new).
//
// BorrowGuard is the other half of zero-copy hits: the cache's half of
// stage 1 (EncodeCache::encode_entries_borrowed, under encode_block) PINS
// each hit's slot (a per-slot pin count, mutated only under the shard
// mutex) and records a stable pointer into the ring storage. Ring
// eviction skips pinned slots, and ring storage never reallocates after
// its lazy ensure_storage, so the pointer stays valid until the guard
// releases — which the scorers make happen when the flush's scope exits,
// normally or by a throw (BorrowRelease). The guard is deliberately
// non-copyable and tied to one cache at a time; release() is idempotent
// and batches unpins per shard so a flush's worth of pins costs one lock
// round per shard, not per row.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/bitpack.hpp"
#include "core/matrix.hpp"
#include "core/quantize.hpp"
#include "hdc/encoded_batch.hpp"

namespace cyberhd::hdc {

class EncodeCache;

/// splitmix64's finalizer over a row hash. hash_row makes no promise about
/// its low bits (the standard library's byte hash varies by
/// implementation), so every table that buckets row hashes — the shard
/// routing, the shard index, the in-batch dedup — spreads them first.
inline std::uint64_t spread_hash(std::uint64_t z) noexcept {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// RAII set of pinned cache slots. Filled by the cache's stage 1;
/// released (unpinning every slot) when the flush that took the pins ends.
/// Its destructor unpins too, but the per-thread workspace that owns the
/// serving path's guard lives until thread exit — so a flush must not
/// rely on it, on the unwind path least of all (see BorrowRelease). Never
/// holds pins across flushes.
class BorrowGuard {
 public:
  BorrowGuard() = default;
  BorrowGuard(const BorrowGuard&) = delete;
  BorrowGuard& operator=(const BorrowGuard&) = delete;
  ~BorrowGuard() { release(); }

  /// Unpin every recorded slot (batched per shard) and forget the cache.
  /// Idempotent; keeps the pin vector's capacity for the next flush.
  void release();

  bool empty() const noexcept { return pins_.empty(); }
  std::size_t size() const noexcept { return pins_.size(); }

 private:
  friend class EncodeCache;
  struct Pin {
    std::uint32_t shard;
    std::uint32_t slot;
  };
  EncodeCache* cache_ = nullptr;
  std::vector<Pin> pins_;  // shard-grouped (probe walks shard by shard)
};

/// Releases a BorrowGuard when the enclosing scope exits, normally or by a
/// throw. Each scorer holds one across its stage 1 and stage 2, so a
/// failing miss encode or scoring pass cannot leave pins behind in the
/// thread's long-lived workspace (serve::Server catches the failure and
/// keeps serving; a later cache teardown must not find stale pins).
class BorrowRelease {
 public:
  explicit BorrowRelease(BorrowGuard& guard) noexcept : guard_(guard) {}
  BorrowRelease(const BorrowRelease&) = delete;
  BorrowRelease& operator=(const BorrowRelease&) = delete;
  ~BorrowRelease() { guard_.release(); }

 private:
  BorrowGuard& guard_;
};

/// Per-thread scratch for the serving hot path. Every member grows
/// monotonically and is reused across flushes; none carries state between
/// calls (each driver overwrites what it reads). Distinct pipeline stages
/// use distinct members, so one flush may touch all of them without
/// aliasing.
struct ScoringWorkspace {
  // --- cache routing (EncodeCache::encode_entries_borrowed) --------------
  std::vector<std::uint64_t> hashes;        // per batch row
  std::vector<std::uint32_t> shard_of_row;  // per batch row
  // Counting-sort bucketing of batch rows by shard (replaces the old
  // vector-of-vectors): counts/offsets per shard, then rows_by_shard holds
  // each shard's rows contiguously IN BATCH ORDER — the stability the
  // in-batch dedup relies on (the dup source must be the earlier
  // occurrence).
  std::vector<std::uint32_t> shard_counts;
  std::vector<std::uint32_t> shard_offsets;
  std::vector<std::uint32_t> rows_by_shard;
  // Miss list (std::size_t so the encode_misses callback keeps its
  // span<const size_t> shape). Misses are appended walking shards in
  // order, so shard s's misses are the contiguous range
  // [miss_shard_end[s-1], miss_shard_end[s]).
  std::vector<std::size_t> misses;
  std::vector<std::uint32_t> miss_shard_end;

  /// In-batch duplicate: `row` replays the fresh encode of `src`.
  struct BatchDup {
    std::size_t row;
    std::size_t src;
  };
  std::vector<BatchDup> dups;

  /// Open-addressed hash -> first-occurrence map, replacing the per-call
  /// unordered_map. Generation-stamped so reset() is O(1) after the first
  /// sizing: a slot is live only when its stamp equals the current
  /// generation.
  struct DedupTable {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> vals;
    std::vector<std::uint32_t> stamps;
    std::uint32_t gen = 0;
    std::size_t mask = 0;

    /// Make the table empty with capacity for `n` distinct keys at a load
    /// factor <= 0.5.
    void reset(std::size_t n) {
      std::size_t need = 16;
      while (need < 2 * n) need *= 2;
      if (keys.size() < need) {
        keys.resize(need);
        vals.resize(need);
        stamps.assign(need, 0);
        mask = need - 1;
        gen = 1;
        return;
      }
      if (++gen == 0) {  // generation wrap: hard-reset the stamps once
        std::fill(stamps.begin(), stamps.end(), 0);
        gen = 1;
      }
    }

    /// The value previously recorded for `key`, or `val` after recording
    /// it — the open-addressed analogue of try_emplace(key, val).second.
    std::uint32_t find_or_insert(std::uint64_t key, std::uint32_t val) {
      // Linear probing needs the low bits spread.
      std::size_t idx = static_cast<std::size_t>(spread_hash(key)) & mask;
      while (stamps[idx] == gen) {
        if (keys[idx] == key) return vals[idx];
        idx = (idx + 1) & mask;
      }
      stamps[idx] = gen;
      keys[idx] = key;
      vals[idx] = val;
      return val;
    }
  };
  DedupTable batch_first;

  // --- zero-copy row tables ---------------------------------------------
  // Per batch row: where its encoded entry lives (borrowed ring slot or
  // staging row). entry_ptrs is what stage 1 (encode_block) fills; the
  // typed tables are what the gather kernels consume, filled from it by
  // float_rows / packed_rows (f32_rows also carries
  // HdcModel::similarities_batch's one-pointer-per-row table).
  std::vector<const unsigned char*> entry_ptrs;
  std::vector<const float*> f32_rows;
  std::vector<const std::int8_t*> i8_rows;
  std::vector<const std::uint64_t*> word_rows;
  /// The pins backing any borrowed entries above, released after stage 2.
  BorrowGuard borrow;
  /// Stage 1's entries for every row that is not a borrowed ring hit (all
  /// rows with the cache off), entry_bytes apart. 64-byte aligned, so
  /// float rows stay 4-aligned and packed word rows 8-aligned.
  std::vector<unsigned char, core::AlignedAllocator<unsigned char>> staging;

  /// entry_ptrs[0, m) as float rows of `dims` floats: the view
  /// HdcModel::similarities_into consumes. Ring entries are 64-aligned and
  /// staging rows float-aligned, so the retype is sound.
  EncodedRows float_rows(std::size_t m, std::size_t dims) {
    f32_rows.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      f32_rows[i] = reinterpret_cast<const float*>(entry_ptrs[i]);
    }
    return EncodedRows(f32_rows.data(), m, dims);
  }

  /// entry_ptrs[0, m) as packed rows at `bits` <= 8: sign words at 1 bit,
  /// int8 levels otherwise — the view QuantizedHdcModel::similarities_packed
  /// consumes. Word rows are 8 bytes apart from 64-aligned bases, so the
  /// word retype is sound.
  PackedRows packed_rows(std::size_t m, std::size_t dims, int bits) {
    if (bits == 1) {
      word_rows.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        word_rows[i] = reinterpret_cast<const std::uint64_t*>(entry_ptrs[i]);
      }
      return PackedRows(word_rows.data(), m, dims);
    }
    i8_rows.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      i8_rows[i] = reinterpret_cast<const std::int8_t*>(entry_ptrs[i]);
    }
    return PackedRows(i8_rows.data(), m, dims, bits);
  }

  // --- scoring scratch ---------------------------------------------------
  /// Per-class norms (float path) or reused norm scratch; recomputed every
  /// call, allocation reused.
  std::vector<float> class_norms;
  /// Integer accumulator tiles for the quantized scorers (tile_rows x
  /// classes): XOR-popcount hamming counts at 1 bit, int64 dots at 2-8
  /// bits. Each pool worker scores through its own workspace, so these
  /// replace the per-call vectors the scoring lambdas used to allocate.
  std::vector<std::uint32_t> ham_tile;
  std::vector<std::int64_t> dot_tile;

  // --- miss gather scratch (encode_block's miss callback) ---------------
  // Only a block with hits or in-batch replays gathers: an all-miss block
  // encodes in place, straight into staging, and leaves these untouched.
  core::Matrix miss_raw;  // gathered raw miss rows
  // Float encodings of misses. No library code fills it since every row
  // format's misses encode into miss_packed; perfbench's tracing decorator
  // still stages its float misses here.
  core::Matrix miss_enc;
  std::vector<unsigned char, core::AlignedAllocator<unsigned char>>
      miss_packed;  // the misses' entries, entry_bytes apart (any format)

  // --- one-row scratch ---------------------------------------------------
  core::Matrix sample;                 // a per-sample query as a 1 x F block
  std::vector<float> sample_scores;    // predict()'s class scores
  core::PackedBits query_bits;         // pack_row's sign words (1 bit)
  core::QuantizedVector query_levels;  // pack_row (2-8), bits-16/32 scorer

  /// The per-sample entry of both HDC classifiers: copy `x` into `sample`
  /// and return it, the one-row block predict()/scores() score. Throws
  /// std::invalid_argument, touching nothing, unless x.size() == features
  /// and the caller's out_size == classes.
  const core::Matrix& stage_sample(std::span<const float> x,
                                   std::size_t features, std::size_t out_size,
                                   std::size_t classes) {
    if (x.size() != features || out_size != classes) {
      throw std::invalid_argument("predict()/scores(): miswidth span");
    }
    if (sample.cols() != features) sample.resize(1, features);
    std::copy(x.begin(), x.end(), sample.data());
    return sample;
  }

  /// This thread's workspace. Server workers each score on their own
  /// thread, so per-thread scratch needs no locking; a thread's workspace
  /// reaches steady-state capacity after one warm flush.
  static ScoringWorkspace& tl() {
    thread_local ScoringWorkspace ws;
    return ws;
  }
};

}  // namespace cyberhd::hdc
