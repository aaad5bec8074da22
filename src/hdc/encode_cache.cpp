#include "hdc/encode_cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string_view>

#include "core/env.hpp"
#include "hdc/encoder.hpp"

namespace cyberhd::hdc {

std::size_t EncodeCache::capacity_from_env() noexcept {
  // "0" is an explicit disable; the ceiling keeps a typo from demanding
  // terabytes of ring storage (rejected with a warning, not clamped —
  // the shared env contract).
  return static_cast<std::size_t>(core::env::u64(
      "CYBERHD_ENCODE_CACHE", kDefaultCapacityRows, 0, 1ULL << 24));
}

std::size_t EncodeCache::shards_from_env() noexcept {
  // Auto default: at least one shard per shared-L3 domain (the worker
  // groups that probe concurrently), with a floor that keeps contention
  // low even on single-domain hosts serving many client streams.
  const std::size_t auto_shards = std::max<std::size_t>(
      kDefaultShards, core::CacheTopology::detected().l3_domains);
  return static_cast<std::size_t>(
      core::env::u64("CYBERHD_CACHE_SHARDS", auto_shards, 1, 256));
}

EncodeCache::EncodeCache(std::size_t input_dim, std::size_t encoded_dim,
                         std::size_t capacity_rows, std::size_t shards,
                         std::size_t entry_bytes)
    : input_dim_(input_dim),
      encoded_dim_(encoded_dim),
      capacity_(capacity_rows),
      entry_bytes_(entry_bytes != 0 ? entry_bytes
                                    : encoded_dim * sizeof(float)),
      // Cache-line stride: float entries stay 4-aligned and packed-word
      // entries 8-aligned whatever the entry size, and neighbouring slots
      // never share a line.
      entry_stride_((entry_bytes_ + 63) & ~std::size_t{63}) {
  assert(input_dim > 0 && encoded_dim > 0 && capacity_rows > 0);
  if (shards == 0) shards = shards_from_env();
  // Every shard must own at least one ring slot, so tiny caches collapse
  // to fewer shards (capacity 1 = the single-slot aliasing ring the tests
  // exercise, now per shard).
  num_shards_ = std::clamp<std::size_t>(shards, 1, capacity_rows);
  shards_ = std::make_unique<Shard[]>(num_shards_);
  const std::size_t base = capacity_ / num_shards_;
  const std::size_t rem = capacity_ % num_shards_;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    shards_[s].capacity = base + (s < rem ? 1 : 0);
  }
}

// ---- SlotIndex ---------------------------------------------------------------

void SlotIndex::reset(std::size_t slots) {
  // A power of two with at least twice the slots: the load factor stays
  // at or below 1/2, so a probe run is short and always ends at an empty
  // bucket.
  std::size_t buckets = 2;
  while (buckets < 2 * slots) buckets *= 2;
  table_.assign(buckets, kNone);
  slot_hash_.assign(slots, 0);
  mask_ = buckets - 1;
  shift_ = static_cast<unsigned>(64 - std::countr_zero(buckets));
  size_ = 0;
}

void SlotIndex::clear() noexcept {
  std::fill(table_.begin(), table_.end(), kNone);
  size_ = 0;
}

std::uint32_t SlotIndex::find(std::uint64_t hash) const noexcept {
  if (size_ == 0) return kNone;  // also covers a table not yet sized
  for (std::size_t b = home(hash);; b = (b + 1) & mask_) {
    const std::uint32_t slot = table_[b];
    if (slot == kNone || slot_hash_[slot] == hash) return slot;
  }
}

void SlotIndex::put(std::uint32_t slot, std::uint64_t hash) noexcept {
  slot_hash_[slot] = hash;
  std::size_t b = home(hash);
  for (; table_[b] != kNone; b = (b + 1) & mask_) {
    if (slot_hash_[table_[b]] == hash) {  // one entry per hash: redirect
      table_[b] = slot;
      return;
    }
  }
  table_[b] = slot;
  ++size_;
}

void SlotIndex::erase(std::uint32_t slot) noexcept {
  const std::uint64_t hash = slot_hash_[slot];
  std::size_t hole = home(hash);
  for (;; hole = (hole + 1) & mask_) {
    const std::uint32_t s = table_[hole];
    if (s == kNone) return;  // not indexed
    if (slot_hash_[s] == hash) {
      if (s != slot) return;  // the hash was redirected to a newer slot
      break;
    }
  }
  // Backward-shift deletion: walk the rest of the probe run and move back
  // every entry whose home does not lie cyclically in (hole, j], i.e. each
  // entry whose probe path crosses the hole, so no later lookup stops
  // short at it.
  for (std::size_t j = (hole + 1) & mask_; table_[j] != kNone;
       j = (j + 1) & mask_) {
    const std::size_t from_home = (j - home(slot_hash_[table_[j]])) & mask_;
    if (from_home >= ((j - hole) & mask_)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = kNone;
  --size_;
}

// ---- EncodeCache -------------------------------------------------------------

std::size_t EncodeCache::shard_of(std::uint64_t hash) const noexcept {
  // The whole word goes through the finalizer before the modulus, so shard
  // load stays balanced for structured feature rows.
  return static_cast<std::size_t>(spread_hash(hash) % num_shards_);
}

void EncodeCache::ensure_storage(Shard& shard) {
  if (shard.raw.rows() == shard.capacity) return;
  shard.raw.resize(shard.capacity, input_dim_);
  shard.entries.assign(shard.capacity * entry_stride_, 0);
  shard.occupied.assign(shard.capacity, false);
  shard.pins.assign(shard.capacity, 0);
  shard.resident = 0;
  shard.index.reset(shard.capacity);
}

void BorrowGuard::release() {
  if (cache_ != nullptr) {
    // Unpin in shard-grouped runs: the probe pass records pins walking one
    // shard at a time, so one lock acquisition covers each run.
    std::size_t i = 0;
    while (i < pins_.size()) {
      const std::uint32_t s = pins_[i].shard;
      EncodeCache::Shard& shard = cache_->shards_[s];
      const std::lock_guard<std::mutex> lock(shard.mutex);
      for (; i < pins_.size() && pins_[i].shard == s; ++i) {
        --shard.pins[pins_[i].slot];
      }
    }
  }
  pins_.clear();
  cache_ = nullptr;
}

std::size_t EncodeCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].index.size();
  }
  return total;
}

void EncodeCache::clear() {
  for (std::size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.index.clear();
    std::fill(shard.occupied.begin(), shard.occupied.end(), false);
    shard.resident = 0;
    shard.next_slot = 0;
    shard.stats = {};
  }
}

EncodeCacheStats EncodeCache::stats() const {
  EncodeCacheStats total;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total.hits += shards_[s].stats.hits;
    total.misses += shards_[s].stats.misses;
    total.evictions += shards_[s].stats.evictions;
    total.borrowed_rows += shards_[s].stats.borrowed_rows;
    total.bytes_resident +=
        static_cast<std::uint64_t>(shards_[s].resident) * entry_bytes_;
    total.bytes_capacity +=
        static_cast<std::uint64_t>(shards_[s].capacity) * entry_bytes_;
  }
  return total;
}

EncodeCacheStats EncodeCache::shard_stats(std::size_t shard) const {
  assert(shard < num_shards_);
  const std::lock_guard<std::mutex> lock(shards_[shard].mutex);
  EncodeCacheStats s = shards_[shard].stats;
  s.bytes_resident =
      static_cast<std::uint64_t>(shards_[shard].resident) * entry_bytes_;
  s.bytes_capacity =
      static_cast<std::uint64_t>(shards_[shard].capacity) * entry_bytes_;
  return s;
}

std::uint64_t EncodeCache::hash_row(std::span<const float> x) noexcept {
  // The standard library's byte hash (libstdc++: a Murmur-style hash that
  // consumes 8 bytes per multiply) over the raw row: a 78-feature row
  // hashes in tens of nanoseconds. Collisions are harmless (find_slot
  // verifies content before serving a hit), and the value never leaves
  // the process, so it need not be stable across library versions.
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(x.data()), x.size_bytes()));
}

std::size_t EncodeCache::find_slot(const Shard& shard, std::uint64_t hash,
                                   std::span<const float> x) const {
  // Before the shard's first insert its index is empty, so the
  // unallocated ring is never dereferenced.
  const std::uint32_t slot = shard.index.find(hash);
  if (slot == SlotIndex::kNone) return shard.capacity;
  assert(shard.occupied[slot]);
  // Content verification: a colliding row must re-encode, never replay
  // another flow's hypervector.
  if (std::memcmp(shard.raw.row(slot).data(), x.data(), x.size_bytes()) !=
      0) {
    return shard.capacity;
  }
  return slot;
}

void EncodeCache::insert(Shard& shard, std::uint64_t hash,
                         std::span<const float> x,
                         const unsigned char* entry) {
  // Borrowed slots are immutable until their guards release: the ring
  // cursor skips pinned slots (bounded scan), and when a flush has pinned
  // the entire shard the insert is simply dropped — the row stays a miss
  // next time, which only costs a re-encode, never a dangling pointer.
  std::size_t slot = shard.next_slot;
  std::size_t tries = 0;
  while (tries < shard.capacity && shard.pins[slot] != 0) {
    slot = (slot + 1) % shard.capacity;
    ++tries;
  }
  if (tries == shard.capacity) return;
  shard.next_slot = (slot + 1) % shard.capacity;
  const auto id = static_cast<std::uint32_t>(slot);
  if (shard.occupied[slot]) {
    // Ring eviction: drop the index entry that still points at this slot
    // (a later insert of the same hash may have redirected it already).
    shard.index.erase(id);
    ++shard.stats.evictions;
  } else {
    shard.occupied[slot] = true;
    ++shard.resident;
  }
  std::copy(x.begin(), x.end(), shard.raw.row(slot).begin());
  std::memcpy(slot_entry(shard, slot), entry, entry_bytes_);
  shard.index.put(id, hash);
}

std::size_t EncodeCache::encode_entries_borrowed(
    const core::Matrix& x, std::size_t begin, std::size_t end,
    unsigned char* staging, std::size_t out_stride,
    EncodeMissesFn encode_misses, ScoringWorkspace& ws,
    const core::ExecutionContext&) {
  assert(end >= begin && end <= x.rows());
  assert(x.cols() == input_dim_);
  assert(out_stride >= entry_bytes_);
  assert(ws.borrow.empty() &&
         "previous flush's borrows must be released before the next");
  const std::size_t m = end - begin;
  if (m == 0) return 0;
  ws.entry_ptrs.resize(m);
  const unsigned char** entry_ptrs = ws.entry_ptrs.data();
  BorrowGuard& guard = ws.borrow;
  guard.cache_ = this;
  // Pins taken below must not outlive a throw from this call (the miss
  // callback, an allocation): ws is typically thread_local, so unwinding
  // never destroys its guard. On the success path the pins stay for the
  // caller's stage 2.
  struct UnpinOnThrow {
    BorrowGuard& guard;
    int uncaught = std::uncaught_exceptions();
    ~UnpinOnThrow() {
      if (std::uncaught_exceptions() > uncaught) guard.release();
    }
  } const unpin_on_throw{guard};

  // Hashing and shard routing are pure functions of the rows — done
  // before any lock, so concurrent scorers only serialize on their own
  // shards' index lookups, never on the full-batch sweep. Rows are
  // bucketed by shard with a counting sort over flat workspace arrays
  // (no per-call allocation, no vector-of-vectors): the placement walks i
  // ascending, so each shard's bucket keeps BATCH ORDER — the stability
  // the in-batch dedup below relies on.
  ws.hashes.resize(m);
  ws.shard_of_row.resize(m);
  ws.shard_counts.assign(num_shards_, 0);
  for (std::size_t i = 0; i < m; ++i) {
    ws.hashes[i] = hash_row(x.row(begin + i));
    const std::size_t s = shard_of(ws.hashes[i]);
    ws.shard_of_row[i] = static_cast<std::uint32_t>(s);
    ++ws.shard_counts[s];
  }
  ws.shard_offsets.resize(num_shards_);
  std::uint32_t run = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    ws.shard_offsets[s] = run;
    run += ws.shard_counts[s];
  }
  ws.rows_by_shard.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    ws.rows_by_shard[ws.shard_offsets[ws.shard_of_row[i]]++] =
        static_cast<std::uint32_t>(i);
  }
  // shard_offsets[s] now marks the END of shard s's bucket.

  // Probe pass (per shard, under that shard's lock only): pin hits in
  // place and collect miss indices. A row repeated *within* this batch
  // — common when a large coalesced drain covers many arrivals of the
  // same flow — encodes once: later occurrences are deduplicated against
  // the first one and replayed after the encode pass. Identical rows
  // share a hash and therefore a shard, and a shard's bucket is walked in
  // batch order, so the dedup source is always the earlier occurrence.
  // Locks are taken one shard at a time (never nested).
  ws.misses.clear();
  ws.miss_shard_end.resize(num_shards_);
  ws.dups.clear();
  ws.batch_first.reset(m);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const std::uint32_t bucket_end = ws.shard_offsets[s];
    const std::uint32_t bucket_begin = bucket_end - ws.shard_counts[s];
    if (bucket_begin == bucket_end) {
      ws.miss_shard_end[s] = static_cast<std::uint32_t>(ws.misses.size());
      continue;
    }
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::uint32_t b = bucket_begin; b < bucket_end; ++b) {
      const std::size_t i = ws.rows_by_shard[b];
      const auto row = x.row(begin + i);
      const std::size_t slot = find_slot(shard, ws.hashes[i], row);
      if (slot < shard.capacity) {
        // Record the pin before taking it, so a failed push_back leaves
        // nothing pinned that release() would not find.
        guard.pins_.push_back({static_cast<std::uint32_t>(s),
                               static_cast<std::uint32_t>(slot)});
        ++shard.pins[slot];
        entry_ptrs[i] = slot_entry(shard, slot);
        ++shard.stats.borrowed_rows;
        ++shard.stats.hits;
        continue;
      }
      const std::uint32_t first = ws.batch_first.find_or_insert(
          ws.hashes[i], static_cast<std::uint32_t>(i));
      if (first != i &&
          std::memcmp(x.row(begin + first).data(), row.data(),
                      row.size_bytes()) == 0) {
        ws.dups.push_back({i, first});
        ++shard.stats.hits;
      } else {
        ws.misses.push_back(i);
        ++shard.stats.misses;
      }
    }
    ws.miss_shard_end[s] = static_cast<std::uint32_t>(ws.misses.size());
  }

  // Encode pass (lock-free): the whole miss list in one batched callback.
  // The callback owns gather, tiling, and pool-parallelism — the tile
  // encoders turn the list into GEMM-shaped kernel calls, so every base
  // row fetched from cache is reused across the batch's misses instead of
  // re-streamed per row. Per-row results are independent of the batching,
  // so output never depends on the miss mix.
  if (!ws.misses.empty()) {
    encode_misses(std::span<const std::size_t>(ws.misses), staging,
                  out_stride);
  }
  for (const std::size_t i : ws.misses) {
    entry_ptrs[i] = staging + i * out_stride;
  }

  // In-batch duplicates replay the fresh encode of their first occurrence
  // (bit-identical by encoder determinism, like any cache hit) as a
  // pointer alias — the dup source is always a miss row of this same
  // batch, so its staging address is already recorded.
  for (const ScoringWorkspace::BatchDup& d : ws.dups) {
    entry_ptrs[d.row] = entry_ptrs[d.src];
  }

  // Insert pass (per shard, under that shard's lock only): fresh encodes
  // enter their shard's ring in batch order — shard s's misses are the
  // contiguous range [miss_shard_end[s-1], miss_shard_end[s]) of the miss
  // list. In-batch duplicates never reach the misses list (the probe pass
  // routed them into dups), so each distinct row inserts at most once;
  // the re-probe guards against a concurrent caller having inserted the
  // same row between our probe and now.
  std::uint32_t miss_begin = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const std::uint32_t miss_end = ws.miss_shard_end[s];
    if (miss_begin == miss_end) continue;
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    ensure_storage(shard);
    for (std::uint32_t j = miss_begin; j < miss_end; ++j) {
      const std::size_t i = ws.misses[j];
      if (find_slot(shard, ws.hashes[i], x.row(begin + i)) <
          shard.capacity) {
        continue;
      }
      insert(shard, ws.hashes[i], x.row(begin + i), entry_ptrs[i]);
    }
    miss_begin = miss_end;
  }
  return m - ws.misses.size();
}

void FloatTileEncode::operator()(const core::Matrix& x, std::size_t begin,
                                 std::size_t end, unsigned char* dst,
                                 std::size_t dst_stride) const {
  // Entries are whole float rows, so the byte stride is a float stride
  // and every entry start stays float-aligned.
  assert(dst_stride % sizeof(float) == 0);
  encoder.encode_tile(x, begin, end, reinterpret_cast<float*>(dst),
                      dst_stride / sizeof(float), exec);
}

std::size_t encode_block(EncodeCache* cache, const core::Matrix& x,
                         std::size_t begin, std::size_t end,
                         std::size_t entry_bytes, EncodeTileFn encode,
                         ScoringWorkspace& ws,
                         const core::ExecutionContext& exec) {
  assert(end >= begin && end <= x.rows());
  const std::size_t m = end - begin;
  if (m == 0) return 0;
  if (ws.staging.size() < m * entry_bytes) {
    ws.staging.resize(m * entry_bytes);
  }
  unsigned char* const staging = ws.staging.data();
  if (cache == nullptr) {
    // Cache off: the block is one contiguous tile call — the dominant
    // shape under cold (non-replay) traffic.
    encode(x, begin, end, staging, entry_bytes);
    ws.entry_ptrs.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      ws.entry_ptrs[i] = staging + i * entry_bytes;
    }
    return 0;
  }
  assert(cache->entry_bytes() == entry_bytes);
  // The one miss callback. Each row is a hit, an in-batch replay or a miss
  // exactly once, so when all m rows missed (cold traffic) the miss list
  // is the whole block in shard order, and the block encodes in place:
  // one tile call straight into the staging rows, as with the cache off.
  // Otherwise gather the misses into one contiguous block, encode it with
  // one tile call (GEMM-shaped, split across the pool by the encoder),
  // then copy each entry to its staging row; the gather and entry blocks
  // live in the workspace, grown once and reused every flush.
  return cache->encode_entries_borrowed(
      x, begin, end, staging, entry_bytes,
      [&](std::span<const std::size_t> rows, unsigned char* out,
          std::size_t out_stride) {
        const std::size_t k = rows.size();
        if (k == m) {
          encode(x, begin, end, out, out_stride);
          return;
        }
        ws.miss_raw.resize(k, x.cols());
        for (std::size_t j = 0; j < k; ++j) {
          const auto src = x.row(begin + rows[j]);
          std::copy(src.begin(), src.end(), ws.miss_raw.row(j).begin());
        }
        if (ws.miss_packed.size() < k * entry_bytes) {
          ws.miss_packed.resize(k * entry_bytes);
        }
        encode(ws.miss_raw, 0, k, ws.miss_packed.data(), entry_bytes);
        for (std::size_t j = 0; j < k; ++j) {
          std::memcpy(out + rows[j] * out_stride,
                      ws.miss_packed.data() + j * entry_bytes, entry_bytes);
        }
      },
      ws, exec);
}

}  // namespace cyberhd::hdc
