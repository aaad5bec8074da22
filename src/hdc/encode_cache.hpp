// Content-addressed encode cache — the stage between encoding and scoring
// that lets repeated flows skip the encode entirely.
//
// NIDS serving traffic is dominated by recurring flows: the same feature
// vector arrives again and again (heartbeats, retries, scans, the benign
// background). Encoding is the expensive stage (D x F multiply-adds plus a
// cosine per hypervector dimension, ~10x the scoring cost at NIDS shapes),
// yet its output is a pure function of the raw row once the encoder is
// trained. The cache exploits exactly that: rows are keyed by a 64-bit
// content hash of their raw feature bytes, hits are verified by comparing
// the stored raw row byte-for-byte (a hash collision can therefore never
// serve a wrong vector — the bit-identical-scores contract survives
// adversarial inputs), and storage is a fixed-capacity ring so the working
// set of a stream ages out FIFO with zero per-hit bookkeeping.
//
// Concurrency: the cache is hash-partitioned into independent SHARDS, each
// with its own mutex, ring, index, and counters. Rows map to shards by
// content hash, so N serving streams probing concurrently contend only
// when their rows land in the same shard — the single global mutex the
// first version serialized every stream on is gone. The shard count is a
// construction knob (CYBERHD_CACHE_SHARDS; auto = enough shards to cover
// the shared-L3 domains and typical worker counts), and every contract
// below holds per shard: content-verified hits, FIFO ring eviction,
// deterministic replay.
//
// Determinism contract: a hit replays the entry (float row, int8 levels or
// packed sign words) a previous encode produced for the *identical* raw
// row; encoders are deterministic, so scores computed through the cache
// are bit-identical to cache-off scoring for any capacity, shard count,
// eviction pattern, thread count, or kernel backend.
//
// Each shard's index (SlotIndex) is a flat open-addressed table of slot
// ids sized once for the shard's slots, so a miss that evicts allocates
// and frees nothing: a steady stream of first-sight flows runs through the
// cache without touching the heap.
//
// encode_block (bottom of this file) is stage 1 of every scorer, cache on
// or off: a row format is just an entry size plus a tile encoder
// (FloatTileEncode for float rows, QuantizedCyberHd::encode_tile_packed
// for packed ones), and the miss path is written once for all of them. A
// block whose every row missed (cold traffic) encodes in place, one tile
// call straight into its staging rows, so the ring fill is the only copy
// caching adds; a block with hits gathers its misses first.
//
// The capacity knob is CYBERHD_ENCODE_CACHE (rows; 0 disables) — see
// capacity_from_env().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/exec/execution_context.hpp"
#include "core/function_ref.hpp"
#include "core/matrix.hpp"
#include "hdc/scoring_workspace.hpp"

namespace cyberhd::hdc {

class Encoder;

/// Hit/miss counters of one cache (cumulative since the last clear()),
/// plus the byte-residency snapshot (entries currently held x entry size —
/// how full the ring actually is, and what it could hold; packed entries
/// multiply rows-per-byte 4-32x over float entries at the same capacity).
struct EncodeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Bytes of encoded entries resident right now (occupied slots x entry
  /// bytes, summed per shard).
  std::uint64_t bytes_resident = 0;
  /// Bytes the ring can hold (capacity x entry bytes).
  std::uint64_t bytes_capacity = 0;
  /// Rows served zero-copy: hits handed out as borrowed (pinned) pointers
  /// into the ring. Every ring hit is borrowed — no hit is ever copied.
  std::uint64_t borrowed_rows = 0;
  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

/// The index of one cache shard: hash -> slot through a flat,
/// open-addressed table of slot ids, sized once for the shard's slots so
/// that neither an insert nor an eviction allocates. An entry stores only
/// a slot id; its key is the hash that slot holds (slot_hash). Probing is
/// linear from a home bucket taken from the high bits of the finalized
/// hash (shard routing consumes its low ones), and erasing shifts the rest
/// of the probe run back instead of leaving a tombstone, so lookups never
/// degrade. There is one entry per hash: put() under a hash that already
/// has an entry redirects it to the new slot, and erase() of a slot whose
/// hash was redirected elsewhere leaves the entry alone (the stale slot is
/// simply unreachable until the ring reuses it). Not thread-safe: the
/// owning shard's mutex guards it.
class SlotIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Size the table for `slots` slots (at most half its buckets ever
  /// hold an entry) and empty it. Allocates; nothing else does.
  void reset(std::size_t slots);
  /// Drop every entry, keeping the storage.
  void clear() noexcept;

  /// Entries held (indexed slots).
  std::size_t size() const noexcept { return size_; }
  std::size_t bucket_count() const noexcept { return table_.size(); }
  /// The bucket a probe for `hash` starts at (bucket_count() > 0).
  std::size_t home(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(spread_hash(hash) >> shift_);
  }
  /// The slot indexed under `hash`, or kNone.
  std::uint32_t find(std::uint64_t hash) const noexcept;
  /// Index `slot` under `hash`, redirecting the hash's entry if it has
  /// one. `slot` must not be indexed (erase it first when reusing it).
  void put(std::uint32_t slot, std::uint64_t hash) noexcept;
  /// Remove the entry of `slot` (under the hash it was last put under) if
  /// it is indexed; an entry redirected to another slot stays.
  void erase(std::uint32_t slot) noexcept;

 private:
  std::vector<std::uint32_t> table_;      // bucket -> slot id, or kNone
  std::vector<std::uint64_t> slot_hash_;  // slot -> the hash it holds
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
  std::size_t size_ = 0;
};

/// Fixed-capacity, ring-evicting, content-addressed cache of encoded rows,
/// hash-partitioned into independently locked shards. Thread-safe: probe
/// and insert phases serialize per shard; the miss encodes themselves run
/// outside any lock, split across the execution context's pool.
class EncodeCache {
 public:
  /// Default capacity when CYBERHD_ENCODE_CACHE is unset: 4096 rows (at
  /// D = 512 about 8 MiB of encoded vectors — one L3's worth).
  static constexpr std::size_t kDefaultCapacityRows = 4096;
  /// Auto shard count floor: covers the worker counts a single socket
  /// typically throws at the serving path; more L3 domains raise it.
  static constexpr std::size_t kDefaultShards = 8;

  /// The CYBERHD_ENCODE_CACHE knob: a row count ("8192"), 0 to disable,
  /// kDefaultCapacityRows when unset or malformed.
  static std::size_t capacity_from_env() noexcept;

  /// The CYBERHD_CACHE_SHARDS knob: an explicit shard count (clamped to
  /// [1, 256]); 0, unset, or malformed selects auto (max of kDefaultShards
  /// and the detected shared-L3 domain count). The construction-time
  /// clamp to the row capacity still applies either way.
  static std::size_t shards_from_env() noexcept;

  /// A cache for rows of `input_dim` raw features encoding to
  /// `encoded_dim`-dimensional hypervectors, holding up to `capacity_rows`
  /// entries split across `shards` shards (0 = shards_from_env(); always
  /// clamped to at most capacity_rows so every shard owns at least one
  /// slot). Each shard's ring storage is allocated lazily on its first
  /// insert, so models that never take the batch serving path pay nothing
  /// for the default-armed cache.
  ///
  /// `entry_bytes` is the fixed size of one cached encoded entry, set at
  /// arm time: 0 (the default) stores float rows (encoded_dim * 4 bytes);
  /// the quantized pipeline arms its cache with the packed row size
  /// (PackedRows::row_bytes), so the same ring holds int8 or packed-bit
  /// entries — same content hash, same byte-verified hits, same in-batch
  /// dedup, 4-32x the flows per byte.
  EncodeCache(std::size_t input_dim, std::size_t encoded_dim,
              std::size_t capacity_rows, std::size_t shards = 0,
              std::size_t entry_bytes = 0);

  /// Total row capacity across all shards.
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t input_dim() const noexcept { return input_dim_; }
  std::size_t encoded_dim() const noexcept { return encoded_dim_; }
  /// Bytes per cached encoded entry (what one slot stores).
  std::size_t entry_bytes() const noexcept { return entry_bytes_; }
  std::size_t shard_count() const noexcept { return num_shards_; }
  /// Rows currently resident (summed across shards).
  std::size_t size() const;

  /// Drop every resident row in every shard and reset all stats.
  void clear();

  /// Aggregate hit/miss/eviction counters, summed across shards.
  EncodeCacheStats stats() const;
  /// One shard's counters (tests pin the per-shard accounting with this).
  EncodeCacheStats shard_stats(std::size_t shard) const;

  /// Content hash of a raw row's bytes (std::hash over them, a word at a
  /// time). Equal bytes give equal hashes within one process; the value
  /// is not stable across standard-library versions and is never stored.
  static std::uint64_t hash_row(std::span<const float> x) noexcept;

  /// The shard a hash routes to (exposed so tests can steer rows).
  std::size_t shard_of(std::uint64_t hash) const noexcept;

  /// The batched miss-encode callback of encode_entries_borrowed. A
  /// non-owning FunctionRef (not std::function): the call invokes it
  /// before returning, and erasing by reference keeps the call
  /// allocation-free — a capturing lambda passed as a temporary never hits
  /// the heap.
  using EncodeMissesFn = core::FunctionRef<void(
      std::span<const std::size_t>, unsigned char*, std::size_t)>;

  /// The cache's half of stage 1 (encode_block below adds the miss
  /// callback every row format shares). For each row i in
  /// [0, end - begin), ws.entry_ptrs[i] is set to where the
  /// encoding of x.row(begin + i) lives:
  ///  * a hit PINS its ring slot (eviction skips it) and points into the
  ///    ring;
  ///  * misses go to `encode_misses` in ONE batched call, outside every
  ///    shard lock: `encode_misses(rows, staging, out_stride)` must write,
  ///    for every batch-row index i in `rows`, exactly entry_bytes() bytes
  ///    of row i's encoding to staging + i * out_stride (out_stride >=
  ///    entry_bytes()), deterministically. The callback owns its gather,
  ///    tiling and parallelism. Fresh entries are then inserted, and miss
  ///    rows point into `staging`;
  ///  * in-batch duplicates alias their first occurrence's pointer.
  /// The pins land in ws.borrow, which the caller releases once stage 2
  /// has consumed the rows (BorrowRelease does it on every exit path);
  /// until then the pointers stay valid across concurrent inserts. If this
  /// call throws (the miss callback, an insert's allocation), it releases
  /// its own pins first. Returns the number of hits, in-batch replays
  /// included. Safe to call concurrently; ws is the caller's (typically
  /// thread-local) scratch.
  std::size_t encode_entries_borrowed(const core::Matrix& x,
                                      std::size_t begin, std::size_t end,
                                      unsigned char* staging,
                                      std::size_t out_stride,
                                      EncodeMissesFn encode_misses,
                                      ScoringWorkspace& ws,
                                      const core::ExecutionContext& exec);

 private:
  friend class BorrowGuard;
  /// One independently locked partition of the cache: a FIFO ring of
  /// slots (verification row, encoded entry, pin count) and the flat
  /// SlotIndex over them. All of it is sized once by ensure_storage, so a
  /// miss that evicts allocates and frees nothing.
  struct Shard {
    mutable std::mutex mutex;
    std::size_t capacity = 0;  // slots this shard owns
    // Ring storage, empty until the first insert (see ensure_storage):
    core::Matrix raw;  // capacity x input_dim: the verification copies
    // capacity x entry_stride bytes: the cached encoded entries (float
    // rows, int8 rows, or packed words — the cache is agnostic).
    std::vector<unsigned char, core::AlignedAllocator<unsigned char>>
        entries;
    std::vector<bool> occupied;
    // Per-slot borrow pin counts, mutated only under this shard's mutex.
    // insert() skips pinned slots, so a borrowed entry's bytes are
    // immutable (and data-race-free to read without the lock) until every
    // BorrowGuard holding it releases. Survives clear(): a cleared cache
    // drops its index, not the storage outstanding borrows still read.
    std::vector<std::uint32_t> pins;
    std::size_t resident = 0;  // occupied slot count (bytes accounting)
    // hash -> slot over the occupied slots, sized with the ring storage;
    // every indexed slot is occupied and holds its entry's hash.
    SlotIndex index;
    std::size_t next_slot = 0;  // ring cursor
    EncodeCacheStats stats;
  };

  /// Slot index of the verified-resident row, or shard.capacity when
  /// absent. Caller holds shard.mutex.
  std::size_t find_slot(const Shard& shard, std::uint64_t hash,
                        std::span<const float> x) const;
  /// Insert (or refresh) a row into the shard's ring. Caller holds
  /// shard.mutex.
  void insert(Shard& shard, std::uint64_t hash, std::span<const float> x,
              const unsigned char* entry);
  /// Allocate the shard's ring storage on first use. Caller holds
  /// shard.mutex.
  void ensure_storage(Shard& shard);
  /// Byte pointer of a shard's slot entry.
  unsigned char* slot_entry(Shard& shard, std::size_t slot) const {
    return shard.entries.data() + slot * entry_stride_;
  }
  const unsigned char* slot_entry(const Shard& shard,
                                  std::size_t slot) const {
    return shard.entries.data() + slot * entry_stride_;
  }

  std::size_t input_dim_;
  std::size_t encoded_dim_;
  std::size_t capacity_;
  std::size_t entry_bytes_;
  std::size_t entry_stride_;  // entry_bytes_ rounded up to a cache line
  std::size_t num_shards_;
  // unique_ptr<[]> rather than vector: a Shard owns a mutex and is
  // therefore immovable.
  std::unique_ptr<Shard[]> shards_;
};

/// A row format's tile encoder: write the encodings of rows [begin, end)
/// of `x` as entries at dst + (row - begin) * dst_stride, each exactly the
/// format's entry size, deterministically (a cache hit replays the bytes
/// a fresh encode of the identical row wrote). Non-owning, like
/// EncodeMissesFn, so passing a temporary adapter allocates nothing.
using EncodeTileFn =
    core::FunctionRef<void(const core::Matrix& x, std::size_t begin,
                           std::size_t end, unsigned char* dst,
                           std::size_t dst_stride)>;

/// The float row format's tile encoder: Encoder::encode_tile writing
/// output_dim() floats per entry on `exec`. Packed rows use
/// QuantizedCyberHd::encode_tile_packed instead.
struct FloatTileEncode {
  const Encoder& encoder;
  const core::ExecutionContext& exec;
  void operator()(const core::Matrix& x, std::size_t begin, std::size_t end,
                  unsigned char* dst, std::size_t dst_stride) const;
};

/// Stage 1 for every row format (float, int8 and packed-bit entries
/// differ only in `entry_bytes` and `encode`): point ws.entry_ptrs[i] at
/// the encoded entry of row begin + i of `x` and return the number of
/// hits (in-batch replays included).
///  * With `cache` (armed with this entry size) it is
///    cache->encode_entries_borrowed with one miss callback. When every
///    row of the block missed (no hit, no in-batch replay — cold
///    traffic), the callback encodes x[begin, end) in place: ONE `encode`
///    call straight into ws.staging. Otherwise the misses are gathered
///    into ws.miss_raw, encoded by ONE `encode` call into ws.miss_packed,
///    and each copied into its row of ws.staging with one memcpy. Hits
///    point into the ring and stay pinned in ws.borrow until the caller
///    releases it (BorrowRelease).
///  * Without one, the block is one `encode` call into ws.staging; no pins
///    are taken and 0 is returned.
/// The gather kernels' typed views come from ws.float_rows or
/// ws.packed_rows.
std::size_t encode_block(EncodeCache* cache, const core::Matrix& x,
                         std::size_t begin, std::size_t end,
                         std::size_t entry_bytes, EncodeTileFn encode,
                         ScoringWorkspace& ws,
                         const core::ExecutionContext& exec);

}  // namespace cyberhd::hdc
