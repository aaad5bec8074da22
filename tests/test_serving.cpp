// Tests for the stage-split serving pipeline: the content-addressed encode
// cache (bit-identical scores cache on / off / evicting, with and without
// the thread pool — CI's kernels and threads matrix legs re-run this file
// per backend and per worker count), the per-block scores_block stage
// split, the zero-copy borrow protocol, and the CYBERHD_ENCODE_CACHE knob.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/encode_cache.hpp"
#include "hdc/encoded_batch.hpp"
#include "hdc/quantized.hpp"
#include "hdc/scoring_workspace.hpp"
#include "scoring_reference.hpp"

namespace cyberhd::hdc {
namespace {

/// Three separated Gaussian blobs plus a query batch whose second half
/// repeats the first half row-for-row (the replay shape the cache serves).
struct ServingFixture {
  core::Matrix train{150, 5};
  std::vector<int> y = std::vector<int>(150);
  core::Matrix queries{128, 5};

  explicit ServingFixture(bool parallel = false)
      : model(config(parallel)) {
    core::Rng rng(17);
    for (std::size_t i = 0; i < train.rows(); ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < train.cols(); ++f) {
        train(i, f) = 0.4f * static_cast<float>(cls) +
                      static_cast<float>(rng.gaussian(0.0, 0.08));
      }
      y[i] = cls;
    }
    for (std::size_t i = 0; i < 64; ++i) {
      for (std::size_t f = 0; f < queries.cols(); ++f) {
        queries(i, f) = 0.4f * static_cast<float>(i % 3) +
                        static_cast<float>(rng.gaussian(0.0, 0.08));
        queries(i + 64, f) = queries(i, f);  // exact replay
      }
    }
    model.fit(train, y, 3);
  }

  static CyberHdConfig config(bool parallel) {
    CyberHdConfig cfg;
    cfg.dims = 128;
    cfg.regen_steps = 3;
    cfg.final_epochs = 2;
    cfg.parallel = parallel;
    return cfg;
  }

  CyberHdClassifier model;
};

/// Written-out reference scores of `model` (tests/scoring_reference.hpp):
/// per-row encode, then the cosine primitives — none of the pipeline.
core::Matrix reference_scores(const CyberHdClassifier& model,
                              const core::Matrix& x) {
  return reference::scores(model.encoder(), model.model(), x);
}
/// The same for `q`, a quantized snapshot of `source` (whose encoder it
/// cloned).
core::Matrix reference_scores(const QuantizedCyberHd& q,
                              const CyberHdClassifier& source,
                              const core::Matrix& x) {
  return reference::scores(source.encoder(), q.model(), x);
}

/// Snapshot/restore an environment variable around a test that mutates
/// it — CI's matrix legs pin these knobs for the *whole* binary, so a
/// test must never leave a different value behind for the tests after it.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* value = std::getenv(name);
    if (value != nullptr) saved_ = value;
    had_value_ = value != nullptr;
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(EncodeCacheKnob, ParsesRowsZeroAndMalformed) {
  const ScopedEnv guard("CYBERHD_ENCODE_CACHE");
  ::setenv("CYBERHD_ENCODE_CACHE", "0", 1);
  EXPECT_EQ(EncodeCache::capacity_from_env(), 0u);
  ::setenv("CYBERHD_ENCODE_CACHE", "256", 1);
  EXPECT_EQ(EncodeCache::capacity_from_env(), 256u);
  for (const char* bad : {"banana", "-1", "12x", ""}) {
    ::setenv("CYBERHD_ENCODE_CACHE", bad, 1);
    EXPECT_EQ(EncodeCache::capacity_from_env(),
              EncodeCache::kDefaultCapacityRows)
        << bad;
  }
  ::unsetenv("CYBERHD_ENCODE_CACHE");
  EXPECT_EQ(EncodeCache::capacity_from_env(),
            EncodeCache::kDefaultCapacityRows);
}

class ServingDeterminism : public ::testing::TestWithParam<bool> {};

TEST_P(ServingDeterminism, ScoresBitIdenticalCacheOnOffEvicting) {
  ServingFixture t(/*parallel=*/GetParam());
  const core::Matrix reference = reference_scores(t.model, t.queries);

  // Cache off.
  t.model.set_encode_cache(0);
  ASSERT_EQ(t.model.encode_cache(), nullptr);
  core::Matrix off;
  t.model.scores_batch(t.queries, off);
  EXPECT_EQ(off, reference);

  // Cache on: the cold pass (fills + in-batch replays) and the warm pass
  // (every row a hit) must both reproduce the reference bit-for-bit.
  t.model.set_encode_cache(1024);
  ASSERT_NE(t.model.encode_cache(), nullptr);
  core::Matrix cold, warm;
  t.model.scores_batch(t.queries, cold);
  t.model.scores_batch(t.queries, warm);
  EXPECT_EQ(cold, reference);
  EXPECT_EQ(warm, reference);
  EXPECT_GT(t.model.encode_cache()->stats().hits, 0u);

  // A 3-row cache evicts on nearly every insert; correctness must not
  // depend on residency.
  t.model.set_encode_cache(3);
  core::Matrix evicting;
  t.model.scores_batch(t.queries, evicting);
  EXPECT_EQ(evicting, reference);
  EXPECT_GT(t.model.encode_cache()->stats().evictions, 0u);
}

TEST_P(ServingDeterminism, PredictBatchRidesTheStagedDriver) {
  ServingFixture t(/*parallel=*/GetParam());
  t.model.set_encode_cache(64);
  std::vector<int> batched(t.queries.rows());
  t.model.predict_batch(t.queries, batched);
  for (std::size_t i = 0; i < t.queries.rows(); ++i) {
    EXPECT_EQ(batched[i], t.model.predict(t.queries.row(i))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndPool, ServingDeterminism,
                         ::testing::Values(false, true));

TEST(ServingPipeline, StagedApiMatchesTheDriver) {
  ServingFixture t;
  t.model.set_encode_cache(256);
  core::Matrix driver_scores;
  t.model.scores_batch(t.queries, driver_scores);

  // Stage 1 + stage 2 over two arbitrary blocks, not the planner's.
  core::Matrix out(t.queries.rows(), t.model.num_classes());
  for (const auto& [begin, end] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 50},
                                                        {50, 128}}) {
    t.model.scores_block(t.queries, begin, end, out);
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t c = 0; c < out.cols(); ++c) {
        EXPECT_EQ(out(r, c), driver_scores(r, c)) << r << "," << c;
      }
    }
  }
}

TEST(ServingPipeline, WarmPassHitsEveryRow) {
  ServingFixture t;
  t.model.set_encode_cache(1024);
  core::Matrix scores;
  t.model.scores_batch(t.queries, scores);  // cold: 64 misses + 64 replays
  const EncodeCacheStats cold = t.model.encode_cache()->stats();
  EXPECT_EQ(cold.misses, 64u);  // distinct rows
  EXPECT_EQ(cold.hits, 64u);    // the in-batch replays
  t.model.scores_batch(t.queries, scores);
  const EncodeCacheStats warm = t.model.encode_cache()->stats();
  EXPECT_EQ(warm.misses, cold.misses);  // no new encodes
  EXPECT_EQ(warm.hits, cold.hits + t.queries.rows());
  // 64 + 128 hits over 256 probes.
  EXPECT_NEAR(warm.hit_rate(), 0.75, 1e-9);
}

TEST(ServingPipeline, ClearResetsResidencyAndStats) {
  ServingFixture t;
  t.model.set_encode_cache(1024);
  core::Matrix scores;
  t.model.scores_batch(t.queries, scores);
  EXPECT_GT(t.model.encode_cache()->size(), 0u);
  t.model.encode_cache()->clear();
  EXPECT_EQ(t.model.encode_cache()->size(), 0u);
  EXPECT_EQ(t.model.encode_cache()->stats().hits, 0u);
  EXPECT_EQ(t.model.encode_cache()->stats().misses, 0u);
  // And scoring after a clear is still bit-identical.
  core::Matrix again;
  t.model.scores_batch(t.queries, again);
  EXPECT_EQ(again, scores);
}

TEST(ServingPipeline, RefitRearmsTheCacheWithFreshEncodings) {
  ServingFixture t;
  t.model.set_encode_cache(1024);
  core::Matrix scores;
  t.model.scores_batch(t.queries, scores);
  EXPECT_GT(t.model.encode_cache()->size(), 0u);
  // Refit replaces the encoder; stale encodings must not survive. Pin the
  // env knob for the refit so the re-armed-cache assertions hold even on
  // the CI leg that exports CYBERHD_ENCODE_CACHE=0.
  {
    const ScopedEnv guard("CYBERHD_ENCODE_CACHE");
    ::setenv("CYBERHD_ENCODE_CACHE", "1024", 1);
    t.model.fit(t.train, t.y, 3);
  }
  ASSERT_NE(t.model.encode_cache(), nullptr);
  EXPECT_EQ(t.model.encode_cache()->stats().hits, 0u);
  const core::Matrix reference = reference_scores(t.model, t.queries);
  core::Matrix refit_scores;
  t.model.scores_batch(t.queries, refit_scores);
  EXPECT_EQ(refit_scores, reference);
}

/// Every bitwidth: the packed pipeline at 1/2/4/8 bits, the shared float
/// stage 1 with per-row quantized scoring at 16/32.
class QuantizedServing : public ::testing::TestWithParam<int> {};

TEST_P(QuantizedServing, ScoresBitIdenticalCacheOnOffEvicting) {
  ServingFixture t;
  QuantizedCyberHd q(t.model, GetParam());
  const core::Matrix reference = reference_scores(q, t.model, t.queries);

  q.set_encode_cache(0);
  core::Matrix off;
  q.scores_batch(t.queries, off);
  EXPECT_EQ(off, reference);

  q.set_encode_cache(1024);
  core::Matrix cold, warm;
  q.scores_batch(t.queries, cold);
  const EncodeCacheStats before_warm = q.encode_cache()->stats();
  q.scores_batch(t.queries, warm);
  EXPECT_EQ(cold, reference);
  EXPECT_EQ(warm, reference);
  EXPECT_GT(q.encode_cache()->stats().hits, 0u);
  // The warm pass scores every row in place out of the ring, float rows
  // (bits 16/32) as much as packed ones.
  EXPECT_EQ(q.encode_cache()->stats().borrowed_rows,
            before_warm.borrowed_rows + t.queries.rows());

  q.set_encode_cache(3);
  core::Matrix evicting;
  q.scores_batch(t.queries, evicting);
  EXPECT_EQ(evicting, reference);
}

TEST_P(QuantizedServing, PackedStageSplitMatchesTheDriver) {
  // The stage split over blocks the planner would not pick: each
  // scores_block call (stage 1 + stage 2 over rows [begin, end)) must
  // reproduce exactly the rows scores_batch produces — the whole batch in
  // one block, and a block from the middle.
  ServingFixture t;
  QuantizedCyberHd q(t.model, GetParam());
  core::Matrix reference;
  q.scores_batch(t.queries, reference);

  core::Matrix out(t.queries.rows(), q.num_classes());
  for (const auto& [begin, end] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, t.queries.rows()}, {8, 24}}) {
    q.scores_block(t.queries, begin, end, out);
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t c = 0; c < out.cols(); ++c) {
        EXPECT_EQ(out(r, c), reference(r, c)) << r << "," << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, QuantizedServing,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(PackedRowsView, RowBytesSizeInt8AndWordRows) {
  // int8 rows: one byte per dimension; 1-bit rows: whole 64-bit words.
  EXPECT_EQ(PackedRows::row_bytes(128, 8), 128u);
  EXPECT_EQ(PackedRows::row_bytes(128, 2), 128u);
  EXPECT_EQ(PackedRows::row_bytes(128, 1), 16u);
  EXPECT_EQ(PackedRows::row_bytes(65, 1), 16u);  // tail word rounds up
}

/// The packed pipeline's own surface: packed cache entries, the fused
/// tile-encode-and-pack, borrowed packed hits (bits <= 8 only).
class PackedServing : public ::testing::TestWithParam<int> {};

TEST_P(PackedServing, CacheStoresPackedEntriesAndCountsBytes) {
  // The quantized cache ring is armed with the PACKED entry size — the
  // whole point of the packed pipeline's memory win — and the byte
  // residency stats must track occupied slots times that entry size.
  ServingFixture t;
  QuantizedCyberHd q(t.model, GetParam());
  q.set_encode_cache(256);
  ASSERT_NE(q.encode_cache(), nullptr);
  const std::size_t entry =
      PackedRows::row_bytes(q.model().dims(), GetParam());
  EXPECT_EQ(q.encode_cache()->entry_bytes(), entry);

  const EncodeCacheStats before = q.encode_cache()->stats();
  EXPECT_EQ(before.bytes_resident, 0u);
  EXPECT_EQ(before.bytes_capacity, 256u * entry);

  core::Matrix scores;
  q.scores_batch(t.queries, scores);
  const EncodeCacheStats after = q.encode_cache()->stats();
  EXPECT_EQ(after.bytes_resident, q.encode_cache()->size() * entry);
  EXPECT_GT(after.bytes_resident, 0u);
  EXPECT_LE(after.bytes_resident, after.bytes_capacity);
}

TEST_P(PackedServing, FusedTileEncodeMatchesEncodeThenPack) {
  // The fused quantize-on-encode epilogue: encode_tile_packed's bytes must
  // be identical to float-encoding the same rows (encode_tile on the
  // source encoder, whose weights the snapshot cloned) and pack_row-ing
  // them one at a time — the contract that lets the cache-miss batch and
  // the cache-off path ride the tile without perturbing a single packed
  // entry.
  ServingFixture t;
  QuantizedCyberHd q(t.model, GetParam());
  const std::size_t row_bytes = q.model().packed_row_bytes();

  const std::size_t stride = row_bytes + 9;
  std::vector<unsigned char> fused(t.queries.rows() * stride, 0xc3);
  q.encode_tile_packed(t.queries, 0, t.queries.rows(), fused.data(), stride);

  core::Matrix encoded(t.queries.rows(), t.model.physical_dims());
  t.model.encoder().encode_tile(t.queries, 0, t.queries.rows(),
                                encoded.data(), encoded.cols(),
                                core::ExecutionContext::serial());
  std::vector<unsigned char> ref(row_bytes);
  for (std::size_t i = 0; i < t.queries.rows(); ++i) {
    q.model().pack_row(encoded.row(i), ref.data());
    EXPECT_EQ(std::memcmp(fused.data() + i * stride, ref.data(), row_bytes),
              0)
        << "row " << i;
    for (std::size_t b = row_bytes; b < stride; ++b) {
      EXPECT_EQ(fused[i * stride + b], 0xc3) << "pad overwritten, row " << i;
    }
  }
}

// ---- zero-copy borrow protocol ---------------------------------------------

/// Float stage 1 (encode_block with float entries) of rows [begin, end)
/// of the fixture's queries through `cache`; returns the hit count.
std::size_t encode_rows(EncodeCache& cache, const ServingFixture& t,
                        std::size_t begin, std::size_t end,
                        ScoringWorkspace& ws,
                        const core::ExecutionContext& exec) {
  return encode_block(&cache, t.queries, begin, end,
                      t.model.physical_dims() * sizeof(float),
                      FloatTileEncode{t.model.encoder(), exec}, ws, exec);
}

TEST(BorrowPin, PinnedRowsSurviveFullRingWrap) {
  // Pin two ring slots, then wrap the ring many times over with fresh
  // inserts: eviction must route around the pinned slots, so the borrowed
  // pointers keep serving the ORIGINAL encodings bit for bit the whole
  // time, and the pinned rows are still resident afterwards.
  ServingFixture t;
  t.model.set_encode_cache(8, /*shards=*/1);  // one ring: wrap is total
  EncodeCache* cache = t.model.encode_cache();
  ASSERT_NE(cache, nullptr);
  const core::ExecutionContext& exec = core::ExecutionContext::serial();
  const std::size_t dims = t.model.physical_dims();

  // Fill all 8 slots, then re-probe rows 0..2: both rows hit and pin
  // their slots. Every other call runs on a second workspace whose pins
  // are released right after it.
  ScoringWorkspace ws, other;
  const auto encode_released = [&](std::size_t begin, std::size_t end) {
    encode_rows(*cache, t, begin, end, other, exec);
    other.borrow.release();
  };
  encode_released(0, 8);
  const std::size_t hits = encode_rows(*cache, t, 0, 2, ws, exec);
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(ws.borrow.size(), 2u);
  std::vector<float> snapshot(2 * dims);
  for (std::size_t r = 0; r < 2; ++r) {
    std::memcpy(snapshot.data() + r * dims, ws.entry_ptrs[r],
                dims * sizeof(float));
  }

  // 48 distinct rows through a full 8-slot ring: several complete wraps'
  // worth of eviction pressure while the pins are held.
  for (std::size_t begin = 8; begin < 56; begin += 16) {
    encode_released(begin, begin + 16);
  }
  EXPECT_GT(cache->stats().evictions, 0u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(std::memcmp(ws.entry_ptrs[r], snapshot.data() + r * dims,
                          dims * sizeof(float)),
              0)
        << "pinned row " << r << " was overwritten during ring wrap";
  }

  // The pinned rows were never evicted: a fresh probe of them still hits.
  const EncodeCacheStats before = cache->stats();
  encode_released(0, 2);
  EXPECT_EQ(cache->stats().hits, before.hits + 2);

  ws.borrow.release();
  EXPECT_TRUE(ws.borrow.empty());
  ws.borrow.release();  // idempotent
}

TEST(BorrowPin, WarmFlushBorrowsEveryHitWithoutCopying) {
  // The zero-copy contract, observable in the stats: a warm flush serves
  // every row as a borrowed pointer into the ring (in-batch replays alias
  // the fresh encode, so even the cold pass moves no hit bytes).
  ServingFixture t;
  t.model.set_encode_cache(1024);
  core::Matrix scores;
  t.model.scores_batch(t.queries, scores);  // cold: 64 misses + 64 replays
  const EncodeCacheStats cold = t.model.encode_cache()->stats();
  t.model.scores_batch(t.queries, scores);  // warm: every row a ring hit
  const EncodeCacheStats warm = t.model.encode_cache()->stats();
  EXPECT_EQ(warm.borrowed_rows, cold.borrowed_rows + t.queries.rows());
}

TEST(BorrowPin, ThrowingMissEncodeReleasesItsPins) {
  // A miss callback that throws after the probe pass has pinned the
  // batch's hits must not leave those pins behind: the serving workspace
  // is thread_local, so unwinding never runs its guard's destructor, and
  // a server that catches the failure keeps serving on the same
  // workspace. The workspace is declared after the cache so a leaked pin
  // fails the expectation below instead of unpinning a destroyed cache.
  ServingFixture t;
  t.model.set_encode_cache(64, /*shards=*/1);
  EncodeCache* cache = t.model.encode_cache();
  ASSERT_NE(cache, nullptr);
  const core::ExecutionContext& exec = core::ExecutionContext::serial();
  ScoringWorkspace ws;
  encode_rows(*cache, t, 0, 8, ws, exec);
  ws.borrow.release();

  // Rows 0..8 hit (and pin), rows 8..16 miss and reach the callback.
  const std::size_t dims = t.model.physical_dims();
  core::Matrix staging(16, dims);
  EXPECT_THROW(
      cache->encode_entries_borrowed(
          t.queries, 0, 16,
          reinterpret_cast<unsigned char*>(staging.data()),
          dims * sizeof(float),
          [](std::span<const std::size_t>, unsigned char*, std::size_t) {
            throw std::runtime_error("injected miss-encode failure");
          },
          ws, exec),
      std::runtime_error);
  ASSERT_TRUE(ws.borrow.empty());
  EXPECT_EQ(cache->stats().borrowed_rows, 8u);

  // The workspace serves the next flush as usual, and the cached rows
  // still hit.
  const std::size_t hits = encode_rows(*cache, t, 0, 8, ws, exec);
  EXPECT_EQ(hits, 8u);
  ws.borrow.release();
}

TEST(BorrowPin, ConcurrentBorrowAndEvictionKeepScoresBitIdentical) {
  // Eviction-under-load stress (the TSan/ASan CI legs re-run this file):
  // four threads flush the same query batch through a 16-slot cache, so
  // every flush borrows hits while the other threads' misses hammer the
  // same shards with inserts and evictions. Every score of every flush
  // must still be bit-identical to the written-out reference.
  ServingFixture t;
  t.model.set_encode_cache(16);
  const core::Matrix reference = reference_scores(t.model, t.queries);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      core::Matrix out;
      for (int pass = 0; pass < 8; ++pass) {
        t.model.scores_batch(t.queries, out);
        if (!(out == reference)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(t.model.encode_cache()->stats().borrowed_rows, 0u);
}

TEST_P(PackedServing, WarmFlushBorrowsPackedHits) {
  // The packed pipeline rides the same borrow protocol: after a cold fill,
  // a warm flush pins every row in the ring and copies nothing.
  ServingFixture t;
  QuantizedCyberHd q(t.model, GetParam());
  q.set_encode_cache(1024);
  core::Matrix scores;
  q.scores_batch(t.queries, scores);
  q.scores_batch(t.queries, scores);
  const EncodeCacheStats stats = q.encode_cache()->stats();
  EXPECT_EQ(stats.borrowed_rows, t.queries.rows());
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, PackedServing,
                         ::testing::Values(1, 2, 4, 8));

TEST(EncodeCacheUnit, ContentVerificationDefeatsHashAliasing) {
  // Two different rows forced through the same cache: whatever the hash
  // does, the content check must re-encode rather than replay the wrong
  // vector. (A real collision is impractical to construct; this pins the
  // path where the ring slot holds a different row than the probe.)
  ServingFixture t;
  t.model.set_encode_cache(1);  // one slot: constant aliasing pressure
  const core::Matrix reference = reference_scores(t.model, t.queries);
  core::Matrix scores;
  t.model.scores_batch(t.queries, scores);
  EXPECT_EQ(scores, reference);
}

TEST(EncodeCacheUnit, FlatIndexMatchesReferenceUnderForcedCollisions) {
  // The shard index against the map it replaced, under the rule the ring
  // relies on: one entry per hash, a later put redirects it, and erasing a
  // stale slot leaves the redirect alone. Hashes are steered so that
  // probe runs form on purpose: several share one home bucket, several
  // start at the last bucket (runs that wrap to bucket 0), and each is
  // put again into newer slots while older slots still hold it (the same
  // 64-bit hash with different content). Every put of the ring evicts the
  // slot it reuses, so erasure by backward shift runs throughout.
  constexpr std::uint32_t kSlots = 8;
  SlotIndex index;
  index.reset(kSlots);
  ASSERT_EQ(index.bucket_count(), 16u);
  const std::size_t last = index.bucket_count() - 1;
  std::vector<std::uint64_t> pool;
  for (std::uint64_t k = 1; pool.size() < 12; ++k) {
    const std::uint64_t h = k * 0x9e3779b97f4a7c15ULL;
    const std::size_t home = index.home(h);
    const std::size_t want = pool.size() < 6 ? std::size_t{5} : last;
    if (home == want) pool.push_back(h);
  }
  core::Rng rng(43);
  for (int i = 0; i < 4; ++i) pool.push_back(rng.next_u64());

  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  std::vector<std::uint64_t> held(kSlots);
  std::vector<bool> occupied(kSlots, false);
  const auto check = [&](int step) {
    ASSERT_EQ(index.size(), reference.size()) << "step " << step;
    for (const std::uint64_t h : pool) {
      const auto it = reference.find(h);
      const std::uint32_t want =
          it == reference.end() ? SlotIndex::kNone : it->second;
      ASSERT_EQ(index.find(h), want) << "step " << step << " hash " << h;
    }
  };

  // A hand-made run first: three hashes of one home bucket, the middle
  // one redirected, then the head of the run erased.
  index.put(0, pool[0]);
  index.put(1, pool[1]);
  index.put(2, pool[2]);
  index.put(3, pool[1]);  // redirect: slot 1 goes stale
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.find(pool[1]), 3u);
  index.erase(1);  // stale: the redirect stays
  EXPECT_EQ(index.find(pool[1]), 3u);
  index.erase(0);  // shifts the rest of the run back
  EXPECT_EQ(index.find(pool[0]), SlotIndex::kNone);
  EXPECT_EQ(index.find(pool[1]), 3u);
  EXPECT_EQ(index.find(pool[2]), 2u);
  EXPECT_EQ(index.size(), 2u);
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(pool[2]), SlotIndex::kNone);

  // A run that wraps: three hashes homed at the last bucket fill it and
  // buckets 0 and 1; erasing the first shifts the other two back across
  // the end of the table.
  index.put(0, pool[6]);
  index.put(1, pool[7]);
  index.put(2, pool[8]);
  index.erase(0);
  EXPECT_EQ(index.find(pool[6]), SlotIndex::kNone);
  EXPECT_EQ(index.find(pool[7]), 1u);
  EXPECT_EQ(index.find(pool[8]), 2u);
  index.clear();

  // Then a long ring of random puts over the colliding pool.
  std::uint32_t next = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint32_t slot = next;
    next = (next + 1) % kSlots;
    const std::uint64_t h =
        pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
    if (occupied[slot]) {
      const auto it = reference.find(held[slot]);
      if (it != reference.end() && it->second == slot) reference.erase(it);
      index.erase(slot);
    }
    occupied[slot] = true;
    held[slot] = h;
    reference[h] = slot;
    index.put(slot, h);
    check(step);
    if (HasFatalFailure()) return;
  }
}

TEST(EncodeCacheUnit, RacingColdScorersLeaveOneResidentCopy) {
  // Two scorers flush the same 64 cold rows at once: both miss, both
  // encode, and the insert pass's re-probe must keep the second insert of
  // each row out, so the ring holds exactly one copy of every row. Both
  // flushes must still score bit-identically to the reference.
  ServingFixture t;
  const core::Matrix reference = reference_scores(t.model, t.queries);
  const std::size_t entry_bytes = t.model.physical_dims() * sizeof(float);
  for (int round = 0; round < 16; ++round) {
    t.model.set_encode_cache(1024);
    std::atomic<int> ready{0};
    std::vector<core::Matrix> outs(2, core::Matrix(64, 3));
    std::vector<std::thread> scorers;
    for (core::Matrix& out : outs) {
      scorers.emplace_back([&t, &ready, dst = &out] {
        ready.fetch_add(1);
        while (ready.load() < 2) std::this_thread::yield();
        t.model.scores_block(t.queries, 0, 64, *dst);
      });
    }
    for (std::thread& th : scorers) th.join();
    const EncodeCacheStats stats = t.model.encode_cache()->stats();
    ASSERT_EQ(t.model.encode_cache()->size(), 64u) << "round " << round;
    ASSERT_EQ(stats.bytes_resident, 64u * entry_bytes) << "round " << round;
    ASSERT_EQ(stats.evictions, 0u);
    for (const core::Matrix& out : outs) {
      for (std::size_t i = 0; i < 64; ++i) {
        for (std::size_t c = 0; c < 3; ++c) {
          ASSERT_EQ(out(i, c), reference(i, c)) << "row " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cyberhd::hdc
