// Pins the tentpole contract of the zero-copy serving work: after warmup,
// a steady-state serving flush performs ZERO heap allocations — across
// cache routing (flat workspace arrays), stage 1 (borrowed hits, misses
// into reused staging), and stage 2 (workspace accumulator tiles, gather
// scoring straight out of the ring). The same holds for a cache-off
// flush (float rows tile-encoded into the workspace staging, packed rows
// quantized into per-thread scratch), for cold flushes whose every insert
// evicts (an all-miss block encoded in place, and a block with in-batch
// replays whose misses are gathered: the shard index is a flat table, so
// eviction frees and insertion allocates nothing), and for per-sample
// predict()/scores(), which run as one-row blocks of the same pipeline
// with the cache bypassed — for the sign-projection encoder's tile as for
// the RBF one. Pooled flushes are held to the same bar: the thread pool
// publishes each job in a fixed slot and runs chunk c on worker c, so a
// flush split across the process pool allocates nothing either once
// every worker's scratch is warm.
//
// The probe is a counting replacement of the global allocation functions:
// an atomic flag arms a counter around exactly the flush under test. The
// whole apparatus is compiled out under ASan/TSan — the sanitizers must
// keep their own operator new interposed — so the CI sanitize legs run
// this file as a plain (skipped-assertion) determinism pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/exec/execution_context.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/encode_cache.hpp"
#include "hdc/quantized.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CYBERHD_ZERO_ALLOC_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CYBERHD_ZERO_ALLOC_DISABLED 1
#endif
#endif

#ifndef CYBERHD_ZERO_ALLOC_DISABLED

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

inline void count_alloc() noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t a) {
  count_alloc();
  void* p = nullptr;
  const std::size_t align =
      std::max(static_cast<std::size_t>(a), sizeof(void*));
  if (posix_memalign(&p, align, n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // !CYBERHD_ZERO_ALLOC_DISABLED

namespace cyberhd::hdc {
namespace {

/// The fixture's widths: `features` per row, `dims` per hypervector, and
/// `queries` query rows.
struct FixtureShape {
  std::size_t features = 5;
  std::size_t dims = 128;
  std::size_t queries = 128;
};

/// A small trained classifier, serial execution by default, and a query
/// batch whose second half replays its first — at the default shape
/// ServingFixture's: rows 64..127 repeat rows 0..63.
struct ZeroAllocFixture {
  core::Matrix train;
  std::vector<int> y = std::vector<int>(150);
  core::Matrix queries;
  CyberHdClassifier model;

  explicit ZeroAllocFixture(bool parallel = false,
                            EncoderKind encoder = EncoderKind::kRbf,
                            FixtureShape shape = {})
      : train(150, shape.features),
        queries(shape.queries, shape.features),
        model(config(parallel, encoder, shape.dims)) {
    core::Rng rng(17);
    for (std::size_t i = 0; i < train.rows(); ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < train.cols(); ++f) {
        train(i, f) = 0.4f * static_cast<float>(cls) +
                      static_cast<float>(rng.gaussian(0.0, 0.08));
      }
      y[i] = cls;
    }
    const std::size_t half = queries.rows() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      for (std::size_t f = 0; f < queries.cols(); ++f) {
        queries(i, f) = 0.4f * static_cast<float>(i % 3) +
                        static_cast<float>(rng.gaussian(0.0, 0.08));
        queries(i + half, f) = queries(i, f);
      }
    }
    model.fit(train, y, 3);
  }

  static CyberHdConfig config(bool parallel, EncoderKind encoder,
                              std::size_t dims) {
    CyberHdConfig cfg;
    cfg.encoder = encoder;
    cfg.dims = dims;
    cfg.regen_steps = 2;
    cfg.final_epochs = 2;
    cfg.parallel = parallel;
    return cfg;
  }
};

/// Heap allocations performed by `fn()`. Returns 0 unconditionally on
/// sanitizer builds (the counting hooks are compiled out).
template <typename Fn>
std::uint64_t count_allocations(Fn&& fn) {
#ifndef CYBERHD_ZERO_ALLOC_DISABLED
  g_allocs.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocs.load();
#else
  fn();
  return 0;
#endif
}

/// Heap allocations performed by `flush()` after two warmup passes grow
/// every workspace to steady-state capacity.
template <typename Fn>
std::uint64_t allocations_in_steady_state(Fn&& flush) {
  flush();
  flush();
  return count_allocations(flush);
}

/// Pins a counted region at zero allocations. Sanitizer builds count
/// nothing, so there the calling test is skipped instead — after any
/// assertion it made before calling this.
void expect_allocation_free(std::uint64_t allocs) {
#ifdef CYBERHD_ZERO_ALLOC_DISABLED
  (void)allocs;
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  EXPECT_EQ(allocs, 0u);
#endif
}

/// Per-sample predict() and scores() over rows 1..63 of `queries` (63
/// distinct rows) after one warm-up call on row 0, with `model`'s encode
/// cache armed and holding every one of those rows. A one-row block
/// bypasses the cache, so its hits, misses and residency must not move —
/// checked on every build, sanitized ones included. Returns the
/// allocations of the 63 rows' calls.
template <typename Model>
std::uint64_t per_sample_allocations(const Model& model,
                                     const core::Matrix& queries) {
  const EncodeCache* cache = model.encode_cache();
  EXPECT_NE(cache, nullptr);
  if (cache == nullptr) return 0;
  core::Matrix out;
  model.scores_batch(queries, out);  // fills the cache with every row
  const EncodeCacheStats before = cache->stats();
  const std::size_t resident = cache->size();

  std::vector<float> scores(model.num_classes());
  const auto call = [&](std::size_t i) {
    model.predict(queries.row(i));
    model.scores(queries.row(i), scores);
  };
  call(0);
  const std::uint64_t allocs = count_allocations([&] {
    for (std::size_t i = 1; i < 64; ++i) call(i);
  });

  const EncodeCacheStats after = cache->stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(cache->size(), resident);
  return allocs;
}

/// Steady-state allocations of a float scores_batch flush of a model with
/// `encoder` and a `cache_rows`-row encode cache: 1024 holds the working
/// set, so warm flushes borrow every row; 0 turns the cache off, so every
/// row tile-encodes into the workspace staging.
std::uint64_t float_flush_allocations(EncoderKind encoder,
                                      std::size_t cache_rows) {
  ZeroAllocFixture t(/*parallel=*/false, encoder);
  t.model.set_encode_cache(cache_rows);
  core::Matrix out;
  return allocations_in_steady_state(
      [&] { t.model.scores_batch(t.queries, out); });
}

TEST(ZeroAlloc, FloatServingFlushIsAllocationFree) {
  for (const std::size_t cache_rows : {std::size_t{1024}, std::size_t{0}}) {
    SCOPED_TRACE(::testing::Message() << "cache rows " << cache_rows);
    expect_allocation_free(
        float_flush_allocations(EncoderKind::kRbf, cache_rows));
  }
}

TEST(ZeroAlloc, PooledServingFlushIsAllocationFree) {
  if (core::ExecutionContext::process().workers() < 2) {
    GTEST_SKIP() << "the process pool has one worker, so no flush is "
                    "pooled (run with CYBERHD_THREADS >= 2)";
  }
  // 512 rows at F = 78 and D = 512: the encode splits across the pool
  // too (its grain, plan_encode_tile's flow_rows, is at most 256 rows),
  // not only the scoring (grain 32).
  ZeroAllocFixture t(/*parallel=*/true, EncoderKind::kRbf,
                     {.features = 78, .dims = 512, .queries = 512});
  ASSERT_LT(core::ExecutionContext::process().plan_encode_tile(512, 78)
                .flow_rows,
            t.queries.rows());
  QuantizedCyberHd q(t.model, 1);
  core::Matrix out;
  // 4096 rows hold the 256 distinct queries in any shard split; 0 turns
  // the cache off, so every flush encodes all 512 rows on the pool.
  for (const std::size_t cache_rows : {std::size_t{4096}, std::size_t{0}}) {
    SCOPED_TRACE(::testing::Message() << "cache rows " << cache_rows);
    t.model.set_encode_cache(cache_rows);
    q.set_encode_cache(cache_rows);
    {
      SCOPED_TRACE("float");
      expect_allocation_free(allocations_in_steady_state(
          [&] { t.model.scores_batch(t.queries, out); }));
    }
    {
      SCOPED_TRACE("1-bit");
      expect_allocation_free(allocations_in_steady_state(
          [&] { q.scores_batch(t.queries, out); }));
    }
  }
}

TEST(ZeroAlloc, SignProjectionCacheOffFlushIsAllocationFree) {
  expect_allocation_free(
      float_flush_allocations(EncoderKind::kSignProjection, 0));
}

/// Steady-state allocations of a packed scores_batch flush at `bits` with
/// a `cache_rows`-row encode cache: 1024 holds the working set, so warm
/// flushes borrow every row; 0 turns the cache off, so every row
/// tile-encodes and quantizes into per-thread scratch.
std::uint64_t quantized_flush_allocations(int bits, std::size_t cache_rows) {
  ZeroAllocFixture t;
  QuantizedCyberHd q(t.model, bits);
  q.set_encode_cache(cache_rows);
  core::Matrix out;
  return allocations_in_steady_state([&] { q.scores_batch(t.queries, out); });
}

TEST(ZeroAlloc, Quantized1BitServingFlushIsAllocationFree) {
  expect_allocation_free(quantized_flush_allocations(1, 1024));
}

TEST(ZeroAlloc, Quantized8BitServingFlushIsAllocationFree) {
  expect_allocation_free(quantized_flush_allocations(8, 1024));
}

TEST(ZeroAlloc, Quantized1BitCacheOffFlushIsAllocationFree) {
  expect_allocation_free(quantized_flush_allocations(1, 0));
}

TEST(ZeroAlloc, Quantized8BitCacheOffFlushIsAllocationFree) {
  expect_allocation_free(quantized_flush_allocations(8, 0));
}

/// Two disjoint sets of 32 distinct cold rows, each followed by its own
/// replay: rows [0, 32) and [64, 96) are the sets, [32, 64) and [96, 128)
/// repeat them row for row.
core::Matrix cold_blocks() {
  core::Matrix x(128, 5);
  core::Rng rng(29);
  for (const std::size_t set : {std::size_t{0}, std::size_t{64}}) {
    for (std::size_t i = set; i < set + 32; ++i) {
      for (std::size_t f = 0; f < x.cols(); ++f) {
        x(i, f) = 0.4f * static_cast<float>(i % 3) +
                  static_cast<float>(rng.gaussian(0.0, 0.08));
        x(i + 32, f) = x(i, f);
      }
    }
  }
  return x;
}

/// Steady-state allocations of a cold evicting flush through `model`, its
/// encode cache armed with 16 rows in one shard. Flushes alternate between
/// the two sets of cold_blocks(), so no row is resident when its flush
/// probes and every insert evicts. With `replays` each flush is a set plus
/// its replay (32 misses gathered past 32 in-batch replays); without, the
/// set alone (all 32 rows miss, so the block encodes in place). The
/// counted flush's stats are checked on every build.
template <typename Model>
std::uint64_t cold_flush_allocations(Model& model, bool replays) {
  model.set_encode_cache(16, /*shards=*/1);
  const EncodeCache* cache = model.encode_cache();
  EXPECT_NE(cache, nullptr);
  if (cache == nullptr) return 0;
  const core::Matrix x = cold_blocks();
  core::Matrix out(x.rows(), model.num_classes());
  const std::size_t rows = replays ? 64 : 32;
  std::size_t set = 0;
  const auto flush = [&] {
    model.scores_block(x, set, set + rows, out);
    set = 64 - set;
  };
  flush();
  flush();
  const EncodeCacheStats before = cache->stats();
  const std::uint64_t allocs = count_allocations(flush);
  const EncodeCacheStats after = cache->stats();
  EXPECT_EQ(after.misses - before.misses, 32u);
  EXPECT_EQ(after.evictions - before.evictions, 32u);
  EXPECT_EQ(after.hits - before.hits, replays ? 32u : 0u);
  return allocs;
}

TEST(ZeroAlloc, ColdEvictingFloatFlushIsAllocationFree) {
  for (const bool replays : {false, true}) {
    SCOPED_TRACE(replays ? "in-batch replays (gather path)"
                         : "all-miss block (in-place path)");
    ZeroAllocFixture t;
    expect_allocation_free(cold_flush_allocations(t.model, replays));
  }
}

TEST(ZeroAlloc, ColdEvictingQuantized1BitFlushIsAllocationFree) {
  for (const bool replays : {false, true}) {
    SCOPED_TRACE(replays ? "in-batch replays (gather path)"
                         : "all-miss block (in-place path)");
    ZeroAllocFixture t;
    QuantizedCyberHd q(t.model, 1);
    expect_allocation_free(cold_flush_allocations(q, replays));
  }
}

TEST(ZeroAlloc, PerSampleFloatSerialIsAllocationFree) {
  ZeroAllocFixture t;
  t.model.set_encode_cache(1024);
  expect_allocation_free(per_sample_allocations(t.model, t.queries));
}

TEST(ZeroAlloc, PerSampleFloatPooledIsAllocationFree) {
  ZeroAllocFixture t(/*parallel=*/true);
  t.model.set_encode_cache(1024);
  expect_allocation_free(per_sample_allocations(t.model, t.queries));
}

TEST(ZeroAlloc, PerSampleSignProjectionIsAllocationFree) {
  ZeroAllocFixture t(/*parallel=*/false, EncoderKind::kSignProjection);
  t.model.set_encode_cache(1024);
  expect_allocation_free(per_sample_allocations(t.model, t.queries));
}

/// Per-sample allocations of the `bits` snapshot of the fixture's model.
std::uint64_t quantized_per_sample_allocations(int bits) {
  ZeroAllocFixture t;
  QuantizedCyberHd q(t.model, bits);
  q.set_encode_cache(1024);
  return per_sample_allocations(q, t.queries);
}

TEST(ZeroAlloc, PerSampleQuantized1BitIsAllocationFree) {
  expect_allocation_free(quantized_per_sample_allocations(1));
}

TEST(ZeroAlloc, PerSampleQuantized8BitIsAllocationFree) {
  expect_allocation_free(quantized_per_sample_allocations(8));
}

TEST(ZeroAlloc, PerSampleQuantized16BitIsAllocationFree) {
  expect_allocation_free(quantized_per_sample_allocations(16));
}

}  // namespace
}  // namespace cyberhd::hdc
