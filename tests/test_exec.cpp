// Unit tests for core/exec: cache-topology detection (and its env
// override), the cache-derived tile sizes, and the context's parallel_for
// semantics.
#include "core/exec/execution_context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "core/thread_pool.hpp"

namespace cyberhd::core {
namespace {

TEST(CacheTopology, DetectionYieldsSaneValues) {
  const CacheTopology topo = CacheTopology::detect();
  EXPECT_GE(topo.line_bytes, 16u);
  EXPECT_LE(topo.line_bytes, 1024u);
  EXPECT_GE(topo.l1d_bytes, 4u * 1024);
  EXPECT_GE(topo.l2_bytes, 64u * 1024);
  EXPECT_GE(topo.l2_bytes, topo.l1d_bytes);
}

TEST(CacheTopology, DetectedIsCachedAndConsistent) {
  const CacheTopology& a = CacheTopology::detected();
  const CacheTopology& b = CacheTopology::detected();
  EXPECT_EQ(&a, &b);
}

TEST(CacheTopology, EnvOverridePinsL2) {
  ::setenv("CYBERHD_L2_BYTES", "1048576", 1);
  EXPECT_EQ(CacheTopology::detect().l2_bytes, 1048576u);
  ::setenv("CYBERHD_L2_BYTES", "4m", 1);
  EXPECT_EQ(CacheTopology::detect().l2_bytes, 4u * 1024 * 1024);
  ::setenv("CYBERHD_L2_BYTES", "512k", 1);
  EXPECT_EQ(CacheTopology::detect().l2_bytes, 512u * 1024);
  // Malformed values fall back to detection, never to zero — including
  // negative numbers (which strtoull would wrap to ULLONG_MAX) and
  // absurdly large "cache sizes".
  for (const char* bad : {"banana", "-1", "-4096", "99999g", "1mm", ""}) {
    ::setenv("CYBERHD_L2_BYTES", bad, 1);
    const std::size_t l2 = CacheTopology::detect().l2_bytes;
    EXPECT_GT(l2, 0u) << bad;
    EXPECT_LT(l2, std::size_t{1} << 41) << bad;
  }
  ::unsetenv("CYBERHD_L2_BYTES");
}

TEST(CacheTopology, DetectionYieldsSaneL3) {
  const CacheTopology topo = CacheTopology::detect();
  // The conservative fallback is 8 MiB / 1 domain; real detection can only
  // replace those with plausible values.
  EXPECT_GE(topo.l3_bytes, 512u * 1024);
  EXPECT_GE(topo.l3_domains, 1u);
}

TEST(CacheTopology, EnvOverridePinsL3) {
  ::setenv("CYBERHD_L3_BYTES", "33554432", 1);
  EXPECT_EQ(CacheTopology::detect().l3_bytes, 32u * 1024 * 1024);
  ::setenv("CYBERHD_L3_BYTES", "16m", 1);
  EXPECT_EQ(CacheTopology::detect().l3_bytes, 16u * 1024 * 1024);
  ::setenv("CYBERHD_L3_BYTES", "512k", 1);
  EXPECT_EQ(CacheTopology::detect().l3_bytes, 512u * 1024);
  // Malformed values fall back to detection, never to zero.
  for (const char* bad : {"banana", "-1", "-4096", "99999g", "1mm", ""}) {
    ::setenv("CYBERHD_L3_BYTES", bad, 1);
    const std::size_t l3 = CacheTopology::detect().l3_bytes;
    EXPECT_GT(l3, 0u) << bad;
    EXPECT_LT(l3, std::size_t{1} << 41) << bad;
  }
  ::unsetenv("CYBERHD_L3_BYTES");
}

TEST(CacheTopology, L2AndL3OverridesAreIndependent) {
  ::setenv("CYBERHD_L2_BYTES", "1m", 1);
  ::setenv("CYBERHD_L3_BYTES", "24m", 1);
  const CacheTopology topo = CacheTopology::detect();
  EXPECT_EQ(topo.l2_bytes, 1u * 1024 * 1024);
  EXPECT_EQ(topo.l3_bytes, 24u * 1024 * 1024);
  ::unsetenv("CYBERHD_L2_BYTES");
  ::unsetenv("CYBERHD_L3_BYTES");
}

TEST(ExecutionContext, SerialHasNoPoolProcessHasOne) {
  EXPECT_EQ(ExecutionContext::serial().pool(), nullptr);
  EXPECT_EQ(ExecutionContext::serial().workers(), 1u);
  EXPECT_NE(ExecutionContext::process().pool(), nullptr);
  EXPECT_GE(ExecutionContext::process().workers(), 1u);
}

TEST(ExecutionContext, DefaultConstructionIsSerialActiveKernels) {
  const ExecutionContext ctx;
  EXPECT_EQ(ctx.pool(), nullptr);
  EXPECT_EQ(&ctx.kernels(), &active_kernels());
}

TEST(ExecutionContext, ParallelForRunsInlineWithoutPool) {
  const ExecutionContext ctx;
  std::vector<int> hits(100, 0);
  ctx.parallel_for(100, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ExecutionContext, ParallelForCoversRangeExactlyOnPool) {
  ThreadPool pool(4);
  const ExecutionContext ctx(&pool);
  std::vector<std::atomic<int>> hits(1000);
  ctx.parallel_for(
      1000,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutionContext, ScoreBlockRowsDerivesFromL2) {
  // A 2 MiB L2 at D = 10240 must derive the 16-row block that used to be
  // hand-tuned (2 MiB / 3 / 40 KiB ~ 17 -> pow2 16).
  const CacheTopology two_mb{.line_bytes = 64,
                             .l1d_bytes = 32 * 1024,
                             .l2_bytes = 2 * 1024 * 1024};
  const ExecutionContext ctx(nullptr, nullptr, two_mb);
  EXPECT_EQ(ctx.score_block_rows(10240), 16u);
  // Small hypervectors hit the 64-row cap.
  EXPECT_EQ(ctx.score_block_rows(512), 64u);
  // Huge hypervectors degrade gracefully to one row, never zero.
  EXPECT_EQ(ctx.score_block_rows(100'000'000), 1u);
  // A smaller L2 derives a smaller block.
  const CacheTopology one_mb{.line_bytes = 64,
                             .l1d_bytes = 32 * 1024,
                             .l2_bytes = 1024 * 1024};
  const ExecutionContext small(nullptr, nullptr, one_mb);
  EXPECT_EQ(small.score_block_rows(10240), 8u);
}

TEST(ExecutionContext, ScoreBlockRowsIsMonotonicInDims) {
  const ExecutionContext ctx;
  std::size_t prev = ctx.score_block_rows(64);
  for (std::size_t dims : {128u, 512u, 2048u, 10240u, 65536u}) {
    const std::size_t rows = ctx.score_block_rows(dims);
    EXPECT_LE(rows, prev) << dims;
    EXPECT_GE(rows, 1u) << dims;
    prev = rows;
  }
}

TEST(ExecutionContext, ServingBlockRowsDerivesFromL3) {
  // A 32 MiB shared L3 at D = 10240 derives a 256-row sub-batch
  // (32 MiB / 3 / 40 KiB ~ 273 -> pow2 256), the exact analogue of the
  // L2 -> 16-row derivation of score_block_rows.
  const CacheTopology topo{.line_bytes = 64,
                           .l1d_bytes = 32 * 1024,
                           .l2_bytes = 2 * 1024 * 1024,
                           .l3_bytes = 32 * 1024 * 1024,
                           .l3_domains = 1};
  const ExecutionContext ctx(nullptr, nullptr, topo);
  EXPECT_EQ(ctx.plan_serving(10240).block_rows, 256u);
  // Small hypervectors hit the 4096-row cap.
  EXPECT_EQ(ctx.plan_serving(512).block_rows, 4096u);
  // Huge hypervectors degrade to the L2 scoring tile, never to zero.
  EXPECT_EQ(ctx.plan_serving(100'000'000).block_rows, 1u);
  // A smaller L3 derives a smaller sub-batch.
  CacheTopology small = topo;
  small.l3_bytes = 8 * 1024 * 1024;
  EXPECT_EQ(ExecutionContext(nullptr, nullptr, small)
                .plan_serving(10240)
                .block_rows,
            64u);
  // The sub-batch never drops below the L2 scoring block it feeds, even
  // when a (mis)detected L3 is no bigger than L2.
  CacheTopology tiny = topo;
  tiny.l3_bytes = 2 * 1024 * 1024;
  const ExecutionContext tiny_ctx(nullptr, nullptr, tiny);
  EXPECT_GE(tiny_ctx.plan_serving(10240).block_rows,
            tiny_ctx.score_block_rows(10240));
}

TEST(ExecutionContext, ServingPlanCoversEveryL3Domain) {
  CacheTopology topo{.line_bytes = 64,
                     .l1d_bytes = 32 * 1024,
                     .l2_bytes = 2 * 1024 * 1024,
                     .l3_bytes = 32 * 1024 * 1024,
                     .l3_domains = 2};
  const ExecutionContext ctx(nullptr, nullptr, topo);
  const ServingPlan plan = ctx.plan_serving(10240);
  EXPECT_EQ(plan.block_rows, 256u);
  EXPECT_EQ(plan.domains, 2u);
  EXPECT_EQ(plan.batch_rows, 512u);
  // A zeroed domain count (hand-built topologies) still yields a plan.
  topo.l3_domains = 0;
  const ServingPlan fallback =
      ExecutionContext(nullptr, nullptr, topo).plan_serving(10240);
  EXPECT_EQ(fallback.domains, 1u);
  EXPECT_EQ(fallback.batch_rows, fallback.block_rows);
}

TEST(ExecutionContext, ServingPlanPinnedByL3EnvOverride) {
  // The acceptance pin: CYBERHD_L3_BYTES drives the serving split end to
  // end — detect() -> topology -> planner.
  ::setenv("CYBERHD_L3_BYTES", "12m", 1);
  const ExecutionContext ctx(nullptr, nullptr, CacheTopology::detect());
  EXPECT_EQ(ctx.cache().l3_bytes, 12u * 1024 * 1024);
  // 12 MiB / 3 / 40 KiB ~ 102 -> pow2 64.
  EXPECT_EQ(ctx.plan_serving(10240).block_rows, 64u);
  ::unsetenv("CYBERHD_L3_BYTES");
}

TEST(ExecutionContext, InjectedKernelsAreUsed) {
  const ExecutionContext ctx(nullptr, &scalar_kernels(),
                             CacheTopology::detected());
  EXPECT_EQ(&ctx.kernels(), &scalar_kernels());
}

}  // namespace
}  // namespace cyberhd::core
