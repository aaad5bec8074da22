// Unit tests for core/thread_pool: exact range coverage, parallel-result
// equivalence with serial execution, the fixed chunk-to-worker mapping,
// parallel_for reentrancy, callers that find the job slot taken, and
// exceptions thrown by chunks.
#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cyberhd::core {
namespace {

TEST(ThreadPool, SpawnsRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10000);
  pool.parallel_for(
      touched.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          touched[i].fetch_add(1);
        }
      },
      /*grain=*/64);
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSmallRangeRunsInline) {
  ThreadPool pool(4);
  std::vector<int> touched(10, 0);
  pool.parallel_for(
      touched.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++touched[i];
      },
      /*grain=*/256);  // 10 < grain -> direct call, no data race possible
  for (int t : touched) EXPECT_EQ(t, 1);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  const std::size_t n = 100000;
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = 0.001 * static_cast<double>(i);
  std::vector<double> partial(pool.num_threads() * 16, 0.0);
  std::atomic<std::size_t> chunk_id{0};
  pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
    double s = 0;
    for (std::size_t i = begin; i < end; ++i) s += data[i];
    partial[chunk_id.fetch_add(1)] = s;
  });
  const double parallel_sum =
      std::accumulate(partial.begin(), partial.end(), 0.0);
  const double serial_sum = std::accumulate(data.begin(), data.end(), 0.0);
  EXPECT_NEAR(parallel_sum, serial_sum, 1e-6 * serial_sum);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPool, ReusableAcrossManyParallelFors) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(
        1000,
        [&](std::size_t begin, std::size_t end) {
          total.fetch_add(end - begin);
        },
        /*grain=*/16);
  }
  EXPECT_EQ(total.load(), 50u * 1000u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A pool task that calls parallel_for on its own pool must complete
  // (the nested call runs inline on the occupied worker) — this was a
  // guaranteed deadlock before workers carried the thread_local mark.
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_for(
      4,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          pool.parallel_for(
              100,
              [&](std::size_t b, std::size_t e) {
                inner_total.fetch_add(e - b, std::memory_order_relaxed);
              },
              /*grain=*/1);  // force the would-be submission path
        }
      },
      /*grain=*/1);
  EXPECT_EQ(inner_total.load(), 400u);
}

TEST(ThreadPool, ChunkRunsOnTheSameWorkerEveryCallNeverOnTheCaller) {
  // Worker-local scratch stays warm across calls only because chunk c
  // always lands on the same worker.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> first(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::thread::id> ran(3);
    pool.parallel_for(
        3,
        [&ran](std::size_t b, std::size_t) {
          ran[b] = std::this_thread::get_id();
        },
        /*grain=*/1);
    if (round == 0) first = ran;
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(ran[c], first[c]) << "round " << round << " chunk " << c;
      ASSERT_NE(ran[c], caller) << "chunk " << c << " ran on the caller";
    }
  }
  EXPECT_NE(first[0], first[1]);
  EXPECT_NE(first[1], first[2]);
  EXPECT_NE(first[0], first[2]);
}

TEST(ThreadPool, CallerFindingTheSlotTakenRunsInline) {
  // The holder's chunk 0 blocks until released, so its job holds the slot
  // while a second caller arrives: that caller must run its whole range
  // on its own thread without waiting, and the holder's job must still
  // complete. The block gives up after 10 s, so a caller that waits for
  // the slot fails the checks below instead of hanging the test.
  ThreadPool pool(2);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<std::size_t> holder_rows{0};
  std::thread holder([&] {
    pool.parallel_for(
        2,
        [&](std::size_t b, std::size_t e) {
          if (b == 0) {
            entered.store(true, std::memory_order_release);
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!release.load(std::memory_order_acquire) &&
                   std::chrono::steady_clock::now() < give_up) {
              std::this_thread::yield();
            }
          }
          holder_rows.fetch_add(e - b, std::memory_order_relaxed);
        },
        /*grain=*/1);
  });
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();

  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;  // the inline call runs on this thread
  pool.parallel_for(
      100,
      [&](std::size_t b, std::size_t e) {
        ++calls;
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 100u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      /*grain=*/1);
  EXPECT_EQ(calls, 1);

  release.store(true, std::memory_order_release);
  holder.join();
  EXPECT_EQ(holder_rows.load(), 2u);
}

TEST(ThreadPool, ChunkExceptionReachesTheCaller) {
  // A throwing chunk must not end its worker (or the process): the caller
  // gets the exception once every chunk is done, and the pool stays usable.
  ThreadPool pool(2);
  std::atomic<std::size_t> rows{0};
  const auto count_rows = [&rows](std::size_t b, std::size_t e) {
    rows.fetch_add(e - b, std::memory_order_relaxed);
  };
  EXPECT_THROW(pool.parallel_for(
                   2,
                   [&](std::size_t b, std::size_t e) {
                     if (b == 1) throw std::runtime_error("chunk 1");
                     count_rows(b, e);
                   },
                   /*grain=*/1),
               std::runtime_error);
  EXPECT_EQ(rows.load(), 1u);
  pool.parallel_for(2, count_rows, /*grain=*/1);
  EXPECT_EQ(rows.load(), 3u);
}

TEST(ThreadPool, ConcurrentParallelForsFromTwoExternalThreads) {
  // Two client threads driving the same pool concurrently each get their
  // full range exactly once — whichever finds the slot taken runs inline,
  // so neither waits on (or steals completion signals from) the other.
  ThreadPool pool(4);
  constexpr std::size_t kN = 20000;
  std::atomic<std::size_t> total_a{0}, total_b{0};
  auto drive = [&pool](std::atomic<std::size_t>& total) {
    for (int round = 0; round < 20; ++round) {
      pool.parallel_for(
          kN,
          [&total](std::size_t b, std::size_t e) {
            total.fetch_add(e - b, std::memory_order_relaxed);
          },
          /*grain=*/64);
    }
  };
  std::thread a([&] { drive(total_a); });
  std::thread b([&] { drive(total_b); });
  a.join();
  b.join();
  EXPECT_EQ(total_a.load(), 20u * kN);
  EXPECT_EQ(total_b.load(), 20u * kN);
}

}  // namespace
}  // namespace cyberhd::core
