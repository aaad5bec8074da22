// A fixed-size thread pool with per-caller completion tracking, worker
// groups, and a reentrancy-safe parallel_for.
//
// The encoding stage is the library's hot loop: every training epoch encodes
// the whole dataset (a D x F gemv + cos per sample). parallel_for splits the
// sample range into contiguous chunks, which is the parallelization the
// paper describes ("leverages matrix operations to train the encoded data in
// a highly-parallel way").
//
// Concurrency contract (the serving front-end leans on all three):
//
//  * parallel_for tracks completion per caller (a TaskGroup under the
//    hood), so two threads driving parallel_for on the same pool each wait
//    only for their own chunks — concurrent client streams never serialize
//    on global pool idleness.
//  * parallel_for called from inside a pool task runs inline instead of
//    deadlocking on its own worker: workers carry a thread_local marker of
//    the pool they belong to. This is what lets a whole serving sub-batch
//    run as one task whose inner stages still call parallel_for.
//  * Workers are partitioned into `num_groups` groups (one per shared-L3
//    domain in the process pool; see ThreadPool::global()). submit() feeds
//    the shared queue any worker drains; TaskGroup::submit_to_group feeds a
//    per-group queue only that group's workers drain — how the serving
//    batcher pins each planner sub-batch to the workers of one L3 domain
//    instead of splitting every stage blindly across the machine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cyberhd::core {

/// Fixed-size worker pool. Tasks are std::function<void()>; exceptions in
/// tasks terminate (tasks in this library are noexcept by construction).
class ThreadPool {
 public:
  /// "Not a worker of this pool" sentinel of current_group().
  static constexpr std::size_t kNoGroup = ~std::size_t{0};

  /// Spawn `num_threads` workers (0 = hardware_concurrency, min 1) split
  /// into `num_groups` round-robin-contiguous groups (clamped to
  /// [1, num_threads]; group g gets workers [g*n/G, (g+1)*n/G)).
  explicit ThreadPool(std::size_t num_threads = 0,
                      std::size_t num_groups = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const noexcept { return workers_.size(); }
  std::size_t num_groups() const noexcept { return group_queues_.size(); }

  /// Group index of the calling thread when it is a worker of this pool,
  /// kNoGroup otherwise (external threads, workers of other pools).
  std::size_t current_group() const noexcept;
  /// True when the calling thread is a worker of this pool — parallel_for
  /// and TaskGroup::wait must not block on the pool from such a thread.
  bool on_worker_thread() const noexcept;

  /// Enqueue one task on the shared queue (any worker runs it).
  void submit(std::function<void()> task);

  /// Block until every submitted task (all callers, all groups) has
  /// finished. Deadlocks if called from a worker thread — use TaskGroup
  /// for per-caller waiting instead.
  void wait_idle();

  /// Run fn(begin, end) over [0, n) split into roughly equal contiguous
  /// chunks, one per worker, and wait for completion of *these* chunks
  /// only. Falls back to a direct fn(0, n) call for tiny ranges
  /// (n < grain), single-worker pools, and — the reentrant case — when the
  /// calling thread is itself a worker of this pool.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t grain = 256);

  /// A batch of tasks whose completion is awaited by the submitting
  /// caller alone. The serving batcher uses one per coalesced batch:
  /// submit each planner sub-batch to one worker group, wait for exactly
  /// those sub-batches while other streams keep the pool busy.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) noexcept : pool_(pool) {}
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;
    /// Outstanding tasks must be waited for before destruction.
    ~TaskGroup() { wait(); }

    /// Enqueue on the shared queue, counted toward this group.
    void submit(std::function<void()> task);
    /// Enqueue on group `group`'s queue (only that group's workers run
    /// it), counted toward this group. group is taken modulo num_groups().
    void submit_to_group(std::size_t group, std::function<void()> task);
    /// Block until every task submitted through *this* TaskGroup is done.
    /// Must not be called from a worker of the same pool (the submit
    /// helpers in ExecutionContext fall back to inline execution there).
    void wait();

   private:
    std::function<void()> wrap(std::function<void()> task);

    ThreadPool& pool_;
    std::atomic<std::size_t> remaining_{0};
  };

  /// Process-wide default pool (lazily constructed on first use; magic
  /// statics make concurrent first touch from many streams construct it
  /// exactly once). Worker count: hardware_concurrency, or CYBERHD_THREADS
  /// when set to a positive integer (CI pins determinism legs this way).
  /// Group count: one group per detected shared-L3 domain.
  static ThreadPool& global();

 private:
  void worker_loop(std::size_t group);
  /// Pop the next runnable task for a worker of `group`. Caller holds
  /// mutex_; returns false when no task is available.
  bool take_task(std::size_t group, std::function<void()>& out);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;               // shared queue
  std::vector<std::queue<std::function<void()>>> group_queues_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;  // submitted, not yet finished (all queues)
  bool stopping_ = false;
};

}  // namespace cyberhd::core
