#include "core/thread_pool.hpp"

#include <algorithm>

#include "core/env.hpp"
#include "core/exec/execution_context.hpp"

namespace cyberhd::core {

namespace {

/// The pool (and group) the calling thread works for, when it is a pool
/// worker. This is what makes parallel_for reentrancy-safe: a task that
/// calls back into its own pool runs the nested body inline instead of
/// queueing work it would then deadlock waiting for.
struct WorkerMark {
  const ThreadPool* pool = nullptr;
  std::size_t group = ThreadPool::kNoGroup;
};
thread_local WorkerMark t_worker;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::size_t num_groups) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_groups = std::clamp<std::size_t>(num_groups, 1, num_threads);
  group_queues_.resize(num_groups);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    // Contiguous split: worker i serves group i * G / n, so each group's
    // workers are neighbors.
    const std::size_t group = i * num_groups / num_threads;
    workers_.emplace_back([this, group] { worker_loop(group); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::current_group() const noexcept {
  return t_worker.pool == this ? t_worker.group : kNoGroup;
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_worker.pool == this;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::take_task(std::size_t group, std::function<void()>& out) {
  // Affine work first: a group's queue holds the sub-batches pinned to it.
  if (!group_queues_[group].empty()) {
    out = std::move(group_queues_[group].front());
    group_queues_[group].pop();
    return true;
  }
  if (!tasks_.empty()) {
    out = std::move(tasks_.front());
    tasks_.pop();
    return true;
  }
  return false;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (n == 0) return;
  const std::size_t nthreads = num_threads();
  // Inline for tiny ranges, single-worker pools, and the reentrant case
  // (a pool task splitting more work across its own pool must not block
  // on a worker it is occupying).
  if (n < grain || nthreads == 1 || on_worker_thread()) {
    fn(0, n);
    return;
  }
  const std::size_t chunks = std::min(nthreads, (n + grain - 1) / grain);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  TaskGroup group(*this);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    group.submit([&fn, begin, end] { fn(begin, end); });
  }
  // Per-caller wait: returns when *these* chunks are done, even while
  // other streams keep feeding the pool.
  group.wait();
}

std::function<void()> ThreadPool::TaskGroup::wrap(
    std::function<void()> task) {
  remaining_.fetch_add(1, std::memory_order_relaxed);
  return [this, task = std::move(task)] {
    task();
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.notify_all();
    }
  };
}

void ThreadPool::TaskGroup::submit(std::function<void()> task) {
  pool_.submit(wrap(std::move(task)));
}

void ThreadPool::TaskGroup::submit_to_group(std::size_t group,
                                            std::function<void()> task) {
  auto wrapped = wrap(std::move(task));
  const std::size_t g = group % pool_.num_groups();
  {
    std::lock_guard lock(pool_.mutex_);
    pool_.group_queues_[g].push(std::move(wrapped));
    ++pool_.in_flight_;
  }
  // notify_all, not notify_one: a one-notify could land on a worker of a
  // different group, which would re-check its predicate and go back to
  // sleep — losing the only wakeup meant for group g.
  pool_.cv_task_.notify_all();
}

void ThreadPool::TaskGroup::wait() {
  for (;;) {
    const std::size_t r = remaining_.load(std::memory_order_acquire);
    if (r == 0) return;
    remaining_.wait(r, std::memory_order_acquire);
  }
}

ThreadPool& ThreadPool::global() {
  // Magic statics make concurrent first touch construct the pool exactly
  // once (every other thread blocks until the winner finishes) — the
  // serving front-end's N streams may all race here on their first
  // submission. CYBERHD_THREADS pins the worker count (CI determinism
  // legs; deployments cap cores); the workers form one group per
  // shared-L3 domain.
  static ThreadPool pool(
      static_cast<std::size_t>(env::u64("CYBERHD_THREADS", 0, 1, 4096)),
      CacheTopology::detected().l3_domains);
  return pool;
}

void ThreadPool::worker_loop(std::size_t group) {
  t_worker = {this, group};
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this, group] {
        return stopping_ || !tasks_.empty() ||
               !group_queues_[group].empty();
      });
      if (!take_task(group, task)) {
        if (stopping_) return;
        continue;  // woken for another group's task; sleep again
      }
    }
    task();
    {
      std::lock_guard lock(mutex_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace cyberhd::core
