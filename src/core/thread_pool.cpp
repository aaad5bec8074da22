#include "core/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/env.hpp"

namespace cyberhd::core {

namespace {

/// The pool the calling thread works for, when it is a pool worker. This
/// is what makes parallel_for reentrancy-safe: a chunk that calls back
/// into its own pool runs the nested body inline instead of waiting for a
/// worker it occupies.
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  wake_ = std::vector<std::condition_variable>(num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  for (auto& wake : wake_) wake.notify_one();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              FunctionRef<void(std::size_t, std::size_t)> fn,
                              std::size_t grain) {
  if (n == 0) return;
  if (n < grain || t_worker_of == this) {
    fn(0, n);
    return;
  }
  const std::size_t split = std::min(num_threads(), (n + grain - 1) / grain);
  const std::size_t chunk = (n + split - 1) / split;
  const std::size_t chunks = (n + chunk - 1) / chunk;  // none left empty
  if (chunks == 1) {
    fn(0, n);
    return;
  }
  std::unique_lock lock(mutex_);
  if (job_.fn != nullptr) {  // another caller holds the slot
    lock.unlock();
    fn(0, n);
    return;
  }
  job_ = {&fn, n, chunk, chunks};
  pending_ = chunks;
  ++generation_;
  lock.unlock();
  for (std::size_t c = 0; c < chunks; ++c) wake_[c].notify_one();
  lock.lock();
  done_.wait(lock, [this] { return pending_ == 0; });
  job_.fn = nullptr;
  if (std::exception_ptr error = std::exchange(error_, nullptr)) {
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::global() {
  // Magic statics make concurrent first touch construct the pool exactly
  // once (every other thread blocks until the winner finishes) — the
  // serving front-end's N streams may all race here on their first
  // submission. CYBERHD_THREADS pins the worker count (CI determinism
  // legs; deployments cap cores).
  static ThreadPool pool(
      static_cast<std::size_t>(env::u64("CYBERHD_THREADS", 0, 1, 4096)));
  return pool;
}

void ThreadPool::worker_loop(std::size_t index) {
  t_worker_of = this;
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    // A job with fewer chunks than workers leaves the rest asleep; their
    // next job is simply a later generation.
    wake_[index].wait(lock, [&] {
      return stopping_ || (generation_ != seen && index < job_.chunks);
    });
    if (stopping_) return;
    seen = generation_;
    const Job job = job_;
    lock.unlock();
    const std::size_t begin = index * job.chunk;
    std::exception_ptr error;
    try {
      (*job.fn)(begin, std::min(job.n, begin + job.chunk));
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr && error_ == nullptr) error_ = std::move(error);
    if (--pending_ == 0) done_.notify_one();
  }
}

}  // namespace cyberhd::core
