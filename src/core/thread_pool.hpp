// A fixed-size fork-join thread pool whose only operation is parallel_for.
//
// The encoding stage is the library's hot loop: every training epoch encodes
// the whole dataset (a D x F gemv + cos per sample). parallel_for splits the
// sample range into contiguous chunks, which is the parallelization the
// paper describes ("leverages matrix operations to train the encoded data in
// a highly-parallel way").
//
// One job at a time: the caller publishes its callable (by reference), the
// range and the chunk size in a fixed slot under the pool mutex, wakes the
// workers that have a chunk of it, and sleeps until the pending-chunk
// count reaches zero. Nothing is queued, boxed or allocated after
// construction, so a pooled serving flush stays allocation-free.
//
// Concurrency contract (the serving front-end leans on all three):
//
//  * A parallel_for called from one of this pool's workers runs inline:
//    workers carry a thread_local mark of the pool they belong to, so a
//    chunk that splits more work never waits on the worker it occupies.
//  * A second external caller that finds the slot taken runs its whole
//    range inline on its own thread: no caller ever waits for another
//    caller's chunks, so concurrent client streams never serialize here.
//  * Chunk c always runs on worker c, and the caller runs no chunk. A
//    worker's thread-local scratch therefore sees the same chunk shape on
//    every call of a given shape, and is warm after one such call.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/function_ref.hpp"

namespace cyberhd::core {

/// Fixed-size fork-join worker pool.
class ThreadPool {
 public:
  /// Spawn `num_threads` workers (0 = hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Run fn(begin, end) over [0, n) split into min(num_threads, ceil(n /
  /// grain)) contiguous chunks of equal size (the last may be shorter),
  /// chunk c on worker c, and return once every chunk has run. `fn` is
  /// borrowed for the duration of the call. Runs fn(0, n) directly on the
  /// calling thread when n < grain, when the split gives one chunk, when
  /// the caller is a worker of this pool, and when another caller holds
  /// the job slot. When chunks throw, the first exception caught is
  /// rethrown here after every chunk has finished.
  void parallel_for(std::size_t n,
                    FunctionRef<void(std::size_t, std::size_t)> fn,
                    std::size_t grain = 256);

  /// Process-wide default pool (lazily constructed on first use; magic
  /// statics make concurrent first touch from many streams construct it
  /// exactly once). Worker count: hardware_concurrency, or CYBERHD_THREADS
  /// when set to a positive integer (CI pins determinism legs this way).
  static ThreadPool& global();

 private:
  /// The published job. fn == nullptr while the slot is free.
  struct Job {
    const FunctionRef<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 0;   // rows per chunk
    std::size_t chunks = 0;  // chunks (= busy workers) of this job
  };

  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  /// One per worker: a job wakes only the workers that have a chunk of it.
  std::vector<std::condition_variable> wake_;
  std::condition_variable done_;     // the caller: pending_ reached 0
  Job job_;                          // guarded by mutex_
  std::uint64_t generation_ = 0;     // bumped per published job
  std::size_t pending_ = 0;          // chunks of job_ not yet finished
  std::exception_ptr error_;         // first exception a chunk threw
  bool stopping_ = false;
};

}  // namespace cyberhd::core
