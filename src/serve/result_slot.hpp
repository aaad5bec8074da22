// The completion side of a serving request: a caller-owned slot the
// batcher delivers per-row scores into.
//
// Each stream keeps one ResultSlot per outstanding request (an open-loop
// client keeps a window of them). The slot is a single-producer
// single-consumer handoff — the batcher writes scores and timestamps,
// then flips one atomic (sequentially consistent, see publish()); the
// waiting client sees the flip with acquire ordering and may read
// everything the batcher wrote. No mutex, and waiting uses C++20 atomic
// wait (futex-backed on Linux) so an idle client burns no CPU.
//
// Reuse protocol: reset() re-arms the slot for the next request. A slot
// must not be reset or resubmitted while a submission that references it
// is still in flight — wait() first.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cyberhd::serve {

/// How a submission ended. Every submission reaches exactly one terminal
/// status — there is no silent fourth outcome.
enum class RequestStatus : std::uint8_t {
  /// Scores delivered; the slot's scores() are valid.
  kOk = 0,
  /// The server refused the submission (ring full or shutting down).
  /// try_submit also returned false; retry, shed, or back off.
  kRejected,
  /// The request's deadline passed before scoring; the batcher shed it
  /// unscored (deliberately — stale scores would be wasted work).
  kDeadlineExceeded,
  /// The serving model is unavailable (integrity audit found corruption
  /// it could not heal, or scoring failed). No scores were produced.
  kModelUnavailable,
};

/// Per-request completion slot: terminal status, scores (when OK), and
/// submit/complete timestamps.
class ResultSlot {
 public:
  ResultSlot() = default;
  ResultSlot(const ResultSlot&) = delete;
  ResultSlot& operator=(const ResultSlot&) = delete;

  /// Re-arm for a new request delivering `num_classes` scores. Must not
  /// race a pending delivery (wait() for the previous request first).
  void reset(std::size_t num_classes) {
    scores_.resize(num_classes);
    submitted_at_us_ = 0;
    completed_at_us_ = 0;
    status_ = RequestStatus::kOk;
    ready_.store(0, std::memory_order_relaxed);
  }

  /// True once the request reached a terminal status (scores delivered
  /// or explicit failure).
  bool ready() const noexcept {
    return ready_.load(std::memory_order_acquire) != 0;
  }

  /// Block until the request reaches a terminal status (futex wait, no
  /// spin).
  void wait() const noexcept {
    while (ready_.load(std::memory_order_acquire) == 0) {
      ready_.wait(0, std::memory_order_acquire);
    }
  }

  /// The terminal status. Valid once ready() — ordered by the same
  /// store/acquire pair as the scores.
  RequestStatus status() const noexcept {
    assert(ready());
    return status_;
  }

  /// Shorthand: terminal and scored.
  bool ok() const noexcept { return status() == RequestStatus::kOk; }

  /// The delivered per-class scores. Valid once ready() with status OK.
  std::span<const float> scores() const noexcept {
    assert(ready() && status_ == RequestStatus::kOk);
    return scores_;
  }

  /// Steady-clock stamp (µs) the server accepted the request at.
  std::uint64_t submitted_at_us() const noexcept { return submitted_at_us_; }
  /// Steady-clock stamp (µs) the batch containing this request finished
  /// at. completed - submitted is the request's serving latency.
  std::uint64_t completed_at_us() const noexcept { return completed_at_us_; }

  /// Server side: record the accept time (called before the request is
  /// published to the ring).
  void mark_submitted(std::uint64_t now_us) noexcept {
    submitted_at_us_ = now_us;
  }

  /// Server side: deliver the scores and wake the waiter. `scores` must
  /// have the size reset() armed.
  void deliver(std::span<const float> scores, std::uint64_t now_us) {
    assert(scores.size() == scores_.size());
    std::copy(scores.begin(), scores.end(), scores_.begin());
    completed_at_us_ = now_us;
    status_ = RequestStatus::kOk;
    publish();
  }

  /// Server side: terminate the request without scores — rejected, shed
  /// past its deadline, or failed by an unavailable model. Same
  /// publish/notify protocol as deliver().
  void fail(RequestStatus status, std::uint64_t now_us) noexcept {
    assert(status != RequestStatus::kOk);
    completed_at_us_ = now_us;
    status_ = status;
    publish();
  }

 private:
  /// Flip ready_ and wake the waiter. The store must be seq_cst, not
  /// just release: libstdc++'s notify_all skips the futex wake when its
  /// waiter count reads zero, and a waiter bumps that count (seq_cst)
  /// before its last load of ready_. A release store may stay in the
  /// store buffer past the count load (x86 lets a later load pass an
  /// earlier store), so both sides can miss each other and the waiter
  /// sleeps forever. A seq_cst store is ordered before that load.
  void publish() noexcept {
    ready_.store(1, std::memory_order_seq_cst);
    ready_.notify_all();
  }

  std::vector<float> scores_;
  std::uint64_t submitted_at_us_ = 0;
  std::uint64_t completed_at_us_ = 0;
  RequestStatus status_ = RequestStatus::kOk;
  std::atomic<std::uint32_t> ready_{0};
};

}  // namespace cyberhd::serve
