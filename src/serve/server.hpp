// The concurrent serving front-end: many client streams, one coalescing
// batcher, the existing staged scoring pipeline underneath.
//
// Shape (one box per thread):
//
//   stream 0 ─┐ try_submit                     ┌─ deliver → ResultSlot 0
//   stream 1 ─┤   (lock-free ring,   batcher   ├─ deliver → ResultSlot 1
//      ...    ├──────────────────▶  coalesce ──┤      ...
//   stream N ─┘                     + score    └─ deliver → ResultSlot N
//
// The batcher drains the SubmissionQueue into a batch, flushing when the
// batch reaches the planner's preferred size (size trigger) or when the
// oldest pending request has lingered for CYBERHD_BATCH_LINGER_US
// microseconds (deadline trigger — bounds tail latency at low load).
// A lingering batcher sleeps until its deadline and is woken early only
// by the arrival that fills its batch: it publishes the ring occupancy
// it waits for (one request while idle, the rest of the batch while
// lingering), and try_submit notifies only once the ring holds that
// many. Arrivals that leave the batch short cost no wake-up.
// Each flush gathers the borrowed feature rows into one matrix, scores it
// with one Classifier::scores_block call — the same stage-split
// encode→score pipeline scores_batch drives, which splits its own stages
// across the model's thread pool — and delivers each row's scores to its
// stream's ResultSlot.
//
// Correctness contract: the pipeline is row-wise deterministic for any
// block split, so every request's scores are bit-identical to a serial
// scores_batch replay of that stream's flows alone, no matter how the
// batcher interleaved and coalesced the streams. The concurrency stress
// suite (tests/test_serve.cpp) pins exactly that.
//
// Shutdown contract: every accepted request reaches a terminal status.
// shutdown() waits for in-flight try_submit calls to quiesce (a seq_cst
// pusher counter closes the race with the stopping flag), drains the
// ring, and flushes the remainder before the batcher exits. Submissions
// arriving after shutdown began are rejected.
//
// Failure contract (PR 8): every submission ends in exactly one
// RequestStatus — scored (OK), refused at the ring (REJECTED), shed
// unscored past its deadline (DEADLINE_EXCEEDED), or failed by a model
// the server cannot trust (MODEL_UNAVAILABLE). The batcher sheds expired
// requests before spending scoring work on them; an installed
// IntegrityAuditor is polled between flushes (and forced after any
// injected corruption) so corruption is healed from snapshot BEFORE the
// next batch scores — an OK result is always bit-identical to a serial
// replay against the clean model. When healing fails, the server latches
// model-unavailable and fails requests explicitly instead of serving
// garbage. A watchdog thread observes the batcher's heartbeat and kicks
// its condition variable on a stall, self-healing a missed wakeup.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/classifier.hpp"
#include "core/matrix.hpp"
#include "serve/fault_injector.hpp"
#include "serve/result_slot.hpp"
#include "serve/submission_queue.hpp"

namespace cyberhd::serve {

class IntegrityAuditor;  // serve/snapshot.hpp

struct ServerConfig {
  /// Submission ring slots (rounded up to a power of two). A full ring
  /// rejects try_submit — the server's backpressure boundary.
  std::size_t queue_capacity = 4096;
  /// Max microseconds the oldest pending request waits for the batch to
  /// fill before a deadline flush. 0 flushes every drain immediately;
  /// negative reads CYBERHD_BATCH_LINGER_US (default 200).
  long max_linger_us = -1;
  /// Rows per coalesced batch. 0 asks the model's planner
  /// (preferred_batch_rows — for CyberHD the L3-derived serving batch).
  std::size_t max_batch_rows = 0;
  /// Ignored. Every flush is one scores_block call on the batcher thread,
  /// whose stages run on the served model's own execution context. The
  /// field stays only so existing callers that set it keep compiling.
  bool domain_affine = true;
  /// Fault injection: nullopt reads the CYBERHD_FAULT_* environment
  /// (off unless one of the probabilities is set there); pass an
  /// explicit FaultConfig to pin it — FaultConfig{} forces off. When
  /// disabled the server constructs no injector at all.
  std::optional<FaultConfig> faults;
  /// Integrity-audit cadence in µs (polled on the batcher thread through
  /// the auditor installed with set_auditor). 0 disables periodic audits
  /// (forced post-corruption audits still run); negative reads
  /// CYBERHD_AUDIT_US (default 50000 = 50 ms).
  long audit_interval_us = -1;
  /// Watchdog poll interval in µs. 0 disables the watchdog thread;
  /// negative reads CYBERHD_WATCHDOG_US (default 500000 = 500 ms).
  long watchdog_us = -1;
};

struct ServerStats {
  std::uint64_t accepted = 0;   ///< requests the ring took
  std::uint64_t rejected = 0;   ///< try_submit calls refused (full/stopping)
  /// Requests that reached a terminal status — ok + expired + failed.
  /// Equals accepted after shutdown(): nothing is dropped silently.
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;         ///< scores delivered
  std::uint64_t expired = 0;    ///< shed past their deadline, unscored
  std::uint64_t failed = 0;     ///< terminated MODEL_UNAVAILABLE
  std::uint64_t batches = 0;    ///< flushes that scored
  /// Notifications try_submit sent to a sleeping batcher — about one per
  /// flush when arrivals are sparse, not one per arrival.
  std::uint64_t batcher_wakes = 0;
  /// Flushes triggered by a full batch (the size trigger).
  std::uint64_t size_flushes = 0;
  /// Flushes triggered by the linger deadline (every flush at linger 0).
  /// Flushes while shutting down count in neither trigger.
  std::uint64_t linger_flushes = 0;
  /// Mean coalesced rows per scoring flush (batching effectiveness).
  double mean_batch_rows = 0.0;
  std::uint64_t audits = 0;     ///< integrity audits run
  std::uint64_t corruptions = 0;  ///< audits that found the model corrupt
  std::uint64_t recoveries = 0;   ///< corruptions healed from snapshot
  /// Watchdog intervals with in-flight work but no batcher heartbeat.
  /// Approximate by design (a long linger sleep can trip it); each tick
  /// also kicks the batcher awake, so a missed wakeup self-heals.
  std::uint64_t watchdog_stalls = 0;
  std::uint64_t injected_delays = 0;           ///< fault injector: stalls
  std::uint64_t injected_encode_failures = 0;  ///< fault injector: flushes
  std::uint64_t injected_bitflips = 0;         ///< fault injector: corruptions
};

/// The serving front-end over one fitted classifier. The model must
/// outlive the server and must not be refitted while serving (scoring
/// calls run concurrently on pool workers).
class Server {
 public:
  /// Serve `model` (fitted; num_classes() > 0) over `input_dim`-wide
  /// feature rows. Starts the batcher thread immediately.
  Server(const core::Classifier& model, std::size_t input_dim,
         ServerConfig config = {});
  /// Implies shutdown().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit one flow. `features` (input_dim floats) and `slot` are
  /// borrowed until `slot` reports completion. `deadline_us` is a
  /// relative latency budget (0 = none): a request still unscored when
  /// it expires is shed with status DEADLINE_EXCEEDED instead of wasting
  /// scoring work. Returns false when the ring is full or the server is
  /// shutting down — the slot then carries status REJECTED, so every
  /// submission ends in exactly one terminal status either way. Throws
  /// std::invalid_argument, touching neither `slot` nor the server, when
  /// features.size() != input_dim. Thread-safe, lock-free.
  bool try_submit(std::span<const float> features, ResultSlot& slot,
                  std::uint64_t deadline_us = 0);

  /// Blocking submit: retries through backpressure until accepted.
  /// Returns false only when the server is shutting down.
  bool submit(std::span<const float> features, ResultSlot& slot,
              std::uint64_t deadline_us = 0);

  /// Install the integrity auditor the batcher polls between flushes
  /// (borrowed; must outlive serving or be cleared with nullptr first).
  /// Install it before traffic for full coverage — the pointer handoff
  /// itself is release/acquire, so a late install is safe, just blind to
  /// earlier flushes.
  void set_auditor(IntegrityAuditor* auditor) noexcept {
    auditor_.store(auditor, std::memory_order_release);
  }

  /// The fault injector, or nullptr when faults are disabled. Tests wire
  /// its bitflip hook to fault::inject_hdc on the served model.
  FaultInjector* fault_injector() noexcept { return injector_.get(); }

  /// Stop accepting, complete every accepted request, join the batcher.
  /// Idempotent; the destructor calls it.
  void shutdown();

  ServerStats stats() const;

  std::size_t input_dim() const noexcept { return input_dim_; }
  std::size_t num_classes() const noexcept { return num_classes_; }
  /// Resolved rows per coalesced batch (after planner consultation).
  std::size_t max_batch_rows() const noexcept { return max_batch_rows_; }
  /// Resolved linger deadline in microseconds.
  std::uint64_t linger_us() const noexcept { return linger_us_; }

  /// The CYBERHD_BATCH_LINGER_US knob: microseconds, at most 1 s; 200
  /// when unset or (with a warning) malformed. 0 is a valid "never
  /// linger".
  static std::uint64_t linger_from_env() noexcept;

 private:
  void batcher_loop();
  void watchdog_loop();
  /// Shed expired work, run injected faults and due audits, then score
  /// the surviving rows and deliver per-row results — or fail them
  /// explicitly when the model cannot be trusted.
  void flush(std::size_t n);
  /// Fail rows [0, n) of the pending batch with `status`.
  void fail_pending(std::size_t n, RequestStatus status);
  /// Run the installed auditor when `forced` or the periodic interval
  /// elapsed; latch model_unavailable_ on an unhealable corruption.
  void maybe_audit(bool forced);
  /// Sleep until a producer sees at least `wake_at` requests in the ring
  /// (or `max_wait_us` elapses). Publishes the threshold and sleep intent,
  /// then re-checks the ring, so pushes that landed before the intent was
  /// visible are not missed.
  void wait_for_work(std::uint64_t max_wait_us, std::size_t wake_at);
  std::uint64_t now_us() const noexcept;

  const core::Classifier& model_;
  std::size_t input_dim_;
  std::size_t num_classes_;
  std::size_t max_batch_rows_;
  std::uint64_t linger_us_;

  SubmissionQueue queue_;
  std::thread batcher_;

  // Batcher-owned scratch (sized once, reused every flush).
  core::Matrix batch_x_;
  core::Matrix batch_scores_;
  std::vector<Request> pending_;

  // Fault tolerance: the injector (null when disabled — one pointer
  // check per flush is the entire steady-state cost), the polled
  // auditor, and the model-unavailable latch the batcher sets when an
  // audit finds corruption it cannot heal.
  std::unique_ptr<FaultInjector> injector_;
  std::atomic<IntegrityAuditor*> auditor_{nullptr};
  std::uint64_t audit_us_ = 0;       // 0 = periodic audits off
  std::uint64_t next_audit_us_ = 0;  // batcher-thread only
  std::atomic<bool> model_unavailable_{false};

  // Watchdog: the batcher bumps the heartbeat each loop iteration; the
  // watchdog thread flags intervals where work was in flight but the
  // heartbeat never moved, and kicks wake_cv_ as the recovery action.
  std::uint64_t watchdog_interval_us_ = 0;  // 0 = no watchdog thread
  std::atomic<std::uint64_t> heartbeat_{0};
  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;

  // Producer→batcher wakeup (Dekker-style sleep/notify handshake). The
  // batcher publishes wake_at_, the ring occupancy worth waking it for,
  // before its sleep flag; the producer that notifies clears the flag,
  // so one sleep takes one notification.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> batcher_sleeping_{false};
  std::atomic<std::size_t> wake_at_{1};

  // Shutdown handshake.
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> pushers_{0};  // try_submit calls in flight

  // Stats (relaxed ticks; stats() assembles a consistent-enough view).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_rows_{0};
  std::atomic<std::uint64_t> batcher_wakes_{0};
  std::atomic<std::uint64_t> size_flushes_{0};
  std::atomic<std::uint64_t> linger_flushes_{0};
  std::atomic<std::uint64_t> audits_{0};
  std::atomic<std::uint64_t> corruptions_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> watchdog_stalls_{0};
  std::atomic<std::uint64_t> injected_delays_{0};
  std::atomic<std::uint64_t> injected_encode_failures_{0};
  std::atomic<std::uint64_t> injected_bitflips_{0};

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace cyberhd::serve
