#include "serve/server.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "core/env.hpp"
#include "serve/snapshot.hpp"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace cyberhd::serve {

std::uint64_t Server::linger_from_env() noexcept {
  // 1 s ceiling: beyond that is a typo, not a batching policy.
  return core::env::u64("CYBERHD_BATCH_LINGER_US", 200, 0, 1'000'000);
}

Server::Server(const core::Classifier& model, std::size_t input_dim,
               ServerConfig config)
    : model_(model),
      input_dim_(input_dim),
      num_classes_(model.num_classes()),
      max_batch_rows_(config.max_batch_rows),
      linger_us_(config.max_linger_us >= 0
                     ? static_cast<std::uint64_t>(config.max_linger_us)
                     : linger_from_env()),
      queue_(config.queue_capacity),
      epoch_(std::chrono::steady_clock::now()) {
  assert(input_dim_ > 0);
  assert(num_classes_ > 0 && "serve a fitted model");
  if (max_batch_rows_ == 0) {
    // Consult the model's planner with an input-shaped probe. Planner-
    // aware models (CyberHD) derive the answer from topology alone —
    // quantized models plan from *packed* bytes per row, so their
    // batches come back 4-32x larger for the same L3 budget; the
    // base-class default answers probe.rows(), which the guard below
    // turns into a sane batch.
    core::Matrix probe(1, input_dim_);
    max_batch_rows_ = model_.preferred_batch_rows(probe);
    if (max_batch_rows_ <= 1) max_batch_rows_ = 256;
  }
  batch_x_.resize(max_batch_rows_, input_dim_);
  batch_scores_.resize(max_batch_rows_, num_classes_);
  pending_.reserve(max_batch_rows_);

  const FaultConfig faults =
      config.faults.has_value() ? *config.faults : FaultConfig::from_env();
  if (faults.enabled()) injector_ = std::make_unique<FaultInjector>(faults);
  audit_us_ = config.audit_interval_us >= 0
                  ? static_cast<std::uint64_t>(config.audit_interval_us)
                  : core::env::u64("CYBERHD_AUDIT_US", 50'000, 0,
                                   3'600'000'000ULL);
  watchdog_interval_us_ =
      config.watchdog_us >= 0
          ? static_cast<std::uint64_t>(config.watchdog_us)
          : core::env::u64("CYBERHD_WATCHDOG_US", 500'000, 0,
                           3'600'000'000ULL);

  batcher_ = std::thread([this] { batcher_loop(); });
  if (watchdog_interval_us_ > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Server::~Server() { shutdown(); }

std::uint64_t Server::now_us() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

bool Server::try_submit(std::span<const float> features, ResultSlot& slot,
                        std::uint64_t deadline_us) {
  // Before the slot, the ring or a counter: the batcher copies input_dim.
  if (features.size() != input_dim_) {
    throw std::invalid_argument("try_submit: features.size() != input_dim");
  }
  // Pusher accounting closes the shutdown race: the batcher's final drain
  // waits until no try_submit is between the stopping check and its push,
  // so an accepted request can never slip in behind the last drain.
  // seq_cst on both the increment and the stopping load pairs with the
  // seq_cst store in shutdown(): a submitter that read stopping == false
  // ordered its increment before that read, so the quiescence wait sees
  // it until the push (and the decrement) completed.
  pushers_.fetch_add(1, std::memory_order_seq_cst);
  if (stopping_.load(std::memory_order_seq_cst)) {
    pushers_.fetch_sub(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    // Rejections are terminal too: the slot carries REJECTED so a caller
    // watching only the slot sees the same outcome as the return value.
    slot.reset(num_classes_);
    slot.fail(RequestStatus::kRejected, now_us());
    return false;
  }
  slot.reset(num_classes_);
  const std::uint64_t now = now_us();
  slot.mark_submitted(now);
  const bool pushed = queue_.try_push(
      Request{features.data(), &slot, now,
              deadline_us != 0 ? now + deadline_us : 0});
  pushers_.fetch_sub(1, std::memory_order_release);
  if (!pushed) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    slot.fail(RequestStatus::kRejected, now_us());
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  // Wake a sleeping batcher once the ring holds what it waits for: one
  // request while it idles, the rest of its batch while it lingers. An
  // arrival that leaves a lingering batch short sends nothing; the
  // deadline ends that sleep. seq_cst on the sleep flag (both sides)
  // makes the common interleavings airtight: a batcher that published
  // its sleep intent (after wake_at_) before this load gets notified; a
  // batcher that publishes after re-checks the ring under wake_mutex_
  // and sees our push. The exchange lets one producer notify per sleep.
  // The one theoretically thin ordering (our ring claim racing its
  // re-check) is bounded by wait_for_work's finite sleep — a missed
  // wakeup costs at most the linger deadline or the idle backstop, never
  // a hang (and the watchdog kicks it too).
  if (batcher_sleeping_.load(std::memory_order_seq_cst) &&
      queue_.size_approx() >= wake_at_.load(std::memory_order_relaxed) &&
      batcher_sleeping_.exchange(false, std::memory_order_seq_cst)) {
    batcher_wakes_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_one();
  }
  return true;
}

bool Server::submit(std::span<const float> features, ResultSlot& slot,
                    std::uint64_t deadline_us) {
  for (;;) {
    if (try_submit(features, slot, deadline_us)) return true;
    if (stopping_.load(std::memory_order_acquire)) return false;
    // Backpressure: the ring is full, so the batcher is busy scoring.
    // Yield rather than spin-burn the core it needs.
    std::this_thread::yield();
  }
}

void Server::wait_for_work(std::uint64_t max_wait_us, std::size_t wake_at) {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  wake_at_.store(wake_at, std::memory_order_relaxed);
  batcher_sleeping_.store(true, std::memory_order_seq_cst);
  // Re-check after publishing sleep intent: producers that pushed before
  // seeing the flag did not notify, and theirs may be the arrivals that
  // complete the batch.
  if (queue_.size_approx() < wake_at &&
      !stopping_.load(std::memory_order_relaxed)) {
    wake_cv_.wait_for(lock, std::chrono::microseconds(std::max<std::uint64_t>(
                                1, max_wait_us)));
  }
  batcher_sleeping_.store(false, std::memory_order_relaxed);
}

void Server::fail_pending(std::size_t n, RequestStatus status) {
  const std::uint64_t done = now_us();
  for (std::size_t i = 0; i < n; ++i) {
    pending_[i].slot->fail(status, done);
  }
  failed_.fetch_add(n, std::memory_order_relaxed);
  completed_.fetch_add(n, std::memory_order_relaxed);
}

void Server::maybe_audit(bool forced) {
  IntegrityAuditor* auditor = auditor_.load(std::memory_order_acquire);
  if (auditor == nullptr) return;
  if (!forced) {
    if (audit_us_ == 0) return;
    const std::uint64_t now = now_us();
    if (now < next_audit_us_) return;
    next_audit_us_ = now + audit_us_;
  }
  audits_.fetch_add(1, std::memory_order_relaxed);
  switch (auditor->audit_and_heal()) {
    case AuditOutcome::kClean:
      break;
    case AuditOutcome::kRecovered:
      corruptions_.fetch_add(1, std::memory_order_relaxed);
      recoveries_.fetch_add(1, std::memory_order_relaxed);
      // A successful heal lifts an earlier latch: the model is trusted
      // again.
      model_unavailable_.store(false, std::memory_order_relaxed);
      break;
    case AuditOutcome::kFailed:
      corruptions_.fetch_add(1, std::memory_order_relaxed);
      // No intact snapshot: serving scores from a known-corrupt model
      // is the one forbidden outcome, so fail requests explicitly until
      // an operator (or a later audit) restores integrity.
      model_unavailable_.store(true, std::memory_order_relaxed);
      break;
  }
}

void Server::flush(std::size_t n) {
  assert(n > 0 && n <= max_batch_rows_);
  // 1. Shed expired work before spending any scoring on it. Survivors
  // are compacted in place (write index w) so the scoring stage sees a
  // dense batch.
  const std::uint64_t shed_now = now_us();
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = pending_[i];
    if (r.deadline_us != 0 && shed_now > r.deadline_us) {
      r.slot->fail(RequestStatus::kDeadlineExceeded, shed_now);
      expired_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (w != i) {
      std::span<const float> src = batch_x_.row(i);
      std::copy(src.begin(), src.end(), batch_x_.row(w).begin());
      pending_[w] = r;
    }
    ++w;
  }
  if (w == 0) {
    pending_.clear();
    return;
  }

  // 2. Injected faults (null injector == disabled == zero cost).
  bool injected_encode_failure = false;
  bool audit_now = false;
  if (injector_ != nullptr) {
    if (const std::uint64_t delay = injector_->draw_delay_us(); delay > 0) {
      injected_delays_.fetch_add(1, std::memory_order_relaxed);
      // The stall the watchdog is for: the batcher goes dark with work
      // pending.
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    const double rate = injector_->draw_bitflip_rate();
    if (rate > 0.0 && injector_->has_bitflip_hook() &&
        auditor_.load(std::memory_order_acquire) != nullptr) {
      // Corrupt only when an auditor can heal before scoring — flipping
      // model bits with nobody to catch it would make the server serve
      // silently wrong scores, the exact failure mode under test.
      injector_->inject_bitflips(rate);
      injected_bitflips_.fetch_add(1, std::memory_order_relaxed);
      audit_now = true;
    }
    injected_encode_failure = injector_->draw_encode_failure();
  }

  // 3. Integrity audit — forced right after injected corruption (so the
  // heal lands before scoring and OK results stay bit-identical to a
  // clean replay), periodic otherwise.
  maybe_audit(audit_now);

  // 4. Score the survivors, or fail them explicitly. Never both.
  if (model_unavailable_.load(std::memory_order_relaxed) ||
      injected_encode_failure) {
    if (injected_encode_failure) {
      injected_encode_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    fail_pending(w, RequestStatus::kModelUnavailable);
    pending_.clear();
    return;
  }
  try {
    // Score through the same virtual hook scores_batch drives, which
    // splits its stages across the model's pool; per-row results are
    // bit-identical to a serial scores_batch of the same rows.
    model_.scores_block(batch_x_, 0, w, batch_scores_);
  } catch (const std::exception&) {
    // A scoring failure (a genuine one, not injected) must not take the
    // batcher down or hang the batch's clients.
    fail_pending(w, RequestStatus::kModelUnavailable);
    pending_.clear();
    return;
  }
  const std::uint64_t done = now_us();
  for (std::size_t i = 0; i < w; ++i) {
    pending_[i].slot->deliver(batch_scores_.row(i).subspan(0, num_classes_),
                              done);
  }
  ok_.fetch_add(w, std::memory_order_relaxed);
  completed_.fetch_add(w, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_rows_.fetch_add(w, std::memory_order_relaxed);
  pending_.clear();
}

void Server::batcher_loop() {
#if defined(__linux__)
  // A lingering batch ends when its sleep times out at the deadline. The
  // default 50 µs timer slack lets the kernel run that timeout up to
  // 50 µs late, added to every linger flush; 1 ns asks for it on time.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  // Ring occupancy that wakes a lingering batcher: the rest of the batch,
  // capped at half the ring so a ring smaller than a batch still drains
  // before it rejects.
  const std::size_t ring_wake_cap =
      std::max<std::size_t>(1, queue_.capacity() / 2);
  std::uint64_t deadline_us = 0;  // 0 = no pending batch
  for (;;) {
    // Liveness signal for the watchdog: every pass through the loop —
    // draining, flushing, or about to sleep — moves the heartbeat.
    heartbeat_.fetch_add(1, std::memory_order_relaxed);

    // Drain whatever the streams have queued, up to one batch.
    Request r;
    while (pending_.size() < max_batch_rows_ && queue_.try_pop(r)) {
      const float* src = r.features;
      float* dst = batch_x_.row(pending_.size()).data();
      std::copy(src, src + input_dim_, dst);
      pending_.push_back(r);
    }

    if (pending_.size() >= max_batch_rows_) {  // size trigger
      size_flushes_.fetch_add(1, std::memory_order_relaxed);
      flush(pending_.size());
      deadline_us = 0;
      continue;
    }

    const bool stopping = stopping_.load(std::memory_order_seq_cst);
    if (!pending_.empty()) {
      const std::uint64_t now = now_us();
      if (deadline_us == 0) deadline_us = now + linger_us_;
      if (stopping || linger_us_ == 0 || now >= deadline_us) {  // deadline
        if (!stopping) linger_flushes_.fetch_add(1, std::memory_order_relaxed);
        flush(pending_.size());
        deadline_us = 0;
        continue;
      }
      // Linger: sleep toward the deadline; only the arrival that fills
      // the batch wakes us early.
      wait_for_work(deadline_us - now,
                    std::min(max_batch_rows_ - pending_.size(), ring_wake_cap));
      continue;
    }

    deadline_us = 0;
    if (stopping) {
      // Quiescence: wait out stragglers inside try_submit, then drain
      // whatever they published and complete it. After this no submit
      // can be accepted (they all observe stopping first).
      while (pushers_.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
      while (queue_.try_pop(r)) {
        const float* src = r.features;
        std::copy(src, src + input_dim_,
                  batch_x_.row(pending_.size()).data());
        pending_.push_back(r);
        if (pending_.size() >= max_batch_rows_) flush(pending_.size());
      }
      if (!pending_.empty()) flush(pending_.size());
      return;
    }

    // Idle housekeeping: corruption that lands while no traffic flows
    // should still be healed before the next request arrives.
    maybe_audit(false);

    // Idle: sleep until the first arrival pokes us (bounded as a
    // belt-and-braces backstop against any missed wakeup).
    wait_for_work(1000, 1);
  }
}

void Server::watchdog_loop() {
  std::uint64_t last_beat = heartbeat_.load(std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!stopping_.load(std::memory_order_acquire)) {
    watchdog_cv_.wait_for(
        lock, std::chrono::microseconds(watchdog_interval_us_));
    if (stopping_.load(std::memory_order_acquire)) return;
    const std::uint64_t beat = heartbeat_.load(std::memory_order_relaxed);
    const std::uint64_t accepted =
        accepted_.load(std::memory_order_relaxed);
    const std::uint64_t completed =
        completed_.load(std::memory_order_relaxed);
    if (beat == last_beat && accepted > completed) {
      // A whole interval with work in flight and no batcher progress.
      // Observability first (the stat is the alarm), then the one safe
      // recovery action: kick the batcher's condition variable, which
      // cures the only benign cause (a missed wakeup). Anything the kick
      // does not cure — a wedged scoring call — keeps ticking the stat.
      watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> wake(wake_mutex_);
      wake_cv_.notify_all();
    }
    last_beat = beat;
  }
}

void Server::shutdown() {
  stopping_.store(true, std::memory_order_seq_cst);
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_all();
  }
  {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_cv_.notify_all();
  }
  if (batcher_.joinable()) batcher_.join();
  if (watchdog_.joinable()) watchdog_.join();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batcher_wakes = batcher_wakes_.load(std::memory_order_relaxed);
  s.size_flushes = size_flushes_.load(std::memory_order_relaxed);
  s.linger_flushes = linger_flushes_.load(std::memory_order_relaxed);
  const std::uint64_t rows = batched_rows_.load(std::memory_order_relaxed);
  s.mean_batch_rows =
      s.batches == 0 ? 0.0
                     : static_cast<double>(rows) /
                           static_cast<double>(s.batches);
  s.audits = audits_.load(std::memory_order_relaxed);
  s.corruptions = corruptions_.load(std::memory_order_relaxed);
  s.recoveries = recoveries_.load(std::memory_order_relaxed);
  s.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  s.injected_delays = injected_delays_.load(std::memory_order_relaxed);
  s.injected_encode_failures =
      injected_encode_failures_.load(std::memory_order_relaxed);
  s.injected_bitflips = injected_bitflips_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cyberhd::serve
