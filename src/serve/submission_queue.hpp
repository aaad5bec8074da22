// The serving front-end's ingest ring: a bounded lock-free MPSC queue.
//
// N client streams call try_push concurrently; the single batcher thread
// pops. The structure is the classic Vyukov bounded queue: a power-of-two
// ring of slots, each carrying a ticket ("sequence") that encodes whose
// turn the slot is. A producer claims a slot by CASing the shared enqueue
// cursor, writes its request, then publishes by bumping the slot ticket —
// so the consumer never observes a half-written request, and a full ring
// is detected without any lock (the slot's ticket still belongs to the
// previous lap). Rejection on full is the design, not a failure mode: the
// ring is the server's backpressure boundary, and callers decide whether
// to retry, shed, or block.
//
// Memory ordering: ticket loads are acquire, ticket stores are release —
// the request payload is ordered by the ticket alone. The cursors
// themselves only need relaxed/CAS ordering (they are claims, not
// publications), which is also why their difference (size_approx) is an
// estimate, good for deciding when to wake the consumer but never for
// deciding what to pop. Producers are wait-free except for the claim CAS
// loop; the single consumer is wait-free.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace cyberhd::serve {

class ResultSlot;

/// One in-flight classification request: a borrowed view of the feature
/// row plus the completion slot the scores come back through. The caller
/// owns both and must keep them alive (and the features unchanged) until
/// the slot reports completion.
struct Request {
  const float* features = nullptr;  ///< input_dim floats, caller-owned
  ResultSlot* slot = nullptr;       ///< completion slot, caller-owned
  std::uint64_t submitted_at_us = 0;  ///< steady-clock stamp at accept
  /// Absolute steady-clock deadline (µs since the server's epoch); 0 means
  /// no deadline. The batcher sheds expired requests before scoring them.
  std::uint64_t deadline_us = 0;
};

/// Bounded lock-free multi-producer single-consumer ring of Requests.
class SubmissionQueue {
 public:
  /// A ring of at least `capacity` slots (rounded up to a power of two,
  /// minimum 2 — the ticket arithmetic needs the pow2 mask).
  explicit SubmissionQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap *= 2;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].ticket.store(i, std::memory_order_relaxed);
    }
  }

  SubmissionQueue(const SubmissionQueue&) = delete;
  SubmissionQueue& operator=(const SubmissionQueue&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }

  /// Enqueue from any thread. Returns false when the ring is full (the
  /// backpressure signal — nothing was enqueued).
  bool try_push(const Request& request) {
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t ticket = slot.ticket.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(ticket) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        // Our lap: claim the slot by advancing the cursor past it.
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          slot.value = request;
          // Publish: ticket pos+1 means "filled, lap pos" to the consumer.
          slot.ticket.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry with the new claim point.
      } else if (diff < 0) {
        // Ticket is a full lap behind: the consumer has not freed this
        // slot yet — the ring is full.
        return false;
      } else {
        // Another producer claimed pos first; chase the cursor.
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Dequeue. Single consumer only (the batcher thread); returns false
  /// when the ring is empty.
  bool try_pop(Request& out) {
    const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & mask_];
    const std::size_t ticket = slot.ticket.load(std::memory_order_acquire);
    const auto diff = static_cast<std::intptr_t>(ticket) -
                      static_cast<std::intptr_t>(pos + 1);
    if (diff != 0) return false;  // producer not done (or nothing) here yet
    out = slot.value;
    // Free the slot for the next lap: ticket pos+capacity means "empty,
    // lap pos+capacity" to producers.
    slot.ticket.store(pos + capacity_, std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Approximate occupancy: claimed minus popped slots, read from the two
  /// cursors, in [0, capacity()]. Any thread may call it. A slot counts
  /// from its claim, a moment before its request is published, and the
  /// two cursor loads are not one snapshot, so the value can be off while
  /// pushes or pops race it; with neither in flight it is exact.
  std::size_t size_approx() const noexcept {
    // Dequeue first: the enqueue cursor read after it has moved at least
    // as far, so the difference is only negative when the loads reorder.
    const std::size_t deq = dequeue_pos_.load(std::memory_order_relaxed);
    const std::size_t enq = enqueue_pos_.load(std::memory_order_relaxed);
    const auto n = static_cast<std::intptr_t>(enq - deq);
    if (n <= 0) return 0;
    return std::min(static_cast<std::size_t>(n), capacity_);
  }

 private:
  struct Slot {
    std::atomic<std::size_t> ticket{0};
    Request value;
  };

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  // Cursors on separate cache lines: producers hammer one, the consumer
  // the other.
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

}  // namespace cyberhd::serve
