// The serving workloads: a fitted CyberHD model served through
// serve::Server under open-loop load.
//
//   hot-1bit   — the 1-bit QuantizedCyberHd (the edge artifact of the
//                paper's Table I / Fig. 5) over a fixed population of ~1k
//                distinct flows with Zipf-like popularity, well under the
//                encode cache's capacity, cache warmed before timing;
//   cold-float — the float CyberHdClassifier over a population at least 16x
//                the cache's capacity, visited in a fixed cyclic order, so
//                every probe misses, encodes, inserts and evicts.
//
// Load model: one generator thread sends each flow at its due time
// (t0 + i / rate) whether or not earlier verdicts came back; one harvester
// thread waits for the results in submission order with ResultSlot::wait(),
// as a caller does. Latency runs from a flow's due time until wait()
// returns on its result, so a stall anywhere (server, generator, host) is
// charged to every flow it delays.
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "core/rng.hpp"
#include "hdc/encode_cache.hpp"
#include "nids/datasets.hpp"
#include "nids/preprocess.hpp"
#include "serve/result_slot.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = cyberhd::core;
namespace hdc = cyberhd::hdc;
namespace nids = cyberhd::nids;
namespace serve = cyberhd::serve;

constexpr std::uint32_t kNoLatency = ~std::uint32_t{0};
constexpr std::uint32_t kDoneBit = 1u << 31;
/// Where p50_us and p99_us sit among the fixed-rate windows: the 1st
/// percentile of the per-window figures, the latency of the run's quietest
/// stretches. On a shared VM the host's speed flips between states from
/// one second to the next, and hypervisor steal lands in millisecond chunks
/// on any of the three threads a flow's latency runs through; the share of
/// windows each state takes then sets the median window (or the 10th
/// percentile), so those measure the host's weather rather than the program.
constexpr double kQuietWindow = 0.01;
/// Fixed-rate phases and capacity probes alternate in this many rounds, and
/// set-ups and fits run between them, so every measurement samples the
/// whole run: this class of host changes speed from one second to the next.
constexpr int kRounds = 6;

std::uint32_t sat32(std::int64_t ns) {
  return ns <= 0 ? 0
                 : static_cast<std::uint32_t>(std::min<std::int64_t>(
                       ns, kNoLatency - 1));
}

/// The served traffic: a population of distinct flows, the order flows
/// draw from it, and each population row's reference scores (a serial
/// scores_batch replay of the rows on the served model).
struct Traffic {
  core::Matrix pop;
  std::vector<std::uint32_t> order;  // power-of-two length, cycled
  core::Matrix ref;
  std::uint32_t row_of(std::uint64_t i) const {
    return order[i & (order.size() - 1)];
  }
};

/// Caller-owned result slots, reused round-robin across flows. Every slot
/// is armed for `classes` scores up front, so their storage is allocated
/// before the served model is set up.
struct Slots {
  Slots(std::size_t n, std::size_t classes)
      : mask(n - 1), slot(new serve::ResultSlot[n]) {
    if (n == 0 || (n & (n - 1)) != 0) {
      throw std::invalid_argument("slot count must be a power of two");
    }
    for (std::size_t i = 0; i < n; ++i) slot[i].reset(classes);
  }
  std::size_t size() const { return mask + 1; }
  std::size_t mask;
  std::unique_ptr<serve::ResultSlot[]> slot;
};

struct PhaseSpec {
  const char* name = "";
  double rate = 0.0;     // offered flows/s (open loop)
  double seconds = 0.0;
  /// > 0: closed loop instead — keep this many flows in flight, send the
  /// next as soon as one completes (the saturation probe).
  std::size_t closed_window = 0;
  bool record = false;   // keep per-flow send/submit/visible stamps
  std::size_t window_flows = 1000;  // flows per latency-percentile window
  /// > 0: stop sending once this many flows are in flight — a capacity
  /// trial whose backlog already implies latency far past the limit has
  /// failed, and sending on would only overflow the ring.
  std::uint64_t abort_backlog = 0;
};

/// Per-flow records of an open-loop phase. One log serves phase after
/// phase: reserve() allocates it for the largest phase before the served
/// model is set up, so the harness's memory does not grow while serving.
struct FlowLog {
  std::vector<std::uint32_t> lat_ns;   // due -> visible; kNoLatency if not OK
  std::vector<std::uint32_t> late_ns;  // generator lateness (send - due)
  std::vector<std::int64_t> send_ns, submitted_ns, visible_ns;  // record
  std::vector<std::uint8_t> accepted;                            // record
  mutable std::vector<std::uint32_t> scratch;  // whole-phase quantiles

  void reserve(std::size_t n) {
    lat_ns.assign(n, 0);
    late_ns.assign(n, 0);
    scratch.assign(n, 0);
  }
  /// q-quantile of `v[begin, end)` in µs.
  double quantile_us(const std::vector<std::uint32_t>& v, double q,
                     std::size_t begin = 0) const {
    scratch.assign(v.begin() + static_cast<std::ptrdiff_t>(begin), v.end());
    return quantile_inplace(scratch, q) / 1e3;
  }
};

/// One phase's outcome. Its per-flow records stay in `log` until the log
/// runs the next phase.
struct Phase {
  PhaseSpec spec;
  const FlowLog* log = nullptr;
  std::uint64_t sent = 0, ok = 0, rejected = 0, expired = 0, failed = 0,
                mismatched = 0;
  std::int64_t t0 = 0;
  std::int64_t gen_cpu_ns = 0, harv_cpu_ns = 0, proc_cpu_ns = 0;
  std::uint64_t gen_blocked = 0;
  bool aborted = false;
  double closed_fps = 0.0;  // closed loop: completions/s after ramp-up
  std::vector<double> window_fps;  // closed loop: per-window rates
  std::vector<std::pair<std::int64_t, std::uint64_t>> bursts;  // closed loop

  std::uint64_t not_ok() const { return rejected + expired + failed; }
  /// q-quantile of latency in µs per window of spec.window_flows
  /// consecutive flows (failures count as missing).
  std::vector<double> window_quantiles_us(double q) const {
    std::vector<double> per;
    const std::vector<std::uint32_t>& lat = log->lat_ns;
    std::vector<std::uint32_t> win;
    for (std::size_t i = 0; i < lat.size(); i += spec.window_flows) {
      win.assign(lat.begin() + static_cast<std::ptrdiff_t>(i),
                 lat.begin() + static_cast<std::ptrdiff_t>(std::min(
                                   lat.size(), i + spec.window_flows)));
      if (win.size() == spec.window_flows || per.empty()) {
        per.push_back(quantile_inplace(win, q) / 1e3);
      }
    }
    return per;
  }
  /// Per-window q-quantile of latency, then its `across`-quantile over the
  /// windows (the median window by default).
  double window_quantile_us(double q, double across = 0.5) const {
    return quantile(window_quantiles_us(q), across);
  }
  /// q-quantile of the last tenth of the flows: a growing backlog shows
  /// here first.
  double last_tenth_quantile_us(double q) const {
    return log->quantile_us(log->lat_ns, q, log->lat_ns.size() * 9 / 10);
  }
  double cpu_us_per_flow() const {
    return static_cast<double>(proc_cpu_ns - gen_cpu_ns - harv_cpu_ns) /
           1e3 / static_cast<double>(std::max<std::uint64_t>(1, ok));
  }
  double late_us(double q) const { return log->quantile_us(log->late_ns, q); }
  bool behind() const { return gen_blocked > 0 || late_us(0.99) > 100.0; }
  void print() const {
    std::printf(
        "  phase %-10s rate %10.0f/s  sent %9llu  ok %9llu  rejected %llu"
        "  expired %llu  failed %llu  mismatched %llu",
        spec.name, spec.closed_window > 0 ? closed_fps : spec.rate,
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(rejected),
        static_cast<unsigned long long>(expired),
        static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(mismatched));
    if (spec.closed_window == 0) {
      const std::vector<double> p99s = window_quantiles_us(0.99);
      std::printf("  late p99 %.1fus max %.1fus%s%s  p50 %.1fus p99 %.1fus"
                  " (quietest 1%% of %zu windows of %zu flows; median window"
                  " p50 %.1fus p99 %.1fus; window p99 %.1f..%.1fus; whole "
                  "%.1fus)",
                  late_us(0.99), late_us(1.0),
                  behind() ? " GENERATOR-BEHIND" : "",
                  aborted ? " ABORTED" : "",
                  window_quantile_us(0.50, kQuietWindow),
                  quantile(p99s, kQuietWindow), p99s.size(), spec.window_flows,
                  window_quantile_us(0.50), median(p99s), quantile(p99s, 0.0),
                  quantile(p99s, 1.0), log->quantile_us(log->lat_ns, 0.99));
    }
    std::printf("\n");
    std::fflush(stdout);
  }
};

/// Completion rates of a closed-loop phase from its result bursts (start,
/// rows): each window's rate counts the rows of its bursts after the
/// first, over the time between the first and the last burst's start
/// (which must span half the window or more), for each of three windows
/// of [from, to).
std::vector<double> burst_rates(
    const std::vector<std::pair<std::int64_t, std::uint64_t>>& bursts,
    std::int64_t from, std::int64_t to) {
  std::vector<double> rates;
  for (int w = 0; w < 3; ++w) {
    const std::int64_t a = from + (to - from) * w / 3;
    const std::int64_t b = from + (to - from) * (w + 1) / 3;
    std::int64_t first = -1, last = -1;
    std::uint64_t rows = 0;
    for (const auto& [start, n] : bursts) {
      if (start < a || start >= b) continue;
      if (first < 0) {
        first = start;
      } else {
        rows += n;
        last = start;
      }
    }
    if (last > first && last - first >= (b - a) / 2) {
      rates.push_back(static_cast<double>(rows) /
                      (static_cast<double>(last - first) / 1e9));
    }
  }
  return rates;
}

/// Drive one phase against `server`: a generator thread sends on schedule
/// (or, closed loop, whenever the window allows), a harvester thread
/// collects results in submission order and checks every OK score against
/// the reference bit for bit.
Phase run_phase(serve::Server& server, const Traffic& traffic, Slots& slots,
                const PhaseSpec& spec, FlowLog& log) {
  Phase ph;
  ph.spec = spec;
  ph.log = &log;
  const bool closed = spec.closed_window > 0;
  const std::uint64_t n =
      closed ? 0
             : static_cast<std::uint64_t>(
                   std::llround(spec.rate * spec.seconds));
  log.lat_ns.assign(n, kNoLatency);
  log.late_ns.assign(n, 0);
  if (spec.record) {
    log.send_ns.assign(n, 0);
    log.submitted_ns.assign(n, 0);
    log.visible_ns.assign(n, 0);
    log.accepted.assign(n, 0);
  }
  const double period_ns = closed ? 0.0 : 1e9 / spec.rate;
  const std::size_t classes = traffic.ref.cols();
  std::atomic<std::uint32_t> sent{0};
  std::atomic<std::uint64_t> harvested{0};
  // Lead time so both threads are running before the first flow is due.
  ph.t0 = now_ns() + 2'000'000;
  const std::int64_t deadline =
      ph.t0 + static_cast<std::int64_t>(spec.seconds * 1e9);
  const std::int64_t ramp_end =
      ph.t0 + static_cast<std::int64_t>(spec.seconds * 0.25e9);
  const auto due = [&](std::uint64_t i) {
    return ph.t0 + static_cast<std::int64_t>(static_cast<double>(i) *
                                             period_ns);
  };

  g_progress.phase.store(spec.name);
  const std::int64_t proc0 = process_cpu_ns();
  std::thread generator([&] {
    const std::int64_t cpu0 = thread_cpu_ns();
    std::uint64_t i = 0;
    for (;; ++i) {
      std::int64_t t = now_ns();
      std::int64_t due_i = t;
      if (closed) {
        if (t >= deadline) break;
        while (i >= harvested.load(std::memory_order_acquire) +
                        spec.closed_window &&
               t < deadline) {
          cpu_relax();
          t = now_ns();
        }
        if (t >= deadline) break;
        due_i = t;
      } else {
        if (i >= n) break;
        due_i = due(i);
        while (t < due_i) {
          cpu_relax();
          t = now_ns();
        }
        // A schedule a whole second behind cannot describe the offered
        // rate any more (the host stalled, or the rate is beyond what one
        // generator thread sends): stop instead of sending a late flood.
        if (t - due_i > 1'000'000'000 ||
            (spec.abort_backlog > 0 &&
             i >= harvested.load(std::memory_order_acquire) +
                      spec.abort_backlog)) {
          ph.aborted = true;
          break;
        }
      }
      if (i >= harvested.load(std::memory_order_acquire) + slots.size()) {
        ++ph.gen_blocked;  // every slot in flight: the schedule slips
        while (i >= harvested.load(std::memory_order_acquire) + slots.size()) {
          cpu_relax();
        }
        t = now_ns();
      }
      const bool accepted = server.try_submit(
          traffic.pop.row(traffic.row_of(i)), slots.slot[i & slots.mask]);
      if (!closed) log.late_ns[i] = sat32(t - due_i);
      if (spec.record) {
        log.send_ns[i] = t;
        log.submitted_ns[i] = now_ns();
        log.accepted[i] = accepted ? 1 : 0;
      }
      sent.store(static_cast<std::uint32_t>(i + 1), std::memory_order_release);
      if ((i & 4095) == 0) g_progress.sent.store(i, std::memory_order_relaxed);
    }
    sent.store(static_cast<std::uint32_t>(i) | kDoneBit,
               std::memory_order_release);
    ph.gen_cpu_ns = thread_cpu_ns() - cpu0;
  });
  std::thread harvester([&] {
    const std::int64_t cpu0 = thread_cpu_ns();
    std::int64_t last_visible = 0;
    for (std::uint64_t k = 0;; ++k) {
      // Caught up with the generator: poll for its next send (it is at
      // most one inter-arrival gap away while the phase runs).
      std::uint32_t s = sent.load(std::memory_order_acquire);
      bool done = false;
      for (int spins = 0; (s & ~kDoneBit) <= k; ++spins) {
        if ((s & kDoneBit) != 0) {
          done = true;
          break;
        }
        if (spins < 4096) {
          cpu_relax();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        s = sent.load(std::memory_order_acquire);
      }
      if (done) {
        ph.sent = k;
        break;
      }
      // Wait for the result as a caller does. main()'s watchdog fails the
      // run if the slot turns ready but this wait() never returns.
      serve::ResultSlot& slot = slots.slot[k & slots.mask];
      g_progress.waits.store(
          g_progress.waits.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      g_progress.waiting_on.store(&slot, std::memory_order_release);
      slot.wait();
      g_progress.waiting_on.store(nullptr, std::memory_order_release);
      const std::int64_t visible = now_ns();
      switch (slot.status()) {
        case serve::RequestStatus::kOk: {
          ++ph.ok;
          const auto expect = traffic.ref.row(traffic.row_of(k));
          if (std::memcmp(slot.scores().data(), expect.data(),
                          classes * sizeof(float)) != 0) {
            ++ph.mismatched;
          }
          if (!closed) log.lat_ns[k] = sat32(visible - due(k));
          break;
        }
        case serve::RequestStatus::kRejected:
          ++ph.rejected;
          break;
        case serve::RequestStatus::kDeadlineExceeded:
          ++ph.expired;
          break;
        case serve::RequestStatus::kModelUnavailable:
          ++ph.failed;
          break;
      }
      if (closed) {
        // Results land in flush-sized bursts: a gap of more than 20 µs
        // between two results starts a new burst.
        if (ph.bursts.empty() || visible - last_visible > 20'000) {
          ph.bursts.push_back({visible, 0});
        }
        ++ph.bursts.back().second;
        last_visible = visible;
      } else if (spec.record) {
        log.visible_ns[k] = visible;
      }
      harvested.store(k + 1, std::memory_order_release);
      if ((k & 4095) == 0) {
        g_progress.harvested.store(k, std::memory_order_relaxed);
      }
    }
    ph.harv_cpu_ns = thread_cpu_ns() - cpu0;
  });
  generator.join();
  harvester.join();
  ph.proc_cpu_ns = process_cpu_ns() - proc0;
  if (closed) {
    ph.window_fps = burst_rates(ph.bursts, ramp_end, deadline);
    ph.closed_fps = median(ph.window_fps);
  }
  return ph;
}

/// Every pinned server setting, explicitly (nothing read from the
/// environment): ring size, linger, faults off, no periodic audits, the
/// default watchdog period.
serve::ServerConfig server_config(const Options& opt) {
  serve::ServerConfig c;
  c.queue_capacity = opt.ring_slots;
  c.max_linger_us = opt.linger_us;
  c.max_batch_rows = 0;  // the model's planner decides
  c.domain_affine = true;
  c.faults = serve::FaultConfig{};
  c.audit_interval_us = 0;
  c.watchdog_us = 500'000;
  return c;
}

/// Indices of the first `want` pairwise-distinct rows of `x` (byte
/// equality), in row order.
std::vector<std::size_t> distinct_rows(const core::Matrix& x,
                                       std::size_t want) {
  std::unordered_multimap<std::uint64_t, std::size_t> seen;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < x.rows() && out.size() < want; ++i) {
    const std::uint64_t h = hdc::EncodeCache::hash_row(x.row(i));
    bool dup = false;
    const auto [lo, hi] = seen.equal_range(h);
    for (auto it = lo; it != hi && !dup; ++it) {
      dup = std::memcmp(x.row(it->second).data(), x.row(i).data(),
                        x.cols() * sizeof(float)) == 0;
    }
    if (dup) continue;
    seen.emplace(h, i);
    out.push_back(i);
  }
  return out;
}

/// The flow order: Zipf(1) popularity over the population (hot), or one
/// cyclic pass over it (cold). Flow i draws order[i mod order.size()], so
/// a cyclic order needs a power-of-two population.
std::vector<std::uint32_t> flow_order(std::size_t pop, bool zipf,
                                      std::uint64_t seed) {
  if (!zipf) {
    if ((pop & (pop - 1)) != 0) {
      throw std::invalid_argument("cyclic population must be a power of two");
    }
    std::vector<std::uint32_t> order(pop);
    std::iota(order.begin(), order.end(), 0u);
    return order;
  }
  std::vector<double> cdf(pop);
  double acc = 0.0;
  for (std::size_t j = 0; j < pop; ++j) {
    acc += 1.0 / static_cast<double>(j + 1);
    cdf[j] = acc;
  }
  core::Rng rng(seed ^ 0x21bfULL);
  std::vector<std::uint32_t> order(std::size_t{1} << 20);
  for (std::uint32_t& o : order) {
    const auto it =
        std::lower_bound(cdf.begin(), cdf.end(), rng.next_double() * acc);
    o = static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(pop) - 1, it - cdf.begin()));
  }
  return order;
}

struct ServedModels {
  std::unique_ptr<hdc::CyberHdClassifier> loaded;
  std::unique_ptr<hdc::QuantizedCyberHd> quantized;
  const core::Classifier& served() const {
    return quantized != nullptr
               ? static_cast<const core::Classifier&>(*quantized)
               : static_cast<const core::Classifier&>(*loaded);
  }
  hdc::EncodeCache* cache() const {
    return quantized != nullptr ? quantized->encode_cache()
                                : loaded->encode_cache();
  }
};

/// The stage decomposition of a traced phase: per-flow submit, queue wait,
/// delivery and unattributed remainder; per-flush model span.
void report_serve_stages(Report& rep, const Phase& ph,
                         std::vector<BlockCall> calls, Tracer& tracer) {
  // Blocks of one flush overlap in time (the batcher waits for all of
  // them before the next flush), so a block starting after every earlier
  // block ended opens a new flush.
  std::sort(calls.begin(), calls.end(),
            [](const BlockCall& a, const BlockCall& b) {
              return a.start < b.start;
            });
  struct Flush {
    std::int64_t start, end;
    std::uint64_t rows;
  };
  std::vector<Flush> flushes;
  for (const BlockCall& c : calls) {
    if (flushes.empty() || c.start > flushes.back().end) {
      flushes.push_back({c.start, c.end, c.rows});
    } else {
      flushes.back().end = std::max(flushes.back().end, c.end);
      flushes.back().rows += c.rows;
    }
  }
  std::vector<double> submit_ns, wait_us, deliver_us, unattributed_us,
      flush_us;
  for (const Flush& f : flushes) {
    flush_us.push_back(static_cast<double>(f.end - f.start) / 1e3);
  }
  // FIFO: with one generator, the a-th accepted flow is row a of the
  // concatenated flushes.
  std::size_t fi = 0;
  std::uint64_t base = 0;
  std::uint64_t accepted = 0;
  bool mapped = true;
  const FlowLog& log = *ph.log;
  for (std::size_t k = 0; k < log.lat_ns.size(); ++k) {
    if (log.accepted[k] == 0) continue;
    while (fi < flushes.size() && accepted >= base + flushes[fi].rows) {
      base += flushes[fi].rows;
      ++fi;
    }
    ++accepted;
    if (fi >= flushes.size() || log.lat_ns[k] == kNoLatency) {
      mapped = false;
      continue;
    }
    const Flush& f = flushes[fi];
    const double sub = static_cast<double>(log.submitted_ns[k] - log.send_ns[k]);
    const double wait =
        static_cast<double>(f.start - log.submitted_ns[k]) / 1e3;
    const double del = static_cast<double>(log.visible_ns[k] - f.end) / 1e3;
    const double lat = static_cast<double>(log.lat_ns[k]) / 1e3;
    submit_ns.push_back(sub);
    wait_us.push_back(wait);
    deliver_us.push_back(del);
    unattributed_us.push_back(
        lat - (sub / 1e3 + wait +
               static_cast<double>(f.end - f.start) / 1e3 + del));
    if (k % 1024 == 0) {  // a sample of flows goes into the trace file
      const std::int64_t due =
          ph.t0 + static_cast<std::int64_t>(static_cast<double>(k) *
                                            (1e9 / ph.spec.rate));
      const std::int32_t flow = tracer.add(
          "serve.flow", due, log.visible_ns[k], -1,
          static_cast<std::int64_t>(k));
      tracer.add("serve.submit", log.send_ns[k], log.submitted_ns[k], flow,
                 static_cast<std::int64_t>(k));
      tracer.add("serve.queue_wait", log.submitted_ns[k], f.start, flow,
                 static_cast<std::int64_t>(fi));
      tracer.add("serve.deliver", f.end, log.visible_ns[k], flow,
                 static_cast<std::int64_t>(fi));
    }
  }
  if (!mapped || fi + 1 != flushes.size()) {
    std::printf("note: flow-to-flush mapping incomplete (%zu of %zu flushes)\n",
                fi + 1, flushes.size());
  }
  rep.set("serve.submit_ns.p50", quantile(submit_ns, 0.50), "ns");
  rep.set("serve.submit_ns.p99", quantile(submit_ns, 0.99), "ns");
  rep.set("serve.queue_wait_us.p50", quantile(wait_us, 0.50), "us");
  rep.set("serve.queue_wait_us.p99", quantile(wait_us, 0.99), "us");
  rep.set("serve.flush_us.p50", quantile(flush_us, 0.50), "us");
  rep.set("serve.flush_us.p99", quantile(flush_us, 0.99), "us");
  rep.set("serve.deliver_us.p50", quantile(deliver_us, 0.50), "us");
  rep.set("serve.deliver_us.p99", quantile(deliver_us, 0.99), "us");
  rep.set("serve.unattributed_us.p50", quantile(unattributed_us, 0.50), "us");
  std::uint64_t rows = 0;
  for (const Flush& f : flushes) rows += f.rows;
  rep.set("serve.batch_rows",
          flushes.empty() ? 0.0
                          : static_cast<double>(rows) /
                                static_cast<double>(flushes.size()),
          "rows");
  rep.set("serve.flushes", static_cast<double>(flushes.size()), "count");
  rep.set("serve.rejected", static_cast<double>(ph.rejected), "count");
  rep.set("serve.failed", static_cast<double>(ph.expired + ph.failed),
          "count");
}

}  // namespace

Report run_serving(const Options& opt) {
  Report rep;
  const bool hot = opt.workload == "hot-1bit";

  // ---- inputs: CIC-IDS-2017-shaped flows -----------------------------------
  // The served model is a fixed artifact: it trains on `fit_rows` flows
  // generated from the pinned model seed, and is scored for accuracy on as
  // many held-out flows of that seed. The traffic — which distinct flows
  // the population holds and the order they arrive in — comes from the
  // workload seed.
  const nids::FlowSynthesizer model_synth =
      nids::make_synthesizer(nids::DatasetId::kCicIds2017, opt.model_seed);
  const nids::TrainTestSplit split = nids::preprocess(
      model_synth.generate(2 * opt.fit_rows, 0), 0.5,
      opt.model_seed ^ 0x5eedULL);
  const std::size_t features = split.train.num_features();

  Traffic traffic;
  {
    const nids::FlowSynthesizer traffic_synth =
        nids::make_synthesizer(nids::DatasetId::kCicIds2017, opt.seed);
    const nids::TrainTestSplit flows = nids::preprocess(
        traffic_synth.generate(opt.population + opt.population / 8, 1), 0.01,
        opt.seed ^ 0x5eedULL);
    const std::vector<std::size_t> rows =
        distinct_rows(flows.train.x, opt.population);
    rep.check(rows.size() == opt.population,
              "population of " + std::to_string(opt.population) +
                  " distinct flows (got " + std::to_string(rows.size()) + ")");
    traffic.pop.resize(rows.size(), features);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto src = flows.train.x.row(rows[i]);
      std::copy(src.begin(), src.end(), traffic.pop.row(i).begin());
    }
    traffic.order = flow_order(rows.size(), hot, opt.seed);
  }
  if (!hot) {
    rep.check(opt.population >= 16 * opt.cache_rows,
              "cold-float population is at least 16x the cache capacity");
  }

  // ---- the served model, fitted before any timing --------------------------
  // fit_s is the trimmed mean of 2 * kRounds + 6 fits, each on the next CPU
  // (see CpuPin): two before anything is served (the first gives the served
  // model), the others two at a time between the serving rounds, so the
  // fits sample the whole run. Each fit is timed on its thread's CPU clock:
  // with one pool thread fit() runs inline on the caller, so this is its
  // wall time less the hypervisor's steal. Every fit must give the same
  // model.
  const hdc::CyberHdConfig cfg = cyberhd::bench::paper_cyberhd_config();
  std::vector<double> fits, fit_walls;
  std::unique_ptr<hdc::CyberHdClassifier> fitted;
  const auto fit_once = [&] {
    auto model = std::make_unique<hdc::CyberHdClassifier>(cfg);
    {
      const CpuPin pin(static_cast<long>(fits.size()) % CpuPin::count());
      const std::int64_t wall0 = now_ns();
      const std::int64_t cpu0 = thread_cpu_ns();
      model->fit(split.train.x, split.train.y, split.train.num_classes);
      fits.push_back(static_cast<double>(thread_cpu_ns() - cpu0) / 1e9);
      fit_walls.push_back(static_cast<double>(now_ns() - wall0) / 1e9);
    }
    if (fitted == nullptr) {
      fitted = std::move(model);
      return;
    }
    const core::Matrix& a = fitted->model().weights();
    const core::Matrix& b = model->model().weights();
    rep.check(a.rows() == b.rows() && a.cols() == b.cols() &&
                  std::memcmp(a.data(), b.data(),
                              a.rows() * a.cols() * sizeof(float)) == 0,
              "repeated fit() produces the same class matrix");
  };
  fit_once();
  fit_once();
  std::string model_bytes;
  {
    std::ostringstream os;
    fitted->save(os);
    model_bytes = os.str();
  }

  // ---- harness buffers, then the memory baseline --------------------------
  // Everything the harness keeps while serving is allocated and touched
  // here: the result slots, the reference scores and the per-flow log of the
  // largest phase. peak_rss_mib is the peak resident memory the served
  // program adds to this baseline while it serves, so neither the inputs'
  // generation, the fits, the harness nor the checks count.
  const std::size_t classes = split.train.num_classes;
  Slots slots(2 * std::max<std::size_t>(1024, opt.ring_slots), classes);
  traffic.ref.resize(traffic.pop.rows(), classes);
  const double warm_s = 0.2;
  const double round_s = opt.seconds * 0.7 / kRounds;  // fixed rate, each
  const double search_s = opt.seconds * 0.3;     // probes and trials
  FlowLog log;
  if (!opt.trace) {
    log.reserve(static_cast<std::size_t>(
                    std::llround(opt.rate_fps * std::max(round_s, warm_s))) +
                16);
  }
  const double base_mib = rss_mib();

  // ---- setup_s: model bytes -> first OK result -----------------------------
  // One set-up: load the saved bytes (CRC check included), quantize to 1
  // bit (hot-1bit), arm the cache, start a Server, submit one flow and wait
  // for its result. The untraced run makes 3 * kRounds + 7 set-ups, three
  // at a time between the rounds, and reports their median; the first
  // set-up's model is the one served.
  std::vector<double> setups;
  const auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    ServedModels m;
    {
      std::istringstream in(model_bytes);
      m.loaded = std::make_unique<hdc::CyberHdClassifier>(
          hdc::CyberHdClassifier::load(in));
    }
    if (hot) {
      m.quantized = std::make_unique<hdc::QuantizedCyberHd>(*m.loaded, 1);
      m.quantized->set_encode_cache(opt.cache_rows);
    } else {
      m.loaded->set_encode_cache(opt.cache_rows);
    }
    serve::Server server(m.served(), features, server_config(opt));
    serve::ResultSlot slot;
    server.submit(traffic.pop.row(0), slot);
    slot.wait();
    const std::int64_t t1 = now_ns();
    rep.check(slot.status() == serve::RequestStatus::kOk,
              "first request after set-up is OK");
    ++rep.attempted;
    setups.push_back(static_cast<double>(t1 - t0) / 1e9);
    server.shutdown();
    return m;
  };
  // peak_rss_mib covers steady serving: not the checks, the warm-up or the
  // set-ups and fits between the rounds. Before those the peak so far is
  // kept; after any of these the memory they freed is returned to the
  // kernel and the peak-RSS counter reset.
  double serving_peak_mib = 0.0;
  const auto start_serving_peak = [&] {
    malloc_trim(0);
    if (!reset_peak_rss()) {
      std::printf("note: the kernel refused the peak-RSS reset; "
                  "peak_rss_mib includes set-ups and checks\n");
    }
  };
  const auto between_rounds = [&] {
    serving_peak_mib = std::max(serving_peak_mib, peak_rss_mib());
    for (int r = 0; r < 3; ++r) set_up();
    fit_once();
    fit_once();
    start_serving_peak();
  };
  const ServedModels models = set_up();
  const core::Classifier& served = models.served();
  hdc::EncodeCache* cache = models.cache();

  // Held-out accuracy of the served model (fixed by the model seed, so a
  // speedup cannot be bought with accuracy), then the reference scores (a
  // serial scores_batch replay of the population — it also warms the cache
  // of hot-1bit before timing). Both run on a thread of their own, whose
  // scoring workspaces go when it ends, and count as unserved time.
  double accuracy = 0.0;
  std::thread([&] {
    accuracy = served.evaluate(split.test.x, split.test.y);
    served.scores_batch(traffic.pop, traffic.ref);
  }).join();
  rep.check(accuracy >= opt.accuracy_floor,
            "held-out accuracy " + std::to_string(accuracy) +
                " at or above the pinned floor " +
                std::to_string(opt.accuracy_floor));

  std::uint64_t mismatched = 0;
  const auto account = [&](const Phase& ph) {
    ph.print();
    rep.attempted += ph.sent;
    rep.failed += ph.not_ok() + ph.mismatched;
    mismatched += ph.mismatched;
  };
  const auto finish_server = [&](serve::Server& server) {
    server.shutdown();
    const serve::ServerStats st = server.stats();
    rep.check(st.completed == st.accepted,
              "ServerStats.completed == accepted after shutdown");
  };
  // Warm-up: a closed-loop burst, so the batcher's workspaces reach their
  // full-batch size, then the fixed rate.
  const auto warm_up = [&](serve::Server& server, FlowLog& flow_log) {
    account(run_phase(server, traffic, slots,
                      {"burst", 0.0, 0.1, 3 * server.max_batch_rows()},
                      flow_log));
    account(run_phase(server, traffic, slots,
                      {"warm", opt.rate_fps, warm_s, 0, false,
                       opt.window_flows},
                      flow_log));
  };
  // Cache hits and misses while the timed phases run.
  std::uint64_t hits = 0, misses = 0;
  const auto timed = [&](const std::function<Phase()>& phase) {
    const hdc::EncodeCacheStats c0 = cache->stats();
    Phase ph = phase();
    const hdc::EncodeCacheStats c1 = cache->stats();
    hits += c1.hits - c0.hits;
    misses += c1.misses - c0.misses;
    account(ph);
    return ph;
  };

  if (!opt.trace) {
    // ---- untraced: fixed rate and probes in kRounds rounds, then trials --
    // One Server serves the whole run. The fixed-rate phase and the
    // closed-loop capacity probe alternate in kRounds rounds.
    serve::Server server(served, features, server_config(opt));
    warm_up(server, log);
    start_serving_peak();
    std::vector<double> p50s, p99s, probes;
    std::int64_t program_cpu_ns = 0;
    std::uint64_t fixed_ok = 0, fixed_sent = 0;
    bool behind = false, fixed_aborted = false;
    for (int round = 0; round < kRounds; ++round) {
      between_rounds();
      const Phase fixed = timed([&] {
        return run_phase(server, traffic, slots,
                         {"fixed", opt.rate_fps, round_s, 0, false,
                          opt.window_flows},
                         log);
      });
      for (const double q : fixed.window_quantiles_us(0.50)) p50s.push_back(q);
      for (const double q : fixed.window_quantiles_us(0.99)) p99s.push_back(q);
      program_cpu_ns +=
          fixed.proc_cpu_ns - fixed.gen_cpu_ns - fixed.harv_cpu_ns;
      fixed_ok += fixed.ok;
      fixed_sent += fixed.sent;
      behind = behind || fixed.behind();
      fixed_aborted = fixed_aborted || fixed.aborted;
      const Phase probe = timed([&] {
        return run_phase(
            server, traffic, slots,
            {"probe", 0.0, search_s * 0.4 / kRounds,
             3 * server.max_batch_rows()},
            log);
      });
      probes.insert(probes.end(), probe.window_fps.begin(),
                    probe.window_fps.end());
    }
    between_rounds();

    // Capacity: the closed-loop probes measure the rate the server
    // completes flows at with full batches always waiting (the mean of the
    // middle 60% of their window rates, three per probe); open-loop trials
    // then descend from just under it to the first offered rate with no
    // failed request, p99 within the limit (median over the trial's windows)
    // and no growing backlog (the median of the last tenth of the flows
    // within the limit too).
    const double probe_fps = trimmed_mean(probes, 0.2);
    const double trial_s = search_s * 0.2;
    double capacity = 0.0;
    for (const double share : {0.96, 0.92, 0.88, 0.84, 0.80, 0.75, 0.70,
                               0.60, 0.50, 0.40, 0.30}) {
      const double rate = share * probe_fps;
      // No trial sends more flows than a fixed-rate round, so the
      // harness's memory does not grow with the server's speed.
      const double t = std::min(trial_s, round_s * opt.rate_fps / rate);
      const Phase ph = timed([&] {
        return run_phase(
            server, traffic, slots,
            {"trial", rate, t, 0, false, opt.window_flows,
             std::min<std::uint64_t>(
                 static_cast<std::uint64_t>(rate * 2.0 * opt.p99_limit_us /
                                            1e6),
                 opt.ring_slots / 2)},
            log);
      });
      if (!ph.aborted && ph.not_ok() == 0 &&
          ph.window_quantile_us(0.99) <= opt.p99_limit_us &&
          ph.last_tenth_quantile_us(0.50) <= opt.p99_limit_us) {
        capacity = rate;
        break;
      }
    }
    finish_server(server);
    between_rounds();
    const double peak_mib =
        std::max(serving_peak_mib, peak_rss_mib()) - base_mib;
    rep.check(!fixed_aborted, "the fixed-rate schedule held");
    rep.check(capacity > 0.0, "some offered rate meets the latency limit");
    std::printf("  generator fell behind: %s\n",
                behind ? "yes (fixed-rate phase)" : "no");
    std::printf("  memory: %.1f MiB resident before set-up (inputs, fits, "
                "harness), serving peak %.1f MiB above it\n",
                base_mib, peak_mib);

    rep.set("setup_s", median(setups), "s");
    rep.set("peak_rss_mib", peak_mib, "MiB");
    rep.set("capacity_fps", capacity, "flows/s");
    std::printf("  fixed rate, all rounds: %zu windows; p50 %.1fus p99 %.1fus "
                "in the quietest 1%%, %.1fus %.1fus in the median window\n",
                p50s.size(), quantile(p50s, kQuietWindow),
                quantile(p99s, kQuietWindow), median(p50s), median(p99s));
    rep.set("p50_us", quantile(p50s, kQuietWindow), "us");
    rep.set("p99_us", quantile(p99s, kQuietWindow), "us");
    rep.set("cpu_us_per_flow",
            static_cast<double>(program_cpu_ns) / 1e3 /
                static_cast<double>(std::max<std::uint64_t>(1, fixed_ok)),
            "us");
    rep.set("ok_ratio",
            static_cast<double>(fixed_ok) /
                static_cast<double>(std::max<std::uint64_t>(1, fixed_sent)),
            "ratio");
    std::printf("  fits (CPU s, fit r on CPU r mod %ld):", CpuPin::count());
    for (const double f : fits) std::printf(" %.3f", f);
    std::printf("\n  fits (wall s):");
    for (const double f : fit_walls) std::printf(" %.3f", f);
    std::printf("\n");
    rep.set("fit_s", trimmed_mean(fits, 0.2), "s");
    rep.set("test_accuracy", accuracy, "ratio");
    std::printf("  fail_ratio at the fixed rate: %.6f\n",
                1.0 - rep.get("ok_ratio"));
  } else {
    // ---- traced: the same served model behind the tracing decorator -------
    Tracer tracer;
    const FitTrace ft =
        traced_fit(split.train.x, split.train.y, split.train.num_classes, cfg,
                   fitted->model().weights(), tracer);
    report_trainer_layers(rep, ft);

    const double phase_s = opt.seconds * 0.4;
    // Start cold so the traced warm-up shows the miss encodes hot-1bit
    // pays once.
    cache->clear();
    TracedModel traced =
        hot ? TracedModel(*models.quantized, tracer)
            : TracedModel(*models.loaded, tracer);
    FlowLog traced_log, untraced_log;
    Phase traced_phase;
    std::vector<BlockCall> warm_calls, timed_calls;
    hdc::EncodeCacheStats c0, c1;
    {
      serve::Server server(traced, features, server_config(opt));
      warm_up(server, log);
      warm_calls = traced.calls();
      c0 = cache->stats();
      traced_phase = timed([&] {
        return run_phase(server, traffic, slots,
                         {"traced", opt.rate_fps, phase_s, 0, true,
                          opt.window_flows},
                         traced_log);
      });
      c1 = cache->stats();
      finish_server(server);
    }
    const std::vector<BlockCall> all_calls = traced.calls();
    timed_calls.assign(all_calls.begin() +
                           static_cast<std::ptrdiff_t>(warm_calls.size()),
                       all_calls.end());
    Phase untraced;
    {
      serve::Server server(served, features, server_config(opt));
      untraced = run_phase(server, traffic, slots,
                           {"untraced", opt.rate_fps, phase_s, 0, false,
                            opt.window_flows},
                           untraced_log);
      account(untraced);
      finish_server(server);
    }
    report_serve_stages(rep, traced_phase, timed_calls, tracer);
    const LayerTotals scoring = sum_calls(timed_calls);
    const LayerTotals encoding = sum_calls(all_calls);
    ScoringShape shape;
    shape.dims = cfg.dims;
    shape.features = features;
    shape.classes = served.num_classes();
    shape.bits = hot ? 1 : 32;
    shape.tile_rows =
        core::ExecutionContext::process().score_block_rows(cfg.dims);
    report_scoring_layers(rep, scoring, encoding, shape, c1.hits - c0.hits,
                          c1.misses - c0.misses, c1.evictions - c0.evictions,
                          static_cast<double>(c1.bytes_resident) /
                              (1024.0 * 1024.0));
    const double base_cpu = untraced.cpu_us_per_flow();
    rep.set("trace.overhead_pct",
            100.0 * (traced_phase.cpu_us_per_flow() - base_cpu) / base_cpu,
            "%");
    const bool valid = ft.matches && mismatched == 0;
    rep.set("trace.valid", valid ? 1.0 : 0.0, "bool");
    std::printf(
        "  tracing overhead: cpu/flow %.3f us traced vs %.3f us untraced; "
        "p50 %.1f us vs %.1f us\n",
        traced_phase.cpu_us_per_flow(), base_cpu,
        traced_phase.window_quantile_us(0.5), untraced.window_quantile_us(0.5));
    if (!valid) {
      std::printf("TRACE INVALID: traced outputs differ from untraced; the "
                  "per-layer numbers do not describe this commit\n");
    }
    if (!opt.trace_out.empty()) {
      std::printf("  trace: %s (%zu spans)\n", opt.trace_out.c_str(),
                  tracer.size());
      tracer.write_chrome_json(opt.trace_out);
    }
  }

  // The workload's shape: hot-1bit borrows (almost) every row from the
  // cache, cold-float misses (almost) every probe.
  const double hit_ratio =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  std::printf("  cache during timing: hit ratio %.4f (%llu hits, %llu "
              "misses)\n",
              hit_ratio, static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
  rep.check(hot ? hit_ratio >= 0.99 : hit_ratio < 0.01,
            std::string("cache hit ratio during timing ") +
                (hot ? "at least 0.99" : "below 0.01"));
  rep.check(mismatched == 0,
            "every OK score bit-identical to the serial scores_batch replay");
  return rep;
}

}  // namespace perfbench
