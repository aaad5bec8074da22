// Shared plumbing of the repository benchmark (hdbench): clocks, order
// statistics, the metric report, the in-memory span tracer with its
// Chrome trace-event export, and the host record.
//
// Everything here lives on the benchmark side of the library boundary:
// the benchmark times calls into each layer's public functions from its
// own code, so nothing under src/ carries instrumentation.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/result_slot.hpp"

namespace perfbench {

// ---- clocks ---------------------------------------------------------------

inline std::int64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
/// Monotonic wall clock (the clock every span and latency is read from).
inline std::int64_t now_ns() noexcept { return clock_ns(CLOCK_MONOTONIC); }
inline std::int64_t thread_cpu_ns() noexcept {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}
inline std::int64_t process_cpu_ns() noexcept {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// ---- order statistics -----------------------------------------------------

/// Nearest-rank q-quantile (q in [0, 1]) of `v`; reorders `v`. 0 when empty.
template <class T>
double quantile_inplace(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

template <class T>
double quantile(std::vector<T> v, double q) {
  return quantile_inplace(v, q);
}

inline double median(std::vector<double> v) { return quantile_inplace(v, 0.5); }

/// Mean of `v` without its lowest and highest `trim` shares. 0 when empty.
inline double trimmed_mean(std::vector<double> v, double trim) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto cut =
      static_cast<std::size_t>(trim * static_cast<double>(v.size()));
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// ---- placement --------------------------------------------------------------

/// Pins the calling thread to one CPU for its lifetime, then restores the
/// thread's previous CPU set. On the shared hosts this benchmark runs on,
/// individual vCPUs run at different speeds from second to second, so
/// repeated single-threaded measurements are spread over every CPU.
class CpuPin {
 public:
  explicit CpuPin(long cpu) {
    pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(static_cast<int>(cpu), &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }
  ~CpuPin() { pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  /// Online CPUs (at least 1).
  static long count() { return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)); }

 private:
  cpu_set_t saved_{};
};

// ---- the report -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the final JSON line's fields plus the
/// failed checks that made `correct` false.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  double get(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }
  /// Record a failed output check (printed immediately).
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
    std::fflush(stdout);
  }
};

// ---- tracing --------------------------------------------------------------

/// One timed call into a layer: name, [start, end) on now_ns(), the index
/// of the span that caused it (-1 for a root), and the flush or flow id it
/// belongs to.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::int64_t id = -1;
  std::uint32_t tid = 0;
};

/// In-memory span store, written out as Chrome trace-event JSON (which
/// Perfetto and chrome://tracing open) when the benchmark ends. Bounded:
/// spans past `capacity` are counted, not stored.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 18) : capacity_(capacity) {}

  /// Open a span starting now; returns its index (-1 when full).
  std::int32_t begin(const char* name, std::int32_t parent, std::int64_t id) {
    return add(name, now_ns(), 0, parent, id);
  }
  /// Close a span opened by begin().
  void end(std::int32_t idx) {
    if (idx < 0) return;
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(idx)].end = t;
  }
  /// Record a span with known bounds.
  std::int32_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int32_t parent, std::int64_t id) {
    const std::uint32_t tid = thread_tag();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, start, end, parent, id, tid});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Write every span as a Chrome trace "X" event (µs timestamps relative
  /// to the earliest span). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    for (const Span& s : spans_) t0 = std::min(t0, s.start);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t end = std::max(s.end, s.start);
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"span\":%zu,\"parent\":%d,\"id\":%lld}}\n",
                   i == 0 ? "" : ",", s.name, layer_len(s.name), s.name,
                   static_cast<double>(s.start - t0) / 1e3,
                   static_cast<double>(end - s.start) / 1e3, s.tid, i,
                   s.parent, static_cast<long long>(s.id));
    }
    std::fprintf(f, "],\"otherData\":{\"dropped_spans\":%llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
  }

 private:
  /// The layer prefix of a span name ("cache" of "cache.probe").
  static int layer_len(const char* name) {
    int n = 0;
    while (name[n] != '\0' && name[n] != '.') ++n;
    return n;
  }
  static std::uint32_t thread_tag() {
    static std::mutex m;
    static std::uint32_t next = 1;
    thread_local std::uint32_t tag = 0;
    if (tag == 0) {
      const std::lock_guard<std::mutex> lock(m);
      tag = next++;
    }
    return tag;
  }

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// ---- progress ---------------------------------------------------------------

/// What the run is doing, for main()'s watchdog: the hang report it prints
/// if a run overstays its time limit, and the lost-wakeup check.
struct Progress {
  std::atomic<const char*> phase{"start"};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> harvested{0};
  /// The slot the harvester is blocked on in ResultSlot::wait() (nullptr
  /// while it is not in wait()), and how many waits it has begun.
  std::atomic<const cyberhd::serve::ResultSlot*> waiting_on{nullptr};
  std::atomic<std::uint64_t> waits{0};
};
inline Progress g_progress;

// ---- host ------------------------------------------------------------------

/// Aggregate CPU time counters of /proc/stat's first line (jiffies).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
/// Share of CPU time the hypervisor stole between two readings.
inline double steal_share(const CpuTimes& a, const CpuTimes& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}
/// Peak resident set size of this process (VmHWM) in MiB.
double peak_rss_mib();
/// Current resident set size of this process (VmRSS) in MiB.
double rss_mib();
/// Reset this process's peak resident set size to its current resident
/// set size (/proc/self/clear_refs, mode 5). False when the kernel refuses.
bool reset_peak_rss();
/// One-line JSON host record: nproc, CPU model, kernel backend, cache
/// topology, every CYBERHD_* variable in the environment, steal share.
std::string host_record_json(double steal);

}  // namespace perfbench
