// hdbench — the repository benchmark's program. run.py builds it and runs
// one workload per process:
//
//   hdbench --workload hot-1bit|cold-float --seed N --seconds S
//           --trace 0|1 [--trace-out FILE] <pinned settings>
//
// Every pinned setting is a required flag (BENCHMARK.json's command holds
// the values). It prints phase lines, the host record and (traced runs)
// the per-layer table, then, as its last line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and exits non-zero when an output check failed.
#include <malloc.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/exec/execution_context.hpp"
#include "core/kernels/kernels.hpp"
#include "core/thread_pool.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

namespace {

/// A "Vm...:" field of /proc/self/status in MiB (0 when absent).
double status_mib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) /
             1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mib() { return status_mib("VmHWM:"); }

double rss_mib() { return status_mib("VmRSS:"); }

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  return static_cast<bool>(out);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

std::string host_record_json(double steal) {
  const auto& topo = cyberhd::core::CacheTopology::detected();
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"cpu_model\":\""
     << json_escape(cpu_model()) << "\",\"kernels\":\""
     << cyberhd::core::active_kernels().name
     << "\",\"pool_threads\":"
     << cyberhd::core::ThreadPool::global().num_threads()
     << ",\"l2_bytes\":" << topo.l2_bytes << ",\"l3_bytes\":" << topo.l3_bytes
     << ",\"l3_domains\":" << topo.l3_domains << ",\"pinned_env\":{";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("CYBERHD_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    os << (first ? "" : ",") << "\"" << json_escape(kv.substr(0, eq))
       << "\":\"" << json_escape(kv.substr(eq + 1)) << "\"";
    first = false;
  }
  os << "},\"steal_share\":" << steal << "}";
  return os.str();
}

}  // namespace perfbench

namespace {

/// Every pinned setting. None has a default here: BENCHMARK.json's command
/// is the one place their values live.
constexpr const char* kRequired[] = {
    "--workload",    "--seed",       "--seconds",      "--trace",
    "--linger-us",   "--cache-rows", "--ring-slots",   "--rate-fps",
    "--p99-limit-us", "--window-flows", "--population", "--fit-rows",
    "--model-seed",  "--accuracy-floor"};

void usage() {
  std::fprintf(stderr,
               "usage: hdbench --workload hot-1bit|cold-float --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] --linger-us N "
               "--cache-rows N --ring-slots N --rate-fps R --p99-limit-us U "
               "--window-flows N --population N --fit-rows N --model-seed N "
               "--accuracy-floor A\n");
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string v = argv[++i];
    seen.insert(key);
    if (key == "--workload") o.workload = v;
    else if (key == "--seed") o.seed = std::stoull(v);
    else if (key == "--seconds") o.seconds = std::stod(v);
    else if (key == "--trace") o.trace = v == "1";
    else if (key == "--trace-out") o.trace_out = v;
    else if (key == "--linger-us") o.linger_us = std::stol(v);
    else if (key == "--cache-rows") o.cache_rows = std::stoull(v);
    else if (key == "--ring-slots") o.ring_slots = std::stoull(v);
    else if (key == "--rate-fps") o.rate_fps = std::stod(v);
    else if (key == "--p99-limit-us") o.p99_limit_us = std::stod(v);
    else if (key == "--window-flows") o.window_flows = std::stoull(v);
    else if (key == "--population") o.population = std::stoull(v);
    else if (key == "--fit-rows") o.fit_rows = std::stoull(v);
    else if (key == "--model-seed") o.model_seed = std::stoull(v);
    else if (key == "--accuracy-floor") o.accuracy_floor = std::stod(v);
    else throw std::invalid_argument("unknown option " + key);
  }
  for (const char* key : kRequired) {
    if (seen.count(key) == 0) {
      throw std::invalid_argument(std::string("missing ") + key);
    }
  }
  if (o.workload != "hot-1bit" && o.workload != "cold-float") {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (o.rate_fps <= 0.0 || o.p99_limit_us <= 0.0 || o.window_flows == 0 ||
      o.population == 0 || o.fit_rows == 0) {
    throw std::invalid_argument(
        "--rate-fps, --p99-limit-us, --window-flows, --population and "
        "--fit-rows must be > 0");
  }
  return o;
}

/// Watches the harvester for a lost wakeup: the slot it is blocked on in
/// ResultSlot::wait() has been ready() for over a second while that same
/// wait has not returned. Sampled by main()'s watchdog every 100 ms.
class LostWakeupCheck {
 public:
  /// True once the current wait has outlived its slot's delivery by more
  /// than a second.
  bool stuck() {
    const std::uint64_t wait = perfbench::g_progress.waits.load();
    const cyberhd::serve::ResultSlot* slot =
        perfbench::g_progress.waiting_on.load();
    if (slot == nullptr || !slot->ready() || wait != wait_) {
      wait_ = wait;
      ready_since_ns_ = -1;
      return false;
    }
    const std::int64_t now = perfbench::now_ns();
    if (ready_since_ns_ < 0) ready_since_ns_ = now;
    return now - ready_since_ns_ > 1'000'000'000;
  }

 private:
  std::uint64_t wait_ = 0;
  std::int64_t ready_since_ns_ = -1;
};

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold (which also fixes the trim threshold): blocks of
  // 128 KiB and up are mapped and unmapped on their own, so peak RSS tracks
  // the memory the program holds rather than glibc's adaptive thresholds
  // and the fragmentation its heap happened to build up.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdbench: %s\n", e.what());
    usage();
    return 2;
  }
  std::printf("hdbench: workload %s, seed %llu, %.1f s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);
  // A run that overstays its limit reports where it stands and exits
  // non-zero instead of hanging its caller; a harvester whose wait() never
  // returns on a delivered result fails the lost-wakeup check.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::thread watchdog([&] {
    const std::int64_t start = perfbench::now_ns();
    LostWakeupCheck lost_wakeup;
    std::unique_lock<std::mutex> lock(done_mutex);
    while (!done_cv.wait_for(lock, std::chrono::milliseconds(100),
                             [&] { return done; })) {
      if (lost_wakeup.stuck()) {
        std::printf("CHECK FAILED: lost wakeup: in phase %s the harvester's "
                    "result slot has been ready for over 1 s while its "
                    "ResultSlot::wait() has not returned (wait %llu, "
                    "harvested %llu)\n",
                    perfbench::g_progress.phase.load(),
                    static_cast<unsigned long long>(
                        perfbench::g_progress.waits.load()),
                    static_cast<unsigned long long>(
                        perfbench::g_progress.harvested.load()));
        std::fflush(stdout);
        std::_Exit(1);
      }
      if (perfbench::now_ns() - start > 150'000'000'000) {
        const cyberhd::serve::ResultSlot* slot =
            perfbench::g_progress.waiting_on.load();
        std::printf("hdbench: no result after 150 s: phase %s, sent %llu, "
                    "harvested %llu, harvester %s\n",
                    perfbench::g_progress.phase.load(),
                    static_cast<unsigned long long>(
                        perfbench::g_progress.sent.load()),
                    static_cast<unsigned long long>(
                        perfbench::g_progress.harvested.load()),
                    slot == nullptr ? "not in wait()"
                                    : "in wait() on an undelivered result");
        std::fflush(stdout);
        std::_Exit(3);
      }
    }
  });
  const auto stop_watchdog = [&] {
    {
      const std::lock_guard<std::mutex> lock(done_mutex);
      done = true;
    }
    done_cv.notify_one();
    watchdog.join();
  };
  const perfbench::CpuTimes c0 = perfbench::read_cpu_times();
  perfbench::Report report;
  try {
    report = perfbench::run_serving(opt);
  } catch (const std::exception& e) {
    stop_watchdog();
    std::fprintf(stderr, "hdbench: %s\n", e.what());
    return 1;
  }
  stop_watchdog();
  const perfbench::CpuTimes c1 = perfbench::read_cpu_times();
  std::printf("host: %s\n",
              perfbench::host_record_json(perfbench::steal_share(c0, c1))
                  .c_str());
  if (opt.trace) {
    perfbench::finish_layer_report(report, opt.workload);
  } else {
    std::printf("\nend-to-end (%s)\n", opt.workload.c_str());
    for (const perfbench::Metric& m : report.metrics) {
      std::printf("  %-18s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
