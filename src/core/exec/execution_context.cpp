#include "core/exec/execution_context.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/env.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace cyberhd::core {

namespace {

/// A cache-size override knob: bytes with k/m/g suffixes so container
/// launch scripts stay readable; 0 when unset or (with a stderr warning)
/// malformed — 0 means "use the detected topology".
std::size_t env_bytes(const char* name) { return env::bytes(name, 0); }

#if defined(__unix__) || defined(__APPLE__)
std::size_t sysconf_bytes(int name) {
  const long v = ::sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}
#endif

/// Read one sysfs cache attribute ("64", "2048K") as bytes; 0 on failure.
std::size_t sysfs_bytes(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  unsigned long long value = 0;
  in >> value;
  if (!in || value == 0) return 0;
  char suffix = '\0';
  in >> suffix;
  if (suffix == 'K' || suffix == 'k') value *= 1024;
  if (suffix == 'M' || suffix == 'm') value *= 1024 * 1024;
  return static_cast<std::size_t>(value);
}

std::string sysfs_string(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  if (in) in >> s;
  return s;
}

/// Walk /sys/devices/system/cpu/cpu0/cache/index*/ for the first data or
/// unified cache of `level`; returns its size in bytes, 0 when absent.
std::size_t sysfs_cache_size(int level) {
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir = base + std::to_string(idx) + "/";
    std::ifstream probe(dir + "level");
    int l = 0;
    if (!(probe >> l) || l != level) continue;
    const std::string type = sysfs_string(dir + "type");
    if (type == "Instruction") continue;
    const std::size_t size = sysfs_bytes(dir + "size");
    if (size > 0) return size;
  }
  return 0;
}

std::size_t sysfs_line_size() {
  return sysfs_bytes(
      "/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size");
}

/// Count the CPUs in a sysfs shared_cpu_list string ("0-7,16-23"); 0 when
/// the file is absent or unparseable.
std::size_t count_cpu_list(const std::string& list) {
  std::size_t count = 0;
  const char* p = list.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long first = std::strtol(p, &end, 10);
    if (end == p || first < 0) return 0;
    long last = first;
    p = end;
    if (*p == '-') {
      last = std::strtol(p + 1, &end, 10);
      if (end == p + 1 || last < first) return 0;
      p = end;
    }
    count += static_cast<std::size_t>(last - first + 1);
    if (*p == ',') ++p;
  }
  return count;
}

/// CPUs sharing cpu0's level-3 cache per sysfs; 0 when undetectable.
std::size_t sysfs_l3_shared_cpus() {
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir = base + std::to_string(idx) + "/";
    std::ifstream probe(dir + "level");
    int l = 0;
    if (!(probe >> l) || l != 3) continue;
    if (sysfs_string(dir + "type") == "Instruction") continue;
    std::ifstream in(dir + "shared_cpu_list");
    std::string list;
    if (in) in >> list;
    return count_cpu_list(list);
  }
  return 0;
}

std::size_t largest_pow2_at_most(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

}  // namespace

CacheTopology CacheTopology::detect() {
  CacheTopology topo;  // field initializers are the conservative fallback
  std::size_t line = 0, l1d = 0, l2 = 0, l3 = 0, online_cpus = 0;
#if defined(__unix__) || defined(__APPLE__)
#ifdef _SC_LEVEL1_DCACHE_LINESIZE
  line = sysconf_bytes(_SC_LEVEL1_DCACHE_LINESIZE);
#endif
#ifdef _SC_LEVEL1_DCACHE_SIZE
  l1d = sysconf_bytes(_SC_LEVEL1_DCACHE_SIZE);
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  l2 = sysconf_bytes(_SC_LEVEL2_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL3_CACHE_SIZE
  l3 = sysconf_bytes(_SC_LEVEL3_CACHE_SIZE);
#endif
#ifdef _SC_NPROCESSORS_ONLN
  online_cpus = sysconf_bytes(_SC_NPROCESSORS_ONLN);
#endif
#endif
  if (line == 0) line = sysfs_line_size();
  if (l1d == 0) l1d = sysfs_cache_size(1);
  if (l2 == 0) l2 = sysfs_cache_size(2);
  if (l3 == 0) l3 = sysfs_cache_size(3);
  // Containers often mask /sys and return 0 from sysconf; the env override
  // wins over whatever detection produced so deployments can pin tiling.
  if (const std::size_t env_l2 = env_bytes("CYBERHD_L2_BYTES"); env_l2 > 0) {
    l2 = env_l2;
  }
  if (const std::size_t env_l3 = env_bytes("CYBERHD_L3_BYTES"); env_l3 > 0) {
    l3 = env_l3;
  }
  if (line > 0) topo.line_bytes = line;
  if (l1d > 0) topo.l1d_bytes = l1d;
  if (l2 > 0) topo.l2_bytes = l2;
  if (l3 > 0) topo.l3_bytes = l3;
  // Shared-L3 domains: how many CPU groups each see their own last-level
  // cache. cpu0's shared_cpu_list says how many CPUs share one L3; the
  // online count divided by that (rounded up) is the domain count. When
  // either read fails — masked /sys, exotic topologies — one domain is the
  // safe model (the serving plan degrades to a single sub-batch stream).
  const std::size_t per_domain = sysfs_l3_shared_cpus();
  if (per_domain > 0 && online_cpus > per_domain) {
    topo.l3_domains = (online_cpus + per_domain - 1) / per_domain;
  }
  return topo;
}

const CacheTopology& CacheTopology::detected() {
  static const CacheTopology topo = detect();
  return topo;
}

ExecutionContext::ExecutionContext(ThreadPool* pool, const Kernels* kernels,
                                   CacheTopology cache)
    : kernels_(kernels != nullptr ? kernels : &active_kernels()),
      pool_(pool),
      cache_(cache) {}

const ExecutionContext& ExecutionContext::process() {
  static const ExecutionContext ctx(&ThreadPool::global(), nullptr,
                                    CacheTopology::detected());
  return ctx;
}

const ExecutionContext& ExecutionContext::serial() {
  static const ExecutionContext ctx(nullptr, nullptr,
                                    CacheTopology::detected());
  return ctx;
}

std::size_t ExecutionContext::score_block_rows(
    std::size_t dims) const noexcept {
  if (dims == 0) return 1;
  // One third of L2 for the streaming row block (the class block and the
  // norm pass's re-read take the rest); power of two for stable blocking.
  const std::size_t budget = cache_.l2_bytes / 3;
  const std::size_t rows = budget / (dims * sizeof(float));
  return std::clamp<std::size_t>(largest_pow2_at_most(std::max<std::size_t>(
                                     1, rows)),
                                 1, 64);
}

std::size_t ExecutionContext::serving_block_rows_bytes(
    std::size_t row_bytes, std::size_t floor_rows) const noexcept {
  floor_rows = std::clamp<std::size_t>(floor_rows, 1, 4096);
  if (row_bytes == 0) return floor_rows;
  // One third of the shared L3 for the sub-batch's rows (scores, inputs,
  // and slack take the rest); power of two, never below the L2 scoring
  // tile this block feeds, capped where batching stops paying.
  const std::size_t budget = cache_.l3_bytes / 3;
  const std::size_t rows = budget / row_bytes;
  return std::clamp<std::size_t>(
      largest_pow2_at_most(std::max<std::size_t>(1, rows)), floor_rows,
      4096);
}

EncodeTilePlan ExecutionContext::plan_encode_tile(
    std::size_t dims, std::size_t features) const noexcept {
  EncodeTilePlan plan;
  const std::size_t row_bytes =
      std::max<std::size_t>(1, features) * sizeof(float);
  // Flow block from L1d: a third for the block's raw feature rows (the
  // current base row and the angle stores take the rest), so the rows a
  // base panel is replayed against never leave level 1.
  const std::size_t flows = (cache_.l1d_bytes / 3) / row_bytes;
  plan.flow_rows = std::clamp<std::size_t>(
      largest_pow2_at_most(std::max<std::size_t>(1, flows)), 8, 256);
  // Base panel from L2: a third for the panel's base rows (the flow block
  // and slack take the rest) — the panel streams from L2 once per flow
  // block instead of from memory once per flow.
  const std::size_t panel = (cache_.l2_bytes / 3) / row_bytes;
  plan.panel_rows = std::clamp<std::size_t>(
      largest_pow2_at_most(std::max<std::size_t>(1, panel)), 16, 8192);
  if (dims > 0 && plan.panel_rows > dims) {
    // Wider than D buys nothing; snap to the pow2 that covers D in one
    // panel when it can.
    plan.panel_rows =
        std::max<std::size_t>(16, largest_pow2_at_most(dims));
  }
  return plan;
}

ServingPlan ExecutionContext::plan_serving(std::size_t dims) const noexcept {
  return plan_serving_bytes(dims * sizeof(float), score_block_rows(dims));
}

ServingPlan ExecutionContext::plan_serving_bytes(
    std::size_t row_bytes, std::size_t floor_rows) const noexcept {
  ServingPlan plan;
  plan.block_rows = serving_block_rows_bytes(row_bytes, floor_rows);
  plan.domains = std::max<std::size_t>(1, cache_.l3_domains);
  plan.batch_rows = plan.block_rows * plan.domains;
  return plan;
}

}  // namespace cyberhd::core
