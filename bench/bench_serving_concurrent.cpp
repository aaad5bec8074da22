// Concurrent-serving benchmark: N client streams drive the serving
// front-end (MPSC ring -> coalescing batcher -> staged encode/score
// pipeline) at saturation, and we measure what the paper's deployment
// story actually depends on — aggregate flows/s and per-request latency
// percentiles as the stream count grows.
//
// Load model: saturation open-loop per stream. Each stream keeps a fixed
// window of outstanding requests (submit never waits for its own
// completion, only for a window slot to free), replaying flows from its
// private working set — 64 distinct flows per stream, so a warm encode
// cache serves nearly every row. Latency is completed_at - submitted_at
// per request, stamped by the server's steady clock; p50/p99 are computed
// over every request of every stream. Methodology details live in
// docs/BENCHMARKS.md.
//
// The sweep crosses stream count {1, 2, 4, 8} with the encode cache hot
// (4096 rows, sharded) and off — the cache-off rows isolate how much of
// the scaling comes from coalescing alone, the cache-on rows add the
// sharded replay path. Absolute numbers are host-dependent; the shape
// (flows/s vs streams, p99 staying bounded) is the reproducible quantity.
//
// `--bits {1,2,4,8}` serves a quantized snapshot instead: the packed
// pipeline end to end (packed encode cache entries, integer tile scoring,
// bytes-planned batches). The cache-bytes column shows the packed ring's
// residency — 1/4 to 1/32 of the float bytes for the same flows.
//
// `--faults` appends a degraded-mode sweep: the same load with the fault
// injector firing (batcher delays, encode failures, in-flight model bit
// flips) and the self-healing auditor installed. The fault columns
// quantify the cost of operating under failure — throughput/latency with
// injection on, how many requests failed explicitly, and how many
// corruption events the audit healed. Clean rows carry zeros in those
// columns so the CSV schema is identical either way.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/exec/execution_context.hpp"
#include "fault/bitflip.hpp"
#include "hdc/quantized.hpp"
#include "serve/fault_injector.hpp"
#include "serve/result_slot.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"

using namespace cyberhd;

namespace {

struct RunResult {
  double seconds = 0;
  double flows_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  serve::ServerStats stats;
};

double percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

/// One measured point: `num_streams` windowed open-loop clients, each
/// submitting `flows_per_stream` flows drawn from its own 64-row working
/// set carved out of the test split. The caller arms the encode cache.
RunResult run_point(const core::Classifier& model, const core::Matrix& pool,
                    std::size_t num_streams, std::size_t flows_per_stream,
                    const serve::ServerConfig& cfg = {},
                    const std::function<void(serve::Server&)>& prime = {}) {
  constexpr std::size_t kWorkingSet = 64;
  constexpr std::size_t kWindow = 32;  // outstanding requests per stream

  serve::Server server(model, pool.cols(), cfg);
  if (prime) prime(server);
  std::vector<std::vector<std::uint64_t>> latencies(num_streams);
  std::vector<std::thread> streams;
  core::Timer timer;
  for (std::size_t s = 0; s < num_streams; ++s) {
    streams.emplace_back([&, s] {
      // The stream's working set: a contiguous 64-row slice, distinct per
      // stream (wrapping over the test split when streams * 64 exceeds it).
      const std::size_t base = (s * kWorkingSet) % (pool.rows() - kWorkingSet);
      std::vector<serve::ResultSlot> window(kWindow);
      auto& lat = latencies[s];
      lat.reserve(flows_per_stream);
      const auto harvest = [&lat](const serve::ResultSlot& slot) {
        slot.wait();
        lat.push_back(slot.completed_at_us() - slot.submitted_at_us());
      };
      for (std::size_t i = 0; i < flows_per_stream; ++i) {
        serve::ResultSlot& slot = window[i % kWindow];
        if (i >= kWindow) harvest(slot);  // free the window slot first
        const std::size_t row = base + (i * 7 + s) % kWorkingSet;
        if (!server.submit(pool.row(row), slot)) return;
      }
      const std::size_t tail = std::min(flows_per_stream, kWindow);
      for (std::size_t i = flows_per_stream - tail; i < flows_per_stream;
           ++i) {
        harvest(window[i % kWindow]);
      }
    });
  }
  for (auto& t : streams) t.join();
  RunResult r;
  r.seconds = timer.seconds();
  server.shutdown();
  r.stats = server.stats();
  std::vector<std::uint64_t> all;
  for (auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  r.flows_per_s =
      static_cast<double>(all.size()) / std::max(r.seconds, 1e-9);
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  int bits = 0;  // 0 = float pipeline; {1,2,4,8} = packed quantized
  bool faults = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bits") == 0 && i + 1 < argc) {
      bits = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--bits=", 7) == 0) {
      bits = static_cast<int>(std::strtol(argv[i] + 7, nullptr, 10));
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults = true;
    }
  }
  if (bits != 0 && bits != 1 && bits != 2 && bits != 4 && bits != 8) {
    std::fprintf(stderr, "--bits must be one of {1, 2, 4, 8}\n");
    return 2;
  }
  const std::size_t total_flows = quick ? 3000 : 6000;
  const std::size_t flows_per_stream = quick ? 2000 : 20000;
  const std::vector<std::size_t> stream_counts =
      quick ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};

  std::printf(
      "== Concurrent serving: MPSC ingest + coalescing batcher, %zu flows "
      "per stream ==\n\n",
      flows_per_stream);

  const bench::PreparedData data =
      bench::prepare(nids::DatasetId::kCicIds2017, total_flows, /*seed=*/7);
  hdc::CyberHdClassifier model(bench::paper_cyberhd_config());
  model.fit(data.train.x, data.train.y, data.train.num_classes);

  // The served model: the float classifier, or its quantized snapshot on
  // the packed pipeline when --bits is given.
  std::unique_ptr<hdc::QuantizedCyberHd> quantized;
  if (bits > 0) quantized = std::make_unique<hdc::QuantizedCyberHd>(model, bits);
  const core::Classifier& served =
      quantized != nullptr ? static_cast<const core::Classifier&>(*quantized)
                           : model;
  const auto arm_cache = [&](std::size_t rows) {
    if (quantized != nullptr) {
      quantized->set_encode_cache(rows);
    } else {
      model.set_encode_cache(rows);
    }
  };
  const auto cache = [&]() -> const hdc::EncodeCache* {
    return quantized != nullptr ? quantized->encode_cache()
                                : model.encode_cache();
  };

  // Stage-1 cost in isolation, measured bench-side (ServerStats carries no
  // per-stage split): one encode-tile pass over a probe block — the work
  // every cache miss does (the fused encode-and-pack tile when --bits is
  // given), bypassing the cache. The caller arms a fresh cache before the
  // serving run, so the run still starts cold. Returns microseconds per
  // flow.
  const std::size_t probe_rows =
      std::min<std::size_t>(data.test.x.rows(), 1024);
  const auto cold_encode_us = [&]() -> double {
    core::Timer timer;
    if (quantized != nullptr) {
      hdc::PackedStaging staging;
      const hdc::QuantizedHdcModel& qm = quantized->model();
      quantized->encode_tile_packed(
          data.test.x, 0, probe_rows,
          staging.prepare(probe_rows, qm.dims(), qm.bits()),
          qm.packed_row_bytes());
    } else {
      core::Matrix staging(probe_rows, model.physical_dims());
      model.encoder().encode_tile(data.test.x, 0, probe_rows, staging.data(),
                                  staging.cols(), model.exec());
    }
    return timer.seconds() * 1e6 / static_cast<double>(probe_rows);
  };

  std::printf("model %s, planner batch %zu rows, linger %sus\n\n",
              served.name().c_str(), served.preferred_batch_rows(data.test.x),
              std::to_string(serve::Server::linger_from_env()).c_str());

  bench::print_row({"streams/cache", "flows/s", "cold enc/s", "p50", "p99",
                    "batch rows", "batches", "cache KiB", "rejected",
                    "failed", "healed"});
  bench::print_rule(11);

  std::vector<core::CsvRow> csv_rows;
  const auto record = [&](std::size_t streams, std::size_t cache_rows,
                          bool faulted, double encode_us,
                          const RunResult& r) {
    const hdc::EncodeCacheStats cstats =
        cache() != nullptr ? cache()->stats() : hdc::EncodeCacheStats{};
    const std::string label = std::to_string(streams) + " x " +
                              (cache_rows > 0 ? "hot" : "off") +
                              (faulted ? "+F" : "");
    bench::print_row(
        {label, bench::fmt(r.flows_per_s, 0), bench::fmt(1e6 / encode_us, 0),
         bench::fmt_time(r.p50_us * 1e-6), bench::fmt_time(r.p99_us * 1e-6),
         bench::fmt(r.stats.mean_batch_rows, 1),
         std::to_string(r.stats.batches),
         bench::fmt(static_cast<double>(cstats.bytes_resident) / 1024.0, 1),
         std::to_string(r.stats.rejected), std::to_string(r.stats.failed),
         std::to_string(r.stats.recoveries)});
    csv_rows.push_back(
        {std::to_string(streams), std::to_string(cache_rows),
         std::to_string(bits), std::to_string(r.stats.completed),
         bench::fmt(r.flows_per_s, 1), bench::fmt(r.p50_us, 1),
         bench::fmt(r.p99_us, 1), bench::fmt(encode_us, 2),
         bench::fmt(r.stats.mean_batch_rows, 2),
         std::to_string(r.stats.batches),
         std::to_string(cstats.bytes_resident),
         std::to_string(cstats.bytes_capacity),
         std::to_string(r.stats.rejected),
         std::to_string(serve::Server::linger_from_env()),
         std::to_string(faulted ? 1 : 0), std::to_string(r.stats.ok),
         std::to_string(r.stats.expired), std::to_string(r.stats.failed),
         std::to_string(r.stats.injected_delays),
         std::to_string(r.stats.injected_encode_failures),
         std::to_string(r.stats.injected_bitflips),
         std::to_string(r.stats.corruptions),
         std::to_string(r.stats.recoveries),
         std::to_string(cstats.borrowed_rows)});
  };

  // Clean sweep: injection pinned off (not inherited from the
  // environment) so the committed numbers stay comparable across hosts.
  serve::ServerConfig clean_cfg;
  clean_cfg.faults = serve::FaultConfig{};
  for (const std::size_t cache_rows : {std::size_t{0}, std::size_t{4096}}) {
    for (const std::size_t streams : stream_counts) {
      const double encode_us = cold_encode_us();
      arm_cache(cache_rows);
      record(streams, cache_rows, false, encode_us,
             run_point(served, data.test.x, streams, flows_per_stream,
                       clean_cfg));
    }
  }

  if (faults) {
    // Degraded-mode sweep, hot cache only: a fixed injection mix (stall
    // some flushes, fail some encodes, flip live model bits) with the
    // snapshot-backed auditor healing corruption in-line. OK responses
    // remain exact; the interesting delta is throughput and tail latency.
    serve::FaultConfig mix;
    mix.seed = 42;
    mix.delay_p = 0.02;
    mix.delay_us = 200;
    mix.encode_fail_p = 0.01;
    mix.bitflip_p = 0.02;
    mix.bitflip_rate = 0.002;
    serve::ServerConfig fault_cfg;
    fault_cfg.faults = mix;

    serve::SnapshotManager snapshots(3);
    snapshots.capture(model);
    std::unique_ptr<serve::ModelAuditor> auditor =
        quantized != nullptr
            ? std::make_unique<serve::ModelAuditor>(*quantized, snapshots)
            : std::make_unique<serve::ModelAuditor>(model, snapshots);
    const auto prime = [&](serve::Server& server) {
      auditor->rebaseline();  // cache arming may have reset packed state
      server.set_auditor(auditor.get());
      server.fault_injector()->set_bitflip_hook(
          [&](double rate, core::Rng& rng) {
            if (quantized != nullptr) {
              fault::inject_hdc(quantized->model(), rate, rng);
            } else {
              core::Matrix& w = model.model().weights();
              fault::inject_floats({w.data(), w.rows() * w.cols()}, rate,
                                   rng);
            }
          });
    };
    for (const std::size_t streams : stream_counts) {
      const double encode_us = cold_encode_us();
      arm_cache(4096);
      record(streams, 4096, true, encode_us,
             run_point(served, data.test.x, streams, flows_per_stream,
                       fault_cfg, prime));
    }
  }

  std::printf(
      "\nshape: flows/s should grow (or hold) with streams — coalescing "
      "turns concurrent streams into planner-sized batches; hot-cache rows "
      "add the sharded replay path on top.%s\n",
      faults ? " +F rows run the same load with fault injection firing and "
               "the integrity auditor healing in-line — OK responses stay "
               "exact; the cost shows up in flows/s and p99."
             : "");

  bench::emit_csv("serving_concurrent.csv",
                  {"streams", "cache_rows", "bits", "flows", "flows_per_s",
                   "p50_us", "p99_us", "encode_us", "mean_batch_rows",
                   "batches",
                   "bytes_resident", "bytes_capacity", "rejected",
                   "linger_us", "faults", "ok", "expired", "failed",
                   "injected_delays", "injected_encode_failures",
                   "injected_bitflips", "corruptions", "recoveries",
                   "borrowed_rows"},
                  csv_rows);
  return 0;
}
