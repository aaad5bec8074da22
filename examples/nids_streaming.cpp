// Streaming intrusion detection: the deployment loop of Fig. 1, on the
// stage-split serving pipeline.
//
// A CyberHD model is trained offline, then flows arrive continuously as a
// *replay-heavy* stream — the defining shape of NIDS traffic, where
// heartbeats, retries, scans, and the benign background repeat the same
// flow feature vectors over and over. The detector drains its collector
// queue in sub-batches the L3-aware batch planner sizes
// (ExecutionContext::plan_serving — no hand-tuned tile constant), and each
// sub-batch runs the two pipeline stages explicitly so their costs are
// inspectable:
//
//   stage 1  encode_block()        — repeated flows are borrowed in place
//                                    from the content-addressed encode
//                                    cache (CYBERHD_ENCODE_CACHE rows);
//                                    fresh flows encode across the SIMD
//                                    kernel layer
//   stage 2  similarities_into()   — the EncodedRows pointer view streams
//                                    through the gather tile scorer while
//                                    still cache-resident
//
// The same stream is driven three times — cache disabled, cache cold, and
// cache warm — and the run reports per-stage timing, the cache hit rate,
// and the warm-over-uncached speedup. Per-flow scores are bit-identical in
// all three passes (the cache replays exactly the vector a fresh encode
// would produce); caching and batching only buy throughput.
//
// With `--streams N` the same stream is instead driven through the
// concurrent serving front-end (serve::Server): N client threads submit
// their interleaved share of the flows into the MPSC submission ring, the
// batcher coalesces concurrent arrivals into planner-sized batches, and
// each thread harvests its own completion slots — the multi-sensor
// deployment shape, where several capture points feed one detector. The
// run reports aggregate flows/s, per-request p50/p99 latency, the mean
// coalesced batch size, the batcher's wake-ups per flush and what
// triggered its flushes, and checks per-flow predictions against the
// serial staged replay (bit-identical by construction).
//
// With `--bits {1,2,4,8}` the trained model is first snapshot into a
// QuantizedCyberHd and the SAME loops run through the packed quantized
// pipeline: the same encode_block with packed entries and
// QuantizedCyberHd::encode_tile_packed as the tile encoder, so rows are
// quantized once at encode time, the encode cache holds packed entries
// (1/4 to 1/32 of the float bytes per flow), and scoring streams the
// PackedRows view through the integer gather kernels. Scores stay
// bit-identical across cache regimes, and `--bits` composes with
// `--streams N` (the concurrent check then replays the quantized serial
// pipeline).
//
//   ./examples/nids_streaming               # staged pipeline, 3 cache regimes
//   ./examples/nids_streaming --streams 4   # concurrent front-end, 4 clients
//   ./examples/nids_streaming --bits 1      # packed 1-bit serving, 3 regimes
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/timer.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/encode_cache.hpp"
#include "hdc/quantized.hpp"
#include "hdc/scoring_workspace.hpp"
#include "nids/datasets.hpp"
#include "nids/preprocess.hpp"
#include "serve/result_slot.hpp"
#include "serve/server.hpp"

using namespace cyberhd;

namespace {

/// One drive of the whole stream through the staged pipeline.
struct StreamResult {
  double encode_s = 0.0;  // stage-1 wall time
  double score_s = 0.0;   // stage-2 wall time
  double total_s = 0.0;
  std::size_t correct = 0;
  std::vector<int> predictions;  // per-flow, for cross-pass bit-checks
};

/// Drain `flows` (one featurized, scaled flow per row) through the
/// pipeline in planner-sized sub-batches; `truth` holds per-flow labels.
StreamResult drive_stream(const hdc::CyberHdClassifier& model,
                          const core::Matrix& flows,
                          const std::vector<std::size_t>& truth,
                          std::size_t batch_rows, bool print_alerts,
                          const nids::DatasetSchema& schema) {
  StreamResult result;
  result.predictions.reserve(flows.rows());
  hdc::ScoringWorkspace ws;
  core::Matrix scores;
  std::size_t alerts = 0;
  const std::size_t dims = model.physical_dims();
  core::Timer total;
  for (std::size_t t = 0; t < flows.rows(); t += batch_rows) {
    const std::size_t end = std::min(t + batch_rows, flows.rows());

    core::Timer clock;
    hdc::encode_block(model.encode_cache(), flows, t, end,
                      dims * sizeof(float),
                      hdc::FloatTileEncode{model.encoder(), model.exec()}, ws,
                      model.exec());
    const hdc::EncodedRows encoded = ws.float_rows(end - t, dims);
    result.encode_s += clock.seconds();

    clock.reset();
    scores.resize(encoded.rows(), model.num_classes());
    model.model().similarities_into(encoded, scores.data(), model.exec());
    ws.borrow.release();  // the borrowed cache rows are scored
    result.score_s += clock.seconds();

    for (std::size_t r = 0; r < encoded.rows(); ++r) {
      const auto row = scores.row(r);
      const std::size_t pred = core::argmax(row);
      result.predictions.push_back(static_cast<int>(pred));
      if (pred == truth[t + r]) ++result.correct;
      if (pred != schema.benign_class && print_alerts) {
        // Margin between best and runner-up cosine = alert confidence.
        float second = -2.0f;
        for (std::size_t c = 0; c < row.size(); ++c) {
          if (c != pred) second = std::max(second, row[c]);
        }
        ++alerts;
        if (alerts <= 6) {
          std::printf("ALERT t=%-5zu class=%-14s margin=%.3f (truth: %s)\n",
                      t + r, schema.class_names[pred].c_str(),
                      row[pred] - second,
                      schema.class_names[truth[t + r]].c_str());
        }
        if (alerts == 7) std::printf("... further alerts suppressed ...\n");
      }
    }
  }
  result.total_s = total.seconds();
  return result;
}

/// The quantized sibling of drive_stream: stage 1 encodes AND packs each
/// sub-batch (borrowing packed hits from the encode cache when armed),
/// stage 2 scores the PackedRows view through the integer gather kernels.
StreamResult drive_stream_quantized(const hdc::QuantizedCyberHd& q,
                                    const core::Matrix& flows,
                                    const std::vector<std::size_t>& truth,
                                    std::size_t batch_rows,
                                    const core::ExecutionContext& exec) {
  StreamResult result;
  result.predictions.reserve(flows.rows());
  hdc::ScoringWorkspace ws;
  core::Matrix scores;
  const auto encode_packed = [&q](const core::Matrix& x, std::size_t begin,
                                  std::size_t end, unsigned char* dst,
                                  std::size_t dst_stride) {
    q.encode_tile_packed(x, begin, end, dst, dst_stride);
  };
  core::Timer total;
  for (std::size_t t = 0; t < flows.rows(); t += batch_rows) {
    const std::size_t end = std::min(t + batch_rows, flows.rows());

    core::Timer clock;
    hdc::encode_block(q.encode_cache(), flows, t, end,
                      q.model().packed_row_bytes(), encode_packed, ws, exec);
    const hdc::PackedRows packed =
        ws.packed_rows(end - t, q.model().dims(), q.bits());
    result.encode_s += clock.seconds();

    clock.reset();
    scores.resize(packed.rows(), q.num_classes());
    q.model().similarities_packed(packed, scores.data(), exec);
    ws.borrow.release();  // the borrowed cache rows are scored
    result.score_s += clock.seconds();

    for (std::size_t r = 0; r < packed.rows(); ++r) {
      const std::size_t pred = core::argmax(scores.row(r));
      result.predictions.push_back(static_cast<int>(pred));
      if (pred == truth[t + r]) ++result.correct;
    }
  }
  result.total_s = total.seconds();
  return result;
}

/// Byte residency of the armed encode cache — the packed pipeline's
/// memory story in one line.
void print_cache_bytes(const hdc::EncodeCache& cache) {
  const hdc::EncodeCacheStats s = cache.stats();
  std::printf(
      "cache bytes: %.1f KiB resident / %.1f KiB capacity "
      "(%zu-byte entries, %zu rows)\n",
      static_cast<double>(s.bytes_resident) / 1024.0,
      static_cast<double>(s.bytes_capacity) / 1024.0, cache.entry_bytes(),
      cache.capacity());
}

void print_pass(const char* name, const StreamResult& r, std::size_t n) {
  std::printf(
      "%-10s %8.0f flows/s | encode %6.1f ms  score %6.1f ms | "
      "accuracy %.2f%%\n",
      name, n / r.total_s, r.encode_s * 1e3, r.score_s * 1e3,
      100.0 * static_cast<double>(r.correct) / static_cast<double>(n));
}

/// `--streams N` mode: N client threads drive the serving front-end
/// concurrently, flow i belonging to stream i % N. Each stream keeps a
/// small window of outstanding requests (open loop within the window) and
/// records its predictions back into a shared per-flow vector, so the
/// whole run can be checked against the serial staged replay.
int run_concurrent(const core::Classifier& model,
                   const hdc::EncodeCache* cache, const core::Matrix& flows,
                   const std::vector<std::size_t>& truth,
                   std::size_t num_streams) {
  // Serial reference: the staged scores_batch pipeline over the same rows.
  core::Matrix ref_scores;
  model.scores_batch(flows, ref_scores);

  serve::Server server(model, flows.cols());
  std::printf(
      "concurrent front-end: %zu streams -> MPSC ring -> batcher "
      "(batch %zu rows, linger %llu us)\n",
      num_streams, server.max_batch_rows(),
      static_cast<unsigned long long>(server.linger_us()));

  constexpr std::size_t kWindow = 16;  // outstanding requests per stream
  std::vector<int> predictions(flows.rows(), -1);
  std::vector<std::vector<std::uint64_t>> latencies(num_streams);
  std::vector<std::thread> clients;
  core::Timer timer;
  for (std::size_t s = 0; s < num_streams; ++s) {
    clients.emplace_back([&, s] {
      std::vector<serve::ResultSlot> window(kWindow);
      std::vector<std::size_t> rows(kWindow, 0);  // flow row per window slot
      auto& lat = latencies[s];
      const auto harvest = [&](std::size_t slot_idx) {
        const serve::ResultSlot& slot = window[slot_idx];
        slot.wait();
        // With CYBERHD_FAULT_* armed, a request may end with an explicit
        // non-OK status (shed, failed) instead of scores; leave its
        // prediction at -1, which the bit-identity check below reports.
        if (slot.ok()) {
          predictions[rows[slot_idx]] =
              static_cast<int>(core::argmax(slot.scores()));
        }
        lat.push_back(slot.completed_at_us() - slot.submitted_at_us());
      };
      std::size_t submitted = 0;
      for (std::size_t i = s; i < flows.rows(); i += num_streams) {
        const std::size_t slot_idx = submitted % kWindow;
        if (submitted >= kWindow) harvest(slot_idx);
        rows[slot_idx] = i;
        if (!server.submit(flows.row(i), window[slot_idx])) return;
        ++submitted;
      }
      const std::size_t tail = std::min(submitted, kWindow);
      for (std::size_t k = 0; k < tail; ++k) {
        harvest((submitted - tail + k) % kWindow);
      }
    });
  }
  for (auto& t : clients) t.join();
  const double seconds = timer.seconds();
  server.shutdown();
  const serve::ServerStats stats = server.stats();

  std::vector<std::uint64_t> all;
  for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  const auto pct = [&](double p) {
    return all.empty() ? 0.0
                       : static_cast<double>(all[static_cast<std::size_t>(
                             p * static_cast<double>(all.size() - 1) + 0.5)]);
  };
  std::size_t correct = 0;
  bool identical = true;
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    if (predictions[i] == static_cast<int>(truth[i])) ++correct;
    if (predictions[i] != static_cast<int>(core::argmax(ref_scores.row(i)))) {
      identical = false;
    }
  }
  std::printf(
      "%8.0f flows/s | p50 %.0f us  p99 %.0f us | mean batch %.1f rows "
      "(%llu batches) | accuracy %.2f%%\n",
      static_cast<double>(all.size()) / std::max(seconds, 1e-9), pct(0.50),
      pct(0.99), stats.mean_batch_rows,
      static_cast<unsigned long long>(stats.batches),
      100.0 * static_cast<double>(correct) /
          static_cast<double>(flows.rows()));
  std::printf(
      "batcher: %.2f wake-ups per scoring flush (%llu size-, %llu "
      "linger-triggered flushes)\n",
      static_cast<double>(stats.batcher_wakes) /
          static_cast<double>(std::max<std::uint64_t>(1, stats.batches)),
      static_cast<unsigned long long>(stats.size_flushes),
      static_cast<unsigned long long>(stats.linger_flushes));
  if (cache != nullptr) print_cache_bytes(*cache);
  const std::uint64_t degraded = stats.expired + stats.failed;
  if (degraded > 0) {
    // Fault injection (CYBERHD_FAULT_*) was armed: some requests ended
    // with an explicit non-OK status instead of scores. That is the
    // contract working, not a bug — only OK results must match.
    std::printf("degraded mode: %llu expired, %llu failed explicitly\n",
                static_cast<unsigned long long>(stats.expired),
                static_cast<unsigned long long>(stats.failed));
    return 0;
  }
  std::printf("predictions bit-identical to serial staged replay: %s\n",
              identical ? "yes" : "NO — BUG");
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_streams = 0;  // 0 = staged three-pass demo (the default)
  int bits = 0;                 // 0 = float pipeline; {1,2,4,8} = packed
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--streams") == 0 && i + 1 < argc) {
      num_streams = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr,
                                                          10));
    } else if (std::strncmp(argv[i], "--streams=", 10) == 0) {
      num_streams = static_cast<std::size_t>(std::strtoul(argv[i] + 10,
                                                          nullptr, 10));
    } else if (std::strcmp(argv[i], "--bits") == 0 && i + 1 < argc) {
      bits = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--bits=", 7) == 0) {
      bits = static_cast<int>(std::strtol(argv[i] + 7, nullptr, 10));
    }
  }
  if (bits != 0 && bits != 1 && bits != 2 && bits != 4 && bits != 8) {
    std::fprintf(stderr, "--bits must be one of {1, 2, 4, 8}\n");
    return 2;
  }
  // ---- offline phase: train on historical flows ---------------------------
  const nids::FlowSynthesizer synth =
      nids::make_synthesizer(nids::DatasetId::kCicIds2017, /*seed=*/11);
  const nids::Dataset history = synth.generate(6000, /*stream=*/0);
  const core::Matrix expanded = nids::expand_features(history);
  nids::MinMaxScaler scaler;
  scaler.fit(expanded);
  core::Matrix scaled = expanded;
  scaler.transform(scaled);

  hdc::CyberHdConfig config;
  config.dims = 512;
  hdc::CyberHdClassifier model(config);
  model.fit(scaled, history.y, history.schema.num_classes());
  std::printf("offline training done: %s on %zu historical flows\n",
              model.name().c_str(), history.size());

  // ---- build the replay stream --------------------------------------------
  // A working set of distinct flows plus a replay-heavy arrival process:
  // each arrival is, with kReplayRate probability, an exact repeat of a
  // working-set flow (what a capture ring actually sees), otherwise a
  // fresh flow that joins the working set ring-wise.
  const std::size_t kStream = 6000;
  const std::size_t kWorkingSet = 256;
  const double kReplayRate = 0.80;
  const auto& schema = history.schema;
  core::Rng traffic_rng(99);
  std::vector<float> raw_flow(schema.num_features());
  std::vector<float> features(schema.encoded_width());

  core::Matrix pool(kWorkingSet, schema.encoded_width());
  std::vector<std::size_t> pool_truth(kWorkingSet);
  std::size_t pool_size = 0, pool_next = 0;
  const auto fresh_flow = [&](std::span<float> out) {
    const auto truth = static_cast<std::size_t>(
        traffic_rng.categorical(synth.class_prior()));
    synth.sample_flow(truth, raw_flow, traffic_rng);
    nids::expand_one(schema, raw_flow, features);
    std::copy(features.begin(), features.end(), out.begin());
    return truth;
  };

  core::Matrix flows(kStream, schema.encoded_width());
  std::vector<std::size_t> truth(kStream);
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < kStream; ++i) {
    if (pool_size > 0 && traffic_rng.uniform(0.0, 1.0) < kReplayRate) {
      const auto pick = static_cast<std::size_t>(
          traffic_rng.uniform(0.0, static_cast<double>(pool_size)));
      const auto src = pool.row(std::min(pick, pool_size - 1));
      std::copy(src.begin(), src.end(), flows.row(i).begin());
      truth[i] = pool_truth[std::min(pick, pool_size - 1)];
      ++replayed;
    } else {
      truth[i] = fresh_flow(flows.row(i));
      const auto dst = pool.row(pool_next);
      std::copy(flows.row(i).begin(), flows.row(i).end(), dst.begin());
      pool_truth[pool_next] = truth[i];
      pool_next = (pool_next + 1) % kWorkingSet;
      pool_size = std::min(pool_size + 1, kWorkingSet);
    }
  }
  scaler.transform(flows);

  if (num_streams > 0) {
    std::printf(
        "stream: %zu flows, %.0f%% replays of a %zu-flow working set\n",
        kStream, 100.0 * static_cast<double>(replayed) / kStream,
        kWorkingSet);
    if (bits > 0) {
      hdc::QuantizedCyberHd q(model, bits);
      q.set_encode_cache(hdc::EncodeCache::capacity_from_env());
      std::printf("quantized front-end: %s, packed %zu bytes/flow\n",
                  q.name().c_str(), q.model().packed_row_bytes());
      return run_concurrent(q, q.encode_cache(), flows, truth, num_streams);
    }
    model.set_encode_cache(hdc::EncodeCache::capacity_from_env());
    return run_concurrent(model, model.encode_cache(), flows, truth,
                          num_streams);
  }

  if (bits > 0) {
    // ---- packed quantized pipeline, same three cache regimes --------------
    hdc::QuantizedCyberHd q(model, bits);
    const std::size_t batch_rows = q.preferred_batch_rows(flows);
    std::printf(
        "quantized pipeline: %s, packed %zu bytes/flow (float: %zu); "
        "planner: %zu rows/drain\n\n",
        q.name().c_str(), q.model().packed_row_bytes(),
        config.dims * sizeof(float), batch_rows);

    q.set_encode_cache(0);
    const StreamResult uncached =
        drive_stream_quantized(q, flows, truth, batch_rows,
                               model.exec());
    print_pass("no-cache", uncached, kStream);
    std::printf(
        "cold-path encode: %8.0f flows/s (every flow pays the fused "
        "tile-encode-and-pack — the cache-miss rate bound)\n",
        static_cast<double>(kStream) / uncached.encode_s);

    const std::size_t cache_rows = hdc::EncodeCache::capacity_from_env();
    if (cache_rows == 0) {
      std::printf("CYBERHD_ENCODE_CACHE=0: cache passes skipped\n");
      return 0;
    }
    q.set_encode_cache(cache_rows);
    const StreamResult cold =
        drive_stream_quantized(q, flows, truth, batch_rows,
                               model.exec());
    print_pass("cold-cache", cold, kStream);
    const StreamResult warm =
        drive_stream_quantized(q, flows, truth, batch_rows,
                               model.exec());
    print_pass("warm-cache", warm, kStream);

    const hdc::EncodeCacheStats stats = q.encode_cache()->stats();
    std::printf(
        "\nencode cache (%zu rows): hit rate %.1f%%; warm vs no-cache "
        "speedup %.2fx\n",
        cache_rows, 100.0 * stats.hit_rate(),
        uncached.total_s / warm.total_s);
    print_cache_bytes(*q.encode_cache());
    std::printf("scores bit-identical across cache regimes: %s\n",
                (uncached.predictions == cold.predictions &&
                 uncached.predictions == warm.predictions)
                    ? "yes"
                    : "NO — BUG");
    return (uncached.predictions == cold.predictions &&
            uncached.predictions == warm.predictions)
               ? 0
               : 1;
  }

  // ---- online phase: the staged pipeline, three cache regimes -------------
  const core::ServingPlan plan = model.exec().plan_serving(config.dims);
  std::printf(
      "stream: %zu flows, %.0f%% replays of a %zu-flow working set; "
      "planner: %zu rows/sub-batch x %zu L3 domain(s) = %zu rows/drain\n\n",
      kStream, 100.0 * static_cast<double>(replayed) / kStream, kWorkingSet,
      plan.block_rows, plan.domains, plan.batch_rows);

  // Alert demo first, untimed (printing and the runner-up margin scan
  // would bias whichever timed pass carried them); the three timed passes
  // below run the identical code path and differ only in cache regime.
  model.set_encode_cache(0);
  drive_stream(model, flows, truth, plan.batch_rows,
               /*print_alerts=*/true, schema);
  std::printf("\n");

  const StreamResult uncached = drive_stream(model, flows, truth,
                                             plan.batch_rows,
                                             /*print_alerts=*/false, schema);
  print_pass("no-cache", uncached, kStream);
  std::printf(
      "cold-path encode: %8.0f flows/s (every flow rides the batched "
      "encode tile — the cache-miss rate bound)\n",
      static_cast<double>(kStream) / uncached.encode_s);

  const std::size_t cache_rows = hdc::EncodeCache::capacity_from_env();
  if (cache_rows == 0) {
    std::printf("CYBERHD_ENCODE_CACHE=0: cache passes skipped\n");
    return 0;
  }
  model.set_encode_cache(cache_rows);
  const StreamResult cold = drive_stream(model, flows, truth,
                                         plan.batch_rows,
                                         /*print_alerts=*/false, schema);
  const hdc::EncodeCacheStats cold_stats = model.encode_cache()->stats();
  print_pass("cold-cache", cold, kStream);

  const StreamResult warm = drive_stream(model, flows, truth,
                                         plan.batch_rows,
                                         /*print_alerts=*/false, schema);
  const hdc::EncodeCacheStats warm_stats = model.encode_cache()->stats();
  print_pass("warm-cache", warm, kStream);

  const auto rate = [](const hdc::EncodeCacheStats& after,
                       const hdc::EncodeCacheStats& before) {
    const double h = static_cast<double>(after.hits - before.hits);
    const double m = static_cast<double>(after.misses - before.misses);
    return h + m == 0.0 ? 0.0 : h / (h + m);
  };
  std::printf(
      "\nencode cache (%zu rows): cold hit rate %.1f%%, warm hit rate "
      "%.1f%%; warm vs no-cache speedup %.2fx (encode stage alone %.2fx)\n",
      cache_rows, 100.0 * rate(cold_stats, {}),
      100.0 * rate(warm_stats, cold_stats), uncached.total_s / warm.total_s,
      uncached.encode_s / warm.encode_s);
  print_cache_bytes(*model.encode_cache());
  const bool identical = uncached.predictions == cold.predictions &&
                         uncached.predictions == warm.predictions;
  std::printf("scores bit-identical across cache regimes: %s\n",
              identical ? "yes" : "NO — BUG");
  return identical ? 0 : 1;
}
