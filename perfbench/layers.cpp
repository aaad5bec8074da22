// Benchmark-side tracing of the cache, encoder, model and trainer layers,
// and the per-layer metric table.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/exec/execution_context.hpp"
#include "core/rng.hpp"
#include "hdc/encode_cache.hpp"
#include "hdc/encoded_batch.hpp"
#include "hdc/encoder.hpp"
#include "hdc/model.hpp"
#include "hdc/regen.hpp"
#include "hdc/schedule.hpp"
#include "hdc/scoring_workspace.hpp"
#include "hdc/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = cyberhd::core;
namespace hdc = cyberhd::hdc;

namespace {

/// Every per-layer metric, in report order, with the end-to-end metric and
/// workload it is predicted to move.
struct LayerMetricInfo {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr LayerMetricInfo kLayerMetrics[] = {
    {"serve.submit_ns.p50", "ns", "capacity_fps on hot-1bit"},
    {"serve.submit_ns.p99", "ns", "capacity_fps on hot-1bit"},
    {"serve.queue_wait_us.p50", "us", "p50_us, p99_us on both serving"},
    {"serve.queue_wait_us.p99", "us", "p50_us, p99_us on both serving"},
    {"serve.flush_us.p50", "us", "p99_us on cold-float"},
    {"serve.flush_us.p99", "us", "p99_us on cold-float"},
    {"serve.deliver_us.p50", "us", "p50_us on hot-1bit"},
    {"serve.deliver_us.p99", "us", "p50_us on hot-1bit"},
    {"serve.batch_rows", "rows", "cpu_us_per_flow, capacity_fps"},
    {"serve.flushes", "count", "cpu_us_per_flow, capacity_fps"},
    {"serve.rejected", "count", "ok_ratio (1 - fail_ratio)"},
    {"serve.failed", "count", "ok_ratio (1 - fail_ratio)"},
    {"serve.unattributed_us.p50", "us", "remainder of p50_us"},
    {"cache.hit_ratio", "ratio", ">= 0.99 hot-1bit, < 0.01 cold-float"},
    {"cache.self_ns_per_flow", "ns",
     "capacity_fps, cpu_us_per_flow on hot-1bit and cold-float"},
    {"cache.evictions_per_flow", "ratio", "cpu_us_per_flow on cold-float"},
    {"cache.resident_mib", "MiB", "peak_rss_mib"},
    {"encoder.ns_per_miss", "ns",
     "capacity_fps, cpu_us_per_flow, p99_us on cold-float; fit_s"},
    {"encoder.gmac_per_s", "GMAC/s",
     "capacity_fps, cpu_us_per_flow, p99_us on cold-float; fit_s"},
    {"model.ns_per_flow", "ns", "capacity_fps on hot-1bit, less on cold"},
    {"model.gb_per_s", "GB/s", "capacity_fps on hot-1bit, less on cold"},
    {"trainer.encode_s", "s", "fit_s on both serving"},
    {"trainer.bundle_s", "s", "fit_s on both serving"},
    {"trainer.epoch_ms.p50", "ms", "fit_s on both serving"},
    {"trainer.epoch_ms.p99", "ms", "fit_s on both serving"},
    {"trainer.epochs", "count", "fit_s on both serving"},
    {"trainer.regen_s", "s", "fit_s on both serving"},
    {"trainer.refresh_s", "s", "fit_s on both serving"},
    {"trainer.updates", "count", "fit_s on both serving"},
    {"trainer.unattributed_s", "s", "remainder of fit_s"},
    {"trace.overhead_pct", "%", "traced minus untraced, share of untraced"},
    {"trace.valid", "bool", "1 = traced outputs bit-identical"},
};

/// Accumulates one scores_block call's layer times into a BlockCall and
/// its spans into the tracer.
struct CallTimer {
  Tracer& tracer;
  std::int64_t id;
  BlockCall call;
  std::int32_t root;

  CallTimer(Tracer& t, std::int64_t flush_id, std::size_t rows)
      : tracer(t), id(flush_id), root(t.begin("serve.flush", -1, flush_id)) {
    call.start = now_ns();
    call.rows = static_cast<std::uint32_t>(rows);
  }
  /// Run `fn` as a child span of `parent`; returns its duration.
  template <class Fn>
  std::int64_t time(const char* name, std::int32_t parent, Fn&& fn) {
    const std::int32_t span = tracer.begin(name, parent, id);
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t dt = now_ns() - t0;
    tracer.end(span);
    return dt;
  }
};

}  // namespace

// ---- TracedModel ------------------------------------------------------------

TracedModel::TracedModel(const hdc::CyberHdClassifier& model, Tracer& tracer)
    : base_(model), float_(&model), tracer_(tracer) {
  if (model.encode_cache() == nullptr) {
    throw std::invalid_argument("TracedModel: arm the encode cache first");
  }
}

TracedModel::TracedModel(const hdc::QuantizedCyberHd& model, Tracer& tracer)
    : base_(model), packed_(&model), tracer_(tracer) {
  if (model.encode_cache() == nullptr || model.bits() != 1) {
    throw std::invalid_argument(
        "TracedModel: a 1-bit model with its encode cache armed");
  }
}

void TracedModel::fit(const core::Matrix&, std::span<const int>,
                      std::size_t) {
  throw std::logic_error("TracedModel serves a fitted model");
}

void TracedModel::scores_block(const core::Matrix& x, std::size_t begin,
                               std::size_t end, core::Matrix& out) const {
  const std::size_t m = end - begin;
  if (m == 0) return;
  CallTimer timer(tracer_,
                  next_id_.fetch_add(1, std::memory_order_relaxed), m);
  hdc::ScoringWorkspace& ws = hdc::ScoringWorkspace::tl();
  // Both served models run on the process context (config().parallel).
  const core::ExecutionContext& exec = core::ExecutionContext::process();
  const std::size_t features = x.cols();
  const auto gather = [&](std::span<const std::size_t> rows) {
    ws.miss_raw.resize(rows.size(), features);
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const auto src = x.row(begin + rows[j]);
      std::copy(src.begin(), src.end(), ws.miss_raw.row(j).begin());
    }
  };
  // The cache driver's span; the miss callback's encoder spans nest in it.
  const std::int32_t cache_span =
      tracer_.begin("cache.encode_entries_borrowed", timer.root, timer.id);
  const std::int64_t cache_start = now_ns();
  const auto encode_misses = [&](const char* name, auto&& encode) {
    timer.call.encoder_ns += timer.time(name, cache_span, encode);
  };
  const auto cache_done = [&] {
    timer.call.cache_ns = now_ns() - cache_start;
    tracer_.end(cache_span);
  };

  if (float_ != nullptr) {
    const hdc::Encoder& encoder = float_->encoder();
    const std::size_t dims = encoder.output_dim();
    thread_local core::Matrix staging;
    if (staging.rows() < m || staging.cols() != dims) staging.resize(m, dims);
    const std::size_t stride = dims * sizeof(float);
    float_->encode_cache()->encode_entries_borrowed(
        x, begin, end, reinterpret_cast<unsigned char*>(staging.data()),
        stride,
        [&](std::span<const std::size_t> rows, unsigned char* o,
            std::size_t o_stride) {
          gather(rows);
          ws.miss_enc.resize(rows.size(), dims);
          encode_misses("encoder.encode_tile", [&] {
            encoder.encode_tile(ws.miss_raw, 0, rows.size(),
                                ws.miss_enc.data(), dims, exec);
          });
          timer.call.encoder_rows += static_cast<std::uint32_t>(rows.size());
          for (std::size_t j = 0; j < rows.size(); ++j) {
            std::memcpy(o + rows[j] * o_stride, ws.miss_enc.row(j).data(),
                        stride);
          }
        },
        ws, exec);
    cache_done();
    ws.f32_rows.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      ws.f32_rows[i] = reinterpret_cast<const float*>(ws.entry_ptrs[i]);
    }
    timer.call.model_ns =
        timer.time("model.similarities_into", timer.root, [&] {
          float_->model().similarities_into(
              hdc::EncodedRows(ws.f32_rows.data(), m, dims),
              out.row(begin).data(), exec);
        });
  } else {
    const hdc::QuantizedHdcModel& qmodel = packed_->model();
    const std::size_t dims = qmodel.dims();
    const std::size_t row_bytes = qmodel.packed_row_bytes();
    thread_local hdc::PackedStaging staging;
    unsigned char* const staged = staging.prepare(m, dims, 1);
    packed_->encode_cache()->encode_entries_borrowed(
        x, begin, end, staged, row_bytes,
        [&](std::span<const std::size_t> rows, unsigned char* o,
            std::size_t o_stride) {
          gather(rows);
          if (ws.miss_packed.size() < rows.size() * row_bytes) {
            ws.miss_packed.resize(rows.size() * row_bytes);
          }
          encode_misses("encoder.encode_tile_packed", [&] {
            packed_->encode_tile_packed(ws.miss_raw, 0, rows.size(),
                                        ws.miss_packed.data(), row_bytes);
          });
          timer.call.encoder_rows += static_cast<std::uint32_t>(rows.size());
          for (std::size_t j = 0; j < rows.size(); ++j) {
            std::memcpy(o + rows[j] * o_stride,
                        ws.miss_packed.data() + j * row_bytes, row_bytes);
          }
        },
        ws, exec);
    cache_done();
    ws.word_rows.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      ws.word_rows[i] =
          reinterpret_cast<const std::uint64_t*>(ws.entry_ptrs[i]);
    }
    timer.call.model_ns = timer.time(
        "model.similarities_packed", timer.root, [&] {
          qmodel.similarities_packed(
              hdc::PackedRows(ws.word_rows.data(), m, dims),
              out.row(begin).data(), exec);
        });
  }
  timer.call.release_ns = timer.time("cache.borrow_release", timer.root,
                                     [&] { ws.borrow.release(); });
  timer.call.end = now_ns();
  tracer_.end(timer.root);
  const std::lock_guard<std::mutex> lock(mutex_);
  calls_.push_back(timer.call);
}

std::vector<BlockCall> TracedModel::calls() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return calls_;
}

LayerTotals sum_calls(std::span<const BlockCall> calls) {
  LayerTotals t;
  for (const BlockCall& c : calls) {
    t.rows += c.rows;
    t.cache_self_ns += c.cache_ns - c.encoder_ns + c.release_ns;
    t.encoder_ns += c.encoder_ns;
    t.encoder_rows += c.encoder_rows;
    t.model_ns += c.model_ns;
  }
  return t;
}

void report_scoring_layers(Report& report, const LayerTotals& scoring,
                           const LayerTotals& encoding,
                           const ScoringShape& shape, std::uint64_t hits,
                           std::uint64_t misses, std::uint64_t evictions,
                           double resident_mib) {
  const double rows = static_cast<double>(std::max<std::uint64_t>(
      1, scoring.rows));
  const std::uint64_t probes = hits + misses;
  report.set("cache.hit_ratio",
             probes == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(probes),
             "ratio");
  report.set("cache.self_ns_per_flow",
             static_cast<double>(scoring.cache_self_ns) / rows, "ns");
  report.set("cache.evictions_per_flow",
             static_cast<double>(evictions) / rows, "ratio");
  report.set("cache.resident_mib", resident_mib, "MiB");
  if (encoding.encoder_rows > 0 && encoding.encoder_ns > 0) {
    const double enc_rows = static_cast<double>(encoding.encoder_rows);
    report.set("encoder.ns_per_miss",
               static_cast<double>(encoding.encoder_ns) / enc_rows, "ns");
    // Computed work: D x F multiply-adds per encoded row.
    report.set("encoder.gmac_per_s",
               enc_rows * static_cast<double>(shape.dims * shape.features) /
                   static_cast<double>(encoding.encoder_ns),
               "GMAC/s");
  }
  if (scoring.model_ns > 0) {
    report.set("model.ns_per_flow",
               static_cast<double>(scoring.model_ns) / rows, "ns");
    // Computed bytes: every scored row once, plus the class block once per
    // scoring tile of tile_rows rows (the tile kernels stream it per tile).
    const double row_bytes =
        shape.bits == 1 ? static_cast<double>((shape.dims + 63) / 64 * 8)
                        : static_cast<double>(shape.dims * sizeof(float));
    const double tiles =
        std::ceil(rows / static_cast<double>(std::max<std::size_t>(
                             1, shape.tile_rows)));
    const double bytes =
        rows * row_bytes +
        tiles * static_cast<double>(shape.classes) * row_bytes;
    report.set("model.gb_per_s",
               bytes / static_cast<double>(scoring.model_ns), "GB/s");
  }
}

// ---- traced fit -------------------------------------------------------------

FitTrace traced_fit(const core::Matrix& x, std::span<const int> y,
                    std::size_t num_classes, const hdc::CyberHdConfig& cfg,
                    const core::Matrix& reference, Tracer& tracer) {
  if (cfg.train_tile_rows != 0 && cfg.train_tile_rows < x.rows()) {
    throw std::invalid_argument("traced_fit mirrors the in-memory fit only");
  }
  FitTrace ft;
  ft.rows = x.rows();
  const std::int64_t fit_start = now_ns();
  const std::int32_t root = tracer.begin("trainer.fit", -1, 0);

  // CyberHdClassifier::fit, statement for statement.
  core::Rng rng(cfg.seed);
  core::Rng encoder_rng = rng.fork(1);
  core::Rng train_rng = rng.fork(2);
  core::Rng regen_rng = rng.fork(3);
  float lengthscale = cfg.lengthscale;
  if (cfg.encoder == hdc::EncoderKind::kRbf && lengthscale <= 0.0f) {
    core::Rng median_rng = rng.fork(4);
    lengthscale = cfg.lengthscale_factor *
                  hdc::median_heuristic_lengthscale(x, median_rng);
  }
  std::unique_ptr<hdc::Encoder> encoder = hdc::make_encoder(
      cfg.encoder, x.cols(), cfg.dims, encoder_rng, lengthscale);
  hdc::HdcModel model(num_classes, cfg.dims);
  hdc::RegenController regen(cfg.dims, cfg.regen_rate,
                             cfg.regen_anneal ? cfg.regen_steps : 0);
  const core::ExecutionContext& exec = cfg.parallel
                                           ? core::ExecutionContext::process()
                                           : core::ExecutionContext::serial();
  const hdc::Trainer trainer(
      hdc::TrainerConfig{.learning_rate = cfg.learning_rate,
                         .similarity_weighted = cfg.similarity_weighted_update,
                         .batch_size = cfg.batch_size},
      exec);
  const hdc::ScheduleDriver driver(
      hdc::ScheduleConfig{.regen_rate = cfg.regen_rate,
                          .regen_steps = cfg.regen_steps,
                          .epochs_per_step = cfg.epochs_per_step,
                          .final_epochs = cfg.final_epochs},
      regen, model, *encoder, regen_rng);

  // fit_in_memory's phases, each call timed. RegenController::step runs
  // inside ScheduleDriver::run between the epoch before a refresh and the
  // refresh, so it is timed as that gap.
  const auto span = [&](const char* name, auto&& fn) {
    const std::int32_t s = tracer.begin(name, root, 0);
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    tracer.end(s);
    return std::pair<std::int64_t, std::int64_t>{t0, t1};
  };
  core::Matrix encoded;
  const auto [e0, e1] =
      span("trainer.encode_batch",
           [&] { encoder->encode_batch(x, encoded, exec); });
  ft.encode_s = static_cast<double>(e1 - e0) / 1e9;
  std::int64_t last_end = e1;

  hdc::SchedulePhases phases;
  phases.bundle = [&] {
    const auto [t0, t1] = span("trainer.initialize",
                               [&] { trainer.initialize(model, encoded, y); });
    ft.bundle_s += static_cast<double>(t1 - t0) / 1e9;
    last_end = t1;
  };
  phases.run_epoch = [&] {
    hdc::EpochStats stats;
    const auto [t0, t1] = span("trainer.train_epoch", [&] {
      stats = trainer.train_epoch(model, encoded, y, train_rng);
    });
    ft.epoch_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    ft.updates += stats.mispredicted;
    last_end = t1;
    return stats;
  };
  phases.refresh_dims = [&](std::span<const std::size_t> dims) {
    const std::int64_t regen_start = last_end;
    const auto [t0, t1] = span("trainer.refresh", [&] {
      encoder->encode_batch_dims(x, dims, encoded, exec);
      if (cfg.rebundle_after_regen) {
        hdc::RegenRebundle rebundle(num_classes, dims);
        for (std::size_t i = 0; i < encoded.rows(); ++i) {
          rebundle.add_row(encoded.row(i), static_cast<std::size_t>(y[i]));
        }
        rebundle.apply(model, y);
      }
    });
    tracer.add("trainer.regen_step", regen_start, t0, root, 0);
    ft.regen_s += static_cast<double>(t0 - regen_start) / 1e9;
    ft.refresh_s += static_cast<double>(t1 - t0) / 1e9;
    last_end = t1;
  };
  hdc::FitReport fit_report;
  driver.run(fit_report, phases);
  tracer.end(root);
  ft.wall_s = static_cast<double>(now_ns() - fit_start) / 1e9;

  const core::Matrix& w = model.weights();
  ft.matches = w.rows() == reference.rows() &&
               w.cols() == reference.cols() &&
               std::memcmp(w.data(), reference.data(),
                           w.rows() * w.cols() * sizeof(float)) == 0;
  return ft;
}

void report_trainer_layers(Report& report, const FitTrace& fit) {
  double epochs_s = 0.0;
  for (const double ms : fit.epoch_ms) epochs_s += ms / 1e3;
  report.set("trainer.encode_s", fit.encode_s, "s");
  report.set("trainer.bundle_s", fit.bundle_s, "s");
  report.set("trainer.epoch_ms.p50", quantile(fit.epoch_ms, 0.50), "ms");
  report.set("trainer.epoch_ms.p99", quantile(fit.epoch_ms, 0.99), "ms");
  report.set("trainer.epochs", static_cast<double>(fit.epoch_ms.size()),
             "count");
  report.set("trainer.regen_s", fit.regen_s, "s");
  report.set("trainer.refresh_s", fit.refresh_s, "s");
  report.set("trainer.updates", static_cast<double>(fit.updates), "count");
  report.set("trainer.unattributed_s",
             fit.wall_s - (fit.encode_s + fit.bundle_s + epochs_s +
                           fit.regen_s + fit.refresh_s),
             "s");
}

void finish_layer_report(Report& report, const std::string& workload) {
  std::printf("\nper-layer (%s, traced run)\n", workload.c_str());
  std::printf("  %-28s %16s %-7s  predicted to move\n", "metric", "value",
              "unit");
  for (const LayerMetricInfo& m : kLayerMetrics) {
    bool present = false;
    for (const Metric& r : report.metrics) present |= r.name == m.name;
    if (!present) report.set(m.name, 0.0, m.unit);
    std::printf("  %-28s %16.4f %-7s  %s%s\n", m.name, report.get(m.name),
                m.unit, m.moves, present ? "" : "  [layer not run]");
  }
  std::fflush(stdout);
}

}  // namespace perfbench
