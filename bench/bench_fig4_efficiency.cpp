// Reproduces paper Fig. 4: training time and inference latency (log scale)
// of CyberHD vs. DNN, SVM, and BaselineHD(D* = 4k) on the four corpora.
//
// Expected shape (paper): CyberHD trains ~2.47x faster than the DNN and
// ~1.85x faster than BaselineHD(4k), infers ~15.29x faster than
// BaselineHD(4k); the (kernel) SVM is the slowest at both ends because its
// cost scales with the support-vector count.
//
// Inference is timed two ways: the per-sample predict() loop (the
// historical shape of this bench) and the batch path (predict_batch), which
// amortizes encode across the test tile the way the paper's deployment
// measures it. Both per-query latencies are reported; the headline ratio
// uses the batch path.
//
// Absolute seconds depend on the host; the reported ratios are the
// reproducible quantity.
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"

using namespace cyberhd;

namespace {

struct Timing {
  double train_s = 0;
  double infer_total_s = 0;
  double infer_per_sample_us = 0;
  double batch_total_s = 0;
  double batch_per_sample_us = 0;
  double accuracy = 0;
};

Timing measure(core::Classifier& model, const bench::PreparedData& data) {
  Timing t;
  core::Timer timer;
  model.fit(data.train.x, data.train.y, data.train.num_classes);
  t.train_s = timer.seconds();

  // This bench compares per-sample vs batch *encode* pipelines across
  // models; fit() default-arms the serving encode cache, which would put
  // all-miss hashing/insert overhead (and the lazy ring allocation) inside
  // the timed batch pass over a fresh test tile. Pin it off — the cache's
  // own numbers live in BM_ServingThroughput.
  if (auto* hd = dynamic_cast<hdc::CyberHdClassifier*>(&model)) {
    hd->set_encode_cache(0);
  }

  const auto rows = static_cast<double>(data.test.x.rows());

  // Per-sample loop.
  timer.reset();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.test.x.rows(); ++i) {
    if (model.predict(data.test.x.row(i)) == data.test.y[i]) ++correct;
  }
  t.infer_total_s = timer.seconds();
  t.infer_per_sample_us = t.infer_total_s * 1e6 / rows;
  t.accuracy = static_cast<double>(correct) / rows;

  // Batch path over the whole test tile.
  std::vector<int> predicted(data.test.x.rows());
  timer.reset();
  model.predict_batch(data.test.x, predicted);
  t.batch_total_s = timer.seconds();
  t.batch_per_sample_us = t.batch_total_s * 1e6 / rows;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const std::size_t total = quick ? 3000 : 8000;

  std::printf(
      "== Fig. 4: training time and inference latency, %zu flows/dataset "
      "==\n\n",
      total);

  std::vector<core::CsvRow> csv_rows;
  std::vector<double> cyber_train, dnn_train, base_train, svm_train;
  std::vector<double> cyber_infer, base_infer, svm_infer, dnn_infer;
  std::vector<double> cyber_batch, base_batch, mb_train;

  for (nids::DatasetId id : nids::kAllDatasets) {
    const bench::PreparedData data = bench::prepare(id, total, /*seed=*/7);
    std::printf("-- %s --\n", data.name.c_str());
    bench::print_row({"model", "train", "infer/query", "batch/query",
                      "infer total", "accuracy"});
    bench::print_rule(6);

    // `train_batch` is the minibatch size the trainer actually used ("-"
    // for non-HD baselines): recorded so CSV rows collected on hosts with
    // different caches (auto batch is cache-derived) stay comparable.
    const auto report = [&](const std::string& name, const Timing& t,
                            const std::string& train_batch = "-") {
      bench::print_row({name, bench::fmt_time(t.train_s),
                        bench::fmt_time(t.infer_per_sample_us * 1e-6),
                        bench::fmt_time(t.batch_per_sample_us * 1e-6),
                        bench::fmt_time(t.infer_total_s),
                        bench::fmt(t.accuracy * 100) + "%"});
      csv_rows.push_back({data.name, name, bench::fmt(t.train_s, 6),
                          bench::fmt(t.infer_per_sample_us, 3),
                          bench::fmt(t.batch_per_sample_us, 3),
                          bench::fmt(t.accuracy, 4), train_batch});
    };

    {
      baselines::Mlp mlp(bench::paper_mlp_config());
      const Timing t = measure(mlp, data);
      report(mlp.name(), t);
      dnn_train.push_back(t.train_s);
      dnn_infer.push_back(t.infer_per_sample_us);
    }
    {
      baselines::KernelSvm svm;
      const Timing t = measure(svm, data);
      report(svm.name(), t);
      svm_train.push_back(t.train_s);
      svm_infer.push_back(t.infer_per_sample_us);
    }
    {
      auto base = baselines::make_baseline_hd(4096);
      const Timing t = measure(base, data);
      report(base.name(), t);
      base_train.push_back(t.train_s);
      base_infer.push_back(t.infer_per_sample_us);
      base_batch.push_back(t.batch_per_sample_us);
    }
    {
      hdc::CyberHdClassifier cyber(bench::paper_cyberhd_config());
      const Timing t = measure(cyber, data);
      report(cyber.name(), t,
             std::to_string(cyber.config().batch_size));
      cyber_train.push_back(t.train_s);
      cyber_infer.push_back(t.infer_per_sample_us);
      cyber_batch.push_back(t.batch_per_sample_us);
    }
    {
      // The tiled trainer: same paper configuration, cache-derived auto
      // minibatch (tile-kernel scoring + parallel update replay). Accuracy
      // must land within half a point of the row above; train time is the
      // payoff. The resolved batch size goes into the CSV.
      hdc::CyberHdConfig cfg = bench::paper_cyberhd_config();
      cfg.batch_size = 0;  // auto: ExecutionContext derives the L2 tile
      const std::size_t resolved =
          core::ExecutionContext::process().score_block_rows(cfg.dims);
      hdc::CyberHdClassifier cyber(cfg);
      const Timing t = measure(cyber, data);
      report(cyber.name() + "[mb" + std::to_string(resolved) + "]", t,
             std::to_string(resolved));
      mb_train.push_back(t.train_s);
    }
    std::printf("\n");
  }

  const auto ratio = [](const std::vector<double>& num,
                        const std::vector<double>& den) {
    double n = 0, d = 0;
    for (double v : num) n += v;
    for (double v : den) d += v;
    return d > 0 ? n / d : 0.0;
  };

  std::printf("paper shape: CyberHD trains 2.47x faster than DNN, 1.85x "
              "faster than HD(4k); infers 15.29x faster than HD(4k); SVM "
              "slowest\n");
  std::printf("measured   : train DNN/CyberHD = %.2fx, train HD4k/CyberHD = "
              "%.2fx, infer HD4k/CyberHD = %.2fx (batch %.2fx), train "
              "SVM/CyberHD = %.2fx\n",
              ratio(dnn_train, cyber_train), ratio(base_train, cyber_train),
              ratio(base_infer, cyber_infer),
              ratio(base_batch, cyber_batch),
              ratio(svm_train, cyber_train));
  std::printf("tiled train: per-sample / auto-minibatch = %.2fx\n",
              ratio(cyber_train, mb_train));

  bench::emit_csv("fig4_efficiency.csv",
                  {"dataset", "model", "train_s", "infer_us_per_query",
                   "infer_batch_us_per_query", "accuracy", "train_batch"},
                  csv_rows);
  return 0;
}
