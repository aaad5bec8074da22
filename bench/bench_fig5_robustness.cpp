// Reproduces paper Fig. 5: accuracy LOSS under random hardware bit flips,
// for a float32 DNN and for CyberHD quantized at {1, 2, 4, 8} bits, across
// flip rates {1, 2, 5, 10, 15}%.
//
// Expected shape (paper): the DNN degrades severely (3.9% .. 41.2%) because
// flips in fp32 exponent bits change weights by orders of magnitude;
// CyberHD at 1 bit barely degrades (0 .. 4.1%, on average 12.9x more robust
// than the DNN); increasing HDC precision lowers robustness.
// The serving-path section repeats the measurement end to end through the
// concurrent front-end (serve::Server over the packed quantized pipeline:
// MPSC ring, coalescing batcher, packed encode cache, tile scoring) at
// 1 and 8 bits. Flips are injected into the deployed model before serving
// and no auditor is installed, so what reaches the client is the degraded
// model's honest argmax — pinning that the serving machinery neither
// masks nor amplifies the robustness story the paper tells.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "fault/bitflip.hpp"
#include "hdc/quantized.hpp"
#include "serve/result_slot.hpp"
#include "serve/server.hpp"

using namespace cyberhd;

namespace {

constexpr double kRates[] = {0.01, 0.02, 0.05, 0.10, 0.15};
constexpr int kHdcBits[] = {1, 2, 4, 8};

/// Paper Fig. 5 rows for side-by-side reporting (percent accuracy loss).
constexpr double kPaperDnn[] = {3.9, 10.7, 17.8, 32.1, 41.2};
constexpr double kPaperHdc[4][5] = {{0.0, 0.0, 1.0, 3.1, 4.1},
                                    {1.9, 2.3, 4.5, 7.9, 10.4},
                                    {2.3, 4.7, 8.4, 13.1, 17.3},
                                    {3.6, 7.9, 13.7, 18.3, 22.9}};

/// Accuracy of a (possibly corrupted) quantized model measured through the
/// serving front-end: every test flow is submitted to a serve::Server and
/// the prediction is the argmax of the delivered scores. Injection via the
/// server's own fault machinery is pinned off — the corruption under test
/// was already planted in the model.
double served_accuracy(const hdc::QuantizedCyberHd& model,
                       const core::Matrix& x, std::span<const int> y) {
  serve::ServerConfig cfg;
  cfg.faults = serve::FaultConfig{};
  serve::Server server(model, x.cols(), cfg);
  std::vector<serve::ResultSlot> slots(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (!server.submit(x.row(i), slots[i])) break;
  }
  server.shutdown();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (!slots[i].ready() || !slots[i].ok()) continue;
    const std::span<const float> scores = slots[i].scores();
    std::size_t best = 0;
    for (std::size_t c = 1; c < scores.size(); ++c) {
      if (scores[c] > scores[best]) best = c;
    }
    if (best == static_cast<std::size_t>(y[i])) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(x.rows());
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const std::size_t total = quick ? 3000 : 8000;
  const int trials = quick ? 3 : 8;

  const bench::PreparedData data =
      bench::prepare(nids::DatasetId::kNslKdd, total, /*seed=*/7);
  const std::size_t k = data.train.num_classes;

  std::printf("== Fig. 5: accuracy loss (%%) under random bit flips, "
              "%d injection seeds ==\n\n",
              trials);

  // Train both clean models once. The DNN is evaluated at its deployed
  // 8-bit fixed-point representation (edge inference), so its clean
  // accuracy is measured after a fault-free quantize/dequantize pass.
  baselines::Mlp mlp(bench::paper_mlp_config());
  mlp.fit(data.train.x, data.train.y, k);
  double mlp_clean;
  {
    baselines::Mlp deployed = mlp;
    core::Rng rng(1);
    fault::inject_mlp_quantized(deployed, 8, 0.0, rng);
    mlp_clean = deployed.evaluate(data.test.x, data.test.y);
  }

  hdc::CyberHdClassifier cyber(bench::paper_cyberhd_config());
  cyber.fit(data.train.x, data.train.y, k);

  bench::print_row({"model", "1%", "2%", "5%", "10%", "15%"});
  bench::print_rule(6);
  std::vector<core::CsvRow> csv_rows;

  // DNN row (deployed 8-bit fixed point).
  {
    std::vector<std::string> cells = {"DNN (8-bit deploy)"};
    core::CsvRow csv = {"dnn_int8"};
    for (double rate : kRates) {
      double loss = 0;
      for (int t = 0; t < trials; ++t) {
        baselines::Mlp faulty = mlp;
        core::Rng rng(1000 + t * 17 +
                      static_cast<std::uint64_t>(rate * 1000));
        fault::inject_mlp_quantized(faulty, 8, rate, rng);
        loss += mlp_clean - faulty.evaluate(data.test.x, data.test.y);
      }
      loss = std::max(0.0, loss / trials);
      cells.push_back(bench::fmt(loss * 100, 1));
      csv.push_back(bench::fmt(loss * 100, 3));
    }
    bench::print_row(cells);
    csv_rows.push_back(csv);
  }

  // CyberHD rows per bitwidth.
  double hdc1_mean_loss = 0;
  double dnn_mean_loss = 0;
  for (std::size_t bi = 0; bi < std::size(kHdcBits); ++bi) {
    const int bits = kHdcBits[bi];
    // Direct accuracy through the batch scorer, encode cache off: each
    // test row is scored once per model, so a cache would only pay
    // inserts. Flips go into the deployed model, as in the serving rows.
    hdc::QuantizedCyberHd clean(cyber, bits);
    clean.set_encode_cache(0);
    const double clean_acc = clean.evaluate(data.test.x, data.test.y);
    std::vector<std::string> cells = {"CyberHD " + std::to_string(bits) +
                                      "-bit"};
    core::CsvRow csv = {"cyberhd_" + std::to_string(bits) + "bit"};
    for (double rate : kRates) {
      double loss = 0;
      for (int t = 0; t < trials; ++t) {
        hdc::QuantizedCyberHd faulty(cyber, bits);
        faulty.set_encode_cache(0);
        core::Rng rng(2000 + t * 23 + bits * 101 +
                      static_cast<std::uint64_t>(rate * 1000));
        fault::inject_hdc(faulty.model(), rate, rng);
        loss += clean_acc - faulty.evaluate(data.test.x, data.test.y);
      }
      loss = std::max(0.0, loss / trials);
      if (bits == 1) hdc1_mean_loss += loss;
      cells.push_back(bench::fmt(loss * 100, 1));
      csv.push_back(bench::fmt(loss * 100, 3));
    }
    bench::print_row(cells);
    csv_rows.push_back(csv);
  }

  // Mean-robustness ratio like the paper's "12.90x higher than DNN".
  {
    double sum = 0;
    for (double rate : kRates) {
      double loss = 0;
      for (int t = 0; t < trials; ++t) {
        baselines::Mlp faulty = mlp;
        core::Rng rng(1000 + t * 17 +
                      static_cast<std::uint64_t>(rate * 1000));
        fault::inject_mlp_quantized(faulty, 8, rate, rng);
        loss += mlp_clean - faulty.evaluate(data.test.x, data.test.y);
      }
      sum += std::max(0.0, loss / trials);
    }
    dnn_mean_loss = sum;
  }

  // Serving-path robustness: the same degraded models, measured through
  // the concurrent front-end instead of the direct batch scorer. Rates
  // include 0 so the clean serving accuracy (which must match the direct
  // path) is in the committed table.
  constexpr double kServeRates[] = {0.0, 0.01, 0.05, 0.15};
  constexpr int kServeBits[] = {1, 8};
  const int serve_trials = quick ? 2 : 4;
  std::vector<core::CsvRow> serve_csv;
  std::printf("\nserving path (packed pipeline end to end, accuracy %%):\n");
  bench::print_row({"served model", "clean", "1%", "5%", "15%"});
  bench::print_rule(5);
  for (const int bits : kServeBits) {
    std::vector<std::string> cells = {"CyberHD " + std::to_string(bits) +
                                      "-bit served"};
    for (const double rate : kServeRates) {
      double acc = 0;
      const int n = rate == 0.0 ? 1 : serve_trials;
      for (int t = 0; t < n; ++t) {
        hdc::QuantizedCyberHd served(cyber, bits);
        served.set_encode_cache(4096);
        if (rate > 0.0) {
          core::Rng rng(3000 + t * 29 + bits * 101 +
                        static_cast<std::uint64_t>(rate * 1000));
          fault::inject_hdc(served.model(), rate, rng);
        }
        acc += served_accuracy(served, data.test.x, data.test.y);
      }
      acc /= n;
      cells.push_back(bench::fmt(acc * 100, 1));
      serve_csv.push_back({std::to_string(bits), bench::fmt(rate * 100, 1),
                           bench::fmt(acc * 100, 3)});
    }
    bench::print_row(cells);
  }
  bench::emit_csv("fig5_serving.csv",
                  {"bits", "rate_pct", "accuracy_pct"}, serve_csv);

  std::printf("\npaper values for comparison:\n");
  bench::print_row({"paper DNN", bench::fmt(kPaperDnn[0], 1),
                    bench::fmt(kPaperDnn[1], 1), bench::fmt(kPaperDnn[2], 1),
                    bench::fmt(kPaperDnn[3], 1),
                    bench::fmt(kPaperDnn[4], 1)});
  for (std::size_t bi = 0; bi < 4; ++bi) {
    std::vector<std::string> cells = {"paper HDC " +
                                      std::to_string(kHdcBits[bi]) + "-bit"};
    for (double v : kPaperHdc[bi]) cells.push_back(bench::fmt(v, 1));
    bench::print_row(cells);
  }

  if (hdc1_mean_loss > 0) {
    std::printf("\nmeasured mean robustness advantage of 1-bit CyberHD over "
                "DNN: %.1fx (paper: 12.9x)\n",
                dnn_mean_loss / hdc1_mean_loss);
  }
  std::printf("paper shape: loss grows with rate for all models; 1-bit "
              "lowest; loss increases with HDC precision; DNN worst\n");

  core::CsvRow header = {"model", "loss_1pct", "loss_2pct", "loss_5pct",
                         "loss_10pct", "loss_15pct"};
  bench::emit_csv("fig5_robustness.csv", header, csv_rows);
  return 0;
}
