// Reproduces paper Table I: the iso-accuracy effective dimensionality of
// each hypervector bitwidth, and the resulting CPU / FPGA energy
// efficiency, normalized to the 1-bit CPU implementation.
//
// Method: train float HDC models along a dimensionality ladder, quantize
// each to every bitwidth, and record the smallest D whose quantized test
// accuracy reaches the iso-accuracy target (the float CyberHD reference
// accuracy minus a small tolerance). Those measured (bits, D) pairs are
// then priced by the hw:: analytic models of the i9-12900-class CPU and
// Alveo-U50-class FPGA.
//
// Expected shape (paper): effective D grows monotonically as bitwidth
// shrinks (1.2k @ 32b -> 8.8k @ 1b); CPU efficiency is monotone in
// bitwidth (6.6x @ 32b -> 1.0x @ 1b); FPGA efficiency exceeds the CPU
// everywhere and peaks at 8 bits (16x .. 34x .. 26x).
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "hdc/quantized.hpp"
#include "hw/perf_model.hpp"

using namespace cyberhd;

namespace {

constexpr int kBitwidths[] = {32, 16, 8, 4, 2, 1};

/// Paper Table I values, for side-by-side reporting.
constexpr double kPaperEffectiveD[] = {1200, 2100, 3600, 5600, 7500, 8800};
constexpr double kPaperCpu[] = {6.6, 4.0, 2.4, 1.5, 1.2, 1.0};
constexpr double kPaperFpga[] = {16, 24, 34, 31, 28, 26};

/// Test accuracy of `trained` quantized to `bits`, through the batch
/// scorer. The encode cache is off: every test row is scored once, so a
/// cache would only pay inserts.
double quantized_accuracy(const hdc::CyberHdClassifier& trained,
                          const core::Matrix& x, std::span<const int> y,
                          int bits) {
  hdc::QuantizedCyberHd q(trained, bits);
  q.set_encode_cache(0);
  return q.evaluate(x, y);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const std::size_t total = quick ? 3000 : 9000;

  // NSL-KDD stands in for the suite (the paper's table is aggregate).
  const bench::PreparedData data =
      bench::prepare(nids::DatasetId::kNslKdd, total, /*seed=*/7);
  const std::size_t k = data.train.num_classes;

  // Iso-accuracy target: the float CyberHD reference at the paper's D.
  hdc::CyberHdClassifier reference(bench::paper_cyberhd_config());
  reference.fit(data.train.x, data.train.y, k);
  const double ref_acc = reference.evaluate(data.test.x, data.test.y);
  const double target = ref_acc - 0.01;  // within 1% of reference
  std::printf("== Table I: bitwidth vs effective D and energy efficiency ==\n");
  std::printf("reference float accuracy %.2f%%, iso-accuracy target %.2f%%\n\n",
              ref_acc * 100, target * 100);

  // Dimensionality ladder: train float static-encoder models once per D,
  // quantize to every bitwidth.
  const std::vector<std::size_t> ladder = quick
      ? std::vector<std::size_t>{256, 512, 1024, 2048, 4096, 8192}
      : std::vector<std::size_t>{256,  384,  512,  768,  1024, 1536,
                                 2048, 3072, 4096, 6144, 8192, 12288};
  std::vector<std::size_t> effective_d(std::size(kBitwidths), 0);
  std::vector<double> reached_acc(std::size(kBitwidths), 0.0);

  for (std::size_t d : ladder) {
    hdc::CyberHdClassifier model(hdc::baseline_hd_config(d));
    model.fit(data.train.x, data.train.y, k);
    for (std::size_t bi = 0; bi < std::size(kBitwidths); ++bi) {
      if (effective_d[bi] != 0) continue;  // already satisfied at smaller D
      const double acc = quantized_accuracy(model, data.test.x, data.test.y,
                                            kBitwidths[bi]);
      if (acc >= target) {
        effective_d[bi] = d;
        reached_acc[bi] = acc;
      }
    }
  }
  // Any bitwidth that never reached the target is reported at the ladder
  // top (a lower bound on its effective D).
  std::vector<bool> lower_bound_only(std::size(kBitwidths), false);
  for (std::size_t bi = 0; bi < std::size(kBitwidths); ++bi) {
    if (effective_d[bi] == 0) {
      effective_d[bi] = ladder.back();
      lower_bound_only[bi] = true;
    }
  }

  // Price the measured (bits, D) pairs. The workload is one training epoch
  // over the training split.
  const hw::CpuModel cpu;
  const hw::FpgaModel fpga;
  const auto workload = [&](std::size_t dims, int bits) {
    hw::Workload w;
    w.dims = dims;
    w.features = data.train.x.cols();
    w.classes = k;
    w.samples = data.train.x.rows();
    w.bits = bits;
    return w;
  };
  const hw::Workload ref_w =
      workload(effective_d[std::size(kBitwidths) - 1], 1);

  bench::print_row({"bits", "eff. D", "acc %", "CPU x", "FPGA x",
                    "paper D", "paper CPU", "paper FPGA"});
  bench::print_rule(8);
  std::vector<core::CsvRow> csv_rows;
  for (std::size_t bi = 0; bi < std::size(kBitwidths); ++bi) {
    const int bits = kBitwidths[bi];
    const hw::Workload w = workload(effective_d[bi], bits);
    const double cpu_eff = hw::relative_efficiency(cpu, w, cpu, ref_w);
    const double fpga_eff = hw::relative_efficiency(fpga, w, cpu, ref_w);
    // Append-style: GCC 12's -Wrestrict misfires on a chained operator+
    // of string temporaries (GCC bug 105329).
    std::string d_str = lower_bound_only[bi] ? ">" : "";
    d_str += std::to_string(effective_d[bi]);
    const std::string acc_str =
        lower_bound_only[bi] ? "<target" : bench::fmt(reached_acc[bi] * 100);
    bench::print_row({std::to_string(bits), d_str, acc_str,
                      bench::fmt(cpu_eff), bench::fmt(fpga_eff, 1),
                      bench::fmt(kPaperEffectiveD[bi], 0),
                      bench::fmt(kPaperCpu[bi], 1),
                      bench::fmt(kPaperFpga[bi], 0)});
    csv_rows.push_back({std::to_string(bits),
                        std::to_string(effective_d[bi]),
                        bench::fmt(reached_acc[bi], 4),
                        bench::fmt(cpu_eff, 4), bench::fmt(fpga_eff, 4)});
  }

  // Part B: price the paper's own effective-D ladder through the same
  // device models. This isolates the hardware model from our substrate's
  // (weaker) accuracy-vs-bitwidth dependence: given the paper's iso-
  // accuracy dimensionalities, do the architectural models reproduce the
  // paper's efficiency columns?
  std::printf("\n-- device models applied to the paper's effective-D "
              "ladder --\n");
  bench::print_row({"bits", "paper D", "CPU x", "paper CPU", "FPGA x",
                    "paper FPGA"});
  bench::print_rule(6);
  const hw::Workload paper_ref = workload(
      static_cast<std::size_t>(kPaperEffectiveD[std::size(kBitwidths) - 1]),
      1);
  for (std::size_t bi = 0; bi < std::size(kBitwidths); ++bi) {
    const int bits = kBitwidths[bi];
    const hw::Workload w =
        workload(static_cast<std::size_t>(kPaperEffectiveD[bi]), bits);
    bench::print_row({std::to_string(bits),
                      bench::fmt(kPaperEffectiveD[bi], 0),
                      bench::fmt(hw::relative_efficiency(cpu, w, cpu,
                                                         paper_ref)),
                      bench::fmt(kPaperCpu[bi], 1),
                      bench::fmt(hw::relative_efficiency(fpga, w, cpu,
                                                         paper_ref), 1),
                      bench::fmt(kPaperFpga[bi], 0)});
  }

  std::printf(
      "\npaper shape: D grows as bits shrink; CPU monotone toward 1.0x at "
      "1 bit; FPGA above CPU with an interior max at 8 bits\n");
  bench::emit_csv("table1_bitwidth.csv",
                  {"bits", "effective_d", "accuracy", "cpu_eff", "fpga_eff"},
                  csv_rows);
  return 0;
}
