// The common classifier interface every model in the repository implements
// (CyberHD, static-encoder HDC, the MLP and SVM baselines), so benchmarks
// and examples can sweep over heterogeneous models uniformly.
//
// Inference is exposed at two granularities: per-sample (predict/scores)
// and batched over the rows of a Matrix (predict_batch/scores_batch).
//
// scores_batch is a *staged driver*, not a virtual: it walks the input in
// sub-batches the model plans (preferred_batch_rows — CyberHD derives it
// from the shared-L3 topology via ExecutionContext::plan_serving) and
// hands each block to the virtual scores_block hook. Models with an
// amortizable encode stage (CyberHD and its quantized snapshots) override
// scores_block to run the block through their stage-split pipeline
// (cached encode, then tile scoring) and run per-sample calls as one-row
// blocks of it, cache bypassed; everything else inherits the looping
// default. Per-row results are identical between the per-sample and
// batched granularities for any block split — batching is a throughput
// optimization, never a semantics change.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/matrix.hpp"

namespace cyberhd::core {

/// Multi-class classifier over dense float features.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Train on rows of `x` with integer labels in [0, num_classes).
  virtual void fit(const Matrix& x, std::span<const int> y,
                   std::size_t num_classes) = 0;

  /// Number of classes the model was fitted for (0 before fit()).
  virtual std::size_t num_classes() const noexcept = 0;

  /// Predict the label of one sample.
  virtual int predict(std::span<const float> x) const = 0;

  /// Per-class decision scores of one sample — higher means more likely.
  /// The scale is model-specific (cosine similarities for HDC, softmax
  /// probabilities for the MLP, margins for the SVMs); argmax(out) always
  /// equals predict(x). Precondition: out.size() == num_classes().
  virtual void scores(std::span<const float> x,
                      std::span<float> out) const = 0;

  /// Predict every row of `x` into `out` (out.size() == x.rows()).
  /// Implemented as argmax over scores_batch — since argmax(scores(x))
  /// equals predict(x) by contract, any model that overrides scores_batch
  /// gets batch prediction for free.
  virtual void predict_batch(const Matrix& x, std::span<int> out) const {
    assert(out.size() == x.rows());
    Matrix scores;
    scores_batch(x, scores);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      out[i] = static_cast<int>(argmax(scores.row(i)));
    }
  }

  /// Scores for every row of `x`; `out` is resized to
  /// x.rows() x num_classes(). The staged driver: walks the rows in
  /// preferred_batch_rows() blocks and scores each through scores_block(),
  /// so a planner-aware model processes one cache-resident sub-batch at a
  /// time end-to-end instead of materializing whole-batch intermediates.
  void scores_batch(const Matrix& x, Matrix& out) const {
    out.resize(x.rows(), num_classes());
    const std::size_t block = std::max<std::size_t>(
        1, preferred_batch_rows(x));
    for (std::size_t t = 0; t < x.rows(); t += block) {
      scores_block(x, t, std::min(t + block, x.rows()), out);
    }
  }

  /// Score rows [begin, end) of `x` into the matching rows of `out` (`out`
  /// is already sized to x.rows() x num_classes()). The default loops
  /// scores(); pipeline-capable models override with their staged path.
  virtual void scores_block(const Matrix& x, std::size_t begin,
                            std::size_t end, Matrix& out) const {
    assert(end <= x.rows() && end <= out.rows());
    for (std::size_t i = begin; i < end; ++i) {
      scores(x.row(i), out.row(i));
    }
  }

  /// How many rows of `x` one scores_block call should cover. The default
  /// (everything at once) preserves the historical single-pass behavior;
  /// models whose intermediates are large — an encoded HDC block is
  /// D / F times bigger than its input rows — override this with a
  /// cache-topology-derived plan.
  virtual std::size_t preferred_batch_rows(const Matrix& x) const {
    return x.rows();
  }

  /// Short human-readable model name for reports.
  virtual std::string name() const = 0;

  /// Accuracy over a labeled set (fraction of correct predictions). Runs
  /// through predict_batch so batch-capable models evaluate at batch speed.
  double evaluate(const Matrix& x, std::span<const int> y) const {
    assert(y.size() == x.rows());
    if (x.rows() == 0) return 0.0;
    std::vector<int> predicted(x.rows());
    predict_batch(x, predicted);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      if (predicted[i] == y[i]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(x.rows());
  }
};

}  // namespace cyberhd::core
