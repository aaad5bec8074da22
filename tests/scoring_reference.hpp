// Written-out scoring references the HDC scorer tests compare against.
//
// Every HDC score — per-sample or batched, cache on or off — comes out of
// one pipeline (encode tile, then a gather tile scorer), so the pipeline
// cannot be its own oracle. These references rebuild each score from the
// tested primitives instead, one row and one class at a time: the
// encoder's per-row encode(), then
//   float:     HdcModel::cosine_from_dot(core::dot, core::norm2, norm2);
//   1 bit:     core::cosine_bipolar over core::pack_signs;
//   2-32 bits: core::cosine_quantized over core::quantize.
// The pipeline must reproduce them bit for bit on every kernel backend.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/bitpack.hpp"
#include "core/matrix.hpp"
#include "core/quantize.hpp"
#include "hdc/encoder.hpp"
#include "hdc/model.hpp"
#include "hdc/quantized.hpp"

namespace cyberhd::reference {

/// Cosine of the encoded query `h` to every class of `model`.
inline void similarities(const hdc::HdcModel& model, std::span<const float> h,
                         std::span<float> out) {
  const float hn = core::norm2(h);
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    const std::span<const float> cls = model.class_vector(c);
    out[c] = hdc::HdcModel::cosine_from_dot(core::dot(cls, h), hn,
                                            core::norm2(cls));
  }
}

/// Quantized-domain cosine of the encoded query `h` to every class of
/// `model`, the query quantized at the model's bitwidth.
inline void similarities(const hdc::QuantizedHdcModel& model,
                         std::span<const float> h, std::span<float> out) {
  if (model.bits() == 1) {
    const core::PackedBits q = core::pack_signs(h);
    for (std::size_t c = 0; c < model.num_classes(); ++c) {
      out[c] = core::cosine_bipolar(q, model.packed_classes()[c]);
    }
    return;
  }
  const core::QuantizedVector q = core::quantize(h, model.bits());
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    out[c] = core::cosine_quantized(q, model.level_classes()[c]);
  }
}

/// Reference scores of every row of `x`: encoder.encode(), then
/// similarities() against `model`.
template <typename Model>
core::Matrix scores(const hdc::Encoder& encoder, const Model& model,
                    const core::Matrix& x) {
  core::Matrix out(x.rows(), model.num_classes());
  std::vector<float> h(encoder.output_dim());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    encoder.encode(x.row(i), h);
    similarities(model, h, out.row(i));
  }
  return out;
}

}  // namespace cyberhd::reference
