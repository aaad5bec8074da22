#include "core/bitpack.hpp"

#include <cassert>

#include "core/kernels/kernels.hpp"

namespace cyberhd::core {

PackedBits::PackedBits(std::size_t dims)
    : dims_(dims), words_((dims + 63) / 64, 0) {}

int PackedBits::get(std::size_t i) const noexcept {
  assert(i < dims_);
  return (words_[i >> 6] >> (i & 63)) & 1u ? 1 : -1;
}

void PackedBits::set(std::size_t i, int v) noexcept {
  assert(i < dims_);
  const std::uint64_t bit = 1ULL << (i & 63);
  if (v >= 0) {
    words_[i >> 6] |= bit;
  } else {
    words_[i >> 6] &= ~bit;
  }
}

void PackedBits::flip(std::size_t i) noexcept {
  assert(i < dims_);
  words_[i >> 6] ^= 1ULL << (i & 63);
}

std::size_t PackedBits::popcount() const noexcept {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

void PackedBits::mask_tail() noexcept {
  const std::size_t rem = dims_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (1ULL << rem) - 1ULL;
  }
}

void pack_signs(std::span<const float> x, PackedBits& p) {
  p.dims_ = x.size();
  p.words_.assign((x.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] >= 0.0f) p.words_[i >> 6] |= 1ULL << (i & 63);
  }
}

PackedBits pack_signs(std::span<const float> x) {
  PackedBits p;
  pack_signs(x, p);
  return p;
}

void unpack_to_floats(const PackedBits& p, std::span<float> out) {
  assert(out.size() == p.dims());
  for (std::size_t i = 0; i < p.dims(); ++i) {
    out[i] = p.get(i) > 0 ? 1.0f : -1.0f;
  }
}

std::size_t hamming(const PackedBits& a, const PackedBits& b) noexcept {
  assert(a.dims() == b.dims());
  return active_kernels().xor_popcount_words(a.words_.data(), b.words_.data(),
                                             a.num_words());
}

std::int64_t dot_bipolar(const PackedBits& a, const PackedBits& b) noexcept {
  const std::int64_t d = static_cast<std::int64_t>(a.dims());
  return d - 2 * static_cast<std::int64_t>(hamming(a, b));
}

float cosine_bipolar(const PackedBits& a, const PackedBits& b) noexcept {
  if (a.dims() == 0) return 0.0f;
  return static_cast<float>(dot_bipolar(a, b)) /
         static_cast<float>(a.dims());
}

}  // namespace cyberhd::core
