// Packed 1-bit hypervectors and popcount similarity.
//
// At 1-bit precision a bipolar hypervector {-1,+1}^D packs into D/64 words;
// the dot product of two bipolar vectors becomes
//   dot = D - 2 * popcount(a XOR b)
// which is the kernel behind the paper's "15.29x faster inference" and its
// FPGA efficiency at low bitwidths. The XOR/popcount scan dispatches through
// core/kernels/ (hardware POPCNT in the scalar backend, a vpshufb nibble-LUT
// reduction in the AVX2 backend).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace cyberhd::core {

/// A {-1,+1}^D hypervector packed one bit per element (bit set = +1).
///
/// Invariant (tail masking): when D is not a multiple of 64, the padding
/// bits of the last word are always zero. popcount(), hamming(), and
/// dot_bipolar() scan whole words and rely on this — a stray padding bit
/// would silently corrupt every similarity score. All mutators restore the
/// invariant; code writing through words() must do the same (clear bits
/// at positions >= dims() in the final word).
class PackedBits {
 public:
  PackedBits() = default;
  /// All-(-1) vector of `dims` elements.
  explicit PackedBits(std::size_t dims);

  /// Logical dimensionality D.
  std::size_t dims() const noexcept { return dims_; }
  /// Storage size: ceil(D / 64) 64-bit words.
  std::size_t num_words() const noexcept { return words_.size(); }
  /// Raw word storage (e.g. for fault injection). Writers must preserve
  /// the tail-masking invariant documented on the class.
  std::uint64_t* words() noexcept { return words_.data(); }
  const std::uint64_t* words() const noexcept { return words_.data(); }

  /// Element i as +1 / -1. Precondition: i < dims().
  int get(std::size_t i) const noexcept;
  /// Set element i from a sign (+1 when v >= 0). Precondition: i < dims().
  void set(std::size_t i, int v) noexcept;
  /// Flip a single element. Precondition: i < dims().
  void flip(std::size_t i) noexcept;

  /// Number of +1 elements. Exact because padding bits are always zero.
  std::size_t popcount() const noexcept;

  bool operator==(const PackedBits&) const = default;

 private:
  std::size_t dims_ = 0;
  std::vector<std::uint64_t> words_;
  void mask_tail() noexcept;
  friend void pack_signs(std::span<const float> x, PackedBits& p);
  friend std::size_t hamming(const PackedBits& a, const PackedBits& b) noexcept;
};

/// Pack sign(x) (zeros count as +1) into a PackedBits of x.size() dims.
PackedBits pack_signs(std::span<const float> x);
/// The same, into caller storage: a reused `p` packs without allocating
/// once its words' capacity fits.
void pack_signs(std::span<const float> x, PackedBits& p);

/// Unpack to bipolar floats (+1.0f / -1.0f).
/// Precondition: out.size() == p.dims().
void unpack_to_floats(const PackedBits& p, std::span<float> out);

/// Hamming distance (number of differing elements).
/// Precondition: a.dims() == b.dims().
std::size_t hamming(const PackedBits& a, const PackedBits& b) noexcept;

/// Bipolar dot product via XOR/popcount: D - 2 * hamming.
/// Precondition: a.dims() == b.dims().
std::int64_t dot_bipolar(const PackedBits& a, const PackedBits& b) noexcept;

/// Cosine similarity of the underlying bipolar vectors: dot / D, in [-1, 1].
/// Returns 0 when dims() == 0. Precondition: a.dims() == b.dims().
float cosine_bipolar(const PackedBits& a, const PackedBits& b) noexcept;

}  // namespace cyberhd::core
