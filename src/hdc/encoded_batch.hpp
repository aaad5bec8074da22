// The row-pointer views the stage-split serving pipeline hands between its
// two stages.
//
// Stage 1 (encode_block, the same function for float and packed rows)
// records where each batch row's encoding lives — a borrowed cache-ring
// entry or a staging row, any mix — in a per-thread pointer table, which
// ScoringWorkspace::float_rows / packed_rows retype into one of the views
// below; stage 2 (HdcModel::similarities_into /
// QuantizedHdcModel::similarities_packed) streams the rows through the
// gather tile kernels without caring where they came from. A contiguous
// batch is just the special case of a table with one pointer per row, so
// every batch scorer has exactly this one input shape.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/matrix.hpp"

namespace cyberhd::hdc {

/// Non-owning INDIRECT view of `n` encoded hypervectors: row r lives at
/// rows[r], an arbitrary address (a borrowed cache-ring entry, a staging
/// row — any mix). Stage 2 scores it through the gather tile kernels.
/// Cheap to copy; neither the pointer table nor the rows it names may
/// outlive their owners (the ScoringWorkspace and its BorrowGuard hold both
/// for exactly one flush).
class EncodedRows {
 public:
  EncodedRows() = default;
  EncodedRows(const float* const* rows, std::size_t n, std::size_t dims)
      : rows_(rows), n_(n), dims_(dims) {
    assert(rows != nullptr || n == 0);
  }

  std::size_t rows() const noexcept { return n_; }
  std::size_t dims() const noexcept { return dims_; }
  bool empty() const noexcept { return n_ == 0; }
  /// The row-pointer table the gather kernels consume.
  const float* const* row_ptrs() const noexcept { return rows_; }

  std::span<const float> row(std::size_t r) const noexcept {
    assert(r < n_);
    return {rows_[r], dims_};
  }

 private:
  const float* const* rows_ = nullptr;
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
};

/// The packed sibling of EncodedRows: a typed row-pointer table over
/// QUANTIZED rows. Exactly one of the two tables is populated, matching
/// the two gather tile kernels:
///
///   bits in {2, 4, 8} — int8 rows of dims levels (one byte per dimension;
///     levels at <= 8 bits fit int8 exactly);
///   bits == 1        — ceil(dims / 64) little-endian 64-bit words per row
///     (bit set = +1), tail bits zero per bitpack.hpp's masking invariant.
///
/// Word rows must be 8-byte aligned (the workspace staging, PackedStaging
/// and the encode cache's ring storage all over-align to 64).
class PackedRows {
 public:
  PackedRows() = default;
  /// int8 rows (bits in {2, 4, 8}).
  PackedRows(const std::int8_t* const* i8_rows, std::size_t n,
             std::size_t dims, int bits)
      : i8_(i8_rows), n_(n), dims_(dims), bits_(bits) {
    assert(i8_rows != nullptr || n == 0);
    assert(bits > 1 && bits <= 8);
  }
  /// Packed word rows (bits == 1).
  PackedRows(const std::uint64_t* const* word_rows, std::size_t n,
             std::size_t dims)
      : words_(word_rows), n_(n), dims_(dims), bits_(1) {
    assert(word_rows != nullptr || n == 0);
  }

  /// Bytes one packed row occupies (the cache entry size and the planner's
  /// bytes-per-row input): dims for int8 rows, ceil(dims / 64) * 8 for
  /// packed 1-bit rows.
  static constexpr std::size_t row_bytes(std::size_t dims,
                                         int bits) noexcept {
    return bits == 1 ? ((dims + 63) / 64) * sizeof(std::uint64_t) : dims;
  }

  std::size_t rows() const noexcept { return n_; }
  std::size_t dims() const noexcept { return dims_; }
  int bits() const noexcept { return bits_; }
  bool empty() const noexcept { return n_ == 0; }
  /// Words per row; only meaningful when bits() == 1.
  std::size_t words() const noexcept { return (dims_ + 63) / 64; }

  /// The int8 row-pointer table. Precondition: bits() > 1.
  const std::int8_t* const* i8_row_ptrs() const noexcept {
    assert(bits_ > 1);
    return i8_;
  }
  /// The packed-word row-pointer table. Precondition: bits() == 1.
  const std::uint64_t* const* word_row_ptrs() const noexcept {
    assert(bits_ == 1);
    return words_;
  }

 private:
  const std::int8_t* const* i8_ = nullptr;
  const std::uint64_t* const* words_ = nullptr;
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
  int bits_ = 8;
};

/// Reusable owning buffer of packed rows for callers that drive the
/// packed tile encoder or the cache themselves (bench_serving_concurrent's
/// cold-encode probe, perfbench's tracing decorator); the library's own
/// stage 1 stages into ScoringWorkspace::staging. 64-byte aligned (so
/// 1-bit word rows stay 8-byte aligned and SIMD loads never straddle
/// lines); grows monotonically, so a loop reuses one allocation.
class PackedStaging {
 public:
  /// Ensure capacity for `rows` rows of PackedRows::row_bytes(dims, bits)
  /// bytes and return the mutable base pointer.
  unsigned char* prepare(std::size_t rows, std::size_t dims, int bits) {
    const std::size_t need = rows * PackedRows::row_bytes(dims, bits);
    if (bytes_.size() < need) bytes_.resize(need);
    return bytes_.data();
  }

 private:
  std::vector<unsigned char, core::AlignedAllocator<unsigned char>> bytes_;
};

}  // namespace cyberhd::hdc
