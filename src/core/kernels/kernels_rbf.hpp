// The fused RBF encode tile's three bodies (kernels_rbf.cpp), which the
// scalar, avx2 and avx512 tables wire into Kernels::cos_rbf_tile_f32.
// Private to the kernel layer; callers go through the Kernels table.
#pragma once

#include <cstddef>

namespace cyberhd::core::detail {

void cos_rbf_tile_f32_scalar(const float* bases, std::size_t ld,
                             std::size_t dims, std::size_t features,
                             const float* x, std::size_t num_x,
                             std::size_t x_stride, const float* biases,
                             float* h, std::size_t h_stride);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// Needs AVX2+FMA; the caller checks CPUID.
void cos_rbf_tile_f32_avx2(const float* bases, std::size_t ld,
                           std::size_t dims, std::size_t features,
                           const float* x, std::size_t num_x,
                           std::size_t x_stride, const float* biases,
                           float* h, std::size_t h_stride);

/// Needs AVX-512F+DQ; the caller checks CPUID.
void cos_rbf_tile_f32_avx512(const float* bases, std::size_t ld,
                             std::size_t dims, std::size_t features,
                             const float* x, std::size_t num_x,
                             std::size_t x_stride, const float* biases,
                             float* h, std::size_t h_stride);
#endif

}  // namespace cyberhd::core::detail
