// Host GEMM engine: the packed/blocked parallel kernel behind
// tensor::ops::gemm and its fused-epilogue variants, plus the naive
// reference loops it is benchmarked and regression-tested against.
//
// The blocked engine packs op(B) whole into NR-wide panels, then runs one
// gpu::Executor::parallel_for on compute::executor() with one task per
// 64-row panel: each task packs its A panel and computes that panel's
// 4 x NR register tiles across every B panel.  NR is 16 on AVX2 and 8 on
// the portable kernel.
//
// Both backends accumulate every output element as the same ascending-k
// chain of float multiply-adds, so they are bit-identical by construction
// at any worker count and on either ISA: packing changes the memory layout,
// never the reduction order.  That is what lets the training stack swap
// kernels without perturbing the checkpoint bit-identity ladder (see
// DESIGN.md "Host kernels").  No kernel contracts a multiply-add, so the
// guarantee has no exception.
#pragma once

#include <cstddef>

#include "compute/plan.hpp"

namespace sagesim::tensor::ops {

namespace detail {

/// Output transform applied in the same pass that writes C.
enum class Epilogue {
  kNone,      ///< c = alpha * ab (+ c if accumulate)
  kBias,      ///< ... + bias[j]
  kBiasRelu,  ///< pre = ... + bias[j]; c = max(pre, 0)
};

/// A fully-described host GEMM: C(m x n) = alpha * op(A) @ op(B) with
/// optional accumulate and fused epilogue.  Leading dimensions are those of
/// the *stored* operands (lda = a.cols() regardless of ta); C is dense
/// m x n.  `pre`, when non-null under kBiasRelu, receives the
/// pre-activation (needed for the ReLU backward pass).
struct GemmSpec {
  const float* a{nullptr};
  const float* b{nullptr};
  float* c{nullptr};
  std::size_t m{0}, n{0}, k{0};
  std::size_t lda{0}, ldb{0};
  bool ta{false}, tb{false};
  float alpha{1.0f};
  bool accumulate{false};
  const float* bias{nullptr};  ///< 1 x n, required for kBias/kBiasRelu
  float* pre{nullptr};         ///< m x n pre-activation sink (may be null)
  Epilogue epilogue{Epilogue::kNone};
};

/// Serial reference: triple loop, float accumulator ascending in k.  The
/// course's "sequential CPU baseline" and the conformance tests' oracle.
void gemm_host_naive(const GemmSpec& spec);

/// Packed + register-blocked + parallel engine.  Bit-identical to
/// gemm_host_naive.  @p isa picks the micro-kernel; kAvx2 on a host
/// without AVX2 runs the portable one.
void gemm_host_blocked(const GemmSpec& spec,
                       compute::Isa isa = compute::isa());

}  // namespace detail
}  // namespace sagesim::tensor::ops
