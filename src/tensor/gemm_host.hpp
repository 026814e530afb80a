// Host GEMM engine: the packed/blocked parallel kernel behind
// tensor::ops::gemm and its fused-epilogue variants, plus the naive
// reference loops it is benchmarked and regression-tested against.
//
// The blocked engine consults compute::Autotuner for a shape-keyed tiling
// (MR/NR register micro-tile, MC/NC macro panels, KC reduction slabs) and
// runs two gpu::Executor::parallel_for loops on compute::executor(): one
// packs the NC-wide B blocks, then one task per MC-row panel packs its A
// panel and computes that panel's tiles across every B block.
//
// Both backends accumulate every output element as the same ascending-k
// chain of float multiply-adds, so they are bit-identical by construction
// at any worker count and under any tiling: packing changes the memory
// layout and KC slabbing round-trips the partial sum through a float
// (exact), never the reduction order.  That is what lets the training
// stack swap kernels without perturbing the checkpoint bit-identity ladder
// (see DESIGN.md "Host kernels & autotuning").  No kernel contracts a
// multiply-add, so the guarantee has no exception.
#pragma once

#include <cstddef>

#include "compute/autotuner.hpp"

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

/// Packed + register-blocked + parallel engine with the autotuned (or
/// default) tiling for the spec's shape.  Bit-identical to gemm_host_naive.
void gemm_host_blocked(const GemmSpec& spec);

/// Same engine with an explicit tiling — the entry point the autotuner's
/// search and the worker-sweep tests drive.  Invalid tiling fields are
/// sanitized to the nearest supported configuration (the micro-kernel set
/// is ISA-constrained, and macro panels are capped at the matrix; see
/// gemm_host.cpp).
void gemm_host_blocked_tiled(const GemmSpec& spec, compute::GemmTiling tiling);

}  // namespace detail
}  // namespace sagesim::tensor::ops
