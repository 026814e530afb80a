#include "graph/spmm.hpp"

#include <algorithm>
#include <stdexcept>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#endif

#include "compute/plan.hpp"
#include "gpusim/executor.hpp"

namespace sagesim::graph {

namespace {

void check_shapes(const NormalizedAdjacency& a, const tensor::Tensor& x,
                  const tensor::Tensor& y) {
  if (x.rows() != a.num_nodes())
    throw std::invalid_argument("spmm: X has " + std::to_string(x.rows()) +
                                " rows, operator has " +
                                std::to_string(a.num_nodes()));
  tensor::require_same_shape(x, y, "spmm");
}

}  // namespace

namespace detail {

void spmm_host_reference(const NormalizedAdjacency& a, const tensor::Tensor& x,
                         tensor::Tensor& y) {
  check_shapes(a, x, y);
  const std::size_t d = x.cols();
  const float* px = x.data();
  float* py = y.data();
  const auto* offs = a.offsets.data();
  const auto* cols = a.columns.data();
  const auto* vals = a.values.data();
  for (std::size_t r = 0; r < a.num_nodes(); ++r) {
    float* out = py + r * d;
    for (std::size_t c = 0; c < d; ++c) out[c] = 0.0f;
    for (std::size_t e = offs[r]; e < offs[r + 1]; ++e) {
      const float w = vals[e];
      const float* in = px + static_cast<std::size_t>(cols[e]) * d;
      for (std::size_t c = 0; c < d; ++c) out[c] += w * in[c];
    }
  }
}

namespace {

// Rows per parallel block, and the minimum rows per parallel chunk: below
// that the per-task overhead rivals the row work, so small graphs run on
// the calling thread (fed to parallel_for as grain = kMinRowsPerChunk /
// kRowBlock).
constexpr std::size_t kRowBlock = 64;
constexpr std::size_t kMinRowsPerChunk = 2048;
// Floats per register-accumulated feature tile on the portable path.
// 16 floats fill four 128-bit vector registers at the baseline ISA — the
// whole tile of accumulators lives in registers across a row's edge loop,
// so each output cell is one store instead of a read-modify-write per
// incident edge.  (Wider tiles defeat GCC's scalar replacement and fall
// back to stack traffic.)
constexpr std::size_t kFeatTile = 16;

/// Accumulates one row's feature tile [c0, c0 + cw), cw <= kFeatTile, over
/// edges [e0, e1).  Edge order is ascending, matching the reference row
/// loop bit-for-bit.
void row_tile(const float* __restrict px, const float* __restrict vals,
              const NodeId* __restrict cols, std::size_t e0, std::size_t e1,
              std::size_t d, std::size_t c0, std::size_t cw,
              float* __restrict out) {
  float acc[kFeatTile] = {};
  for (std::size_t e = e0; e < e1; ++e) {
    const float w = vals[e];
    const float* __restrict in =
        px + static_cast<std::size_t>(cols[e]) * d + c0;
    for (std::size_t c = 0; c < cw; ++c) acc[c] += w * in[c];
  }
  for (std::size_t c = 0; c < cw; ++c) out[c] = acc[c];
}

/// Full-tile specialization: compile-time trip count so the accumulators
/// are scalar-replaced into registers.
void row_tile_full(const float* __restrict px, const float* __restrict vals,
                   const NodeId* __restrict cols, std::size_t e0,
                   std::size_t e1, std::size_t d, std::size_t c0,
                   float* __restrict out) {
  float acc[kFeatTile] = {};
  for (std::size_t e = e0; e < e1; ++e) {
    const float w = vals[e];
    const float* __restrict in =
        px + static_cast<std::size_t>(cols[e]) * d + c0;
    for (std::size_t c = 0; c < kFeatTile; ++c) acc[c] += w * in[c];
  }
  for (std::size_t c = 0; c < kFeatTile; ++c) out[c] = acc[c];
}

void row_block_portable(const float* px, const float* vals,
                        const NodeId* cols, const std::size_t* offs,
                        std::size_t r0, std::size_t r1, std::size_t d,
                        float* py) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t e0 = offs[r], e1 = offs[r + 1];
    std::size_t c0 = 0;
    // Feature tiles innermost: the row's edge list stays L1-hot across
    // tiles while each tile's accumulators stay in registers.
    for (; c0 + kFeatTile <= d; c0 += kFeatTile)
      row_tile_full(px, vals, cols, e0, e1, d, c0, py + r * d + c0);
    if (c0 < d)
      row_tile(px, vals, cols, e0, e1, d, c0, d - c0, py + r * d + c0);
  }
}

#if defined(__GNUC__) && defined(__x86_64__)
#define SAGESIM_SPMM_AVX2 1

/// AVX2 row kernel: NG groups of 8 lanes held in ymm accumulators across
/// the whole edge loop.  Plain vmulps/vaddps (no FMA), per-lane in
/// ascending edge order, so results are bit-identical to the scalar
/// reference.  Gathered rows a few edges ahead are prefetched — the edge
/// stream makes the gather addresses perfectly predictable in software but
/// opaque to the hardware prefetcher.
template <int NG>
__attribute__((target("avx2"))) void row_avx2(
    const float* __restrict px, const float* __restrict vals,
    const NodeId* __restrict cols, std::size_t e0, std::size_t e1,
    std::size_t d, std::size_t c0, float* __restrict out) {
  constexpr std::size_t kPrefetchDist = 8;
  __m256 acc[NG];
  for (int g = 0; g < NG; ++g) acc[g] = _mm256_setzero_ps();
  for (std::size_t e = e0; e < e1; ++e) {
    if (e + kPrefetchDist < e1) {
      const float* nxt =
          px + static_cast<std::size_t>(cols[e + kPrefetchDist]) * d + c0;
      _mm_prefetch(reinterpret_cast<const char*>(nxt), _MM_HINT_T0);
      if (NG > 2)
        _mm_prefetch(reinterpret_cast<const char*>(nxt + 16), _MM_HINT_T0);
    }
    const __m256 w = _mm256_set1_ps(vals[e]);
    const float* in = px + static_cast<std::size_t>(cols[e]) * d + c0;
    for (int g = 0; g < NG; ++g)
      acc[g] = _mm256_add_ps(acc[g],
                             _mm256_mul_ps(w, _mm256_loadu_ps(in + 8 * g)));
  }
  for (int g = 0; g < NG; ++g) _mm256_storeu_ps(out + 8 * g, acc[g]);
}

/// Widest tiles first: 64-float tiles where they fit, then 32, 16 and 8,
/// then a scalar tail.
__attribute__((target("avx2"))) void row_block_avx2(
    const float* px, const float* vals, const NodeId* cols,
    const std::size_t* offs, std::size_t r0, std::size_t r1, std::size_t d,
    float* py) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t e0 = offs[r], e1 = offs[r + 1];
    std::size_t c0 = 0;
    for (; c0 + 64 <= d; c0 += 64)
      row_avx2<8>(px, vals, cols, e0, e1, d, c0, py + r * d + c0);
    for (; c0 + 32 <= d; c0 += 32)
      row_avx2<4>(px, vals, cols, e0, e1, d, c0, py + r * d + c0);
    for (; c0 + 16 <= d; c0 += 16)
      row_avx2<2>(px, vals, cols, e0, e1, d, c0, py + r * d + c0);
    for (; c0 + 8 <= d; c0 += 8)
      row_avx2<1>(px, vals, cols, e0, e1, d, c0, py + r * d + c0);
    if (c0 < d)
      row_tile(px, vals, cols, e0, e1, d, c0, d - c0, py + r * d + c0);
  }
}
#endif  // SAGESIM_SPMM_AVX2

using RowBlockFn = void (*)(const float*, const float*, const NodeId*,
                            const std::size_t*, std::size_t, std::size_t,
                            std::size_t, float*);

/// The ymm cascade on AVX2, the portable tiles elsewhere — including when
/// @p isa asks for AVX2 on a host without it.
RowBlockFn row_block_for(compute::Isa isa) {
  if (isa == compute::Isa::kAvx2 && compute::isa() == compute::Isa::kAvx2) {
#if defined(SAGESIM_SPMM_AVX2)
    return row_block_avx2;
#endif
  }
  return row_block_portable;
}

}  // namespace

void spmm_host_blocked(const NormalizedAdjacency& a, const tensor::Tensor& x,
                       tensor::Tensor& y, compute::Isa isa) {
  check_shapes(a, x, y);
  const std::size_t n = a.num_nodes();
  const std::size_t d = x.cols();
  const float* px = x.data();
  float* py = y.data();
  const auto* offs = a.offsets.data();
  const auto* cols = a.columns.data();
  const auto* vals = a.values.data();
  const RowBlockFn row_block = row_block_for(isa);

  // A flat row-block decomposition run as one parallel_for with a grain.
  // Each output row belongs to exactly one block and keeps its
  // ascending-edge fold, so the worker count never perturbs result bits.
  auto block_op = [=](std::size_t blk) {
    const std::size_t r0 = blk * kRowBlock;
    const std::size_t r1 = std::min(r0 + kRowBlock, n);
    row_block(px, vals, cols, offs, r0, r1, d, py);
  };

  const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  if (blocks <= 1) {
    for (std::size_t b = 0; b < blocks; ++b) block_op(b);
    return;
  }
  compute::executor().parallel_for(
      blocks, [&](std::uint64_t b) { block_op(static_cast<std::size_t>(b)); },
      kMinRowsPerChunk / kRowBlock);
}

}  // namespace detail

void spmm(gpu::Device* dev, const NormalizedAdjacency& a,
          const tensor::Tensor& x, tensor::Tensor& y) {
  check_shapes(a, x, y);
  if (dev == nullptr) {
    detail::spmm_host_blocked(a, x, y);
    return;
  }
  const std::size_t n = a.num_nodes();
  const std::size_t d = x.cols();
  const float* px = x.data();
  float* py = y.data();
  const auto* offs = a.offsets.data();
  const auto* cols = a.columns.data();
  const auto* vals = a.values.data();

  // One thread per row.  Gather-heavy: each nonzero pulls a full feature
  // row, and every row writes d outputs.
  const gpu::Dim3 grid = gpu::linear_grid(n, 128);
  const double nnz = static_cast<double>(offs[n] - offs[0]);
  const double feats = static_cast<double>(d);
  const gpu::WorkCounters cost{
      2.0 * nnz * feats,
      (nnz * feats + static_cast<double>(n) * feats) * sizeof(float) +
          nnz * (sizeof(NodeId) + sizeof(float))};
  dev->launch_modeled(
      "spmm_csr", grid, gpu::Dim3{128}, cost,
      [&] { detail::spmm_host_blocked(a, x, y); },
      [&](const gpu::ThreadCtx& ctx) {
        const std::size_t r = ctx.global_x();
        if (!ctx.branch(r < n)) return;
        float* out = py + r * d;
        for (std::size_t c = 0; c < d; ++c) out[c] = 0.0f;
        for (std::size_t e = offs[r]; e < offs[r + 1]; ++e) {
          const float w = vals[e];
          const float* in = px + static_cast<std::size_t>(cols[e]) * d;
          for (std::size_t c = 0; c < d; ++c) out[c] += w * in[c];
        }
        const double row_nnz =
            static_cast<double>(offs[r + 1]) - static_cast<double>(offs[r]);
        ctx.add_flops(2.0 * row_nnz * feats);
        ctx.add_bytes((row_nnz * feats + feats) * sizeof(float) +
                      row_nnz * (sizeof(NodeId) + sizeof(float)));
      });
}

}  // namespace sagesim::graph
