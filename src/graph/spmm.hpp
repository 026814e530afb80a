// Sparse (CSR) x dense multiply — the neighborhood-aggregation kernel at the
// heart of GCN layers: Y = Â X.
#pragma once

#include "compute/plan.hpp"
#include "gpusim/device.hpp"
#include "graph/csr.hpp"
#include "tensor/tensor.hpp"

namespace sagesim::graph {

/// Y = A X where A is a weighted CSR operator (e.g. the normalized
/// adjacency) and X is num_nodes x d.  The values come from the
/// cache-blocked parallel kernel (spmm_host_blocked).  With a non-null
/// @p dev the call is also a simulated row-parallel launch priced from
/// closed-form counts (2·nnz·d flops); under warp fidelity its per-row
/// thread body computes the values instead.  All paths are bit-identical
/// (per-row edge order is fixed).
/// Shapes validated: X.rows() == A.num_nodes(), Y same shape as X.
void spmm(gpu::Device* dev, const NormalizedAdjacency& a,
          const tensor::Tensor& x, tensor::Tensor& y);

namespace detail {

/// Serial reference: one row at a time, edges ascending, all d columns per
/// edge.
void spmm_host_reference(const NormalizedAdjacency& a, const tensor::Tensor& x,
                         tensor::Tensor& y);

/// Cache-blocked parallel kernel: the row range is decomposed into 64-row
/// blocks, run as one parallel_for on compute::executor() with a grain
/// floor, and the feature dimension is tiled (64/32/16/8-float ymm tiles on
/// AVX2, 16-float tiles on the portable path) so the gathered slices of X
/// stay L1/L2-resident while a block's rows (which share neighbors under
/// any community structure) reuse them.  Per output element the edge
/// accumulation order is unchanged, so the result is bit-identical to the
/// reference at any worker count and on either ISA.  @p isa picks the row
/// kernel; kAvx2 on a host without AVX2 runs the portable one.
void spmm_host_blocked(const NormalizedAdjacency& a, const tensor::Tensor& x,
                       tensor::Tensor& y, compute::Isa isa = compute::isa());

}  // namespace detail
}  // namespace sagesim::graph
