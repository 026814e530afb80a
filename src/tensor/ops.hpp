// Device-aware dense ops.  Every op takes an optional simulated device:
// non-null → the op is a simulated kernel launch (results identical, time
// modeled and traced); null → host execution.  The host path runs the
// packed/blocked parallel engine from gemm_host.hpp, falling back to the
// bit-identical serial naive loops only for shapes too small to pack.  Device
// launches of the GEMMs and elementwise ops compute with the same host
// code and price themselves from closed-form counts
// (gpu::Device::launch_modeled); under warp fidelity they run their
// per-thread bodies instead.  gemm_tiled and transpose always run their
// block bodies.
#pragma once

#include "gpusim/device.hpp"
#include "stats/rng.hpp"
#include "tensor/gemm_host.hpp"
#include "tensor/tensor.hpp"

namespace sagesim::tensor::ops {

/// out = alpha * op(a) @ op(b) + (accumulate ? out : 0)
/// where op(x) is x or x^T per the transpose flags.  Shapes are validated;
/// out must be pre-sized to the result shape.
void gemm(gpu::Device* dev, const Tensor& a, const Tensor& b, Tensor& out,
          bool transpose_a = false, bool transpose_b = false,
          float alpha = 1.0f, bool accumulate = false);

/// out = op(a) @ op(b) + bias (bias is 1 x n, broadcast over rows), fused
/// into the GEMM's output pass — one sweep over out instead of two.
void gemm_bias(gpu::Device* dev, const Tensor& a, const Tensor& b,
               const Tensor& bias, Tensor& out, bool transpose_a = false,
               bool transpose_b = false);

/// pre = op(a) @ op(b) + bias;  out = max(pre, 0) — the Dense/GCN hidden
/// layer forward in a single output pass.  @p pre receives the
/// pre-activation (same shape as out) for the ReLU backward.
void gemm_bias_relu(gpu::Device* dev, const Tensor& a, const Tensor& b,
                    const Tensor& bias, Tensor& pre, Tensor& out,
                    bool transpose_a = false, bool transpose_b = false);

/// Shared-memory tiled GEMM (device required): the Week-3 lab's optimized
/// kernel.  No transpose support; tile size 16.
void gemm_tiled(gpu::Device& dev, const Tensor& a, const Tensor& b,
                Tensor& out);

/// x += bias broadcast over rows (bias is 1 x cols).
void add_bias(gpu::Device* dev, Tensor& x, const Tensor& bias);

/// db = column sums of dy (db is 1 x cols).
void bias_grad(gpu::Device* dev, const Tensor& dy, Tensor& db);

/// out = max(x, 0), element-wise.
void relu(gpu::Device* dev, const Tensor& x, Tensor& out);

/// dx = dy where pre-activation x > 0, else 0.
void relu_backward(gpu::Device* dev, const Tensor& x_pre, const Tensor& dy,
                   Tensor& dx);

/// Row-wise numerically-stable softmax.
void softmax_rows(gpu::Device* dev, const Tensor& x, Tensor& out);

/// out = a + b element-wise.
void add(gpu::Device* dev, const Tensor& a, const Tensor& b, Tensor& out);

/// out = a - b element-wise.
void sub(gpu::Device* dev, const Tensor& a, const Tensor& b, Tensor& out);

/// out = a * b element-wise (Hadamard).
void hadamard(gpu::Device* dev, const Tensor& a, const Tensor& b, Tensor& out);

/// x *= alpha.
void scale(gpu::Device* dev, Tensor& x, float alpha);

/// y += alpha * x.
void axpy(gpu::Device* dev, float alpha, const Tensor& x, Tensor& y);

/// Inverted dropout: out = x * mask / (1 - p); mask ~ Bernoulli(1 - p) is
/// drawn on the host rng (deterministic) and returned for the backward pass.
void dropout(gpu::Device* dev, const Tensor& x, Tensor& out, Tensor& mask,
             float p, stats::Rng& rng);

/// out = x^T.
void transpose(gpu::Device* dev, const Tensor& x, Tensor& out);

}  // namespace sagesim::tensor::ops
