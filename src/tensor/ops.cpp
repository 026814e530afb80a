#include "tensor/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

namespace sagesim::tensor::ops {

namespace {

struct GemmDims {
  std::size_t m, n, k;
};

GemmDims gemm_dims(const Tensor& a, const Tensor& b, const Tensor& out,
                   bool ta, bool tb) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t kb = tb ? b.cols() : b.rows();
  const std::size_t n = tb ? b.rows() : b.cols();
  if (k != kb)
    throw std::invalid_argument("gemm: inner dimensions differ: " +
                                a.shape_str() + (ta ? "^T" : "") + " @ " +
                                b.shape_str() + (tb ? "^T" : ""));
  if (out.rows() != m || out.cols() != n)
    throw std::invalid_argument("gemm: out is " + out.shape_str() +
                                ", expected " + std::to_string(m) + "x" +
                                std::to_string(n));
  return {m, n, k};
}

detail::GemmSpec gemm_spec(const Tensor& a, const Tensor& b, Tensor& out,
                           bool ta, bool tb, float alpha, bool accumulate) {
  const auto [m, n, k] = gemm_dims(a, b, out, ta, tb);
  detail::GemmSpec s;
  s.a = a.data();
  s.b = b.data();
  s.c = out.data();
  s.m = m;
  s.n = n;
  s.k = k;
  s.lda = a.cols();
  s.ldb = b.cols();
  s.ta = ta;
  s.tb = tb;
  s.alpha = alpha;
  s.accumulate = accumulate;
  return s;
}

void gemm_host(const detail::GemmSpec& s) {
  // Tiny problems: the packing traffic is pure overhead; both paths are
  // bit-identical so the crossover is a pure speed choice.
  if (s.m * s.n * s.k < 4096)
    detail::gemm_host_naive(s);
  else
    detail::gemm_host_blocked(s);
}

/// Simulated-device GEMM: one thread per output cell with the epilogue
/// fused into the same thread; @p extra_flops / @p extra_bytes model the
/// epilogue's cost on top of the naive 2k flops per cell.  Analytic launches
/// compute with gemm_host; the per-thread body runs under warp fidelity.
void gemm_device(gpu::Device& dev, const char* name,
                 const detail::GemmSpec& s, double extra_flops,
                 double extra_bytes) {
  const gpu::Dim3 block{16, 16};
  const gpu::Dim3 grid{gpu::div_up(s.n, 16), gpu::div_up(s.m, 16)};
  // Naive kernel: every operand element is fetched from global memory.
  const double flops_per_cell = 2.0 * static_cast<double>(s.k) + extra_flops;
  const double bytes_per_cell =
      static_cast<double>(2 * s.k + 1) * sizeof(float) + extra_bytes;
  const double cells = static_cast<double>(s.m) * static_cast<double>(s.n);
  dev.launch_modeled(
      name, grid, block,
      gpu::WorkCounters{cells * flops_per_cell, cells * bytes_per_cell},
      [&] { gemm_host(s); },
      [&](const gpu::ThreadCtx& ctx) {
        const std::size_t j = ctx.global_x();
        const std::size_t i = ctx.global_y();
        if (i >= s.m || j >= s.n) return;
        float acc = 0.0f;
        for (std::size_t p = 0; p < s.k; ++p) {
          const float av = s.ta ? s.a[p * s.lda + i] : s.a[i * s.lda + p];
          const float bv = s.tb ? s.b[j * s.ldb + p] : s.b[p * s.ldb + j];
          acc += av * bv;
        }
        float r = s.alpha * acc;
        float* c = s.c + i * s.n + j;
        if (s.accumulate) r = *c + r;
        switch (s.epilogue) {
          case detail::Epilogue::kNone:
            *c = r;
            break;
          case detail::Epilogue::kBias:
            *c = r + s.bias[j];
            break;
          case detail::Epilogue::kBiasRelu: {
            const float pre = r + s.bias[j];
            if (s.pre != nullptr) s.pre[i * s.n + j] = pre;
            *c = pre > 0.0f ? pre : 0.0f;
            break;
          }
        }
        ctx.add_flops(flops_per_cell);
        ctx.add_bytes(bytes_per_cell);
      });
}

void check_bias(const Tensor& bias, const Tensor& out, const char* op) {
  if (bias.rows() != 1 || bias.cols() != out.cols())
    throw std::invalid_argument(std::string(op) + ": bias must be 1x" +
                                std::to_string(out.cols()));
}

}  // namespace

void gemm(gpu::Device* dev, const Tensor& a, const Tensor& b, Tensor& out,
          bool ta, bool tb, float alpha, bool accumulate) {
  const detail::GemmSpec s = gemm_spec(a, b, out, ta, tb, alpha, accumulate);
  if (dev != nullptr)
    gemm_device(*dev, "gemm_naive", s, 0.0, 0.0);
  else
    gemm_host(s);
}

void gemm_bias(gpu::Device* dev, const Tensor& a, const Tensor& b,
               const Tensor& bias, Tensor& out, bool ta, bool tb) {
  detail::GemmSpec s = gemm_spec(a, b, out, ta, tb, 1.0f, false);
  check_bias(bias, out, "gemm_bias");
  s.bias = bias.data();
  s.epilogue = detail::Epilogue::kBias;
  if (dev != nullptr)
    // Epilogue: one extra add per cell, one bias read; the written result
    // is already counted by the base kernel.
    gemm_device(*dev, "gemm_bias", s, 1.0, sizeof(float));
  else
    gemm_host(s);
}

void gemm_bias_relu(gpu::Device* dev, const Tensor& a, const Tensor& b,
                    const Tensor& bias, Tensor& pre, Tensor& out, bool ta,
                    bool tb) {
  detail::GemmSpec s = gemm_spec(a, b, out, ta, tb, 1.0f, false);
  check_bias(bias, out, "gemm_bias_relu");
  require_same_shape(pre, out, "gemm_bias_relu");
  s.bias = bias.data();
  s.pre = pre.data();
  s.epilogue = detail::Epilogue::kBiasRelu;
  if (dev != nullptr)
    // Epilogue: bias add + clamp per cell; bias read + pre-activation write.
    gemm_device(*dev, "gemm_bias_relu", s, 2.0, 2.0 * sizeof(float));
  else
    gemm_host(s);
}

void gemm_tiled(gpu::Device& dev, const Tensor& a, const Tensor& b,
                Tensor& out) {
  constexpr std::size_t kTile = 16;
  const auto [m, n, k] = gemm_dims(a, b, out, false, false);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();

  gpu::LaunchOptions opts;
  opts.shared_mem_bytes = 2 * kTile * kTile * sizeof(float);
  const gpu::Dim3 block{kTile, kTile};
  const gpu::Dim3 grid{gpu::div_up(n, kTile), gpu::div_up(m, kTile)};

  dev.launch_blocks(
      "gemm_tiled", grid, block,
      [&](const gpu::BlockCtx& ctx) {
        auto shared = ctx.shared_as<float>();
        auto tile_a = shared.subspan(0, kTile * kTile);
        auto tile_b = shared.subspan(kTile * kTile, kTile * kTile);
        std::array<float, kTile * kTile> acc{};

        const std::size_t row0 = static_cast<std::size_t>(ctx.block_idx.y) * kTile;
        const std::size_t col0 = static_cast<std::size_t>(ctx.block_idx.x) * kTile;
        const std::size_t steps = (k + kTile - 1) / kTile;

        for (std::size_t t = 0; t < steps; ++t) {
          // Phase 1 (between barriers): stage tiles into shared memory.
          ctx.for_each_thread([&](const gpu::Dim3& tid) {
            const std::size_t r = row0 + tid.y;
            const std::size_t c = t * kTile + tid.x;
            tile_a[tid.y * kTile + tid.x] =
                (r < m && c < k) ? pa[r * k + c] : 0.0f;
            const std::size_t rb = t * kTile + tid.y;
            const std::size_t cb = col0 + tid.x;
            tile_b[tid.y * kTile + tid.x] =
                (rb < k && cb < n) ? pb[rb * n + cb] : 0.0f;
          });
          // Phase 2: accumulate from shared memory.
          ctx.for_each_thread([&](const gpu::Dim3& tid) {
            float s = acc[tid.y * kTile + tid.x];
            for (std::size_t p = 0; p < kTile; ++p)
              s += tile_a[tid.y * kTile + p] * tile_b[p * kTile + tid.x];
            acc[tid.y * kTile + tid.x] = s;
          });
        }
        // Phase 3: write results.
        ctx.for_each_thread([&](const gpu::Dim3& tid) {
          const std::size_t r = row0 + tid.y;
          const std::size_t c = col0 + tid.x;
          if (r < m && c < n) po[r * n + c] = acc[tid.y * kTile + tid.x];
        });
        // Global traffic: each tile element loaded once per step, results
        // written once — the whole point of tiling.
        ctx.add_flops(2.0 * static_cast<double>(kTile) * kTile * kTile *
                      static_cast<double>(steps));
        ctx.add_bytes(static_cast<double>(2 * kTile * kTile * steps +
                                          kTile * kTile) *
                      sizeof(float));
      },
      opts);
}

void add_bias(gpu::Device* dev, Tensor& x, const Tensor& bias) {
  if (bias.rows() != 1 || bias.cols() != x.cols())
    throw std::invalid_argument("add_bias: bias must be 1x" +
                                std::to_string(x.cols()));
  float* px = x.data();
  const float* pb = bias.data();
  const std::size_t cols = x.cols();
  if (dev != nullptr) {
    gpu::elementwise(dev, "add_bias", x.size(), 1.0, 3.0 * sizeof(float),
                     [=](std::size_t i) { px[i] += pb[i % cols]; });
    return;
  }
  // Host: row-major sweep — no per-element modulo, and the bias row stays
  // hot in L1 across rows.
  const std::size_t rows = x.rows();
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = px + r * cols;
    for (std::size_t c = 0; c < cols; ++c) row[c] += pb[c];
  }
}

void bias_grad(gpu::Device* dev, const Tensor& dy, Tensor& db) {
  if (db.rows() != 1 || db.cols() != dy.cols())
    throw std::invalid_argument("bias_grad: db must be 1x" +
                                std::to_string(dy.cols()));
  const float* pdy = dy.data();
  float* pdb = db.data();
  const std::size_t rows = dy.rows();
  const std::size_t cols = dy.cols();
  // One thread per column, striding down the rows.
  gpu::elementwise(dev, "bias_grad", cols,
                   static_cast<double>(rows),
                   static_cast<double>(rows + 1) * sizeof(float),
                   [=](std::size_t j) {
                     double s = 0.0;
                     for (std::size_t r = 0; r < rows; ++r)
                       s += pdy[r * cols + j];
                     pdb[j] = static_cast<float>(s);
                   });
}

void relu(gpu::Device* dev, const Tensor& x, Tensor& out) {
  require_same_shape(x, out, "relu");
  const float* px = x.data();
  float* po = out.data();
  gpu::elementwise(dev, "relu", x.size(), 1.0, 2.0 * sizeof(float),
                   [=](std::size_t i) { po[i] = px[i] > 0.0f ? px[i] : 0.0f; });
}

void relu_backward(gpu::Device* dev, const Tensor& x_pre, const Tensor& dy,
                   Tensor& dx) {
  require_same_shape(x_pre, dy, "relu_backward");
  require_same_shape(x_pre, dx, "relu_backward");
  const float* px = x_pre.data();
  const float* pdy = dy.data();
  float* pdx = dx.data();
  gpu::elementwise(dev, "relu_backward", dx.size(), 1.0, 3.0 * sizeof(float),
                   [=](std::size_t i) {
                     pdx[i] = px[i] > 0.0f ? pdy[i] : 0.0f;
                   });
}

void softmax_rows(gpu::Device* dev, const Tensor& x, Tensor& out) {
  require_same_shape(x, out, "softmax_rows");
  const float* px = x.data();
  float* po = out.data();
  const std::size_t cols = x.cols();
  // One thread per row.
  gpu::elementwise(dev, "softmax_rows", x.rows(),
                   4.0 * static_cast<double>(cols),
                   2.0 * static_cast<double>(cols) * sizeof(float),
                   [=](std::size_t r) {
                     const float* in = px + r * cols;
                     float* o = po + r * cols;
                     float mx = in[0];
                     for (std::size_t c = 1; c < cols; ++c)
                       mx = std::max(mx, in[c]);
                     double denom = 0.0;
                     for (std::size_t c = 0; c < cols; ++c) {
                       o[c] = std::exp(in[c] - mx);
                       denom += o[c];
                     }
                     const float inv = static_cast<float>(1.0 / denom);
                     for (std::size_t c = 0; c < cols; ++c) o[c] *= inv;
                   });
}

void add(gpu::Device* dev, const Tensor& a, const Tensor& b, Tensor& out) {
  require_same_shape(a, b, "add");
  require_same_shape(a, out, "add");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  gpu::elementwise(dev, "add", a.size(), 1.0, 3.0 * sizeof(float),
                   [=](std::size_t i) { po[i] = pa[i] + pb[i]; });
}

void sub(gpu::Device* dev, const Tensor& a, const Tensor& b, Tensor& out) {
  require_same_shape(a, b, "sub");
  require_same_shape(a, out, "sub");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  gpu::elementwise(dev, "sub", a.size(), 1.0, 3.0 * sizeof(float),
                   [=](std::size_t i) { po[i] = pa[i] - pb[i]; });
}

void hadamard(gpu::Device* dev, const Tensor& a, const Tensor& b,
              Tensor& out) {
  require_same_shape(a, b, "hadamard");
  require_same_shape(a, out, "hadamard");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  gpu::elementwise(dev, "hadamard", a.size(), 1.0, 3.0 * sizeof(float),
                   [=](std::size_t i) { po[i] = pa[i] * pb[i]; });
}

void scale(gpu::Device* dev, Tensor& x, float alpha) {
  float* px = x.data();
  gpu::elementwise(dev, "scale", x.size(), 1.0, 2.0 * sizeof(float),
                   [=](std::size_t i) { px[i] *= alpha; });
}

void axpy(gpu::Device* dev, float alpha, const Tensor& x, Tensor& y) {
  require_same_shape(x, y, "axpy");
  const float* px = x.data();
  float* py = y.data();
  gpu::elementwise(dev, "axpy", x.size(), 2.0, 3.0 * sizeof(float),
                   [=](std::size_t i) { py[i] += alpha * px[i]; });
}

void dropout(gpu::Device* dev, const Tensor& x, Tensor& out, Tensor& mask,
             float p, stats::Rng& rng) {
  if (p < 0.0f || p >= 1.0f)
    throw std::invalid_argument("dropout: p must be in [0, 1)");
  require_same_shape(x, out, "dropout");
  require_same_shape(x, mask, "dropout");
  // Mask drawn on the host for determinism (kernel threads run in
  // nondeterministic order).
  for (std::size_t i = 0; i < mask.size(); ++i)
    mask[i] = rng.bernoulli(1.0 - static_cast<double>(p)) ? 1.0f : 0.0f;
  const float keep_inv = 1.0f / (1.0f - p);
  const float* px = x.data();
  const float* pm = mask.data();
  float* po = out.data();
  gpu::elementwise(dev, "dropout", x.size(), 2.0, 3.0 * sizeof(float),
                   [=](std::size_t i) { po[i] = px[i] * pm[i] * keep_inv; });
}

void transpose(gpu::Device* dev, const Tensor& x, Tensor& out) {
  if (out.rows() != x.cols() || out.cols() != x.rows())
    throw std::invalid_argument("transpose: out must be " +
                                std::to_string(x.cols()) + "x" +
                                std::to_string(x.rows()));
  constexpr std::size_t kTile = 32;
  const float* px = x.data();
  float* po = out.data();
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();

  // 32x32 tiles: both the read and the scattered write stay within a tile
  // that fits in L1, instead of striding the full output per element.
  auto tile_op = [=](std::size_t r0, std::size_t c0) {
    const std::size_t r1 = std::min(r0 + kTile, rows);
    const std::size_t c1 = std::min(c0 + kTile, cols);
    for (std::size_t r = r0; r < r1; ++r)
      for (std::size_t c = c0; c < c1; ++c) po[c * rows + r] = px[r * cols + c];
  };

  const std::size_t tiles_r = (rows + kTile - 1) / kTile;
  const std::size_t tiles_c = (cols + kTile - 1) / kTile;
  if (dev != nullptr) {
    // One simulated block per tile; traffic is unchanged from the
    // elementwise formulation (each element read and written once).
    dev->launch_blocks(
        "transpose",
        {static_cast<std::uint32_t>(tiles_c),
         static_cast<std::uint32_t>(tiles_r)},
        {kTile, kTile},
        [&](const gpu::BlockCtx& ctx) {
          const std::size_t r0 = static_cast<std::size_t>(ctx.block_idx.y) * kTile;
          const std::size_t c0 = static_cast<std::size_t>(ctx.block_idx.x) * kTile;
          tile_op(r0, c0);
          const double elems =
              static_cast<double>(std::min(kTile, rows - r0)) *
              static_cast<double>(std::min(kTile, cols - c0));
          ctx.add_bytes(2.0 * elems * sizeof(float));
        });
  } else {
    for (std::size_t tr = 0; tr < tiles_r; ++tr)
      for (std::size_t tc = 0; tc < tiles_c; ++tc)
        tile_op(tr * kTile, tc * kTile);
  }
}

}  // namespace sagesim::tensor::ops
