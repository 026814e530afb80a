#include "nn/conv.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace sagesim::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t height, std::size_t width,
               std::size_t out_channels, std::size_t ksize, std::size_t pad,
               stats::Rng& rng)
    : c_(in_channels),
      h_(height),
      w_(width),
      k_(out_channels),
      ks_(ksize),
      pad_(pad),
      oh_(height + 2 * pad - ksize + 1),
      ow_(width + 2 * pad - ksize + 1),
      weight_(out_channels, in_channels * ksize * ksize),
      bias_(1, out_channels) {
  if (ksize == 0 || ksize > height + 2 * pad || ksize > width + 2 * pad)
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  weight_.value.init_he(rng);
  bias_.value.fill(0.0f);
}

tensor::Tensor Conv2d::forward(gpu::Device* dev, const tensor::Tensor& x,
                               bool /*train*/) {
  if (x.cols() != c_ * h_ * w_)
    throw std::invalid_argument("Conv2d: input row size " +
                                std::to_string(x.cols()) + " != C*H*W = " +
                                std::to_string(c_ * h_ * w_));
  cached_input_ = x;
  const std::size_t batch = x.rows();
  tensor::Tensor y(batch, k_ * oh_ * ow_);
  const float* px = x.data();
  const float* pw = weight_.value.data();
  const float* pb = bias_.value.data();
  float* py = y.data();

  // One logical thread per output element (b, ko, oy, ox).
  const std::size_t total = batch * k_ * oh_ * ow_;
  auto cell = [=, this](std::size_t idx) {
    const std::size_t ox = idx % ow_;
    const std::size_t oy = (idx / ow_) % oh_;
    const std::size_t ko = (idx / (ow_ * oh_)) % k_;
    const std::size_t b = idx / (ow_ * oh_ * k_);
    double acc = pb[ko];
    const float* wrow = pw + ko * (c_ * ks_ * ks_);
    const float* img = px + b * (c_ * h_ * w_);
    for (std::size_t ci = 0; ci < c_; ++ci) {
      for (std::size_t ky = 0; ky < ks_; ++ky) {
        const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                  static_cast<std::ptrdiff_t>(pad_);
        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h_)) continue;
        for (std::size_t kx = 0; kx < ks_; ++kx) {
          const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox + kx) -
                                    static_cast<std::ptrdiff_t>(pad_);
          if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w_)) continue;
          acc += static_cast<double>(
                     img[ci * h_ * w_ + static_cast<std::size_t>(iy) * w_ +
                         static_cast<std::size_t>(ix)]) *
                 wrow[ci * ks_ * ks_ + ky * ks_ + kx];
        }
      }
    }
    py[idx] = static_cast<float>(acc);
  };

  if (dev != nullptr) {
    const double flops_per = 2.0 * static_cast<double>(c_ * ks_ * ks_);
    dev->launch_linear("conv2d_fwd", total, 256,
                       [&](const gpu::ThreadCtx& ctx) {
                         cell(ctx.global_x());
                         ctx.add_flops(flops_per);
                         ctx.add_bytes((static_cast<double>(2 * c_ * ks_ * ks_) + 1.0) *
                                       sizeof(float));
                       });
  } else {
    for (std::size_t i = 0; i < total; ++i) cell(i);
  }
  return y;
}

tensor::Tensor Conv2d::backward(gpu::Device* dev, const tensor::Tensor& dy) {
  if (cached_input_.empty())
    throw std::logic_error("Conv2d::backward before forward");
  const std::size_t batch = cached_input_.rows();
  if (dy.rows() != batch || dy.cols() != k_ * oh_ * ow_)
    throw std::invalid_argument("Conv2d::backward: bad dy shape");

  tensor::Tensor dx(batch, c_ * h_ * w_);
  const float* px = cached_input_.data();
  const float* pdy = dy.data();
  const float* pw = weight_.value.data();
  float* pdx = dx.data();
  float* pdw = weight_.grad.data();
  float* pdb = bias_.grad.data();

  // dW and db: accumulate serially on host (parameter gradients are small;
  // the dominant cost, dx, is parallel below).  Charged as one kernel.
  auto accumulate_param_grads = [&] {
    for (std::size_t b = 0; b < batch; ++b) {
      const float* img = px + b * (c_ * h_ * w_);
      const float* gout = pdy + b * (k_ * oh_ * ow_);
      for (std::size_t ko = 0; ko < k_; ++ko) {
        float* wrow = pdw + ko * (c_ * ks_ * ks_);
        for (std::size_t oy = 0; oy < oh_; ++oy) {
          for (std::size_t ox = 0; ox < ow_; ++ox) {
            const float g = gout[ko * oh_ * ow_ + oy * ow_ + ox];
            pdb[ko] += g;
            for (std::size_t ci = 0; ci < c_; ++ci) {
              for (std::size_t ky = 0; ky < ks_; ++ky) {
                const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                          static_cast<std::ptrdiff_t>(pad_);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h_)) continue;
                for (std::size_t kx = 0; kx < ks_; ++kx) {
                  const std::ptrdiff_t ix =
                      static_cast<std::ptrdiff_t>(ox + kx) -
                      static_cast<std::ptrdiff_t>(pad_);
                  if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w_))
                    continue;
                  wrow[ci * ks_ * ks_ + ky * ks_ + kx] +=
                      g * img[ci * h_ * w_ +
                              static_cast<std::size_t>(iy) * w_ +
                              static_cast<std::size_t>(ix)];
                }
              }
            }
          }
        }
      }
    }
  };

  // dx: one logical thread per input element.
  const std::size_t total = batch * c_ * h_ * w_;
  auto dx_cell = [=, this](std::size_t idx) {
    const std::size_t ix = idx % w_;
    const std::size_t iy = (idx / w_) % h_;
    const std::size_t ci = (idx / (w_ * h_)) % c_;
    const std::size_t b = idx / (w_ * h_ * c_);
    const float* gout = pdy + b * (k_ * oh_ * ow_);
    double acc = 0.0;
    for (std::size_t ko = 0; ko < k_; ++ko) {
      const float* wrow = pw + ko * (c_ * ks_ * ks_);
      for (std::size_t ky = 0; ky < ks_; ++ky) {
        // output row such that iy = oy + ky - pad  =>  oy = iy - ky + pad
        const std::ptrdiff_t oy = static_cast<std::ptrdiff_t>(iy + pad_) -
                                  static_cast<std::ptrdiff_t>(ky);
        if (oy < 0 || oy >= static_cast<std::ptrdiff_t>(oh_)) continue;
        for (std::size_t kx = 0; kx < ks_; ++kx) {
          const std::ptrdiff_t ox = static_cast<std::ptrdiff_t>(ix + pad_) -
                                    static_cast<std::ptrdiff_t>(kx);
          if (ox < 0 || ox >= static_cast<std::ptrdiff_t>(ow_)) continue;
          acc += static_cast<double>(
                     gout[ko * oh_ * ow_ +
                          static_cast<std::size_t>(oy) * ow_ +
                          static_cast<std::size_t>(ox)]) *
                 wrow[ci * ks_ * ks_ + ky * ks_ + kx];
        }
      }
    }
    pdx[idx] = static_cast<float>(acc);
  };

  if (dev != nullptr) {
    accumulate_param_grads();
    dev->charge_kernel("conv2d_wgrad", {2.0 * static_cast<double>(batch) *
                                        static_cast<double>(k_ * oh_ * ow_) *
                                        static_cast<double>(c_ * ks_ * ks_)});
    const double flops_per = 2.0 * static_cast<double>(k_ * ks_ * ks_);
    dev->launch_linear("conv2d_dgrad", total, 256,
                       [&](const gpu::ThreadCtx& ctx) {
                         dx_cell(ctx.global_x());
                         ctx.add_flops(flops_per);
                         ctx.add_bytes((static_cast<double>(2 * k_ * ks_ * ks_) + 1.0) *
                                       sizeof(float));
                       });
  } else {
    accumulate_param_grads();
    for (std::size_t i = 0; i < total; ++i) dx_cell(i);
  }
  return dx;
}

MaxPool2x2::MaxPool2x2(std::size_t channels, std::size_t height,
                       std::size_t width)
    : c_(channels), h_(height), w_(width) {
  if (h_ % 2 != 0 || w_ % 2 != 0)
    throw std::invalid_argument("MaxPool2x2: spatial dims must be even");
}

tensor::Tensor MaxPool2x2::forward(gpu::Device* dev, const tensor::Tensor& x,
                                   bool /*train*/) {
  if (x.cols() != c_ * h_ * w_)
    throw std::invalid_argument("MaxPool2x2: input row size mismatch");
  const std::size_t batch = x.rows();
  cached_batch_ = batch;
  const std::size_t oh = h_ / 2, ow = w_ / 2;
  tensor::Tensor y(batch, c_ * oh * ow);
  argmax_.assign(batch * c_ * oh * ow, 0);

  const float* px = x.data();
  float* py = y.data();
  auto* parg = argmax_.data();
  const std::size_t total = batch * c_ * oh * ow;

  auto cell = [=, this](std::size_t idx) {
    const std::size_t oh_l = h_ / 2, ow_l = w_ / 2;
    const std::size_t ox = idx % ow_l;
    const std::size_t oy = (idx / ow_l) % oh_l;
    const std::size_t ci = (idx / (ow_l * oh_l)) % c_;
    const std::size_t b = idx / (ow_l * oh_l * c_);
    const float* img = px + b * (c_ * h_ * w_) + ci * h_ * w_;
    float best = -std::numeric_limits<float>::infinity();
    std::size_t best_idx = 0;
    for (std::size_t dy2 = 0; dy2 < 2; ++dy2) {
      for (std::size_t dx2 = 0; dx2 < 2; ++dx2) {
        const std::size_t flat = (2 * oy + dy2) * w_ + (2 * ox + dx2);
        if (img[flat] > best) {
          best = img[flat];
          best_idx = b * (c_ * h_ * w_) + ci * h_ * w_ + flat;
        }
      }
    }
    py[idx] = best;
    parg[idx] = best_idx;
  };

  if (dev != nullptr) {
    dev->launch_linear("maxpool_fwd", total, 256,
                       [&](const gpu::ThreadCtx& ctx) {
                         cell(ctx.global_x());
                         ctx.add_flops(4.0);
                         ctx.add_bytes(5.0 * sizeof(float));
                       });
  } else {
    for (std::size_t i = 0; i < total; ++i) cell(i);
  }
  return y;
}

tensor::Tensor MaxPool2x2::backward(gpu::Device* dev,
                                    const tensor::Tensor& dy) {
  if (cached_batch_ == 0)
    throw std::logic_error("MaxPool2x2::backward before forward");
  const std::size_t oh = h_ / 2, ow = w_ / 2;
  if (dy.rows() != cached_batch_ || dy.cols() != c_ * oh * ow)
    throw std::invalid_argument("MaxPool2x2::backward: bad dy shape");
  tensor::Tensor dx(cached_batch_, c_ * h_ * w_);
  dx.fill(0.0f);
  const float* pdy = dy.data();
  float* pdx = dx.data();
  const auto* parg = argmax_.data();
  const std::size_t total = dy.size();

  // Routing writes are disjoint (each output element owns a distinct argmax
  // source within its window), so per-thread scatter is safe.
  auto cell = [=](std::size_t idx) { pdx[parg[idx]] += pdy[idx]; };
  if (dev != nullptr) {
    dev->launch_linear("maxpool_bwd", total, 256,
                       [&](const gpu::ThreadCtx& ctx) {
                         cell(ctx.global_x());
                         ctx.add_flops(1.0);
                         ctx.add_bytes(3.0 * sizeof(float));
                       });
  } else {
    for (std::size_t i = 0; i < total; ++i) cell(i);
  }
  return dx;
}

}  // namespace sagesim::nn
