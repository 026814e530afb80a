// Stateless and dense layers: Dense (fully connected), ReLU, Dropout.
#pragma once

#include "nn/layer.hpp"
#include "stats/rng.hpp"

namespace sagesim::nn {

/// Fully connected layer: y = x W + b, W is in x out.  With
/// Activation::kRelu the ReLU is fused into the GEMM's output pass
/// (one sweep over y instead of three kernel launches) and the backward
/// applies the ReLU mask before the weight/input gradients — equivalent to
/// a separate ReLU layer, minus the extra passes.
///
/// On the host path (dev == nullptr) the GEMMs run on the compute executor
/// (see compute/plan.hpp); results stay bit-exact at any worker count, so
/// layers never need to care about SAGESIM_WORKERS.
class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, stats::Rng& rng,
        Activation activation = Activation::kNone);

  tensor::Tensor forward(gpu::Device* dev, const tensor::Tensor& x,
                         bool train) override;
  tensor::Tensor backward(gpu::Device* dev, const tensor::Tensor& dy) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override {
    return activation_ == Activation::kRelu ? "dense_relu" : "dense";
  }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  Param weight_;
  Param bias_;
  Activation activation_;
  tensor::Tensor cached_input_;
  tensor::Tensor cached_pre_;  ///< pre-activation, kRelu only
};

/// Element-wise ReLU.
class ReLU : public Layer {
 public:
  tensor::Tensor forward(gpu::Device* dev, const tensor::Tensor& x,
                         bool train) override;
  tensor::Tensor backward(gpu::Device* dev, const tensor::Tensor& dy) override;
  std::string name() const override { return "relu"; }

 private:
  tensor::Tensor cached_pre_;
};

/// Inverted dropout with per-layer deterministic rng.
class Dropout : public Layer {
 public:
  Dropout(float p, std::uint64_t seed);

  tensor::Tensor forward(gpu::Device* dev, const tensor::Tensor& x,
                         bool train) override;
  tensor::Tensor backward(gpu::Device* dev, const tensor::Tensor& dy) override;
  std::string name() const override { return "dropout"; }

  /// Mask RNG stream; checkpoint/restore serializes its engine so resumed
  /// runs replay the exact masks.
  stats::Rng& rng() { return rng_; }

 private:
  float p_;
  stats::Rng rng_;
  tensor::Tensor mask_;
  float scale_{1.0f};
  bool applied_{false};
};

}  // namespace sagesim::nn
