// Graph Convolutional Network layers and the 2-layer GCN model of Kipf &
// Welling 2017 — the course's post-midterm centerpiece (Algorithm 1 trains
// exactly this model on METIS partitions).
#pragma once

#include "graph/csr.hpp"
#include "graph/spmm.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "stats/rng.hpp"

namespace sagesim::nn {

/// One GCN convolution: H = act(Â X W + b).  The layer borrows the
/// normalized adjacency; the caller keeps it alive and consistent with the
/// node order of the inputs.  With Activation::kRelu the activation is
/// fused into the GEMM's output pass (gemm_bias_relu): the forward makes
/// one sweep over H instead of three kernel launches.  Host-path SpMM and
/// GEMM run on the compute executor (compute/plan.hpp) and are
/// bit-identical at any worker count.
class GcnConv : public Layer {
 public:
  GcnConv(const graph::NormalizedAdjacency* adj, std::size_t in_features,
          std::size_t out_features, stats::Rng& rng,
          Activation activation = Activation::kNone);

  /// Swaps the graph operator (used when the same weights are applied to a
  /// different subgraph, e.g. distributed training replicas).
  void set_adjacency(const graph::NormalizedAdjacency* adj);

  /// Aggregates Â X (one SpMM) and keeps it for dW, then runs the GEMM half.
  tensor::Tensor forward(gpu::Device* dev, const tensor::Tensor& x,
                         bool train) override;

  /// The GEMM half of forward, for a caller that already holds Â X
  /// (full-batch training, where Â and X never change).  Borrows @p agg
  /// for dW: the caller keeps it alive and unchanged until the matching
  /// backward has run.  Bit-identical to forward(x) when agg == Â X.
  tensor::Tensor forward_aggregated(gpu::Device* dev,
                                    const tensor::Tensor& agg);

  /// dW += (Â X)^T dy and db += colsum(dy), then dX = Â (dy W^T).
  tensor::Tensor backward(gpu::Device* dev, const tensor::Tensor& dy) override;

  /// backward without the dX tail, for a first layer whose input gradient
  /// nothing reads: no dX GEMM and no SpMM.
  void backward_params(gpu::Device* dev, const tensor::Tensor& dy);

  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "gcn_conv"; }

 private:
  void check_input(const tensor::Tensor& x) const;
  /// act(agg W + b): the GEMM half both forwards share.
  tensor::Tensor transform(gpu::Device* dev, const tensor::Tensor& agg);
  /// Accumulates dW and db; returns the gradient at the pre-activation
  /// (@p dy, or @p dpre after the ReLU mask).
  const tensor::Tensor& accumulate_param_grads(gpu::Device* dev,
                                               const tensor::Tensor& dy,
                                               tensor::Tensor& dpre);

  const graph::NormalizedAdjacency* adj_;
  Param weight_;
  Param bias_;
  Activation activation_;
  tensor::Tensor cached_agg_;  ///< Â X from forward, needed for dW
  const tensor::Tensor* borrowed_agg_{nullptr};  ///< from forward_aggregated
  tensor::Tensor cached_pre_;  ///< pre-activation, kRelu only
};

/// Two-layer GCN: logits = Â ReLU(Â X W0 + b0) W1 + b1, with dropout on the
/// hidden activation during training.
class Gcn {
 public:
  struct Config {
    std::size_t in_features{0};
    std::size_t hidden{16};
    std::size_t num_classes{0};
    float dropout{0.5f};
    std::uint64_t seed{7};
  };

  Gcn(const graph::NormalizedAdjacency* adj, const Config& config);

  /// Logits for every node (num_nodes x num_classes).
  tensor::Tensor forward(gpu::Device* dev, const tensor::Tensor& x,
                         bool train);

  /// forward from a precomputed first-layer aggregate @p agg = Â X; conv1
  /// borrows it until the matching backward (GcnConv::forward_aggregated).
  tensor::Tensor forward_aggregated(gpu::Device* dev,
                                    const tensor::Tensor& agg, bool train);

  /// Backprop from dL/dlogits; accumulates parameter gradients.  The input
  /// features take no gradient, so conv1 computes dW and db only.
  void backward(gpu::Device* dev, const tensor::Tensor& dlogits);

  /// Backprop with a gradient-readiness hook: @p on_param_ready fires for
  /// conv2's parameters as soon as its backward completes and for conv1's
  /// after the full pass — the order DDP buckets consume.
  void backward(gpu::Device* dev, const tensor::Tensor& dlogits,
                const ParamReadyHook& on_param_ready);

  std::vector<Param*> params();
  void zero_grad();

  /// Rebinds both convolutions to a different graph operator.
  void set_adjacency(const graph::NormalizedAdjacency* adj);

  const Config& config() const { return config_; }

  /// Dropout RNG stream — the only RNG that advances during training
  /// (rng_ is consumed entirely by weight init).  Checkpoint/restore
  /// serializes its engine so a resumed run replays the exact dropout
  /// masks — required for the bit-identical-resume guarantee.
  stats::Rng& rng() { return dropout_.rng(); }

 private:
  Config config_;
  stats::Rng rng_;  // declared before the convs: init order matters
  GcnConv conv1_;  ///< fused Â X W0 + b0 -> ReLU
  Dropout dropout_;
  GcnConv conv2_;
};

}  // namespace sagesim::nn
