#include "nn/gcn.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace sagesim::nn {

GcnConv::GcnConv(const graph::NormalizedAdjacency* adj,
                 std::size_t in_features, std::size_t out_features,
                 stats::Rng& rng, Activation activation)
    : adj_(adj),
      weight_(in_features, out_features),
      bias_(1, out_features),
      activation_(activation) {
  if (adj_ == nullptr)
    throw std::invalid_argument("GcnConv: adjacency must not be null");
  weight_.value.init_glorot(rng);
  bias_.value.fill(0.0f);
}

void GcnConv::set_adjacency(const graph::NormalizedAdjacency* adj) {
  if (adj == nullptr)
    throw std::invalid_argument("GcnConv::set_adjacency: null");
  adj_ = adj;
}

void GcnConv::check_input(const tensor::Tensor& x) const {
  if (x.rows() != adj_->num_nodes())
    throw std::invalid_argument("GcnConv: X has " + std::to_string(x.rows()) +
                                " rows, graph has " +
                                std::to_string(adj_->num_nodes()) + " nodes");
  if (x.cols() != weight_.value.rows())
    throw std::invalid_argument("GcnConv: feature dim mismatch");
}

tensor::Tensor GcnConv::forward(gpu::Device* dev, const tensor::Tensor& x,
                                bool /*train*/) {
  check_input(x);
  cached_agg_ = tensor::Tensor(x.rows(), x.cols());
  graph::spmm(dev, *adj_, x, cached_agg_);  // Â X
  borrowed_agg_ = nullptr;
  return transform(dev, cached_agg_);
}

tensor::Tensor GcnConv::forward_aggregated(gpu::Device* dev,
                                           const tensor::Tensor& agg) {
  check_input(agg);
  cached_agg_ = tensor::Tensor();
  borrowed_agg_ = &agg;
  return transform(dev, agg);
}

tensor::Tensor GcnConv::transform(gpu::Device* dev,
                                  const tensor::Tensor& agg) {
  tensor::Tensor y(agg.rows(), weight_.value.cols());
  if (activation_ == Activation::kRelu) {
    // act((Â X) W + b) in a single output pass.
    cached_pre_ = tensor::Tensor(agg.rows(), weight_.value.cols());
    tensor::ops::gemm_bias_relu(dev, agg, weight_.value, bias_.value,
                                cached_pre_, y);
  } else {
    tensor::ops::gemm_bias(dev, agg, weight_.value, bias_.value, y);
  }
  return y;
}

const tensor::Tensor& GcnConv::accumulate_param_grads(
    gpu::Device* dev, const tensor::Tensor& dy, tensor::Tensor& dpre) {
  const tensor::Tensor* agg =
      borrowed_agg_ != nullptr ? borrowed_agg_ : &cached_agg_;
  if (agg->empty())
    throw std::logic_error("GcnConv::backward before forward");
  const tensor::Tensor* grad = &dy;
  if (activation_ == Activation::kRelu) {
    dpre = tensor::Tensor(dy.rows(), dy.cols());
    tensor::ops::relu_backward(dev, cached_pre_, dy, dpre);
    grad = &dpre;
  }
  // dW += (Â X)^T dy ; db += colsum(dy)
  tensor::ops::gemm(dev, *agg, *grad, weight_.grad, /*ta=*/true,
                    /*tb=*/false, 1.0f, /*accumulate=*/true);
  tensor::Tensor db(1, grad->cols());
  tensor::ops::bias_grad(dev, *grad, db);
  tensor::ops::axpy(dev, 1.0f, db, bias_.grad);
  return *grad;
}

void GcnConv::backward_params(gpu::Device* dev, const tensor::Tensor& dy) {
  tensor::Tensor dpre;
  accumulate_param_grads(dev, dy, dpre);
}

tensor::Tensor GcnConv::backward(gpu::Device* dev, const tensor::Tensor& dy) {
  tensor::Tensor dpre;
  const tensor::Tensor& grad = accumulate_param_grads(dev, dy, dpre);
  // dX = Â^T (dy W^T) = Â (dy W^T), Â symmetric.
  tensor::Tensor dywt(grad.rows(), weight_.value.rows());
  tensor::ops::gemm(dev, grad, weight_.value, dywt, /*ta=*/false,
                    /*tb=*/true);
  tensor::Tensor dx(dywt.rows(), dywt.cols());
  graph::spmm(dev, *adj_, dywt, dx);
  return dx;
}

Gcn::Gcn(const graph::NormalizedAdjacency* adj, const Config& config)
    : config_(config),
      rng_(config.seed),
      conv1_(adj, config.in_features, config.hidden, rng_, Activation::kRelu),
      dropout_(config.dropout, config.seed ^ 0x5eedull),
      conv2_(adj, config.hidden, config.num_classes, rng_) {
  if (config.in_features == 0 || config.num_classes == 0)
    throw std::invalid_argument("Gcn: in_features and num_classes required");
}

tensor::Tensor Gcn::forward(gpu::Device* dev, const tensor::Tensor& x,
                            bool train) {
  tensor::Tensor h = conv1_.forward(dev, x, train);  // fused ReLU epilogue
  h = dropout_.forward(dev, h, train);
  return conv2_.forward(dev, h, train);
}

tensor::Tensor Gcn::forward_aggregated(gpu::Device* dev,
                                       const tensor::Tensor& agg,
                                       bool train) {
  tensor::Tensor h = conv1_.forward_aggregated(dev, agg);
  h = dropout_.forward(dev, h, train);
  return conv2_.forward(dev, h, train);
}

void Gcn::backward(gpu::Device* dev, const tensor::Tensor& dlogits) {
  backward(dev, dlogits, ParamReadyHook{});
}

void Gcn::backward(gpu::Device* dev, const tensor::Tensor& dlogits,
                   const ParamReadyHook& on_param_ready) {
  tensor::Tensor g = conv2_.backward(dev, dlogits);
  if (on_param_ready)
    for (Param* p : conv2_.params()) on_param_ready(p);
  g = dropout_.backward(dev, g);
  conv1_.backward_params(dev, g);  // dX of the features has no reader
  if (on_param_ready)
    for (Param* p : conv1_.params()) on_param_ready(p);
}

std::vector<Param*> Gcn::params() {
  auto p1 = conv1_.params();
  auto p2 = conv2_.params();
  p1.insert(p1.end(), p2.begin(), p2.end());
  return p1;
}

void Gcn::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

void Gcn::set_adjacency(const graph::NormalizedAdjacency* adj) {
  conv1_.set_adjacency(adj);
  conv2_.set_adjacency(adj);
}

}  // namespace sagesim::nn
