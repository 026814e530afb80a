#include "nn/optim.hpp"

#include <cmath>
#include <stdexcept>

namespace sagesim::nn {

Sgd::Sgd(float lr, float momentum, float weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {
  if (lr <= 0.0f) throw std::invalid_argument("Sgd: lr must be > 0");
  if (momentum < 0.0f || momentum >= 1.0f)
    throw std::invalid_argument("Sgd: momentum must be in [0, 1)");
}

void Sgd::step(gpu::Device* dev, std::span<Param* const> params) {
  if (velocity_.empty() && momentum_ > 0.0f) {
    velocity_.reserve(params.size());
    for (const Param* p : params)
      velocity_.emplace_back(p->value.rows(), p->value.cols());
  }
  if (momentum_ > 0.0f && velocity_.size() != params.size())
    throw std::invalid_argument("Sgd::step: parameter list changed");

  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Param& p = *params[pi];
    float* w = p.value.data();
    const float* g = p.grad.data();
    if (momentum_ > 0.0f) {
      float* vel = velocity_[pi].data();
      const float lr = lr_, mu = momentum_, wd = weight_decay_;
      gpu::elementwise(dev, "sgd_momentum", p.size(), 4.0,
                       4.0 * sizeof(float), [=](std::size_t i) {
                         const float grad = g[i] + wd * w[i];
                         vel[i] = mu * vel[i] + grad;
                         w[i] -= lr * vel[i];
                       });
    } else {
      const float lr = lr_, wd = weight_decay_;
      gpu::elementwise(dev, "sgd", p.size(), 2.0, 4.0 * sizeof(float),
                       [=](std::size_t i) { w[i] -= lr * (g[i] + wd * w[i]); });
    }
  }
}

Adam::Adam(float lr, float beta1, float beta2, float eps, float weight_decay)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {
  if (lr <= 0.0f) throw std::invalid_argument("Adam: lr must be > 0");
}

void Adam::step(gpu::Device* dev, std::span<Param* const> params) {
  if (m_.empty()) {
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (const Param* p : params) {
      m_.emplace_back(p->value.rows(), p->value.cols());
      v_.emplace_back(p->value.rows(), p->value.cols());
    }
  }
  if (m_.size() != params.size())
    throw std::invalid_argument("Adam::step: parameter list changed");

  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));

  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Param& p = *params[pi];
    float* w = p.value.data();
    const float* g = p.grad.data();
    float* m = m_[pi].data();
    float* v = v_[pi].data();
    const float lr = lr_, b1 = beta1_, b2 = beta2_, eps = eps_,
                wd = weight_decay_;
    gpu::elementwise(dev, "adam", p.size(), 10.0, 4.0 * sizeof(float),
                     [=](std::size_t i) {
                       const float grad = g[i] + wd * w[i];
                       m[i] = b1 * m[i] + (1.0f - b1) * grad;
                       v[i] = b2 * v[i] + (1.0f - b2) * grad * grad;
                       const float mhat = m[i] / bc1;
                       const float vhat = v[i] / bc2;
                       w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
                     });
  }
}

std::vector<tensor::Tensor> Adam::state() const {
  std::vector<tensor::Tensor> out = m_;
  out.insert(out.end(), v_.begin(), v_.end());
  return out;
}

void Adam::set_state(std::vector<tensor::Tensor> state) {
  if (state.size() % 2 != 0)
    throw std::invalid_argument("Adam::set_state: odd tensor count");
  const std::size_t half = state.size() / 2;
  m_.assign(state.begin(), state.begin() + static_cast<std::ptrdiff_t>(half));
  v_.assign(state.begin() + static_cast<std::ptrdiff_t>(half), state.end());
}

}  // namespace sagesim::nn
