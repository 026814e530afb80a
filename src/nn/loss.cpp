#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace sagesim::nn {

namespace {

LossResult ce_impl(gpu::Device* dev, const tensor::Tensor& logits,
                   std::span<const int> labels,
                   std::span<const std::uint32_t> rows) {
  if (labels.size() != logits.rows())
    throw std::invalid_argument("cross_entropy: one label per row required");

  tensor::Tensor probs(logits.rows(), logits.cols());
  tensor::ops::softmax_rows(dev, logits, probs);

  LossResult r;
  r.dlogits = tensor::Tensor(logits.rows(), logits.cols());
  r.dlogits.fill(0.0f);

  const std::size_t count = rows.size();
  if (count == 0) throw std::invalid_argument("cross_entropy: empty row set");
  const float inv = 1.0f / static_cast<float>(count);

  double total = 0.0;
  for (const std::uint32_t row : rows) {
    if (row >= logits.rows())
      throw std::out_of_range("cross_entropy: row index out of range");
    const int label = labels[row];
    if (label < 0 || static_cast<std::size_t>(label) >= logits.cols())
      throw std::out_of_range("cross_entropy: label out of range");
    const float p = probs.at(row, static_cast<std::size_t>(label));
    total += -std::log(std::max(p, 1e-12f));
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const float y = c == static_cast<std::size_t>(label) ? 1.0f : 0.0f;
      r.dlogits.at(row, c) = (probs.at(row, c) - y) * inv;
    }
  }
  r.loss = total / static_cast<double>(count);

  // Charge the loss-and-grad pass as one light kernel (the softmax above is
  // already charged by ops::softmax_rows).
  if (dev != nullptr)
    dev->charge_kernel("cross_entropy",
                       {3.0 * static_cast<double>(count) *
                        static_cast<double>(logits.cols())});
  return r;
}

}  // namespace

LossResult softmax_cross_entropy(gpu::Device* dev,
                                 const tensor::Tensor& logits,
                                 std::span<const int> labels) {
  std::vector<std::uint32_t> all(logits.rows());
  for (std::size_t i = 0; i < all.size(); ++i)
    all[i] = static_cast<std::uint32_t>(i);
  return ce_impl(dev, logits, labels, all);
}

LossResult masked_softmax_cross_entropy(gpu::Device* dev,
                                        const tensor::Tensor& logits,
                                        std::span<const int> labels,
                                        std::span<const std::uint32_t> rows) {
  return ce_impl(dev, logits, labels, rows);
}

LossResult masked_mse(gpu::Device* dev, const tensor::Tensor& predictions,
                      std::span<const MseTarget> targets) {
  if (targets.empty()) throw std::invalid_argument("masked_mse: no targets");
  LossResult r;
  r.dlogits = tensor::Tensor(predictions.rows(), predictions.cols());
  r.dlogits.fill(0.0f);
  const float inv = 1.0f / static_cast<float>(targets.size());
  double total = 0.0;
  for (const auto& t : targets) {
    const float pred = predictions.at(t.row, t.col);
    const float diff = pred - t.target;
    total += 0.5 * static_cast<double>(diff) * diff;
    r.dlogits.at(t.row, t.col) = diff * inv;
  }
  r.loss = total / static_cast<double>(targets.size());
  if (dev != nullptr)
    dev->charge_kernel("mse_loss", {4.0 * static_cast<double>(targets.size())});
  return r;
}

}  // namespace sagesim::nn
