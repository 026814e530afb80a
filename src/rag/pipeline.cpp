#include "rag/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

namespace sagesim::rag {

RagPipeline::RagPipeline(const Corpus& corpus,
                         std::unique_ptr<VectorIndex> index, gpu::Device* dev,
                         const RagConfig& config)
    : corpus_(corpus),
      index_(std::move(index)),
      dev_(dev),
      config_(config),
      encoder_(config.embed_dim),
      generator_(config.generator) {
  if (!index_) throw std::invalid_argument("RagPipeline: null index");
  if (index_->dim() != config.embed_dim)
    throw std::invalid_argument("RagPipeline: index dim != embed dim");
  if (corpus.size() == 0)
    throw std::invalid_argument("RagPipeline: empty corpus");
  if (config.top_k == 0 || config.top_k > corpus.size())
    throw std::invalid_argument("RagPipeline: need 0 < top_k <= corpus size");

  encoder_.fit(corpus);
  generator_.fit(corpus);
  index_->add(encoder_.encode_corpus(corpus));
}

std::uint64_t RagPipeline::query_id(const std::string& query) {
  // FNV-1a, 64-bit: stable across processes, runs and serving paths.
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : query) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

tensor::Tensor RagPipeline::encode_query(const std::string& query) const {
  return encoder_.encode(query);
}

double RagPipeline::generator_cost_s(std::size_t tokens) const {
  if (dev_ == nullptr) return 0.0;
  // Each generated token is one launch scoring the full vocabulary: ~2 flops
  // per vocab entry.
  const gpu::KernelWork token{
      2.0 * static_cast<double>(generator_.vocabulary().size())};
  return static_cast<double>(tokens) * dev_->timing().kernel_seconds(token);
}

Expected<std::vector<RagAnswer>> RagPipeline::answer_encoded(
    const tensor::Tensor& encoded, const std::vector<std::string>& queries) {
  if (queries.empty())
    return Status::invalid_argument("answer_encoded: no queries");
  if (encoded.rows() != queries.size() || encoded.cols() != config_.embed_dim)
    return Status::invalid_argument(
        "answer_encoded: encoded shape " + encoded.shape_str() + " != " +
        std::to_string(queries.size()) + "x" +
        std::to_string(config_.embed_dim));

  // Batched retrieval: one sweep over the index.  Without a device nothing
  // is modeled, so every stage time stays 0.
  const double t0 = dev_ != nullptr ? dev_->stream_time(0) : 0.0;
  auto hits = index_->search(dev_, encoded, config_.top_k);
  if (!hits.has_value()) return hits.status();
  const double retrieve_s =
      dev_ != nullptr ? (dev_->stream_time(0) - t0) /
                            static_cast<double>(queries.size())
                      : 0.0;

  std::vector<RagAnswer> answers;
  answers.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    RagAnswer a;
    a.id = query_id(queries[i]);
    a.retrieved = (*hits)[i];
    std::vector<std::string> context;
    context.reserve(a.retrieved.size());
    for (const auto& h : a.retrieved) context.push_back(corpus_.doc(h.id).text);
    // Seed from (config seed, query id): the text depends only on the model
    // and the query, never on batch composition or call order.
    a.text = generator_.generate_seeded(queries[i], context,
                                        config_.generator.seed ^ a.id);
    a.retrieve_s = retrieve_s;
    a.generate_s = generator_cost_s(config_.generator.max_tokens);
    answers.push_back(std::move(a));
  }
  return answers;
}

Expected<std::vector<RagAnswer>> RagPipeline::answer_batch(
    const std::vector<std::string>& queries) {
  if (queries.empty())
    return Status::invalid_argument("answer_batch: no queries");

  // Encode all queries (host-side feature hashing; charged analytically to
  // the device as an embedding kernel when one is present).
  tensor::Tensor q(queries.size(), config_.embed_dim);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const tensor::Tensor row = encoder_.encode(queries[i]);
    std::copy(row.data(), row.data() + row.size(),
              q.data() + i * config_.embed_dim);
  }
  double encode_s = 0.0;
  if (dev_ != nullptr) {
    const double flops =
        20.0 * static_cast<double>(queries.size() * config_.embed_dim);
    encode_s = dev_->charge_kernel("rag_encode", {flops}) /
               static_cast<double>(queries.size());
  }

  auto answers = answer_encoded(q, queries);
  if (!answers.has_value()) return answers.status();
  for (auto& a : *answers) a.encode_s = encode_s;
  return answers;
}

Expected<RagAnswer> RagPipeline::answer(const std::string& query) {
  auto batch = answer_batch({query});
  if (!batch.has_value()) return batch.status();
  return std::move(batch->front());
}

}  // namespace sagesim::rag
