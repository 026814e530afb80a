// End-to-end RAG pipeline: encode -> retrieve -> generate, with the
// per-stage latency breakdown the Week-14 "real-time inference" lab
// optimizes.  Latencies are simulated seconds from the device timeline
// (encoding and retrieval kernels) plus the generator's per-token launches,
// all priced by the device's timing model.  A pipeline without a device
// models no device time: its stage times are 0.
//
// The answer surface is Status-first (Expected<...>; kInvalidArgument on
// misuse) and deterministic: every answer carries a stable query id (FNV-1a
// of the query text) that also seeds generation, so the serial, batched and
// cached serving paths produce bit-identical text and hit lists for the
// same query.  ServeOptions carries the rag::Server knobs (batching, cache
// sizes, per-request deadline) so one RagConfig describes both the offline
// lab pipeline and the serving front end.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rag/corpus.hpp"
#include "rag/encoder.hpp"
#include "rag/generator.hpp"
#include "rag/index.hpp"
#include "runtime/status.hpp"

namespace sagesim::rag {

/// Serving knobs consumed by rag::Server (and recorded in RagConfig so the
/// bench and labs configure one struct).  Defaults favor low latency at
/// modest load; callers override fields in code.
struct ServeOptions {
  std::size_t max_batch{16};     ///< flush the batcher at this many queries
  std::size_t max_delay_us{200};  ///< ... or when the oldest waits this long
  std::size_t embed_cache_entries{1024};   ///< LRU query-embedding cache (0 = off)
  std::size_t result_cache_entries{4096};  ///< exact-match answer cache (0 = off)
  double deadline_s{0.0};  ///< per-request wall deadline, 0 = none
                           ///< (missed -> kDeadlineExceeded, retryable)
};

struct RagAnswer {
  std::uint64_t id{0};  ///< stable query id — cache key and generation seed
  std::string text;
  std::vector<SearchHit> retrieved;
  double encode_s{0.0};    ///< simulated query-encoding time
  double retrieve_s{0.0};  ///< simulated retrieval time
  double generate_s{0.0};  ///< simulated generation time
  double total_s() const { return encode_s + retrieve_s + generate_s; }
};

struct RagConfig {
  std::size_t top_k{4};
  std::size_t embed_dim{256};
  GeneratorConfig generator;
  ServeOptions serve;
};

class RagPipeline {
 public:
  /// Builds the pipeline over @p corpus with the given index.  The index
  /// must already be trained if it requires training; the pipeline fits the
  /// encoder and generator and fills the index.  @p dev may be null for the
  /// CPU baseline, which models no time.  Throws std::invalid_argument on
  /// construction misuse (null index, dim mismatch, empty corpus, top_k
  /// outside [1, corpus]).
  RagPipeline(const Corpus& corpus, std::unique_ptr<VectorIndex> index,
              gpu::Device* dev, const RagConfig& config = {});

  /// Answers one query.
  Expected<RagAnswer> answer(const std::string& query);

  /// Answers a batch; retrieval is batched into one kernel sweep, which is
  /// where the GPU throughput win comes from.  Fails with kInvalidArgument
  /// on an empty batch.
  Expected<std::vector<RagAnswer>> answer_batch(
      const std::vector<std::string>& queries);

  /// The serving fast path: retrieval + generation over queries that are
  /// already encoded (row i of @p encoded is @p queries[i] — the Server's
  /// embedding cache supplies rows without re-encoding).  encode_s is left 0
  /// for the caller to fill in.  Fails with kInvalidArgument on shape
  /// mismatch.
  Expected<std::vector<RagAnswer>> answer_encoded(
      const tensor::Tensor& encoded, const std::vector<std::string>& queries);

  /// Encodes one query into a 1 x embed_dim row (the embedding the Server
  /// caches).  Pure w.r.t. pipeline state.
  tensor::Tensor encode_query(const std::string& query) const;

  /// Stable 64-bit id of a query text (FNV-1a) — identical across serial,
  /// batched and cached paths; doubles as the result-cache key and the
  /// per-query generation seed.
  static std::uint64_t query_id(const std::string& query);

  const VectorIndex& index() const { return *index_; }
  const TfIdfEncoder& encoder() const { return encoder_; }
  const RagConfig& config() const { return config_; }
  gpu::Device* device() { return dev_; }

 private:
  double generator_cost_s(std::size_t tokens) const;

  const Corpus& corpus_;
  std::unique_ptr<VectorIndex> index_;
  gpu::Device* dev_;
  RagConfig config_;
  TfIdfEncoder encoder_;
  BigramGenerator generator_;
};

}  // namespace sagesim::rag
