// HNSW (hierarchical navigable small-world) approximate index: the graph
// ANN structure production vector stores (FAISS/hnswlib) default to, added
// alongside the brute-force/IVF pair so the serving bench can trade recall
// for latency at scale.
//
// Vectors live in fixed-capacity Buffer-backed shards (pooled allocations,
// stable addresses — inserts never reallocate earlier rows).  The graph is
// the standard multi-layer skip-list-of-graphs: each node draws a level
// from a geometric distribution (deterministic per the params seed);
// queries greedily descend the upper layers and run a best-first beam of
// width ef_search over layer 0.  Similarity is inner product over the
// L2-normalized embeddings, matching the exact indexes.
//
// The query beam is HnswParams::ef_search.  tune_hnsw_ef() finds the
// cheapest beam that meets a recall target; the caller applies it with
// set_ef_search().
#pragma once

#include <cstdint>
#include <vector>

#include "rag/index.hpp"

namespace sagesim::rag {

struct HnswParams {
  std::size_t M{16};                ///< out-degree above layer 0 (2M at 0)
  std::size_t ef_construction{200};  ///< insert-time beam width
  std::size_t ef_search{64};  ///< query-time beam width
  std::uint64_t seed{42};     ///< level-assignment stream
  std::size_t shard_capacity{4096};  ///< vectors per storage shard
};

class HnswIndex final : public VectorIndex {
 public:
  HnswIndex(std::size_t dim, HnswParams params = {});

  /// Inserts rows one at a time (graph construction is per-vector).
  void add(const tensor::Tensor& vectors) override;

  Expected<SearchResults> search(gpu::Device* dev,
                                 const tensor::Tensor& queries,
                                 std::size_t k) const override;

  std::size_t size() const override { return count_; }
  std::size_t dim() const override { return dim_; }

  const HnswParams& params() const { return params_; }
  void set_ef_search(std::size_t ef);
  int max_level() const { return max_level_; }

  /// search() with an explicit beam width instead of params().ef_search —
  /// the probe path tune_hnsw_ef() runs.  @p ef is raised to k internally.
  Expected<SearchResults> search_with_ef(gpu::Device* dev,
                                         const tensor::Tensor& queries,
                                         std::size_t k, std::size_t ef) const;

 private:
  struct Node {
    int level{0};
    /// links[l] = neighbor ids at layer l, l in [0, level].
    std::vector<std::vector<std::uint32_t>> links;
  };

  const float* vec(std::uint32_t id) const;
  float sim(const float* a, const float* b) const;
  /// Greedy hill-climb at @p level from @p start; counts distance evals.
  std::uint32_t greedy_step(const float* q, std::uint32_t start, int level,
                            std::size_t& evals) const;
  /// Best-first beam of width @p ef at @p level; returns (id, sim) pairs,
  /// unordered.
  std::vector<SearchHit> search_layer(const float* q, std::uint32_t entry,
                                      std::size_t ef, int level,
                                      std::size_t& evals) const;
  void insert(const float* v, std::uint32_t id);

  std::size_t dim_;
  HnswParams params_;
  double level_mult_;  ///< 1 / ln(M)
  stats::Rng level_rng_;
  std::size_t count_{0};
  std::vector<mem::TypedBuffer<float>> shards_;
  std::vector<Node> nodes_;
  std::uint32_t entry_{0};
  int max_level_{-1};  ///< -1 while empty
};

/// The smallest beam in {16, 32, 64, 128, 256} whose recall@k over
/// @p queries against the exact @p truth meets @p recall_target — a
/// smaller beam is always the cheaper search.  Returns 0 when none does.
/// Records nothing: apply the result with HnswIndex::set_ef_search().
std::size_t tune_hnsw_ef(const HnswIndex& index, gpu::Device* dev,
                         const tensor::Tensor& queries, std::size_t k,
                         const SearchResults& truth, double recall_target);

}  // namespace sagesim::rag
