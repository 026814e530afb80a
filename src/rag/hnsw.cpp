#include "rag/hnsw.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "compute/autotuner.hpp"

namespace sagesim::rag {

namespace {

/// Total order shared with the exact indexes: similarity descending, ties
/// toward the smaller id.
bool better_hit(const SearchHit& a, const SearchHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

}  // namespace

HnswIndex::HnswIndex(std::size_t dim, HnswParams params)
    : dim_(dim),
      params_(params),
      level_mult_(1.0 / std::log(static_cast<double>(params.M))),
      level_rng_(params.seed) {
  if (dim == 0) throw std::invalid_argument("HnswIndex: dim == 0");
  if (params.M < 2) throw std::invalid_argument("HnswIndex: M must be >= 2");
  if (params.ef_construction == 0 || params.ef_search == 0)
    throw std::invalid_argument("HnswIndex: ef must be > 0");
  if (params.shard_capacity == 0)
    throw std::invalid_argument("HnswIndex: shard_capacity == 0");
}

void HnswIndex::set_ef_search(std::size_t ef) {
  if (ef == 0) throw std::invalid_argument("set_ef_search: ef must be > 0");
  params_.ef_search = ef;
}

const float* HnswIndex::vec(std::uint32_t id) const {
  const std::size_t cap = params_.shard_capacity;
  return shards_[id / cap].data() + (id % cap) * dim_;
}

float HnswIndex::sim(const float* a, const float* b) const {
  float dot = 0.0f;
  for (std::size_t j = 0; j < dim_; ++j) dot += a[j] * b[j];
  return dot;
}

void HnswIndex::add(const tensor::Tensor& vectors) {
  if (vectors.cols() != dim_)
    throw std::invalid_argument("HnswIndex::add: dim mismatch");
  const std::size_t cap = params_.shard_capacity;
  nodes_.reserve(count_ + vectors.rows());
  for (std::size_t r = 0; r < vectors.rows(); ++r) {
    if (count_ == shards_.size() * cap)
      shards_.emplace_back(cap * dim_);  // pooled, address-stable shard
    float* dst = shards_[count_ / cap].data() + (count_ % cap) * dim_;
    const float* src = vectors.data() + r * dim_;
    std::copy(src, src + dim_, dst);
    const auto id = static_cast<std::uint32_t>(count_);
    nodes_.emplace_back();
    ++count_;
    insert(dst, id);
  }
}

std::uint32_t HnswIndex::greedy_step(const float* q, std::uint32_t start,
                                     int level, std::size_t& evals) const {
  std::uint32_t cur = start;
  float best = sim(q, vec(cur));
  ++evals;
  bool improved = true;
  while (improved) {
    improved = false;
    for (const std::uint32_t nb :
         nodes_[cur].links[static_cast<std::size_t>(level)]) {
      const float d = sim(q, vec(nb));
      ++evals;
      if (d > best) {
        best = d;
        cur = nb;
        improved = true;
      }
    }
  }
  return cur;
}

std::vector<SearchHit> HnswIndex::search_layer(const float* q,
                                               std::uint32_t entry,
                                               std::size_t ef, int level,
                                               std::size_t& evals) const {
  // Best-first beam: `cands` pops the most promising frontier node, `beam`
  // keeps the ef best results seen (top = current worst).
  const auto frontier_less = [](const SearchHit& a, const SearchHit& b) {
    return better_hit(b, a);
  };
  const auto beam_less = [](const SearchHit& a, const SearchHit& b) {
    return better_hit(a, b);
  };
  std::priority_queue<SearchHit, std::vector<SearchHit>,
                      decltype(frontier_less)>
      cands(frontier_less);
  std::priority_queue<SearchHit, std::vector<SearchHit>, decltype(beam_less)>
      beam(beam_less);
  std::vector<char> visited(nodes_.size(), 0);

  const SearchHit first{entry, sim(q, vec(entry))};
  ++evals;
  visited[entry] = 1;
  cands.push(first);
  beam.push(first);

  while (!cands.empty()) {
    const SearchHit c = cands.top();
    cands.pop();
    if (beam.size() >= ef && better_hit(beam.top(), c)) break;
    for (const std::uint32_t nb :
         nodes_[c.id].links[static_cast<std::size_t>(level)]) {
      if (visited[nb]) continue;
      visited[nb] = 1;
      const float d = sim(q, vec(nb));
      ++evals;
      const SearchHit hit{nb, d};
      if (beam.size() < ef || better_hit(hit, beam.top())) {
        cands.push(hit);
        beam.push(hit);
        if (beam.size() > ef) beam.pop();
      }
    }
  }

  std::vector<SearchHit> out;
  out.reserve(beam.size());
  while (!beam.empty()) {
    out.push_back(beam.top());
    beam.pop();
  }
  return out;
}

void HnswIndex::insert(const float* v, std::uint32_t id) {
  // Geometric level draw: floor(-ln(U) / ln(M)), U in (0, 1].
  const double u = 1.0 - level_rng_.uniform();
  const int lvl = static_cast<int>(-std::log(u) * level_mult_);
  Node& node = nodes_[id];
  node.level = lvl;
  node.links.resize(static_cast<std::size_t>(lvl) + 1);

  if (max_level_ < 0) {  // first vector seeds the graph
    entry_ = id;
    max_level_ = lvl;
    return;
  }

  std::size_t evals = 0;
  std::uint32_t cur = entry_;
  for (int l = max_level_; l > lvl; --l) cur = greedy_step(v, cur, l, evals);

  for (int l = std::min(lvl, max_level_); l >= 0; --l) {
    auto cands = search_layer(v, cur, params_.ef_construction, l, evals);
    std::sort(cands.begin(), cands.end(), better_hit);
    const std::size_t max_degree =
        l == 0 ? 2 * params_.M : params_.M;

    // Link the new node to its M best candidates, bidirectionally; shrink
    // any neighbor list that overflows back to its best max_degree.
    const std::size_t take = std::min(params_.M, cands.size());
    auto& own = node.links[static_cast<std::size_t>(l)];
    own.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      const std::uint32_t nb = cands[i].id;
      own.push_back(nb);
      auto& back = nodes_[nb].links[static_cast<std::size_t>(l)];
      back.push_back(id);
      if (back.size() > max_degree) {
        const float* nv = vec(nb);
        std::vector<SearchHit> scored;
        scored.reserve(back.size());
        for (const std::uint32_t b : back) scored.push_back({b, sim(nv, vec(b))});
        std::sort(scored.begin(), scored.end(), better_hit);
        back.clear();
        for (std::size_t j = 0; j < max_degree; ++j)
          back.push_back(scored[j].id);
      }
    }
    cur = cands.front().id;
  }

  if (lvl > max_level_) {
    max_level_ = lvl;
    entry_ = id;
  }
}

std::size_t HnswIndex::effective_ef(std::size_t k) const {
  std::size_t ef = compute::Autotuner::shared().hnsw_ef(count_, dim_, k);
  if (ef == 0) ef = params_.ef_search;
  return std::max(ef, k);
}

Expected<SearchResults> HnswIndex::search(gpu::Device* dev,
                                          const tensor::Tensor& queries,
                                          std::size_t k) const {
  return search_with_ef(dev, queries, k, effective_ef(k));
}

Expected<SearchResults> HnswIndex::search_with_ef(gpu::Device* dev,
                                                  const tensor::Tensor& queries,
                                                  std::size_t k,
                                                  std::size_t ef) const {
  if (Status s = validate_search(queries, k); !s.ok()) return s;
  ef = std::max(ef, k);

  SearchResults out;
  out.reserve(queries.rows());
  std::size_t evals = 0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const float* qv = queries.data() + q * dim_;
    std::uint32_t cur = entry_;
    for (int l = max_level_; l > 0; --l) cur = greedy_step(qv, cur, l, evals);
    auto hits = search_layer(qv, cur, ef, 0, evals);
    std::sort(hits.begin(), hits.end(), better_hit);
    if (hits.size() > k) hits.resize(k);
    out.push_back(std::move(hits));
  }

  if (dev != nullptr) {
    // The traversal ran on the host; charge the device analytically for the
    // distance evaluations, mirroring the IVF scan accounting.
    dev->charge_kernel("hnsw_search",
                       {2.0 * static_cast<double>(evals * dim_)});
  }
  return out;
}

std::size_t tune_hnsw_ef(const HnswIndex& index, gpu::Device* dev,
                         const tensor::Tensor& queries, std::size_t k,
                         const SearchResults& truth, double recall_target) {
  return compute::Autotuner::shared().tune_hnsw(
      index.size(), index.dim(), k, [&](std::size_t ef) {
        const auto start = std::chrono::steady_clock::now();
        const auto got = index.search_with_ef(dev, queries, k, ef);
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (!got.has_value()) return std::numeric_limits<double>::infinity();
        if (recall_at_k(truth, *got) < recall_target)
          return std::numeric_limits<double>::infinity();
        return elapsed;
      });
}

}  // namespace sagesim::rag
