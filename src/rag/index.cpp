#include "rag/index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace sagesim::rag {

namespace {

/// Comparator shared by every index: score descending, ties toward the
/// smaller id — total order, so hit lists are reproducible across paths.
bool better_hit(const SearchHit& a, const SearchHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

std::vector<SearchHit> top_k_from_scores(const float* scores,
                                         const std::uint32_t* ids,
                                         std::size_t n, std::size_t k) {
  std::vector<SearchHit> hits(n);
  for (std::size_t i = 0; i < n; ++i)
    hits[i] = {ids == nullptr ? static_cast<std::uint32_t>(i) : ids[i],
               scores[i]};
  // Approximate indexes may gather fewer than k candidates; the hit list is
  // simply shorter then (k itself was validated against the index size).
  const std::size_t kk = std::min(k, n);
  std::partial_sort(hits.begin(),
                    hits.begin() + static_cast<std::ptrdiff_t>(kk), hits.end(),
                    better_hit);
  hits.resize(kk);
  return hits;
}

}  // namespace

Status VectorIndex::validate_search(const tensor::Tensor& queries,
                                    std::size_t k) const {
  if (queries.cols() != dim())
    return Status::invalid_argument(
        "search: query dim " + std::to_string(queries.cols()) +
        " != index dim " + std::to_string(dim()));
  if (k == 0) return Status::invalid_argument("search: k must be > 0");
  if (size() == 0)
    return Status::failed_precondition("search: empty index");
  if (k > size())
    return Status::invalid_argument("search: k " + std::to_string(k) +
                                    " > index size " + std::to_string(size()));
  return {};
}

BruteForceIndex::BruteForceIndex(std::size_t dim) : dim_(dim) {
  if (dim == 0) throw std::invalid_argument("BruteForceIndex: dim == 0");
}

void BruteForceIndex::add(const tensor::Tensor& vectors) {
  if (vectors.cols() != dim_)
    throw std::invalid_argument("BruteForceIndex::add: dim mismatch");
  // Grow by rebuilding the matrix on the host (adds are batched at corpus
  // build time, so this is a handful of pooled allocations, not per-row).
  const tensor::Tensor old = data_.placement() == mem::Placement::kHost
                                 ? std::move(data_)
                                 : data_.host_copy();
  tensor::Tensor grown(old.rows() + vectors.rows(), dim_);
  std::copy(old.data(), old.data() + old.size(), grown.data());
  std::copy(vectors.data(), vectors.data() + vectors.size(),
            grown.data() + old.size());
  data_ = std::move(grown);
}

Status BruteForceIndex::to_device(gpu::Device& device, int stream) {
  return data_.to_device(device, stream);
}

Status BruteForceIndex::to_host(int stream) { return data_.to_host(stream); }

Expected<SearchResults> BruteForceIndex::search(gpu::Device* dev,
                                                const tensor::Tensor& queries,
                                                std::size_t k) const {
  if (Status s = validate_search(queries, k); !s.ok()) return s;

  // scores[q][d] = <query_q, doc_d>; one fused kernel sweep via gemm with
  // the stored collection as the count x dim right operand (no copy).
  const std::size_t count = data_.rows();
  tensor::Tensor scores(queries.rows(), count);
  tensor::ops::gemm(dev, queries, data_, scores, /*ta=*/false,
                    /*tb=*/true);

  SearchResults out;
  out.reserve(queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q)
    out.push_back(
        top_k_from_scores(scores.data() + q * count, nullptr, count, k));
  return out;
}

IvfFlatIndex::IvfFlatIndex(std::size_t dim, std::size_t nlist,
                           std::size_t nprobe, std::uint64_t seed)
    : dim_(dim), nlist_(nlist), nprobe_(nprobe), seed_(seed) {
  if (dim == 0) throw std::invalid_argument("IvfFlatIndex: dim == 0");
  if (nlist == 0) throw std::invalid_argument("IvfFlatIndex: nlist == 0");
  if (nprobe == 0 || nprobe > nlist)
    throw std::invalid_argument("IvfFlatIndex: need 0 < nprobe <= nlist");
  list_ids_.resize(nlist);
  list_vecs_.resize(nlist);
}

void IvfFlatIndex::set_nprobe(std::size_t nprobe) {
  if (nprobe == 0 || nprobe > nlist_)
    throw std::invalid_argument("set_nprobe: need 0 < nprobe <= nlist");
  nprobe_ = nprobe;
}

void IvfFlatIndex::train(gpu::Device* dev, const tensor::Tensor& sample,
                         int iters) {
  if (sample.cols() != dim_)
    throw std::invalid_argument("IvfFlatIndex::train: dim mismatch");
  if (sample.rows() < nlist_)
    throw std::invalid_argument(
        "IvfFlatIndex::train: need at least nlist sample rows");

  // Init: distinct random rows.
  stats::Rng rng(seed_);
  const auto perm = rng.permutation(sample.rows());
  centroids_ = mem::TypedBuffer<float>(nlist_ * dim_);
  for (std::size_t c = 0; c < nlist_; ++c)
    std::copy(sample.data() + perm[c] * dim_,
              sample.data() + (perm[c] + 1) * dim_,
              centroids_.data() + c * dim_);

  std::vector<std::size_t> assign(sample.rows(), 0);
  for (int it = 0; it < iters; ++it) {
    // Assignment step (device kernel: one thread per sample row).
    const float* ps = sample.data();
    const float* pc = centroids_.data();
    auto* pa = assign.data();
    const std::size_t nl = nlist_, d = dim_;
    auto assign_row = [=](std::size_t r) {
      const float* v = ps + r * d;
      float best = -std::numeric_limits<float>::infinity();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < nl; ++c) {
        const float* cen = pc + c * d;
        float dot = 0.0f;
        for (std::size_t j = 0; j < d; ++j) dot += v[j] * cen[j];
        if (dot > best) {
          best = dot;
          best_c = c;
        }
      }
      pa[r] = best_c;
    };
    if (dev != nullptr) {
      dev->launch_linear("kmeans_assign", sample.rows(), 128,
                         [&](const gpu::ThreadCtx& ctx) {
                           assign_row(ctx.global_x());
                           ctx.add_flops(2.0 * static_cast<double>(nl * d));
                           ctx.add_bytes(static_cast<double>((nl + 1) * d) *
                                         sizeof(float));
                         });
    } else {
      for (std::size_t r = 0; r < sample.rows(); ++r) assign_row(r);
    }

    // Update step on host (centroid count is small).
    std::vector<double> sums(nlist_ * dim_, 0.0);
    std::vector<std::size_t> counts(nlist_, 0);
    for (std::size_t r = 0; r < sample.rows(); ++r) {
      ++counts[assign[r]];
      const float* v = sample.data() + r * dim_;
      double* s = sums.data() + assign[r] * dim_;
      for (std::size_t j = 0; j < dim_; ++j) s[j] += v[j];
    }
    for (std::size_t c = 0; c < nlist_; ++c) {
      if (counts[c] == 0) continue;  // keep the old centroid
      float* cen = centroids_.data() + c * dim_;
      double norm = 0.0;
      for (std::size_t j = 0; j < dim_; ++j) {
        cen[j] = static_cast<float>(sums[c * dim_ + j] /
                                    static_cast<double>(counts[c]));
        norm += static_cast<double>(cen[j]) * cen[j];
      }
      // Re-normalize: cosine geometry.
      if (norm > 0.0) {
        const float inv = static_cast<float>(1.0 / std::sqrt(norm));
        for (std::size_t j = 0; j < dim_; ++j) cen[j] *= inv;
      }
    }
  }
  trained_ = true;
}

std::size_t IvfFlatIndex::nearest_centroid(const float* vec) const {
  float best = -std::numeric_limits<float>::infinity();
  std::size_t best_c = 0;
  for (std::size_t c = 0; c < nlist_; ++c) {
    const float* cen = centroids_.data() + c * dim_;
    float dot = 0.0f;
    for (std::size_t j = 0; j < dim_; ++j) dot += vec[j] * cen[j];
    if (dot > best) {
      best = dot;
      best_c = c;
    }
  }
  return best_c;
}

void IvfFlatIndex::add(const tensor::Tensor& vectors) {
  if (!trained_)
    throw std::logic_error("IvfFlatIndex::add before train()");
  if (vectors.cols() != dim_)
    throw std::invalid_argument("IvfFlatIndex::add: dim mismatch");
  for (std::size_t r = 0; r < vectors.rows(); ++r) {
    const float* v = vectors.data() + r * dim_;
    const std::size_t c = nearest_centroid(v);
    list_ids_[c].push_back(static_cast<std::uint32_t>(count_ + r));
    list_vecs_[c].insert(list_vecs_[c].end(), v, v + dim_);
  }
  count_ += vectors.rows();
}

Expected<SearchResults> IvfFlatIndex::search(gpu::Device* dev,
                                             const tensor::Tensor& queries,
                                             std::size_t k) const {
  if (!trained_)
    return Status::failed_precondition("IvfFlatIndex::search before train()");
  if (Status s = validate_search(queries, k); !s.ok()) return s;

  SearchResults out;
  out.reserve(queries.rows());

  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const float* qv = queries.data() + q * dim_;

    // Probe selection: score all centroids, take the best nprobe.
    std::vector<float> cscores(nlist_);
    for (std::size_t c = 0; c < nlist_; ++c) {
      const float* cen = centroids_.data() + c * dim_;
      float dot = 0.0f;
      for (std::size_t j = 0; j < dim_; ++j) dot += qv[j] * cen[j];
      cscores[c] = dot;
    }
    std::vector<std::size_t> order(nlist_);
    for (std::size_t c = 0; c < nlist_; ++c) order[c] = c;
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(nprobe_),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        return cscores[a] > cscores[b];
                      });

    // Gather candidates from the probed lists.
    std::vector<std::uint32_t> cand_ids;
    std::vector<const float*> cand_vecs;
    for (std::size_t p = 0; p < nprobe_; ++p) {
      const std::size_t c = order[p];
      for (std::size_t i = 0; i < list_ids_[c].size(); ++i) {
        cand_ids.push_back(list_ids_[c][i]);
        cand_vecs.push_back(list_vecs_[c].data() + i * dim_);
      }
    }
    if (cand_ids.empty()) {
      out.emplace_back();
      continue;
    }

    // Score candidates (device kernel: one thread per candidate).
    std::vector<float> scores(cand_ids.size());
    const std::size_t d = dim_;
    auto score_one = [&, qv, d](std::size_t i) {
      const float* v = cand_vecs[i];
      float dot = 0.0f;
      for (std::size_t j = 0; j < d; ++j) dot += qv[j] * v[j];
      scores[i] = dot;
    };
    if (dev != nullptr) {
      // Centroid scoring charged together with candidate scan.
      dev->launch_linear(
          "ivf_scan", cand_ids.size(), 128, [&](const gpu::ThreadCtx& ctx) {
            score_one(ctx.global_x());
            ctx.add_flops(2.0 * static_cast<double>(d));
            ctx.add_bytes(2.0 * static_cast<double>(d) * sizeof(float));
          });
      dev->charge_kernel("ivf_centroid_score",
                         {2.0 * static_cast<double>(nlist_ * d)});
    } else {
      for (std::size_t i = 0; i < cand_ids.size(); ++i) score_one(i);
    }

    out.push_back(top_k_from_scores(scores.data(), cand_ids.data(),
                                    cand_ids.size(), k));
  }
  return out;
}

double recall_at_k(const SearchResults& exact, const SearchResults& approx) {
  if (exact.size() != approx.size() || exact.empty())
    throw std::invalid_argument("recall_at_k: mismatched query counts");
  double total = 0.0;
  for (std::size_t q = 0; q < exact.size(); ++q) {
    if (exact[q].empty()) continue;
    std::size_t found = 0;
    for (const auto& e : exact[q])
      for (const auto& a : approx[q])
        if (a.id == e.id) {
          ++found;
          break;
        }
    total += static_cast<double>(found) / static_cast<double>(exact[q].size());
  }
  return total / static_cast<double>(exact.size());
}

}  // namespace sagesim::rag
