#include "compute/autotuner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "compute/plan.hpp"

namespace sagesim::compute {

namespace {

constexpr const char* kCacheHeader = "sagesim-tune-cache v1";

std::string gemm_key(std::size_t m, std::size_t n, std::size_t k) {
  std::ostringstream os;
  os << isa_name() << ' ' << m << ' ' << n << ' ' << k;
  return os.str();
}

std::string spmm_key(std::size_t nodes, std::size_t nnz, std::size_t d) {
  std::ostringstream os;
  os << isa_name() << ' ' << nodes << ' ' << nnz << ' ' << d;
  return os.str();
}

std::string ddp_key(std::size_t flat_bytes, std::size_t ranks) {
  std::ostringstream os;
  os << flat_bytes << ' ' << ranks;
  return os.str();
}

std::string hnsw_key(std::size_t count, std::size_t dim, std::size_t k) {
  std::ostringstream os;
  os << count << ' ' << dim << ' ' << k;
  return os.str();
}

/// Heuristic defaults — the hand-picked PR 3 constants, so an empty cache
/// reproduces the previous engine exactly.
GemmTiling default_gemm_tiling() {
  GemmTiling t;
  t.mr = 4;
  t.nr = isa() == Isa::kAvx2 ? 16 : 8;
  t.mc = 64;
  t.nc = 0;  // pack all of B
  t.kc = 0;  // no reduction slabbing
  return t;
}

SpmmTiling default_spmm_tiling() {
  SpmmTiling t;
  t.row_block = 64;
  t.tile_width = isa() == Isa::kAvx2 ? 64 : 16;
  return t;
}

}  // namespace

Autotuner& Autotuner::shared() {
  static Autotuner* instance = [] {
    auto* t = new Autotuner();
    const std::string path = cache_path_from_env();
    if (!path.empty()) {
      t->persist_ = true;
      t->persist_path_ = path;
      t->load(path);
    }
    return t;
  }();
  return *instance;
}

std::string Autotuner::cache_path_from_env() {
  const char* env = std::getenv("SAGESIM_TUNE_CACHE");
  return env != nullptr ? std::string(env) : std::string();
}

// --- consult ---------------------------------------------------------------

GemmTiling Autotuner::gemm_tiling(std::size_t m, std::size_t n,
                                  std::size_t k) {
  std::lock_guard lock(mutex_);
  const auto it = gemm_.find(gemm_key(m, n, k));
  if (it != gemm_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return default_gemm_tiling();
}

SpmmTiling Autotuner::spmm_tiling(std::size_t nodes, std::size_t nnz,
                                  std::size_t d) {
  std::lock_guard lock(mutex_);
  const auto it = spmm_.find(spmm_key(nodes, nnz, d));
  if (it != spmm_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return default_spmm_tiling();
}

std::size_t Autotuner::ddp_bucket_bytes(std::size_t flat_bytes,
                                        std::size_t ranks) {
  std::lock_guard lock(mutex_);
  const auto it = ddp_.find(ddp_key(flat_bytes, ranks));
  if (it != ddp_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return 0;
}

std::size_t Autotuner::hnsw_ef(std::size_t count, std::size_t dim,
                               std::size_t k) {
  std::lock_guard lock(mutex_);
  const auto it = hnsw_.find(hnsw_key(count, dim, k));
  if (it != hnsw_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return 0;
}

// --- record ----------------------------------------------------------------

void Autotuner::record_gemm(std::size_t m, std::size_t n, std::size_t k,
                            GemmTiling t) {
  std::lock_guard lock(mutex_);
  gemm_[gemm_key(m, n, k)] = t;
  maybe_persist_locked();
}

void Autotuner::record_spmm(std::size_t nodes, std::size_t nnz, std::size_t d,
                            SpmmTiling t) {
  std::lock_guard lock(mutex_);
  spmm_[spmm_key(nodes, nnz, d)] = t;
  maybe_persist_locked();
}

void Autotuner::record_ddp(std::size_t flat_bytes, std::size_t ranks,
                           std::size_t bucket_bytes) {
  std::lock_guard lock(mutex_);
  ddp_[ddp_key(flat_bytes, ranks)] = bucket_bytes;
  maybe_persist_locked();
}

// --- candidate grids -------------------------------------------------------

std::vector<GemmTiling> Autotuner::gemm_candidates(std::size_t m,
                                                   std::size_t n,
                                                   std::size_t k) {
  // Micro-tiles are constrained by the register file (see gemm_host.cpp):
  // 4x8 / 8x8 on the portable path, 4x16 / 6x16 / 4x8 with AVX2.
  std::vector<std::pair<std::size_t, std::size_t>> micro;
  if (isa() == Isa::kAvx2)
    micro = {{4, 16}, {6, 16}, {4, 8}};
  else
    micro = {{4, 8}, {8, 8}};

  std::vector<GemmTiling> out;
  for (const auto& [mr, nr] : micro) {
    for (std::size_t mc : {std::size_t{32}, std::size_t{64}, std::size_t{128}}) {
      for (std::size_t nc : {std::size_t{0}, std::size_t{128}, std::size_t{256}}) {
        for (std::size_t kc : {std::size_t{0}, std::size_t{128}, std::size_t{256}}) {
          GemmTiling t;
          t.mr = mr;
          t.nr = nr;
          t.mc = std::max(mr, mc - mc % mr);  // whole micro-panels per panel
          t.nc = nc >= n ? 0 : nc;            // full-extent blocks collapse
          t.kc = kc >= k ? 0 : kc;
          if (t.mc > m + mr) continue;        // panel larger than the matrix
          if (std::find(out.begin(), out.end(), t) == out.end())
            out.push_back(t);
        }
      }
    }
  }
  return out;
}

std::vector<SpmmTiling> Autotuner::spmm_candidates(std::size_t d) {
  std::vector<std::size_t> widths;
  if (isa() == Isa::kAvx2)
    widths = {16, 32, 64};
  else
    widths = {16};

  std::vector<SpmmTiling> out;
  for (std::size_t rb : {std::size_t{32}, std::size_t{64}, std::size_t{128},
                         std::size_t{256}}) {
    for (const std::size_t w : widths) {
      if (w > 16 && w > d) continue;  // wider than the feature dim
      out.push_back(SpmmTiling{rb, w});
    }
  }
  return out;
}

std::vector<std::size_t> Autotuner::ddp_bucket_candidates() {
  return {std::size_t{1} << 20, std::size_t{2} << 20, std::size_t{4} << 20,
          std::size_t{8} << 20, std::size_t{16} << 20};
}

std::vector<std::size_t> Autotuner::hnsw_ef_candidates() {
  return {16, 32, 64, 128, 256};
}

// --- search ----------------------------------------------------------------

GemmTiling Autotuner::tune_gemm(
    std::size_t m, std::size_t n, std::size_t k,
    const std::function<double(const GemmTiling&)>& time_fn) {
  GemmTiling best;
  double best_s = std::numeric_limits<double>::infinity();
  for (const GemmTiling& t : gemm_candidates(m, n, k)) {
    const double s = time_fn(t);
    if (s < best_s) {
      best_s = s;
      best = t;
    }
  }
  {
    std::lock_guard lock(mutex_);
    ++stats_.searches;
    gemm_[gemm_key(m, n, k)] = best;
    maybe_persist_locked();
  }
  return best;
}

SpmmTiling Autotuner::tune_spmm(
    std::size_t nodes, std::size_t nnz, std::size_t d,
    const std::function<double(const SpmmTiling&)>& time_fn) {
  SpmmTiling best;
  double best_s = std::numeric_limits<double>::infinity();
  for (const SpmmTiling& t : spmm_candidates(d)) {
    const double s = time_fn(t);
    if (s < best_s) {
      best_s = s;
      best = t;
    }
  }
  {
    std::lock_guard lock(mutex_);
    ++stats_.searches;
    spmm_[spmm_key(nodes, nnz, d)] = best;
    maybe_persist_locked();
  }
  return best;
}

std::size_t Autotuner::tune_ddp(
    std::size_t flat_bytes, std::size_t ranks,
    const std::function<double(std::size_t)>& time_fn) {
  std::size_t best = 0;
  double best_s = std::numeric_limits<double>::infinity();
  for (const std::size_t b : ddp_bucket_candidates()) {
    const double s = time_fn(b);
    if (s < best_s) {
      best_s = s;
      best = b;
    }
  }
  {
    std::lock_guard lock(mutex_);
    ++stats_.searches;
    ddp_[ddp_key(flat_bytes, ranks)] = best;
    maybe_persist_locked();
  }
  return best;
}

std::size_t Autotuner::tune_hnsw(
    std::size_t count, std::size_t dim, std::size_t k,
    const std::function<double(std::size_t)>& time_fn) {
  // Candidates are ordered smallest-ef first; with strict '<' the cheapest
  // candidate that meets the recall target (time_fn returns +inf below it)
  // wins, so ties in measured time resolve toward the faster search.
  std::size_t best = 0;
  double best_s = std::numeric_limits<double>::infinity();
  for (const std::size_t ef : hnsw_ef_candidates()) {
    const double s = time_fn(ef);
    if (s < best_s) {
      best_s = s;
      best = ef;
    }
  }
  if (best == 0) return 0;  // nothing met the target: leave untuned
  {
    std::lock_guard lock(mutex_);
    ++stats_.searches;
    hnsw_[hnsw_key(count, dim, k)] = best;
    maybe_persist_locked();
  }
  return best;
}

// --- persistence -----------------------------------------------------------

bool Autotuner::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return true;  // missing cache: start empty, not an error

  std::map<std::string, GemmTiling> gemm;
  std::map<std::string, SpmmTiling> spmm;
  std::map<std::string, std::size_t> ddp;
  std::map<std::string, std::size_t> hnsw;

  const auto reject = [&](const char* why) {
    std::fprintf(stderr,
                 "sagesim: warning: tuning cache '%s' %s; falling back to "
                 "default tilings\n",
                 path.c_str(), why);
    std::lock_guard lock(mutex_);
    gemm_.clear();
    spmm_.clear();
    ddp_.clear();
    hnsw_.clear();
    stats_.corrupt = true;
    return false;
  };

  std::string line;
  if (!std::getline(in, line) || line != kCacheHeader)
    return reject("has an unknown header/version");

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "gemm") {
      std::string isa_tag;
      std::size_t m = 0, n = 0, k = 0;
      GemmTiling t;
      ls >> isa_tag >> m >> n >> k >> t.mr >> t.nr >> t.mc >> t.nc >> t.kc;
      if (ls.fail() || t.mr == 0 || t.nr == 0 || t.mc == 0)
        return reject("has a corrupt gemm entry");
      std::ostringstream key;
      key << isa_tag << ' ' << m << ' ' << n << ' ' << k;
      gemm[key.str()] = t;
    } else if (tag == "spmm") {
      std::string isa_tag;
      std::size_t nodes = 0, nnz = 0, d = 0;
      SpmmTiling t;
      ls >> isa_tag >> nodes >> nnz >> d >> t.row_block >> t.tile_width;
      if (ls.fail() || t.row_block == 0 || t.tile_width == 0)
        return reject("has a corrupt spmm entry");
      std::ostringstream key;
      key << isa_tag << ' ' << nodes << ' ' << nnz << ' ' << d;
      spmm[key.str()] = t;
    } else if (tag == "ddp") {
      std::size_t flat_bytes = 0, ranks = 0, bucket = 0;
      ls >> flat_bytes >> ranks >> bucket;
      if (ls.fail() || bucket == 0) return reject("has a corrupt ddp entry");
      std::ostringstream key;
      key << flat_bytes << ' ' << ranks;
      ddp[key.str()] = bucket;
    } else if (tag == "hnsw") {
      std::size_t count = 0, dim = 0, k = 0, ef = 0;
      ls >> count >> dim >> k >> ef;
      if (ls.fail() || ef == 0) return reject("has a corrupt hnsw entry");
      std::ostringstream key;
      key << count << ' ' << dim << ' ' << k;
      hnsw[key.str()] = ef;
    } else {
      return reject("has an unknown entry kind");
    }
  }

  std::lock_guard lock(mutex_);
  gemm_ = std::move(gemm);
  spmm_ = std::move(spmm);
  ddp_ = std::move(ddp);
  hnsw_ = std::move(hnsw);
  stats_.loaded = true;
  return true;
}

bool Autotuner::save(const std::string& path) const {
  std::lock_guard lock(mutex_);
  return save_locked(path);
}

bool Autotuner::save_locked(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << kCacheHeader << '\n';
  for (const auto& [key, t] : gemm_)
    out << "gemm " << key << ' ' << t.mr << ' ' << t.nr << ' ' << t.mc << ' '
        << t.nc << ' ' << t.kc << '\n';
  for (const auto& [key, t] : spmm_)
    out << "spmm " << key << ' ' << t.row_block << ' ' << t.tile_width << '\n';
  for (const auto& [key, b] : ddp_) out << "ddp " << key << ' ' << b << '\n';
  for (const auto& [key, ef] : hnsw_)
    out << "hnsw " << key << ' ' << ef << '\n';
  return static_cast<bool>(out);
}

void Autotuner::maybe_persist_locked() {
  if (persist_) save_locked(persist_path_);
}

TunerStats Autotuner::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void Autotuner::reset_stats() {
  std::lock_guard lock(mutex_);
  stats_ = TunerStats{};
}

void Autotuner::clear() {
  std::lock_guard lock(mutex_);
  gemm_.clear();
  spmm_.clear();
  ddp_.clear();
  hnsw_.clear();
}

std::size_t Autotuner::entry_count() const {
  std::lock_guard lock(mutex_);
  return gemm_.size() + spmm_.size() + ddp_.size() + hnsw_.size();
}

}  // namespace sagesim::compute
