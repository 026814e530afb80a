// Shape-keyed kernel autotuner: searched tile parameters instead of frozen
// constants.
//
// Every host kernel family exposes its tunable knobs as a small POD tiling
// (GEMM macro/micro tiles, SpMM row block + feature tile width, the DDP
// gradient-bucket size).  The Autotuner maps an exact shape key to the
// winning tiling:
//
//  * consult (gemm_tiling / spmm_tiling / ddp_bucket_bytes) is cheap — a
//    cache lookup falling back to the built-in heuristic defaults — and is
//    what tensor::ops, graph::spmm and ddp::SyncOptions call on the hot
//    path.  Training reuses identical shapes every step, so exact keys hit.
//  * search (tune_gemm / tune_spmm / tune_ddp) times caller-provided
//    candidates, records the winner, and persists it.  Benches and the
//    conformance tests drive search explicitly; it never runs implicitly
//    inside a kernel launch.
//
// Results are bit-identical across tilings by the plan-layer determinism
// argument (tiles partition outputs; reduction order per element is fixed),
// so a stale or missing cache entry can only cost time, never correctness.
//
// Persistence: SAGESIM_TUNE_CACHE names an on-disk cache consulted by
// Autotuner::shared() at first use and rewritten after each search.  The
// file is a versioned text format ("sagesim-tune-cache v1"); a corrupt or
// version-mismatched file is discarded with a warning and the tuner falls
// back to defaults — tuning state can never poison a run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sagesim::compute {

/// GEMM macro/micro tile parameters (see tensor/gemm_host.cpp).
/// mr x nr is the register micro-tile; mc rows per packed A panel (the
/// parallel grain along M); nc columns per packed B block (the grain along
/// N); kc the reduction slab kept L1-hot between repacks.  nc == 0 / kc == 0
/// mean "full extent" (no blocking along that dimension).
struct GemmTiling {
  std::size_t mr{4}, nr{0}, mc{64}, nc{0}, kc{0};
  bool operator==(const GemmTiling&) const = default;
};

/// SpMM tile parameters: rows per parallel block and the widest vector
/// feature tile (floats) held in registers across a row's edge loop.
struct SpmmTiling {
  std::size_t row_block{64}, tile_width{64};
  bool operator==(const SpmmTiling&) const = default;
};

struct TunerStats {
  std::uint64_t hits{0};    ///< consults served from the cache
  std::uint64_t misses{0};  ///< consults that fell back to defaults
  std::uint64_t searches{0};
  bool loaded{false};       ///< a cache file was read successfully
  bool corrupt{false};      ///< a cache file was rejected (warned, defaulted)
};

class Autotuner {
 public:
  Autotuner() = default;

  /// Process-wide instance; loads the SAGESIM_TUNE_CACHE file (if set) on
  /// first use.
  static Autotuner& shared();

  // --- consult (hot path) --------------------------------------------------
  GemmTiling gemm_tiling(std::size_t m, std::size_t n, std::size_t k);
  SpmmTiling spmm_tiling(std::size_t nodes, std::size_t nnz, std::size_t d);
  /// Tuned DDP bucket size for (replica bytes, ranks), or 0 when untuned —
  /// the caller (ddp::resolve_bucket_bytes) applies its own default.
  std::size_t ddp_bucket_bytes(std::size_t flat_bytes, std::size_t ranks);
  /// Tuned HNSW search beam (ef_search) for an (index size, dim, k) shape,
  /// or 0 when untuned — rag::HnswIndex applies its configured default.
  std::size_t hnsw_ef(std::size_t count, std::size_t dim, std::size_t k);

  // --- record / search -----------------------------------------------------
  void record_gemm(std::size_t m, std::size_t n, std::size_t k, GemmTiling t);
  void record_spmm(std::size_t nodes, std::size_t nnz, std::size_t d,
                   SpmmTiling t);
  void record_ddp(std::size_t flat_bytes, std::size_t ranks,
                  std::size_t bucket_bytes);

  /// Candidate grids, pruned to the shape and the runtime ISA.
  static std::vector<GemmTiling> gemm_candidates(std::size_t m, std::size_t n,
                                                 std::size_t k);
  static std::vector<SpmmTiling> spmm_candidates(std::size_t d);
  static std::vector<std::size_t> ddp_bucket_candidates();
  static std::vector<std::size_t> hnsw_ef_candidates();

  /// Times every candidate with @p time_fn (seconds; lower is better),
  /// records the winner, persists the cache (when this is the shared
  /// instance and SAGESIM_TUNE_CACHE is set), and returns it.
  GemmTiling tune_gemm(std::size_t m, std::size_t n, std::size_t k,
                       const std::function<double(const GemmTiling&)>& time_fn);
  SpmmTiling tune_spmm(std::size_t nodes, std::size_t nnz, std::size_t d,
                       const std::function<double(const SpmmTiling&)>& time_fn);
  std::size_t tune_ddp(std::size_t flat_bytes, std::size_t ranks,
                       const std::function<double(std::size_t)>& time_fn);
  /// Smaller ef is always faster but recalls less, so unlike the kernel
  /// searches the cost function must fold the quality constraint in: return
  /// +inf for candidates whose measured recall misses the caller's target
  /// and seconds otherwise (rag::tune_hnsw_ef does exactly that).
  std::size_t tune_hnsw(std::size_t count, std::size_t dim, std::size_t k,
                        const std::function<double(std::size_t)>& time_fn);

  // --- persistence ---------------------------------------------------------
  /// Replaces the in-memory entries with the file's.  Returns false (and
  /// warns on stderr, leaving the tuner at defaults) when the file exists
  /// but is corrupt or carries an unknown version.  A missing file is not
  /// an error — the tuner simply starts empty.
  bool load(const std::string& path);
  /// Writes every entry (deterministic key order).  Returns false on I/O
  /// failure.
  bool save(const std::string& path) const;

  /// Path persisted to by searches: SAGESIM_TUNE_CACHE, or "" when unset.
  static std::string cache_path_from_env();

  TunerStats stats() const;
  void reset_stats();
  /// Drops every entry (tests).
  void clear();
  std::size_t entry_count() const;

 private:
  bool save_locked(const std::string& path) const;
  void maybe_persist_locked();

  mutable std::mutex mutex_;
  std::map<std::string, GemmTiling> gemm_;
  std::map<std::string, SpmmTiling> spmm_;
  std::map<std::string, std::size_t> ddp_;
  std::map<std::string, std::size_t> hnsw_;
  TunerStats stats_;
  bool persist_{false};  ///< set for the shared instance when env path set
  std::string persist_path_;
};

}  // namespace sagesim::compute
