// What is left of the removed shape-keyed tuner.  Tile sizes are the
// kernels' own constants (tensor/gemm_host.cpp, graph/spmm.cpp) and the
// HNSW beam is rag::HnswParams::ef_search, so nothing consults a tuner and
// both counts read zero.  This header stays only because
// perfbench/layers.cpp reads the counts into compute.tune_hits and
// compute.tune_misses, and the `paths` of BENCHMARK.json freeze perfbench/;
// the next change to the benchmark deletes both metrics and this header.
#pragma once

#include <cstdint>

namespace sagesim::compute {

struct TunerStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
};

class Autotuner {
 public:
  static Autotuner& shared() {
    static Autotuner instance;
    return instance;
  }
  TunerStats stats() const { return {}; }
  void reset_stats() {}
};

}  // namespace sagesim::compute
