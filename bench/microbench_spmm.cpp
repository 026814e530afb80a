// SpMM microbench: the cache-blocked parallel kernel vs the serial
// reference row loop on an R-MAT graph (power-law degrees — the worst case
// for gather locality), plus a worker-count scaling sweep.  Writes a JSON
// baseline (BENCH_spmm.json).
//
//   microbench_spmm [--smoke] [--json PATH] [--workers LIST]
//
// The headline "dims" rows are measured on a pinned 1-worker pool so they
// stay comparable across baselines; per-worker rows land in the JSON
// "scaling" array.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gpusim/executor.hpp"
#include "graph/generators.hpp"
#include "graph/spmm.hpp"
#include "stats/rng.hpp"

using namespace sagesim;

namespace {

double min_seconds(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_spmm.json";
  const char* workers_arg = "";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
      workers_arg = argv[++i];
  }
  const std::vector<unsigned> sweep = bench::parse_workers(
      workers_arg, smoke ? std::vector<unsigned>{1, 2}
                         : std::vector<unsigned>{1, 2, 8});

  bench::header("microbench_spmm",
                "cache-blocked parallel SpMM vs reference row loop (R-MAT)");
  const unsigned pool_workers = gpu::Executor::shared().worker_count();
  const std::size_t scale = smoke ? 9 : 14;
  const std::size_t edge_factor = smoke ? 8 : 16;
  stats::Rng grng(7);
  const graph::CsrGraph g = graph::rmat(scale, edge_factor, grng);
  const graph::NormalizedAdjacency adj = graph::normalized_adjacency(g);
  std::printf(
      "host pool: %u workers | cpus online: %u | isa: %s\n"
      "R-MAT scale %zu: %zu nodes, %zu nnz\n",
      pool_workers, std::thread::hardware_concurrency(), compute::isa_name(),
      scale, adj.num_nodes(), adj.nnz());

  const std::vector<std::size_t> dims =
      smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{64, 128};
  const int reps = smoke ? 2 : 3;

  stats::Rng rng(42);

  struct Row {
    std::size_t d;
    double ref_s, blocked_s;
  };
  std::vector<Row> rows;
  {
    gpu::Executor one(1);
    compute::set_executor(&one);
    for (const std::size_t d : dims) {
      tensor::Tensor x(adj.num_nodes(), d), y(adj.num_nodes(), d);
      x.init_uniform(rng, -1.0f, 1.0f);
      Row row{d, 0, 0};
      row.ref_s = min_seconds(
          reps, [&] { graph::detail::spmm_host_reference(adj, x, y); });
      row.blocked_s = min_seconds(
          reps, [&] { graph::detail::spmm_host_blocked(adj, x, y); });
      rows.push_back(row);
    }
    compute::set_executor(nullptr);
  }

  bench::section("blocked vs reference (1 worker)");
  std::printf("%6s %12s %12s %10s %10s %8s\n", "d", "ref GF/s",
              "blocked GF/s", "ref s", "blocked s", "speedup");
  double worst_speedup = 1e300;
  for (const Row& r : rows) {
    const double flops = 2.0 * static_cast<double>(adj.nnz()) * r.d;
    const double speedup = r.ref_s / r.blocked_s;
    worst_speedup = std::min(worst_speedup, speedup);
    std::printf("%6zu %12.2f %12.2f %10.4f %10.4f %7.2fx  %s\n", r.d,
                flops / r.ref_s / 1e9, flops / r.blocked_s / 1e9, r.ref_s,
                r.blocked_s, speedup, bench::bar(speedup, 8.0, 24).c_str());
  }

  // Worker-count scaling on the widest feature dim.
  struct ScaleRow {
    unsigned workers;
    double blocked_s;
  };
  const std::size_t scale_d = dims.back();
  std::vector<ScaleRow> scaling;
  {
    tensor::Tensor x(adj.num_nodes(), scale_d), y(adj.num_nodes(), scale_d);
    x.init_uniform(rng, -1.0f, 1.0f);
    for (const unsigned w : sweep) {
      gpu::Executor ex(w);
      compute::set_executor(&ex);
      ScaleRow row{w, 0};
      row.blocked_s = min_seconds(
          reps, [&] { graph::detail::spmm_host_blocked(adj, x, y); });
      scaling.push_back(row);
      compute::set_executor(nullptr);
    }
  }

  bench::section("worker-count scaling (blocked kernel)");
  std::printf("%6s %8s %12s %10s %8s\n", "d", "workers", "blocked GF/s",
              "blocked s", "vs 1w");
  {
    const double flops = 2.0 * static_cast<double>(adj.nnz()) * scale_d;
    const double base_s = scaling.empty() ? 0.0 : scaling.front().blocked_s;
    for (const ScaleRow& r : scaling)
      std::printf("%6zu %8u %12.2f %10.4f %7.2fx  %s\n", scale_d, r.workers,
                  flops / r.blocked_s / 1e9, r.blocked_s,
                  base_s / r.blocked_s,
                  bench::bar(base_s / r.blocked_s, 8.0, 24).c_str());
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"bench\": \"spmm\",\n  \"workers\": 1,\n"
                 "  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    bench::json_run_info(f, bench::run_info(pool_workers));
    std::fprintf(f,
                 ",\n  \"graph\": {\"kind\": \"rmat\", "
                 "\"scale\": %zu, \"edge_factor\": %zu, \"nodes\": %zu, "
                 "\"nnz\": %zu},\n  \"dims\": [\n",
                 scale, edge_factor, adj.num_nodes(), adj.nnz());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      const double flops = 2.0 * static_cast<double>(adj.nnz()) * r.d;
      std::fprintf(f,
                   "    {\"d\": %zu, \"reference_s\": %.6f, \"blocked_s\": "
                   "%.6f, \"reference_gflops\": %.3f, \"blocked_gflops\": "
                   "%.3f, \"speedup\": %.3f}%s\n",
                   r.d, r.ref_s, r.blocked_s, flops / r.ref_s / 1e9,
                   flops / r.blocked_s / 1e9, r.ref_s / r.blocked_s,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"scaling\": [\n");
    {
      const double flops = 2.0 * static_cast<double>(adj.nnz()) * scale_d;
      const double base_s = scaling.empty() ? 0.0 : scaling.front().blocked_s;
      for (std::size_t i = 0; i < scaling.size(); ++i) {
        const ScaleRow& r = scaling[i];
        std::fprintf(f,
                     "    {\"d\": %zu, \"workers\": %u, \"blocked_s\": %.6f, "
                     "\"blocked_gflops\": %.3f, \"speedup_vs_1w\": %.3f}%s\n",
                     scale_d, r.workers, r.blocked_s,
                     flops / r.blocked_s / 1e9, base_s / r.blocked_s,
                     i + 1 < scaling.size() ? "," : "");
      }
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf("\nworst blocked-vs-reference speedup: %.2fx\n", worst_speedup);
  return 0;
}
