// GEMM microbench: naive host loops vs the packed/blocked parallel engine,
// plus the fused bias+ReLU epilogue vs separate passes and a worker-count
// scaling sweep.  Reports GFLOP/s and speedups, and writes a JSON baseline
// (BENCH_gemm.json) so the bench trajectory is recorded across PRs.
//
//   microbench_gemm [--smoke] [--json PATH] [--workers LIST] [--tune]
//
// --smoke shrinks sizes/reps so the perf.* ctest entry stays fast.
// --workers takes a comma list of pool sizes for the scaling sweep
// (default 1,2,8; smoke 1,2).  The headline "sizes" rows are always
// measured on a pinned 1-worker pool so they stay comparable across
// baselines regardless of SAGESIM_WORKERS; per-worker rows land in the
// JSON "scaling" array.  --tune runs the autotuner search for each shape
// first (persisting to SAGESIM_TUNE_CACHE when set).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gpusim/device_manager.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/executor.hpp"
#include "stats/rng.hpp"
#include "tensor/gemm_host.hpp"
#include "tensor/ops.hpp"

using namespace sagesim;
namespace ops = sagesim::tensor::ops;

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

struct Row {
  std::size_t m, n, k;
  double naive_s, blocked_s;
  double fused_s, decomposed_s;
};

struct ScaleRow {
  unsigned workers;
  double blocked_s;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool tune = false;
  std::string json_path = "BENCH_gemm.json";
  const char* workers_arg = "";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--tune") == 0) tune = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
      workers_arg = argv[++i];
  }
  const std::vector<unsigned> sweep = bench::parse_workers(
      workers_arg, smoke ? std::vector<unsigned>{1, 2}
                         : std::vector<unsigned>{1, 2, 8});

  bench::header("microbench_gemm",
                "packed/blocked parallel GEMM vs naive host loops");
  const unsigned pool_workers = gpu::Executor::shared().worker_count();
  std::printf("host pool: %u workers | cpus online: %u | isa: %s\n",
              pool_workers, std::thread::hardware_concurrency(),
              compute::isa_name());

  // Square sizes stress the reduction; the last shape is a training-step
  // Dense layer (tall activations, shallow k) where the fused epilogue's
  // saved output passes are a visible fraction of the work.
  struct Shape {
    std::size_t m, n, k;
  };
  const std::vector<Shape> shapes =
      smoke ? std::vector<Shape>{{48, 48, 48}, {96, 96, 96}}
            : std::vector<Shape>{
                  {128, 128, 128}, {256, 256, 256}, {512, 512, 512},
                  {2048, 256, 64}};
  const int reps = smoke ? 2 : 3;

  stats::Rng rng(42);

  if (tune) {
    bench::section("autotuner search");
    for (const Shape& sh : shapes) {
      tensor::Tensor a(sh.m, sh.k), b(sh.k, sh.n), out(sh.m, sh.n);
      a.init_uniform(rng, -1.0f, 1.0f);
      b.init_uniform(rng, -1.0f, 1.0f);
      ops::detail::GemmSpec spec;
      spec.a = a.data();
      spec.b = b.data();
      spec.c = out.data();
      spec.m = sh.m;
      spec.n = sh.n;
      spec.k = sh.k;
      spec.lda = sh.k;
      spec.ldb = sh.n;
      const auto best = compute::Autotuner::shared().tune_gemm(
          sh.m, sh.n, sh.k, [&](const compute::GemmTiling& t) {
            return min_seconds(reps, [&] {
              ops::detail::gemm_host_blocked_tiled(spec, t);
            });
          });
      std::printf("%4zux%zux%zu -> mr=%zu nr=%zu mc=%zu nc=%zu kc=%zu\n",
                  sh.m, sh.n, sh.k, best.mr, best.nr, best.mc, best.nc,
                  best.kc);
    }
  }

  // Headline rows on a pinned 1-worker pool: the single-thread kernel
  // quality signal, stable across hosts and SAGESIM_WORKERS settings.
  std::vector<Row> rows;
  {
    gpu::Executor one(1);
    compute::set_executor(&one);
    for (const Shape& sh : shapes) {
      tensor::Tensor a(sh.m, sh.k), b(sh.k, sh.n), out(sh.m, sh.n);
      a.init_uniform(rng, -1.0f, 1.0f);
      b.init_uniform(rng, -1.0f, 1.0f);

      Row row{sh.m, sh.n, sh.k, 0, 0, 0, 0};
      ops::detail::GemmSpec spec;
      spec.a = a.data();
      spec.b = b.data();
      spec.c = out.data();
      spec.m = sh.m;
      spec.n = sh.n;
      spec.k = sh.k;
      spec.lda = sh.k;
      spec.ldb = sh.n;
      row.naive_s =
          min_seconds(reps, [&] { ops::detail::gemm_host_naive(spec); });
      row.blocked_s =
          min_seconds(reps, [&] { ops::gemm(nullptr, a, b, out); });

      // Fused epilogue vs three separate output passes (both on the blocked
      // engine — this isolates the fusion win from the blocking win).
      tensor::Tensor bias(1, sh.n), pre(sh.m, sh.n);
      bias.init_uniform(rng, -0.5f, 0.5f);
      row.fused_s = min_seconds(
          reps, [&] { ops::gemm_bias_relu(nullptr, a, b, bias, pre, out); });
      row.decomposed_s = min_seconds(reps, [&] {
        ops::gemm(nullptr, a, b, pre);
        ops::add_bias(nullptr, pre, bias);
        ops::relu(nullptr, pre, out);
      });
      rows.push_back(row);
    }
    compute::set_executor(nullptr);
  }

  bench::section("blocked vs naive (host path, 1 worker)");
  std::printf("%16s %12s %12s %10s %10s %8s\n", "m x n x k", "naive GF/s",
              "blocked GF/s", "naive s", "blocked s", "speedup");
  double worst_speedup = 1e300;
  for (const Row& r : rows) {
    char shape[32];
    std::snprintf(shape, sizeof shape, "%zux%zux%zu", r.m, r.n, r.k);
    const double flops = 2.0 * static_cast<double>(r.m) * r.n * r.k;
    const double speedup = r.naive_s / r.blocked_s;
    worst_speedup = std::min(worst_speedup, speedup);
    std::printf("%16s %12.2f %12.2f %10.4f %10.4f %7.2fx  %s\n", shape,
                flops / r.naive_s / 1e9, flops / r.blocked_s / 1e9, r.naive_s,
                r.blocked_s, speedup,
                bench::bar(speedup, 16.0, 24).c_str());
  }

  // Worker-count scaling on the heaviest shape: per-worker rows so a
  // baseline records how the GEMM's parallel_for scales on the host it ran on
  // (cpus_online in the JSON tells the reader how much scaling was even
  // physically possible).
  const Shape scale_shape = *std::max_element(
      shapes.begin(), shapes.end(), [](const Shape& x, const Shape& y) {
        return x.m * x.n * x.k < y.m * y.n * y.k;
      });
  std::vector<ScaleRow> scaling;
  {
    tensor::Tensor a(scale_shape.m, scale_shape.k),
        b(scale_shape.k, scale_shape.n), out(scale_shape.m, scale_shape.n);
    a.init_uniform(rng, -1.0f, 1.0f);
    b.init_uniform(rng, -1.0f, 1.0f);
    for (const unsigned w : sweep) {
      gpu::Executor ex(w);
      compute::set_executor(&ex);
      ScaleRow row{w, 0};
      row.blocked_s =
          min_seconds(reps, [&] { ops::gemm(nullptr, a, b, out); });
      scaling.push_back(row);
      compute::set_executor(nullptr);
    }
  }

  bench::section("worker-count scaling (blocked engine)");
  std::printf("%16s %8s %12s %10s %8s\n", "m x n x k", "workers",
              "blocked GF/s", "blocked s", "vs 1w");
  {
    const double flops = 2.0 * static_cast<double>(scale_shape.m) *
                         scale_shape.n * scale_shape.k;
    const double base_s = scaling.empty() ? 0.0 : scaling.front().blocked_s;
    for (const ScaleRow& r : scaling) {
      char shape[32];
      std::snprintf(shape, sizeof shape, "%zux%zux%zu", scale_shape.m,
                    scale_shape.n, scale_shape.k);
      std::printf("%16s %8u %12.2f %10.4f %7.2fx  %s\n", shape, r.workers,
                  flops / r.blocked_s / 1e9, r.blocked_s,
                  base_s / r.blocked_s,
                  bench::bar(base_s / r.blocked_s, 8.0, 24).c_str());
    }
  }

  bench::section("fused bias+relu epilogue vs separate passes");
  std::printf("%16s %12s %12s %8s\n", "m x n x k", "fused s", "3-pass s",
              "speedup");
  for (const Row& r : rows) {
    char shape[32];
    std::snprintf(shape, sizeof shape, "%zux%zux%zu", r.m, r.n, r.k);
    std::printf("%16s %12.4f %12.4f %7.2fx\n", shape, r.fused_s,
                r.decomposed_s, r.decomposed_s / r.fused_s);
  }
  std::printf("(host path: the epilogue overlaps the reduction, so fusion is\n"
              " roughly break-even; the win is eliminated kernel launches and\n"
              " output-matrix passes, which the device model prices below)\n");

  // Fusion on the simulated device: one launch + one output pass instead of
  // three launches + three passes, priced by the device's launch-latency and
  // DRAM model.
  bench::section("fused epilogue on the simulated device (T4, sim time)");
  double dev_fused_s = 0.0, dev_decomposed_s = 0.0;
  {
    const std::size_t m = smoke ? 96 : 2048, n = smoke ? 48 : 256,
                      k = smoke ? 48 : 64;
    tensor::Tensor a(m, k), b(k, n), bias(1, n), pre(m, n), out(m, n);
    a.init_uniform(rng, -1.0f, 1.0f);
    b.init_uniform(rng, -1.0f, 1.0f);
    bias.init_uniform(rng, -0.5f, 0.5f);
    gpu::DeviceManager dm(1, gpu::spec::t4());
    gpu::Device* dev = &dm.device(0);
    double t0 = dm.now_s();
    ops::gemm_bias_relu(dev, a, b, bias, pre, out);
    dev_fused_s = dm.now_s() - t0;
    t0 = dm.now_s();
    ops::gemm(dev, a, b, pre);
    ops::add_bias(dev, pre, bias);
    ops::relu(dev, pre, out);
    dev_decomposed_s = dm.now_s() - t0;
    std::printf("%16s %12s %12s %8s\n", "m x n x k", "fused s", "3-pass s",
                "speedup");
    char shape[32];
    std::snprintf(shape, sizeof shape, "%zux%zux%zu", m, n, k);
    std::printf("%16s %12.6f %12.6f %7.2fx\n", shape, dev_fused_s,
                dev_decomposed_s, dev_decomposed_s / dev_fused_s);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"gemm\",\n  \"workers\": 1,\n"
                 "  \"smoke\": %s,\n", smoke ? "true" : "false");
    bench::json_run_info(f, bench::run_info(pool_workers));
    std::fprintf(f, ",\n  \"sizes\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      const double flops = 2.0 * static_cast<double>(r.m) * r.n * r.k;
      std::fprintf(
          f,
          "    {\"m\": %zu, \"n\": %zu, \"k\": %zu, \"naive_s\": %.6f, "
          "\"blocked_s\": %.6f, \"naive_gflops\": %.3f, \"blocked_gflops\": "
          "%.3f, \"speedup\": %.3f, \"fused_s\": %.6f, \"decomposed_s\": "
          "%.6f, \"fused_speedup\": %.3f}%s\n",
          r.m, r.n, r.k, r.naive_s, r.blocked_s, flops / r.naive_s / 1e9,
          flops / r.blocked_s / 1e9, r.naive_s / r.blocked_s, r.fused_s,
          r.decomposed_s, r.decomposed_s / r.fused_s,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"scaling\": [\n");
    {
      const double flops = 2.0 * static_cast<double>(scale_shape.m) *
                           scale_shape.n * scale_shape.k;
      const double base_s = scaling.empty() ? 0.0 : scaling.front().blocked_s;
      for (std::size_t i = 0; i < scaling.size(); ++i) {
        const ScaleRow& r = scaling[i];
        std::fprintf(f,
                     "    {\"m\": %zu, \"n\": %zu, \"k\": %zu, \"workers\": "
                     "%u, \"blocked_s\": %.6f, \"blocked_gflops\": %.3f, "
                     "\"speedup_vs_1w\": %.3f}%s\n",
                     scale_shape.m, scale_shape.n, scale_shape.k, r.workers,
                     r.blocked_s, flops / r.blocked_s / 1e9,
                     base_s / r.blocked_s, i + 1 < scaling.size() ? "," : "");
      }
    }
    std::fprintf(f,
                 "  ],\n  \"device_fused\": {\"fused_sim_s\": %.6f, "
                 "\"decomposed_sim_s\": %.6f, \"speedup\": %.3f}\n}\n",
                 dev_fused_s, dev_decomposed_s,
                 dev_decomposed_s / dev_fused_s);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf("\nworst blocked-vs-naive speedup: %.2fx\n", worst_speedup);
  return 0;
}
