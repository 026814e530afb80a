// Gradient-sync microbench: flat single-bucket allreduce vs fixed-size
// buckets vs buckets overlapped with backward compute on the comm stream.
//
// A synthetic model (P params of E floats) runs a simulated backward pass in
// reverse parameter order — the order autograd produces gradients — with one
// "backward_sim" kernel per parameter on stream 0.  The overlap config calls
// GradientSynchronizer::notify_grad_ready after each kernel, so full buckets
// ring-allreduce on the comm streams while later layers are still computing.
// prof::comm_overlap then splits the comm seconds into hidden (under compute)
// and exposed (the stall the step pays).
//
// All three configs must produce bit-identical averaged gradients — the
// collectives fold contributions in ascending rank order regardless of
// chunking/bucketing — and the bench asserts that.
//
// Writes a JSON baseline (BENCH_comm.json) recording step time and
// hidden/exposed comm per (ranks, config).
//
//   microbench_allreduce [--smoke] [--json PATH]
//
// --smoke shrinks the model and rank counts so the perf.* ctest entry stays
// fast.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ddp/grad_sync.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_manager.hpp"
#include "gpusim/device_spec.hpp"
#include "nn/layer.hpp"
#include "prof/report.hpp"

using namespace sagesim;

namespace {

struct Shape {
  std::size_t params;
  std::size_t elems;  // per parameter
};

struct RunResult {
  double step_sim_s{0.0};
  double comm_s{0.0};
  double hidden_s{0.0};
  double exposed_s{0.0};
  std::size_t buckets{0};
  std::vector<float> rank0_grads;  // averaged, for the bit-identity check
};

/// Owns one replica set: params live in `store` (stable addresses), replica
/// pointer lists in `view` — the shape GradientSynchronizer takes.
struct Replicas {
  std::vector<std::vector<nn::Param>> store;
  std::vector<std::vector<nn::Param*>> view;
};

Replicas make_replicas(std::size_t ranks, const Shape& shape) {
  Replicas reps;
  reps.store.resize(ranks);
  reps.view.resize(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    reps.store[r].reserve(shape.params);
    for (std::size_t p = 0; p < shape.params; ++p) {
      nn::Param param(1, shape.elems);
      float* g = param.grad.data();
      for (std::size_t i = 0; i < shape.elems; ++i)
        g[i] = static_cast<float>((r + 1) * 0.25) +
               static_cast<float>((p * 31 + i) % 17) * 0.125f;
      reps.store[r].push_back(std::move(param));
    }
    reps.view[r].reserve(shape.params);
    for (auto& p : reps.store[r]) reps.view[r].push_back(&p);
  }
  return reps;
}

/// One simulated training step: backward kernels in reverse parameter order,
/// readiness notifications (overlap config only), then sync().
RunResult run_config(std::size_t ranks, const Shape& shape,
                     const ddp::SyncOptions& opts, double flops_per_elem) {
  gpu::DeviceManager dm(ranks, gpu::spec::t4());
  Replicas reps = make_replicas(ranks, shape);
  ddp::GradientSynchronizer sync(dm, reps.view, opts);

  const double t0 = dm.now_s();
  for (std::size_t p = shape.params; p-- > 0;) {
    for (std::size_t r = 0; r < ranks; ++r) {
      gpu::Device& dev = dm.device(r);
      dev.launch_linear("backward_sim", shape.elems, 256,
                        [&](const gpu::ThreadCtx& ctx) {
                          ctx.add_flops(flops_per_elem);
                          ctx.add_bytes(4.0 * sizeof(float));
                        });
      if (opts.overlap) sync.notify_grad_ready(r, reps.view[r][p]);
    }
  }
  sync.sync();

  RunResult out;
  out.step_sim_s = dm.now_s() - t0;
  out.buckets = sync.bucket_count();
  for (std::size_t d = 0; d < ranks; ++d) {
    const prof::CommOverlap o =
        prof::comm_overlap(dm.timeline(), static_cast<int>(d));
    out.comm_s += o.comm_s;
    out.hidden_s += o.hidden_s;
    out.exposed_s += o.exposed_s;
  }
  out.rank0_grads.reserve(shape.params * shape.elems);
  for (const nn::Param& p : reps.store[0]) {
    const float* g = p.grad.data();
    out.rank0_grads.insert(out.rank0_grads.end(), g, g + shape.elems);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_comm.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  bench::header("microbench_allreduce",
                "flat vs bucketed vs overlapped gradient sync");

  const Shape shape = smoke ? Shape{6, 64 * 1024} : Shape{16, 1024 * 1024};
  const std::vector<std::size_t> rank_counts =
      smoke ? std::vector<std::size_t>{2, 4} : std::vector<std::size_t>{2, 4, 8};
  // Heavy enough that one parameter's backward kernel rivals one bucket's
  // ring time on the T4 model — the regime where overlap pays.
  const double flops_per_elem = 4500.0;
  // Smoke shrinks params below one default bucket; force real bucketing.
  const std::size_t bucket_bytes = smoke ? 256 * 1024 : 0;

  struct Config {
    const char* name;
    ddp::SyncOptions opts;
  };
  const Config configs[] = {
      {"flat",
       {.algo = ddp::AllReduceAlgo::kRing,
        .bucket_bytes = std::size_t{1} << 40,
        .overlap = false}},
      {"bucketed",
       {.algo = ddp::AllReduceAlgo::kRing,
        .bucket_bytes = bucket_bytes,
        .overlap = false}},
      {"bucketed+overlap",
       {.algo = ddp::AllReduceAlgo::kRing,
        .bucket_bytes = bucket_bytes,
        .overlap = true}},
  };

  std::printf("model: %zu params x %zu floats (%.1f MB grads/rank), "
              "bucket %zu MiB\n",
              shape.params, shape.elems,
              shape.params * shape.elems * sizeof(float) / 1e6,
              ddp::kDefaultBucketBytes >> 20);

  struct Row {
    std::size_t ranks;
    std::string config;
    RunResult r;
  };
  std::vector<Row> rows;
  bool bit_identical = true;

  for (std::size_t k : rank_counts) {
    bench::section("ranks = " + std::to_string(k));
    std::printf("%-18s %8s %12s %12s %12s %13s\n", "config", "buckets",
                "step(ms)", "comm(ms)", "hidden(ms)", "exposed(ms)");
    std::vector<RunResult> results;
    for (const Config& c : configs) {
      results.push_back(run_config(k, shape, c.opts, flops_per_elem));
      const RunResult& r = results.back();
      std::printf("%-18s %8zu %12.3f %12.3f %12.3f %13.3f\n", c.name,
                  r.buckets, 1e3 * r.step_sim_s, 1e3 * r.comm_s,
                  1e3 * r.hidden_s, 1e3 * r.exposed_s);
      rows.push_back({k, c.name, results.back()});
    }
    const RunResult& flat = results[0];
    const RunResult& overlap = results[2];
    const double reduction =
        flat.exposed_s > 0.0
            ? 100.0 * (flat.exposed_s - overlap.exposed_s) / flat.exposed_s
            : 0.0;
    std::printf("exposed comm: %.1f%% lower with overlap  %s\n", reduction,
                bench::bar(reduction, 100.0, 24).c_str());
    if (flat.rank0_grads != results[1].rank0_grads ||
        flat.rank0_grads != overlap.rank0_grads)
      bit_identical = false;
  }
  std::printf("\naveraged gradients bit-identical across configs: %s\n",
              bit_identical ? "yes" : "NO — BUG");

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"comm\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"bit_identical\": %s,\n  \"runs\": [\n",
                 bit_identical ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(f,
                   "    {\"ranks\": %zu, \"config\": \"%s\", \"buckets\": %zu, "
                   "\"step_sim_ms\": %.4f, \"comm_ms\": %.4f, "
                   "\"hidden_ms\": %.4f, \"exposed_ms\": %.4f}%s\n",
                   row.ranks, row.config.c_str(), row.r.buckets,
                   1e3 * row.r.step_sim_s, 1e3 * row.r.comm_s,
                   1e3 * row.r.hidden_s, 1e3 * row.r.exposed_s,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return bit_identical ? 0 : 1;
}
