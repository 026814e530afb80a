// alg1: Algorithm 1 (distributed GCN, METIS + Dask) on the pubmed-like
// planted-partition graph, k = 1, 2 and 4 on simulated T4s, 40 epochs each.
// The paper's central experiment; k = 1 is the single-worker baseline.
// Device-placed kernels (compute + gpusim) take nearly all host wall, and
// runtime dispatch grows at 2k+1 tasks per epoch; the sampler, rag and sched
// layers sit idle.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/distributed_gcn.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/generators.hpp"
#include "graph/metis_like.hpp"
#include "layers.hpp"

namespace perfbench {

namespace sg = sagesim;

namespace {

constexpr int kEpochs = 40;
constexpr int kSetupReps = 7;
constexpr int kWorkers[] = {1, 2, 4};
constexpr double kAccuracySlack = 0.02;

struct Reference {
  bool set{false};
  std::vector<double> losses;
  double accuracy{0.0};
  double sim_s{0.0};
};

}  // namespace

Outcome run_alg1(const RunOptions& opt) {
  Outcome out;

  std::vector<double> setup_s;
  sg::graph::Dataset ds;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    sg::stats::Rng rng(opt.seed);
    ds = sg::graph::pubmed_like(rng, 0.08);
    setup_s.push_back(seconds_since(t0));
  }
  std::printf("alg1: %zu nodes, %zu edges, %zu features, %zu labelled, "
              "k = 1/2/4 METIS, %d epochs\n",
              ds.graph.num_nodes(), ds.graph.num_edges(), ds.features.cols(),
              ds.train_nodes.size(), kEpochs);

  Reference ref[3];
  std::vector<double> step_s;
  std::vector<double> rates;  // labelled nodes x epochs per host s, per sweep
  std::vector<Metrics> layer_reps;

  auto sweep = [&](bool traced) -> double {
    Metrics layers;
    if (traced) reset_data_plane();
    double wall = 0.0, samples = 0.0;
    for (int i = 0; i < 3; ++i) {
      const int k = kWorkers[i];
      sg::gpu::DeviceManager dm(static_cast<std::size_t>(k),
                                sg::gpu::spec::t4());
      sg::dflow::Cluster cluster(dm);
      sg::core::DistributedGcnConfig cfg;
      cfg.num_partitions = k;
      cfg.epochs = kEpochs;
      cfg.hidden = 16;
      cfg.dropout = 0.3f;
      cfg.learning_rate = 0.05f;

      const auto t0 = Clock::now();
      auto run = sg::core::try_train_distributed_gcn(ds, cluster, cfg);
      const double w = seconds_since(t0);
      ++out.attempted;
      if (!run) {
        ++out.failed;
        out.check(false, "alg1 k=" + std::to_string(k) + ": " +
                             run.status().to_string());
        continue;
      }
      wall += w;
      samples += static_cast<double>(ds.train_nodes.size()) * kEpochs;
      const auto spans = cluster.scheduler().timeline().snapshot();
      for (double s : step_latencies_s(spans, "gcn_epoch", "sgd_step"))
        step_s.push_back(s);

      bool finite = run->epoch_losses.size() == kEpochs;
      for (double l : run->epoch_losses) finite = finite && std::isfinite(l);
      out.check(finite, "alg1 k=" + std::to_string(k) +
                            ": 40 finite epoch losses");
      Reference& r = ref[i];
      if (!r.set) {
        r = {true, run->epoch_losses, run->test_accuracy,
             run->train_sim_seconds};
      } else {
        out.check(run->epoch_losses == r.losses &&
                      run->test_accuracy == r.accuracy &&
                      run->train_sim_seconds == r.sim_s,
                  "alg1 k=" + std::to_string(k) +
                      ": losses, accuracy and modeled time repeat bit-exactly");
      }

      if (!traced) continue;
      add_trainer_run(layers, dm, cluster,
                      {"gcn_epoch", "sgd_step", "grad_allreduce"});
      layers["gpusim.modeled_train_s"] += run->train_sim_seconds;
      layers["core.steps"] += kEpochs;
      if (k == 1)
        layers["core.span_coverage"] =
            (span_seconds(spans, "gcn_epoch") +
             span_seconds(spans, "grad_allreduce") +
             span_seconds(spans, "sgd_step")) / w;
      if (k == 4) {
        set_trainer_fractions(layers, dm, cluster, w);
        layers["core.final_loss"] = run->epoch_losses.back();
        layers["core.test_accuracy"] = run->test_accuracy;
      }
    }
    rates.push_back(samples / wall);
    if (traced) {
      finish_data_plane(layers);
      layer_reps.push_back(std::move(layers));
    }
    return wall;
  };

  const RepWalls walls = run_reps(opt, 2, sweep);

  out.check(ref[2].accuracy >= ref[0].accuracy - kAccuracySlack,
            "alg1: k=4 METIS accuracy within 0.02 of (or above) k=1");
  const LatencySummary lat = summarize(step_s);
  out.end_to_end = {
      {"setup_s", median(setup_s)},
      {"throughput_per_s", median(rates)},
      {"latency_p50_ms", lat.p50 * 1e3},
  };
  print_metric("train_samples_per_s", median(rates), "1/s",
               "median of " + std::to_string(rates.size()) + " sweeps");
  print_metric("step_p50_ms", lat.p50 * 1e3, "ms",
               "n=" + std::to_string(lat.n) + " epochs");
  print_metric("step_p90_ms", lat.p90 * 1e3, "ms",
               "n=" + std::to_string(lat.n) + " epochs");
  print_metric("step_p99_ms", lat.p99 * 1e3, "ms",
               "n=" + std::to_string(lat.n) + " epochs");
  print_metric("final_loss", ref[2].losses.empty() ? 0.0 : ref[2].losses.back(),
               "nats", "k=4");
  print_metric("test_accuracy", ref[2].accuracy, "frac", "k=4 METIS");
  print_metric("test_accuracy.k1", ref[0].accuracy, "frac", "k=1");

  if (opt.trace) {
    out.per_layer = median_metrics(layer_reps);
    out.per_layer["trace.overhead_frac"] = tracing_overhead(walls);
    out.per_layer["graph.generate_s"] = median(setup_s);
    out.per_layer["graph.partition_s"] =
        time_median_ms([&] { (void)sg::graph::metis_like(ds.graph, 4); }, 3) *
        1e-3;
    probe_trainer_kernels(out.per_layer, ds.features,
                          sg::graph::normalized_adjacency(ds.graph), 16);
  }
  return out;
}

}  // namespace perfbench
