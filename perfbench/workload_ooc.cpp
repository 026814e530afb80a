// ooc_sampled: sampled mini-batch GCN over a sharded RMAT graph (scale 18:
// 262k nodes, ~3.9M directed edges) split into 16 shard files with 8
// resident; 2 ranks, batch 512, fanouts {10, 5}, hidden 16, prefetch on,
// step checkpoints every 8 steps.  The same core/compute/mem/dflow layers as
// alg1 the other way round: many small mini-batch kernels over streamed
// data.  The sampler, ShardStore paging, H2D staging and the checkpoint
// codec do most of the work.
//
// Prefetch timing is host-scheduled, so gpusim.modeled_train_s,
// mem.h2d_hidden_frac and graph.shard_loads vary from run to run; none of
// them is an exact count.  Losses are exact and are checked bit for bit.
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "core/sampled_gcn.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/ooc.hpp"
#include "graph/sampler.hpp"
#include "layers.hpp"

namespace perfbench {

namespace sg = sagesim;

namespace {

constexpr std::size_t kScale = 18;
constexpr std::size_t kNodesPerShard = std::size_t{1} << 14;  // 16 shards
constexpr std::size_t kResidentShards = 8;
constexpr int kRanks = 2;
constexpr std::size_t kBatch = 512;
constexpr std::size_t kSteps = 64;
constexpr int kCheckpointEvery = 8;
constexpr int kSetupReps = 3;

/// graph.sample_ms: NeighborSampler::sample over the trainer's own seed
/// schedule (epoch 0, every rank) on a private ShardStore.  Also probes the
/// compute kernels on the first sampled batch.
void probe_sampler(Metrics& m, const sg::graph::OocGraphMeta& meta,
                   const sg::graph::OocFeatureSpec& spec,
                   const sg::core::SampledGcnConfig& cfg) {
  auto store =
      sg::graph::ShardStore::open(meta, cfg.max_resident_shards).value();
  const auto ranges =
      sg::graph::degree_balanced_ranges(store.degrees(), kRanks);
  double total_ms = 0.0;
  std::size_t batches = 0;
  for (int r = 0; r < kRanks; ++r) {
    const std::uint64_t rank_seed =
        sg::graph::mix64(cfg.seed, static_cast<std::uint64_t>(r));
    sg::graph::NeighborSampler sampler(store, spec, {cfg.fanouts, rank_seed});
    const auto [begin, end] = ranges[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < kSteps; ++i) {
      const auto seeds =
          sg::graph::schedule_seeds(begin, end, kBatch, rank_seed, 0, i);
      const auto t0 = Clock::now();
      auto batch = sampler.sample(0, i, seeds).value();
      total_ms += seconds_since(t0) * 1e3;
      if (++batches == 1)
        probe_trainer_kernels(m, batch.features, batch.adj, cfg.hidden);
    }
  }
  m["graph.sample_ms"] = total_ms / static_cast<double>(batches);
}

}  // namespace

Outcome run_ooc_sampled(const RunOptions& opt) {
  Outcome out;
  ScratchDir scratch("ooc");

  sg::graph::OocRmatParams params;
  params.scale = kScale;
  params.edge_factor = 8;
  params.seed = opt.seed;
  params.nodes_per_shard = kNodesPerShard;
  std::vector<double> setup_s;
  sg::graph::OocGraphMeta meta;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::string previous = params.dir;
    params.dir = scratch.path() + "/graph" + std::to_string(i);
    const auto t0 = Clock::now();
    auto built = sg::graph::build_sharded_rmat(params);
    setup_s.push_back(seconds_since(t0));
    ++out.attempted;
    if (!built) {
      ++out.failed;
      out.check(false, "ooc_sampled: " + built.status().to_string());
      return out;
    }
    meta = *built;
    if (!previous.empty()) std::filesystem::remove_all(previous);
  }
  std::printf("ooc_sampled: %zu nodes, %llu directed edges, %zu shards "
              "(%zu resident), %d ranks x %zu steps of batch %zu\n",
              meta.num_nodes,
              static_cast<unsigned long long>(meta.num_directed_edges),
              meta.num_shards, kResidentShards, kRanks, kSteps, kBatch);

  const sg::graph::OocFeatureSpec spec;
  sg::core::SampledGcnConfig cfg;
  cfg.num_ranks = kRanks;
  cfg.epochs = 1;
  cfg.batch_size = kBatch;
  cfg.fanouts = {10, 5};
  cfg.max_steps_per_epoch = kSteps;
  cfg.hidden = 16;
  cfg.prefetch = true;
  cfg.max_resident_shards = kResidentShards;
  cfg.fault.enabled = true;
  cfg.fault.checkpoint_every = kCheckpointEvery;

  std::vector<double> ref_losses;
  double ref_eval = 0.0;
  std::vector<double> step_s;
  std::vector<double> rates;  // seed nodes trained per host s, per run
  std::vector<Metrics> layer_reps;

  auto rep = [&](bool traced) -> double {
    // A fresh checkpoint directory per run: a leftover one would resume.
    ScratchDir ckpt("ooc-ckpt");
    cfg.fault.checkpoint_dir = ckpt.path();
    sg::gpu::DeviceManager dm(kRanks, sg::gpu::spec::t4());
    sg::dflow::Cluster cluster(dm);
    if (traced) reset_data_plane();

    const auto t0 = Clock::now();
    auto run = sg::core::try_train_sampled_gcn(meta, spec, cluster, cfg);
    const double w = seconds_since(t0);
    ++out.attempted;
    if (!run) {
      ++out.failed;
      out.check(false, "ooc_sampled: " + run.status().to_string());
      return w;
    }
    rates.push_back(static_cast<double>(run->batches * kBatch) / w);
    const auto spans = cluster.scheduler().timeline().snapshot();
    for (double s :
         step_latencies_s(spans, "sampled_gcn_step:", "sampled_optim:"))
      step_s.push_back(s);

    bool finite = run->step_losses.size() == kSteps;
    for (double l : run->step_losses) finite = finite && std::isfinite(l);
    out.check(finite && std::isfinite(run->eval_loss),
              "ooc_sampled: 64 finite step losses and a finite eval loss");
    out.check(run->batches == kRanks * kSteps,
              "ooc_sampled: every rank trained every micro-batch");
    out.check(run->checkpoints_written > 0,
              "ooc_sampled: step checkpoints were written");
    if (ref_losses.empty()) {
      ref_losses = run->step_losses;
      ref_eval = run->eval_loss;
    } else {
      out.check(run->step_losses == ref_losses && run->eval_loss == ref_eval,
                "ooc_sampled: losses repeat bit-exactly");
    }

    if (traced) {
      Metrics layers;
      add_trainer_run(layers, dm, cluster,
                      {"sampled_gcn_step:", "sampled_optim:",
                       "sampled_allreduce"});
      set_trainer_fractions(layers, dm, cluster, w);
      finish_data_plane(layers);
      layers["mem.h2d_hidden_frac"] = run->h2d_hidden_frac;
      layers["gpusim.modeled_train_s"] = run->train_sim_seconds;
      layers["core.steps"] = static_cast<double>(run->step_losses.size());
      layers["core.checkpoints_written"] =
          static_cast<double>(run->checkpoints_written);
      layers["core.final_loss"] = run->step_losses.back();
      layers["graph.shard_loads"] = static_cast<double>(run->shard_loads);
      layers["graph.shard_evictions"] =
          static_cast<double>(run->shard_evictions);
      layers["graph.sampled_edges"] = static_cast<double>(run->sampled_edges);
      layer_reps.push_back(std::move(layers));
    }
    return w;
  };

  const RepWalls walls = run_reps(opt, 2, rep);

  const LatencySummary lat = summarize(step_s);
  out.end_to_end = {
      {"setup_s", median(setup_s)},
      {"throughput_per_s", median(rates)},
      {"latency_p50_ms", lat.p50 * 1e3},
  };
  print_metric("train_samples_per_s", median(rates), "1/s",
               "median of " + std::to_string(rates.size()) + " runs");
  print_metric("step_p50_ms", lat.p50 * 1e3, "ms",
               "n=" + std::to_string(lat.n) + " steps");
  print_metric("step_p90_ms", lat.p90 * 1e3, "ms",
               "n=" + std::to_string(lat.n) + " steps");
  print_metric("step_p99_ms", lat.p99 * 1e3, "ms",
               "n=" + std::to_string(lat.n) + " steps");
  print_metric("final_loss", ref_losses.empty() ? 0.0 : ref_losses.back(),
               "nats");

  if (opt.trace) {
    out.per_layer = median_metrics(layer_reps);
    out.per_layer["trace.overhead_frac"] = tracing_overhead(walls);
    out.per_layer["graph.generate_s"] = median(setup_s);
    probe_sampler(out.per_layer, meta, spec, cfg);
  }
  return out;
}

}  // namespace perfbench
