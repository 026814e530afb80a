#include "core/sampled_gcn.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/replica_set.hpp"
#include "graph/prefetch.hpp"
#include "graph/sampler.hpp"
#include "mem/pool.hpp"
#include "nn/loss.hpp"
#include "prof/report.hpp"
#include "runtime/scheduler.hpp"
#include "tensor/ops.hpp"

namespace sagesim::core {

Expected<SampledGcnResult> try_train_sampled_gcn(
    const graph::OocGraphMeta& meta, const graph::OocFeatureSpec& features,
    dflow::Cluster& cluster, const SampledGcnConfig& config) {
  const int k = config.num_ranks;
  if (k < 1)
    throw std::invalid_argument("train_sampled_gcn: num_ranks must be >= 1");
  if (k > cluster.world_size())
    throw std::invalid_argument(
        "train_sampled_gcn: more ranks than cluster workers");
  if (config.epochs < 1)
    throw std::invalid_argument("train_sampled_gcn: epochs must be >= 1");
  if (config.batch_size == 0)
    throw std::invalid_argument("train_sampled_gcn: batch_size must be >= 1");
  if (config.grad_accum_steps == 0)
    throw std::invalid_argument(
        "train_sampled_gcn: grad_accum_steps must be >= 1");
  if (config.prefetch_depth == 0)
    throw std::invalid_argument(
        "train_sampled_gcn: prefetch_depth must be >= 1");
  const GcnFaultOptions& ft = config.fault;
  validate_fault_options(ft, "train_sampled_gcn");

  auto& devices = cluster.devices();
  const double sim_t0 = devices.now_s();
  // Start the high-water mark at current residency, so the reported peak
  // measures what *this run* added (shards, batches, activations).
  mem::reset_process_peak_resident_bytes();

  Expected<graph::ShardStore> opened =
      graph::ShardStore::open(meta, config.max_resident_shards);
  if (!opened) return opened.status();
  graph::ShardStore store = std::move(*opened);

  // --- Rank node ranges: streaming degree-balanced partition. --------------
  const auto ranges = graph::degree_balanced_ranges(store.degrees(), k);

  const std::size_t accum = config.grad_accum_steps;
  std::size_t micro_per_epoch = SIZE_MAX;
  for (const auto& [begin, end] : ranges)
    micro_per_epoch = std::min(
        micro_per_epoch, graph::batches_per_epoch(begin, end,
                                                  config.batch_size));
  std::size_t steps_per_epoch = micro_per_epoch / accum;
  if (config.max_steps_per_epoch != 0)
    steps_per_epoch = std::min(steps_per_epoch, config.max_steps_per_epoch);
  if (steps_per_epoch == 0)
    throw std::invalid_argument(
        "train_sampled_gcn: batch_size * grad_accum_steps exceeds the "
        "smallest rank's node range");
  const std::size_t bpe = steps_per_epoch * accum;  // micro-batches / epoch
  const std::size_t total_steps =
      static_cast<std::size_t>(config.epochs) * steps_per_epoch;

  // Replicas need *some* operator at construction; every forward installs
  // the current mini-batch's adjacency first.
  const graph::CsrGraph placeholder_graph = graph::CsrGraph::from_edges(1, {});
  const graph::NormalizedAdjacency placeholder =
      graph::normalized_adjacency(placeholder_graph);

  // --- Samplers and prefetch pipelines. ------------------------------------
  // Per-rank seed streams are disjoint (mix64 over the rank) and the store
  // is shared: one LRU cache, one resident bound, concurrent pins.
  std::vector<graph::NeighborSampler> samplers;
  samplers.reserve(static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r)
    samplers.emplace_back(
        store, features,
        graph::SamplerConfig{
            config.fanouts,
            graph::mix64(config.seed, static_cast<std::uint64_t>(r))});

  // Staging runs on its own small pool: lookahead tasks must keep making
  // progress while every cluster lane is occupied by a pinned training task
  // blocked on its pipeline head — sharing the cluster's scheduler would
  // deadlock exactly there.
  runtime::Scheduler stage_pool(
      static_cast<unsigned>(std::max(2, k)));

  std::vector<std::unique_ptr<graph::PrefetchPipeline>> pipelines(
      static_cast<std::size_t>(k));
  std::vector<std::size_t> rank_batches(static_cast<std::size_t>(k), 0);
  std::vector<graph::EdgeIdx> rank_edges(static_cast<std::size_t>(k), 0);
  std::vector<std::size_t> rank_h2d(static_cast<std::size_t>(k), 0);

  // --- One optimizer step: per-rank accumulate -> all-reduce -> update. ----
  GcnReplicaSet::Hooks hooks;
  hooks.step = [&](const GcnReplicaSet::RankStep& rs) -> double {
    const auto ri = static_cast<std::size_t>(rs.rank);
    rs.model.zero_grad();
    double loss_sum = 0.0;
    for (std::size_t a = 0; a < accum; ++a) {
      Expected<graph::StagedBatch> next = pipelines[ri]->next();
      next.status().throw_if_error();
      graph::StagedBatch staged = std::move(*next);
      // Fence: compute (stream 0) waits for this batch's staged copies on
      // the transfer stream before touching them.
      if (config.prefetch && staged.on_device && rs.device != nullptr)
        rs.device->wait_event(0, staged.ready);
      rs.model.set_adjacency(&staged.batch.adj);
      tensor::Tensor logits = rs.model.forward(
          rs.device, staged.batch.features, /*train=*/true);
      auto loss = nn::masked_softmax_cross_entropy(
          rs.device, logits, staged.batch.labels, staged.batch.seed_rows);
      loss_sum += loss.loss;
      if (accum > 1)
        // Every micro-batch masks the same number of seed rows, so the
        // accumulated gradient is the uniform mean.
        tensor::ops::scale(rs.device, loss.dlogits,
                           1.0f / static_cast<float>(accum));
      // Sync hooks fire only on the final micro-batch: earlier backwards
      // accumulate locally instead of triggering a partial all-reduce.
      rs.backward(loss.dlogits, /*notify=*/a + 1 == accum);
      rs.model.set_adjacency(&placeholder);
      ++rank_batches[ri];
      rank_edges[ri] += staged.batch.sampled_edges;
      rank_h2d[ri] += staged.batch.h2d_bytes();
    }
    return loss_sum / static_cast<double>(accum);
  };

  // Every chunk, and every re-run of one, re-enters the batch schedule at
  // its first batch: the schedule needs no checkpointed state.
  hooks.before_chunk = [&](std::size_t s0, std::size_t,
                           const std::vector<int>& lanes) {
    for (std::size_t r = 0; r < pipelines.size(); ++r) {
      pipelines[r].reset();  // drain any in-flight lookahead first
      const auto [begin, end] = ranges[r];
      const std::uint64_t rank_seed =
          graph::mix64(config.seed, static_cast<std::uint64_t>(r));
      pipelines[r] = std::make_unique<graph::PrefetchPipeline>(
          samplers[r],
          [begin, end, rank_seed, bs = config.batch_size](
              std::uint64_t epoch, std::uint64_t index) {
            return graph::schedule_seeds(begin, end, bs, rank_seed, epoch,
                                         index);
          },
          static_cast<std::uint64_t>(config.epochs), bpe, s0 * accum,
          &devices.device(static_cast<std::size_t>(lanes[r])), stage_pool,
          graph::PrefetchOptions{.depth = config.prefetch_depth,
                                 .enabled = config.prefetch});
    }
  };

  // --- Replicas, optimizers, DDP synchronizer (broadcast-equivalent init).
  GcnReplicaSet set(
      cluster,
      {.model = {.in_features = features.dim,
                 .hidden = config.hidden,
                 .num_classes = static_cast<std::size_t>(features.num_classes),
                 .dropout = config.dropout,
                 .seed = config.seed},
       .learning_rate = config.learning_rate,
       .ddp_bucket_bytes = config.ddp_bucket_bytes,
       .ddp_overlap = config.ddp_overlap,
       .compute_task = "sampled_gcn_step",
       .allreduce_task = "sampled_allreduce",
       .update_task = "sampled_optim",
       .who = "train_sampled_gcn"},
      std::move(hooks));
  set.build(std::vector<const graph::NormalizedAdjacency*>(
      static_cast<std::size_t>(k), &placeholder));
  if (const Status s = set.place(); !s.ok()) return s;

  // Node ranges are storage-free, so a remap onto survivors moves
  // parameters only; ranges are never re-partitioned (no shrink hook).
  const Status trained = ft.enabled
                             ? set.run_checkpointed(total_steps, ft)
                             : set.run_chunk(0, total_steps);
  // Drain lookahead before reading any counter the staging tasks touch.
  for (auto& p : pipelines) p.reset();
  if (!trained.ok()) return trained;

  SampledGcnResult result;
  result.step_losses = set.losses();
  result.train_sim_seconds = devices.now_s() - sim_t0;
  for (std::size_t r = 0; r < rank_batches.size(); ++r) {
    result.batches += rank_batches[r];
    result.sampled_edges += rank_edges[r];
    result.h2d_bytes += rank_h2d[r];
  }
  const graph::ShardStoreStats st = store.stats();
  result.shard_loads = st.loads;
  result.shard_evictions = st.evictions;
  result.peak_resident_bytes = mem::process_peak_resident_bytes();

  std::vector<int> used = set.lanes();
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  double h2d_s = 0.0;
  double hidden_s = 0.0;
  for (const int rank : used) {
    const prof::TransferOverlap ov =
        prof::transfer_overlap(devices.timeline(), rank);
    h2d_s += ov.h2d_s;
    hidden_s += ov.hidden_s;
  }
  result.h2d_hidden_frac = h2d_s > 0.0 ? hidden_s / h2d_s : 0.0;

  // The trained model leaves the cluster (accounted D2H), then one fixed
  // eval batch — dropout off, no RNG advance — gives a deterministic
  // held-out loss.
  nn::Gcn& model = set.replica(0);
  for (nn::Param* p : model.params())
    if (const Status s = p->value.to_host(); !s.ok()) return s;
  const std::vector<graph::NodeId> eval_seeds = graph::schedule_seeds(
      ranges[0].first, ranges[0].second, config.batch_size,
      graph::mix64(config.seed, 0), static_cast<std::uint64_t>(config.epochs),
      0);
  Expected<graph::MiniBatch> eval_batch = samplers[0].sample(
      static_cast<std::uint64_t>(config.epochs), 0, eval_seeds);
  if (!eval_batch) return eval_batch.status();
  model.set_adjacency(&eval_batch->adj);
  const tensor::Tensor logits = model.forward(
      &devices.device(0), eval_batch->features, /*train=*/false);
  result.eval_loss = nn::masked_softmax_cross_entropy(
                         &devices.device(0), logits, eval_batch->labels,
                         eval_batch->seed_rows)
                         .loss;
  model.set_adjacency(&placeholder);

  result.chunk_restarts = set.fault_stats().chunk_restarts;
  result.checkpoints_written = set.fault_stats().checkpoints_written;
  result.checkpoints_restored = set.fault_stats().checkpoints_restored;
  result.final_world = k;
  return result;
}

}  // namespace sagesim::core
