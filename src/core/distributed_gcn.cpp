#include "core/distributed_gcn.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/replica_set.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "prof/report.hpp"

namespace sagesim::core {

const char* to_string(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kMetis: return "metis";
    case PartitionStrategy::kRandom: return "random";
    case PartitionStrategy::kBlock: return "block";
  }
  return "?";
}

namespace {

/// Per-worker shard: local graph operator, features, labels, train rows.
struct Shard {
  graph::Subgraph sub;
  graph::NormalizedAdjacency adj;
  tensor::Tensor features;
  std::vector<int> labels;
  std::vector<std::uint32_t> train_rows;
};

Shard make_shard(const graph::Dataset& dataset,
                 const std::vector<graph::NodeId>& nodes) {
  Shard shard;
  shard.sub = graph::induced_subgraph(dataset.graph, nodes);
  shard.adj = graph::normalized_adjacency(shard.sub.graph);

  const std::size_t n = shard.sub.global_ids.size();
  const std::size_t d = dataset.features.cols();
  shard.features = tensor::Tensor(n, d);
  shard.labels.resize(n);
  std::unordered_map<graph::NodeId, std::uint32_t> local_of;
  for (std::uint32_t i = 0; i < n; ++i) {
    const graph::NodeId g = shard.sub.global_ids[i];
    std::copy(dataset.features.data() + g * d,
              dataset.features.data() + (g + 1) * d,
              shard.features.data() + i * d);
    shard.labels[i] = dataset.labels[g];
    local_of.emplace(g, i);
  }
  for (const graph::NodeId g : dataset.train_nodes) {
    auto it = local_of.find(g);
    if (it != local_of.end()) shard.train_rows.push_back(it->second);
  }
  return shard;
}

graph::Partition build_partition(const graph::Dataset& dataset,
                                 const DistributedGcnConfig& config, int k) {
  graph::Partition part;
  if (k == 1) {
    part.num_parts = 1;
    part.assignment.assign(dataset.graph.num_nodes(), 0);
    return part;
  }
  switch (config.strategy) {
    case PartitionStrategy::kMetis: {
      graph::MetisOptions opts;
      opts.seed = config.seed;
      part = graph::metis_like(dataset.graph, k, opts);
      break;
    }
    case PartitionStrategy::kRandom: {
      stats::Rng prng(config.seed);
      part = graph::random_partition(dataset.graph, k, prng);
      break;
    }
    case PartitionStrategy::kBlock:
      part = graph::block_partition(dataset.graph, k);
      break;
  }
  return part;
}

std::vector<Shard> build_shards(const graph::Dataset& dataset,
                                const graph::Partition& part, int k,
                                std::size_t& cut_edges_dropped) {
  const auto part_nodes = part.part_nodes();
  std::vector<Shard> shards;
  shards.reserve(static_cast<std::size_t>(k));
  cut_edges_dropped = 0;
  for (int p = 0; p < k; ++p) {
    if (part_nodes[static_cast<std::size_t>(p)].empty())
      throw std::runtime_error("train_distributed_gcn: empty partition " +
                               std::to_string(p));
    shards.push_back(
        make_shard(dataset, part_nodes[static_cast<std::size_t>(p)]));
    cut_edges_dropped += shards.back().sub.cut_edges_dropped;
    if (shards.back().train_rows.empty())
      throw std::runtime_error(
          "train_distributed_gcn: partition without train nodes");
  }
  return shards;
}

}  // namespace

Expected<DistributedGcnResult> try_train_distributed_gcn(
    const graph::Dataset& dataset, dflow::Cluster& cluster,
    const DistributedGcnConfig& config) {
  const int k = config.num_partitions;
  if (k < 1)
    throw std::invalid_argument("train_distributed_gcn: k must be >= 1");
  if (k > cluster.world_size())
    throw std::invalid_argument(
        "train_distributed_gcn: more partitions than cluster workers");
  if (config.epochs < 1)
    throw std::invalid_argument("train_distributed_gcn: epochs must be >= 1");
  const GcnFaultOptions& ft = config.fault;
  validate_fault_options(ft, "train_distributed_gcn");

  auto& devices = cluster.devices();
  const double sim_t0 = devices.now_s();

  // --- Algorithm 1, lines 2-3: Â and the k-way partition. ------------------
  DistributedGcnResult result;
  std::vector<Shard> shards;
  auto reshard = [&](int parts) {
    const graph::Partition part = build_partition(dataset, config, parts);
    result.partition = graph::evaluate_partition(dataset.graph, part);
    // --- Lines 5-6: build and distribute shards. ---------------------------
    shards = build_shards(dataset, part, parts, result.cut_edges_dropped);
    std::vector<const graph::NormalizedAdjacency*> adjacency;
    for (const Shard& shard : shards) adjacency.push_back(&shard.adj);
    return adjacency;
  };
  const auto adjacency = reshard(k);

  // --- Lines 9-14: synchronized epochs, one step each. ---------------------
  GcnReplicaSet::Hooks hooks;
  hooks.step = [&](const GcnReplicaSet::RankStep& rs) -> double {
    const Shard& shard = shards[static_cast<std::size_t>(rs.rank)];
    rs.model.zero_grad();
    tensor::Tensor logits =
        rs.model.forward(rs.device, shard.features, /*train=*/true);
    auto loss = nn::masked_softmax_cross_entropy(
        rs.device, logits, shard.labels, shard.train_rows);
    rs.backward(loss.dlogits);
    return loss.loss;
  };
  // Line 4, "Distribute Gi, Xi, Yi to worker i": accounted H2D of each
  // shard to its rank's device.  Kernels compute the same bits at either
  // placement, so this changes the (pinned) transfer ledger and nothing else.
  hooks.place_data = [&](int r, gpu::Device& dev) -> Status {
    Shard& shard = shards[static_cast<std::size_t>(r)];
    if (const Status s = shard.features.to_device(dev); !s.ok()) return s;
    return shard.adj.to_device(dev);
  };
  // Dask control plane: dispatch of each epoch's tasks is serialized on the
  // scheduler — the overhead that erases most of the wall-clock win for
  // course-scale graphs.  Re-run chunks pay it again, which is exactly the
  // recovery overhead the preemption bench measures.
  double scheduler_s = 0.0;
  hooks.before_chunk = [&](std::size_t s0, std::size_t s1,
                           const std::vector<int>&) {
    for (std::size_t e = s0; e < s1; ++e)
      scheduler_s += 2.0 * static_cast<double>(shards.size()) *
                     config.scheduler_overhead_s;
  };

  // --- Lines 7-8: global model, broadcast θ. -------------------------------
  GcnReplicaSet set(
      cluster,
      {.model = {.in_features = dataset.features.cols(),
                 .hidden = config.hidden,
                 .num_classes = static_cast<std::size_t>(dataset.num_classes),
                 .dropout = config.dropout,
                 .seed = config.seed},
       .learning_rate = config.learning_rate,
       .ddp_bucket_bytes = config.ddp_bucket_bytes,
       .ddp_overlap = config.ddp_overlap,
       .compute_task = "gcn_epoch",
       .allreduce_task = "grad_allreduce",
       .update_task = "sgd_step",
       .who = "train_distributed_gcn"},
      std::move(hooks));
  set.build(adjacency);
  if (const Status s = set.place(); !s.ok()) return s;

  // Elastic shrink: with too few surviving ranks, re-partition METIS
  // across what is left and continue with a smaller world.
  GcnReplicaSet::ShrinkFn shrink;
  if (ft.allow_shrink)
    shrink = [&](int parts)
        -> Expected<std::vector<const graph::NormalizedAdjacency*>> {
      try {
        auto shrunk = reshard(parts);
        ++result.reshards;
        return shrunk;
      } catch (const std::exception& e) {
        return Status::failed_precondition(
            std::string("train_distributed_gcn: re-shard failed: ") +
            e.what());
      }
    };
  // Without fault tolerance the whole run is one DAG, synchronized once.
  const auto epochs = static_cast<std::size_t>(config.epochs);
  const Status trained = ft.enabled ? set.run_checkpointed(epochs, ft, shrink)
                                    : set.run_chunk(0, epochs);
  if (!trained.ok()) return trained;

  prof::TraceEvent sched;
  sched.name = "dask_scheduler";
  sched.kind = prof::EventKind::kScheduler;
  sched.start_s = sim_t0;
  sched.duration_s = scheduler_s;
  devices.timeline().record(std::move(sched));

  result.train_sim_seconds = (devices.now_s() - sim_t0) + scheduler_s;
  result.epoch_losses = set.losses();
  result.chunk_restarts = set.fault_stats().chunk_restarts;
  result.checkpoints_written = set.fault_stats().checkpoints_written;
  result.checkpoints_restored = set.fault_stats().checkpoints_restored;

  // The trained model leaves the cluster: replica 0's parameters come back
  // to the host (accounted D2H) before evaluation consumes them.
  nn::Gcn& model = set.replica(0);
  for (nn::Param* prm : model.params())
    if (const Status s = prm->value.to_host(); !s.ok()) return s;

  // Evaluation: full-graph forward with replica 0's weights.
  const graph::NormalizedAdjacency full_adj =
      graph::normalized_adjacency(dataset.graph);
  model.set_adjacency(&full_adj);
  const tensor::Tensor logits =
      model.forward(&devices.device(0), dataset.features, /*train=*/false);
  result.test_accuracy =
      nn::masked_accuracy(logits, dataset.labels, dataset.test_nodes);
  model.set_adjacency(&shards[0].adj);

  for (const int rank : set.lanes())
    result.gpu_utilization.push_back(
        prof::kernel_utilization(devices.timeline(), rank));
  result.final_world = set.size();
  return result;
}

}  // namespace sagesim::core
