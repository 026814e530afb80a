// The data-parallel GCN replica set and the fault-tolerance loop both GCN
// trainers run on.  Algorithm 1 (METIS shards) and the out-of-core sampled
// trainer differ only in where a step's data comes from; the replicas,
// their optimizers and gradient synchronizer, the replica -> lane map,
// placement, the step DAG and checkpoint/restart live here once.
//
// A step is one synchronized update: an epoch for Algorithm 1, an optimizer
// step for the sampled trainer.  run_chunk submits steps [s0, s1) as one
// DAG — per-rank compute (pinned) -> the all-reduce (unpinned) -> per-rank
// update (pinned), chained per rank across steps.  run_checkpointed adds
// resume-on-entry, a step-0 checkpoint, and rewind on retryable failure
// with a remap onto surviving lanes; with too few survivors it calls the
// trainer's shrink hook, if any (only Algorithm 1 passes one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/distributed_gcn.hpp"  // GcnFaultOptions
#include "ddp/grad_sync.hpp"
#include "dflow/cluster.hpp"
#include "nn/checkpoint.hpp"
#include "nn/gcn.hpp"
#include "nn/optim.hpp"

namespace sagesim::core {

/// Throws std::invalid_argument when enabled @p ft cannot run.
void validate_fault_options(const GcnFaultOptions& ft, const std::string& who);

class GcnReplicaSet {
 public:
  struct Options {
    nn::Gcn::Config model;
    float learning_rate{0.05f};
    std::size_t ddp_bucket_bytes{0};
    bool ddp_overlap{true};
    /// Task-name prefixes of a step; per-rank tasks append ":<r>".
    std::string compute_task, allreduce_task, update_task;
    std::string who;  ///< prefixes the loop's Status messages
  };

  /// One rank's share of one step, as the step body sees it.
  struct RankStep {
    int rank;
    nn::Gcn& model;
    gpu::Device* device;
    ddp::GradientSynchronizer* sync;  ///< null when k == 1

    /// Backward of model; with @p notify (the step's last backward) the
    /// gradients report ready to the DDP buckets as they land.
    void backward(const tensor::Tensor& dlogits, bool notify = true) const;
  };

  struct Hooks {
    /// Forward, loss and backward of one rank's step; returns its loss.
    std::function<double(const RankStep&)> step;
    /// Optional: moves replica r's training data onto its device.
    std::function<Status(int r, gpu::Device&)> place_data;
    /// Optional: runs before each attempt at steps [s0, s1) on these lanes.
    std::function<void(std::size_t s0, std::size_t s1,
                       const std::vector<int>& lanes)>
        before_chunk;
  };

  /// Re-partitions for @p k replicas and returns their graph operators.
  using ShrinkFn =
      std::function<Expected<std::vector<const graph::NormalizedAdjacency*>>(
          int k)>;

  struct FaultStats {
    std::size_t chunk_restarts{0};
    std::size_t checkpoints_written{0};
    std::size_t checkpoints_restored{0};  ///< includes the resume-on-entry
  };

  GcnReplicaSet(dflow::Cluster& cluster, Options options, Hooks hooks);
  // Submitted tasks hold `this`.
  GcnReplicaSet(const GcnReplicaSet&) = delete;
  GcnReplicaSet& operator=(const GcnReplicaSet&) = delete;

  /// (Re)builds one replica per operator, broadcasts replica 0's initial
  /// parameters while they are on the host, builds the synchronizer, and
  /// maps replica r to lane r.
  void build(const std::vector<const graph::NormalizedAdjacency*>& adjacency);

  /// Per replica: its data, then its parameters and gradients, onto its
  /// lane's device.  Tensors already in place stay put.
  Status place();

  /// Runs steps [s0, s1) and appends each step's mean loss to losses();
  /// on failure appends nothing and returns the first failed rank's Status.
  Status run_chunk(std::size_t s0, std::size_t s1);

  /// Runs up to @p total_steps in chunks of ft.checkpoint_every, each
  /// followed by a checkpoint.
  Status run_checkpointed(std::size_t total_steps, const GcnFaultOptions& ft,
                          const ShrinkFn& shrink = {});

  int size() const { return static_cast<int>(replicas_.size()); }
  nn::Gcn& replica(int r) { return *replicas_[static_cast<std::size_t>(r)]; }
  const std::vector<int>& lanes() const { return lanes_; }
  const std::vector<double>& losses() const { return losses_; }
  const FaultStats& fault_stats() const { return stats_; }

 private:
  nn::ReplicaRefs refs();
  Status save(std::uint64_t step, const GcnFaultOptions& ft);
  Status restore(const nn::Checkpoint& ckpt);
  Status remap(const Status& cause, const ShrinkFn& shrink);

  dflow::Cluster& cluster_;
  Options options_;
  Hooks hooks_;
  std::vector<std::unique_ptr<nn::Gcn>> replicas_;
  std::vector<std::unique_ptr<nn::Sgd>> optimizers_;
  std::unique_ptr<ddp::GradientSynchronizer> sync_;
  std::vector<int> lanes_;      ///< replica r trains on lane lanes_[r]
  std::vector<double> losses_;  ///< mean loss per completed step
  FaultStats stats_;
};

}  // namespace sagesim::core
