// Data-parallel trainer: replicates a Sequential model across simulated
// GPUs, shards the batch, and synchronizes gradients every step — the
// Week-10 "PyTorch DDP across 2 GPUs" lab as a library.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ddp/grad_sync.hpp"
#include "dflow/cluster.hpp"
#include "nn/checkpoint.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/sequential.hpp"

namespace sagesim::ddp {

/// Builds one fresh model replica; called once per rank.  Replicas must
/// have identical architecture; initial weights are broadcast from rank 0.
using ModelFactory = std::function<std::unique_ptr<nn::Sequential>()>;

/// Builds one optimizer per rank (optimizers hold per-replica state).
using OptimizerFactory = std::function<std::unique_ptr<nn::Optimizer>()>;

struct StepStats {
  double mean_loss{0.0};
  double sim_time_s{0.0};   ///< simulated wall time consumed by the step
};

/// Aggregate trainer configuration (the ClusterOptions analogue one layer
/// up): collective algorithm, checkpoint placement, retry/deadline policy.
struct TrainerOptions {
  AllReduceAlgo algo{AllReduceAlgo::kRing};
  /// Gradient bucket granularity in bytes; 0 means
  /// ddp::kDefaultBucketBytes (4 MiB).  See SyncOptions::bucket_bytes.
  std::size_t bucket_bytes{0};
  /// Overlap bucketed gradient communication with backward compute on the
  /// per-device comm streams.  See SyncOptions::overlap.
  bool overlap{true};
  /// Micro-batches per optimizer step (>= 1).  Each rank splits its shard
  /// into this many contiguous slices and accumulates gradients across
  /// them before the single all-reduce — the out-of-core trade: peak
  /// activation memory shrinks by ~accum while the synchronized update
  /// matches the full-shard step up to float re-association (per-slice
  /// dlogits are rescaled by slice/shard row ratios, so the accumulated
  /// gradient is the same mean over the shard).
  std::size_t grad_accum_steps{1};
  /// Directory for epoch checkpoints; empty disables save/restore.
  std::string checkpoint_dir{};
  std::string checkpoint_prefix{"ddp"};
  /// Backoff schedule for retryable step-task failures (preemption,
  /// deadline, unavailable rank).
  dflow::RetryPolicy retry{};
  /// Per-attempt wall-clock deadline for each step task; 0 == none.
  double task_timeout_s{0.0};
};

class DataParallelTrainer {
 public:
  DataParallelTrainer(dflow::Cluster& cluster, const ModelFactory& model,
                      const OptimizerFactory& optimizer,
                      TrainerOptions options = {});

  int world_size() const { return cluster_.world_size(); }
  const TrainerOptions& options() const { return options_; }

  /// One synchronous step: shards (X, y) across ranks by contiguous row
  /// ranges, runs forward/backward per rank in parallel, all-reduces
  /// gradients, and steps every optimizer.  Each task rides the cluster's
  /// retry policy, so injected preemptions are absorbed transparently; the
  /// returned Status is the first *unrecovered* failure.  Malformed input
  /// (label/row mismatch, batch < world) still throws — API misuse.
  Expected<StepStats> try_step(const tensor::Tensor& x,
                               std::span<const int> y);

  /// Writes an epoch checkpoint (nn::ReplicaRefs layout) under
  /// options().checkpoint_dir.  kFailedPrecondition when checkpointing is
  /// disabled.
  Status save_checkpoint(std::uint64_t epoch) const;

  /// Restores the newest loadable checkpoint, skipping corrupt files, onto
  /// each rank's device and returns its epoch.  kUnavailable when none
  /// exists; kFailedPrecondition, with every replica untouched, when the
  /// checkpoint's world size, keys or shapes do not match.
  Expected<std::uint64_t> restore_latest();

  /// Inference on rank 0's replica.
  tensor::Tensor predict(const tensor::Tensor& x);

  nn::Sequential& replica(int rank) { return *models_.at(static_cast<std::size_t>(rank)); }

 private:
  nn::ReplicaRefs refs() const;
  Status place_replicas();

  dflow::Cluster& cluster_;
  TrainerOptions options_;
  std::vector<std::unique_ptr<nn::Sequential>> models_;
  std::vector<std::unique_ptr<nn::Optimizer>> optimizers_;
  std::unique_ptr<GradientSynchronizer> sync_;
};

}  // namespace sagesim::ddp
