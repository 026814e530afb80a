// Algorithm 1 of the paper: Distributed GCN Training Using METIS
// Partitioning and Dask.
//
//   1. Load G, X, Y; compute normalized adjacency Â
//   2. Partition G into {G1..Gk} using METIS (or a baseline partitioner)
//   3. Initialize Dask cluster; assign each worker to a GPU
//   4. Distribute Gi, Xi, Yi to worker i; broadcast θ
//   5. Per epoch: local loss+gradients per worker, aggregate gradients,
//      synchronized global update
//
// The trainer reports both simulated wall time and accuracy so the
// Algorithm-1 bench can reproduce the paper's finding: "simply splitting
// the graph and distributing the training yielded minimal performance
// improvement[, but] enhanced prediction accuracy ... compared to
// sequential approaches."
//
// Â and X never change in full-batch training, so each worker aggregates
// Â X once per shard placement (one SpMM on its device, repeated after a
// restore or a shrink) and every epoch's first layer starts from it
// (nn::Gcn::forward_aggregated).  The features take no gradient, so the
// first layer's backward computes dW and db only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dflow/cluster.hpp"
#include "graph/generators.hpp"
#include "graph/metis_like.hpp"
#include "graph/partition.hpp"
#include "nn/gcn.hpp"

namespace sagesim::core {

enum class PartitionStrategy : std::uint8_t { kMetis, kRandom, kBlock };

const char* to_string(PartitionStrategy s);

/// Fault tolerance for Algorithm 1: epoch-granular checkpoint/restart plus
/// elastic shrink.  When enabled, epochs are submitted in chunks of
/// checkpoint_every; a chunk that fails retryably (injected preemption,
/// reclaimed spot rank) is re-run from the last checkpoint — fault decisions
/// are drawn at submit time, so the re-run consumes fresh draws and
/// converges.  Because the checkpoint carries parameters, optimizer
/// velocity, per-epoch losses *and every replica's dropout RNG stream*, a
/// preempted run resumes bit-identically: same-seed fault-free and
/// fault-injected runs reach the same final loss.
struct GcnFaultOptions {
  bool enabled{false};
  /// Where epoch checkpoints live; required when enabled.
  std::string checkpoint_dir;
  std::string checkpoint_prefix{"gcn"};
  /// Epochs per chunk (checkpoint cadence).
  int checkpoint_every{5};
  /// Re-runs of one chunk before giving up (kUnavailable after).
  int max_chunk_attempts{8};
  /// On permanently lost ranks (Cluster::rank_available false), re-partition
  /// METIS to the surviving ranks and continue with a smaller world instead
  /// of failing.  A shrink abandons bit-identity (different shards).
  bool allow_shrink{false};
};

struct DistributedGcnConfig {
  int num_partitions{2};          ///< k (== number of GPU workers used)
  PartitionStrategy strategy{PartitionStrategy::kMetis};
  int epochs{60};
  std::size_t hidden{16};
  float dropout{0.3f};
  float learning_rate{0.05f};
  std::uint64_t seed{42};
  /// Modeled Dask control-plane cost per dispatched task (~1 ms per task is
  /// the documented dask.distributed overhead); dispatch is serialized on
  /// the scheduler.
  double scheduler_overhead_s{1e-3};
  /// Gradient-bucket size for DDP sync; 0 uses ddp::kDefaultBucketBytes.
  /// The GCN's parameters are small, so per-layer overlap needs buckets well
  /// below the 4 MiB default.
  std::size_t ddp_bucket_bytes{0};
  /// Overlap bucket allreduce with backward compute on the comm streams.
  bool ddp_overlap{true};
  GcnFaultOptions fault;
};

struct DistributedGcnResult {
  std::vector<double> epoch_losses;      ///< mean across workers
  double train_sim_seconds{0.0};         ///< simulated wall time, all epochs
  double test_accuracy{0.0};             ///< full-graph eval, replica 0
  graph::PartitionQuality partition;     ///< quality of the split used
  std::size_t cut_edges_dropped{0};      ///< boundary edges lost to halos
  std::vector<double> gpu_utilization;   ///< kernel-busy fraction per device
  // --- fault-tolerance accounting (zero on fault-free runs) ---------------
  std::size_t chunk_restarts{0};         ///< chunks re-run from a checkpoint
  std::size_t checkpoints_written{0};
  std::size_t checkpoints_restored{0};   ///< includes the resume-on-entry
  std::size_t reshards{0};               ///< elastic shrink re-partitions
  int final_world{0};                    ///< ranks still training at the end
};

/// Trains on @p dataset with @p k workers pinned to @p cluster's devices.
/// Requires cluster.world_size() >= config.num_partitions >= 1; k == 1
/// degenerates to sequential training on device 0 (the baseline).
/// Operational failures (chunk attempts exhausted, unusable checkpoints)
/// come back as a Status; argument misuse throws.
Expected<DistributedGcnResult> try_train_distributed_gcn(
    const graph::Dataset& dataset, dflow::Cluster& cluster,
    const DistributedGcnConfig& config);

}  // namespace sagesim::core
