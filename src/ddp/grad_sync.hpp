// Gradient synchronization across model replicas on multiple simulated
// GPUs — the core of PyTorch DDP as taught in the Week-10 lab, and the
// "Aggregate gradients from all workers" step of Algorithm 1.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gpusim/device_manager.hpp"
#include "mem/buffer.hpp"
#include "nn/layer.hpp"

namespace sagesim::ddp {

enum class AllReduceAlgo : std::uint8_t {
  kRing,   ///< chunked ring (NCCL-style), bandwidth-optimal
  kNaive,  ///< gather-to-root + broadcast, the ablation baseline
};

/// Gradient-sync configuration (mirrors torch DDP's bucket_cap_mb and the
/// overlap that DDP's backward hooks provide).
struct SyncOptions {
  AllReduceAlgo algo{AllReduceAlgo::kRing};
  /// Bucket granularity in bytes; 0 means kDefaultBucketBytes.
  /// Parameters are bucketed in reverse registration order —
  /// the order backward produces gradients — and one parameter never splits
  /// across buckets.
  std::size_t bucket_bytes{0};
  /// Fire each bucket's collective on the per-device comm streams as soon as
  /// every rank has reported the bucket's gradients ready
  /// (notify_grad_ready), overlapping the rest of backward.  When false,
  /// buckets run back-to-back on stream 0 inside sync().
  bool overlap{true};
};

/// The bucket size a zero SyncOptions::bucket_bytes stands for.
inline constexpr std::size_t kDefaultBucketBytes = std::size_t{4} << 20;

/// Synchronizes gradients across replicas.
///
/// Each rank r holds a replica whose parameters are params[r] (same shapes
/// in the same order across ranks).  Gradients are packed into fixed-size
/// buckets (reverse parameter order); each bucket is all-reduced and
/// averaged independently.  With overlap enabled, notify_grad_ready() fires
/// a bucket's collective on the comm streams the moment its last gradient
/// lands, so communication hides under the remaining backward compute;
/// sync() runs whatever has not fired, fences stream 0 on the comm streams,
/// and unpacks — after which every replica holds identical mean gradients.
///
/// Bit-identity: collectives fold in ascending rank order per element
/// (see dflow/collectives.hpp), so the result bits are independent of
/// bucket count, overlap, and algorithm.
class GradientSynchronizer {
 public:
  /// @param devices  rank r's bucket lives on devices.device(r)
  /// @param replicas per-rank parameter lists (borrowed; caller keeps alive)
  GradientSynchronizer(gpu::DeviceManager& devices,
                       std::vector<std::vector<nn::Param*>> replicas,
                       SyncOptions options);

  /// Legacy flat-signature constructor (defaulted bucket size, overlap on).
  GradientSynchronizer(gpu::DeviceManager& devices,
                       std::vector<std::vector<nn::Param*>> replicas,
                       AllReduceAlgo algo = AllReduceAlgo::kRing);

  /// Reports that @p rank finished computing the gradient of @p param this
  /// iteration (DDP's autograd hook).  Thread-safe; duplicate notifications
  /// are ignored, so retried backward tasks are harmless.  When the last
  /// outstanding (rank, param) of a bucket arrives and overlap is enabled,
  /// the notifying thread packs and all-reduces that bucket on the comm
  /// streams before returning.
  void notify_grad_ready(std::size_t rank, const nn::Param* param);

  /// Completes the iteration: runs any bucket that has not fired, fences
  /// each rank's stream 0 on its comm stream, unpacks averaged gradients
  /// into every replica, and resets readiness state for the next iteration.
  void sync();

  /// Drops partial readiness state without communicating — call at a
  /// quiescent point before re-running a failed step/chunk so stale
  /// notifications from the aborted attempt cannot leak into the retry.
  void reset_pending();

  /// Total parameter element count per replica.
  std::size_t flat_size() const { return flat_size_; }

  /// Number of gradient buckets.
  std::size_t bucket_count() const { return plan_.size(); }

  AllReduceAlgo algorithm() const { return options_.algo; }
  const SyncOptions& options() const { return options_; }

 private:
  /// One bucket: a contiguous [flat_off, flat_off+elems) range of the
  /// per-rank flat buffer holding the listed parameters (reverse order).
  struct Bucket {
    std::vector<std::size_t> params;  ///< indices into replicas_[r]
    std::size_t flat_off{0};
    std::size_t elems{0};
  };

  /// Per-iteration readiness state of one bucket.
  struct BucketState {
    std::vector<std::uint8_t> seen;   ///< [rank * params.size() + slot]
    std::vector<std::size_t> pending; ///< params outstanding, per rank
    std::vector<double> ready_s;      ///< rank's stream-0 cursor at readiness
    std::size_t ranks_pending{0};
    bool fired{false};
  };

  void build_plan();
  void reset_state_locked();
  void pack_bucket(std::size_t rank, const Bucket& b, int stream);
  void unpack_bucket(std::size_t rank, const Bucket& b, int stream);
  /// Packs, all-reduces and averages bucket @p bi on the given streams.
  /// @p on_comm selects the comm streams (with per-rank readiness floors)
  /// vs stream 0.  Caller holds mutex_.
  void run_bucket_locked(std::size_t bi, bool on_comm);

  gpu::DeviceManager& devices_;
  std::vector<std::vector<nn::Param*>> replicas_;
  SyncOptions options_;
  std::size_t flat_size_{0};
  std::vector<mem::Buffer> buckets_;  ///< one flat buffer per rank, pooled
  std::vector<Bucket> plan_;
  std::vector<std::size_t> bucket_of_;  ///< param index -> bucket index
  /// Per-rank map from borrowed Param pointer to its index.
  std::vector<std::unordered_map<const nn::Param*, std::size_t>> index_of_;

  std::mutex mutex_;  // guards state_ and serializes bucket collectives
  std::vector<BucketState> state_;
};

/// Copies rank 0's parameter values to every other replica (initial
/// broadcast so replicas start identical).  Device-placed parameters move
/// through DeviceManager::copy_peer — accounted, priced by the actual
/// source device, fencing both ends of the link; host-placed parameters
/// fall back to a host copy charged as the same wire hop.
void broadcast_params(gpu::DeviceManager& devices,
                      std::vector<std::vector<nn::Param*>>& replicas);

}  // namespace sagesim::ddp
