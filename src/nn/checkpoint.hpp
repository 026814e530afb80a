// Epoch-granular training checkpoints: the durable half of the fault model.
//
// A Checkpoint is a named bag of tensors (parameters, optimizer state),
// blobs (serialized RNG engines — dropout streams must resume exactly for
// bit-identical restarts) and scalars, stamped with the epoch it was taken
// *after*.  The on-disk format is a small self-describing binary record:
//
//   magic "SGSMCKPT" | u32 version | u64 epoch | u64 payload_bytes
//   | u64 fnv1a64(payload) | payload
//
// save_checkpoint writes to "<path>.tmp" and renames into place, so a
// preemption mid-write leaves either the previous complete file or a stray
// tmp — never a torn checkpoint under the final name.  load_checkpoint
// classifies truncation/corruption as kDataLoss; load_latest_checkpoint
// scans a directory and falls back to the newest *loadable* file, which is
// exactly the recovery path the fault-matrix test exercises by truncating
// the newest file on purpose.  The header epoch lies outside the checksum,
// so the scan also treats a header epoch that disagrees with the file name
// as data loss.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/optim.hpp"
#include "runtime/status.hpp"
#include "tensor/tensor.hpp"

namespace sagesim::nn {

struct Checkpoint {
  std::uint64_t epoch{0};  ///< completed epochs at save time
  std::map<std::string, tensor::Tensor> tensors;
  std::map<std::string, std::string> blobs;
  std::map<std::string, double> scalars;

  /// The blessed snapshot path: stores an explicit host copy of @p t
  /// (accounted D2H when @p t is device-resident) — checkpoints never
  /// silently read device memory.
  void put(const std::string& name, const tensor::Tensor& t);
};

/// Atomic save (tmp + rename).  I/O failures come back as kInternal.
Status save_checkpoint(const std::string& path, const Checkpoint& ckpt);

/// Loads one checkpoint file.  A missing file is kUnavailable (retryable —
/// an older checkpoint may exist); a short, corrupt or checksum-failing
/// file is kDataLoss.
Expected<Checkpoint> load_checkpoint(const std::string& path);

/// "<dir>/<prefix>_epoch<N>.ckpt" — the naming scheme the scan understands.
std::string checkpoint_path(const std::string& dir, const std::string& prefix,
                            std::uint64_t epoch);

/// Loads the newest loadable "<prefix>_epoch*.ckpt" under @p dir, skipping
/// corrupt files (newest-first).  kUnavailable when none loads.
Expected<Checkpoint> load_latest_checkpoint(const std::string& dir,
                                            const std::string& prefix);

/// mt19937_64 engine state round-trip for Checkpoint::blobs.
std::string serialize_engine(const std::mt19937_64& engine);
Status deserialize_engine(const std::string& blob, std::mt19937_64& engine);

/// The key layout every data-parallel trainer checkpoints with.
/// Synchronized steps keep parameters and optimizer state identical across
/// replicas, so replica 0's copy is stored once: `k` (replica count),
/// `param<i>`, `opt<i>` with `opt_n` and `opt_t`, the loss history
/// `loss.<i>`, and one RNG stream `rng<r>` per entry of rngs.
struct ReplicaRefs {
  std::vector<std::vector<Param*>> params;  ///< per replica, same shapes
  std::vector<Optimizer*> optimizers;       ///< per replica
  std::vector<std::mt19937_64*> rngs;       ///< per replica, or none
};

/// Writes @p replicas' state and the loss history @p losses into @p ckpt.
void put_replica_state(Checkpoint& ckpt, const ReplicaRefs& replicas,
                       std::span<const double> losses);

/// The checkpoint's `k`; 0 when absent or malformed.
std::size_t replica_count(const Checkpoint& ckpt);

/// Restores every replica: host copies of the parameters, optimizer state,
/// the streams in replicas.rngs and, when @p losses is set, ckpt.epoch
/// losses.  Checks everything before writing anything, so an error leaves
/// the replicas untouched.  The caller checks replica_count.
Status restore_replica_state(const Checkpoint& ckpt,
                             const ReplicaRefs& replicas,
                             std::vector<double>* losses);

}  // namespace sagesim::nn
