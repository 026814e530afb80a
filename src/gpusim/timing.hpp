// Analytic timing model: converts the work a kernel/transfer *did* into the
// simulated seconds it *would have taken* on the modeled hardware.
//
// The model is a classic roofline with two refinements the course's labs
// rely on:
//   * a fixed launch overhead, so tiny kernels are latency-bound;
//   * an occupancy factor from the launch configuration, so bad block sizes
//     visibly waste the machine (Week 2's "threads, blocks, grids" lab).
#pragma once

#include <cstdint>

#include "gpusim/device_spec.hpp"
#include "gpusim/dim3.hpp"

namespace sagesim::gpu {

/// Work counters accumulated while a kernel executed on the host.
struct KernelWork {
  double flops{0.0};          ///< floating-point operations performed
  double global_bytes{0.0};   ///< bytes moved to/from device global memory
  std::uint64_t threads{0};   ///< total launched threads
  std::uint64_t blocks{0};    ///< total launched blocks
  double occupancy{1.0};      ///< achieved occupancy in (0, 1]
  /// Fraction of lanes doing useful work inside an active warp; partial
  /// final warps and divergent kernels lower it.
  double lane_efficiency{1.0};
  /// Transaction-derived DRAM bytes from the warp-level coalescing model
  /// (32B sectors actually touched).  0 means "not measured": the model
  /// falls back to global_bytes.
  double effective_bytes{0.0};
  /// Warp-instruction issues including divergence serialization and
  /// shared-memory bank-conflict replays (warp fidelity).  0 means "not
  /// measured": the model falls back to the per-thread issue floor.
  double issue_cycles{0.0};
};

class TimingModel {
 public:
  explicit TimingModel(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }

  /// Modeled kernel duration in seconds.
  ///
  /// duration = launch_overhead
  ///          + max( flops / (peak_flops * occupancy * lane_efficiency),
  ///                 bytes / peak_bandwidth,
  ///                 sequential issue floor )
  ///
  /// The issue floor charges each thread one issue slot, so kernels with
  /// almost no arithmetic still cost thread-issue time.  Work with no
  /// threads (a kernel priced from its totals alone) has no issue floor.
  double kernel_seconds(const KernelWork& work) const;

  /// Modeled host<->device transfer time for @p bytes.  Pinned host
  /// memory sustains full link bandwidth; pageable staging runs at ~55%
  /// (the classic cudaMemcpy pageable penalty the Week-3 lab measures).
  /// Host memory is pageable unless something pinned it (cudaHostAlloc /
  /// mem::Buffer::host_pinned), so pageable is the default.
  double transfer_seconds(std::uint64_t bytes, bool pinned = false) const;

  /// Modeled device<->device (peer) transfer time: assumes an NVLink-less
  /// PCIe peer path at the same link bandwidth.
  double peer_transfer_seconds(std::uint64_t bytes) const;

  /// On-device copy: @p bytes read and written at full memory bandwidth.
  double d2d_copy_seconds(std::uint64_t bytes) const;

  /// Service latency of one unified-memory page fault.
  static constexpr double kPageFaultLatencyS = 20e-6;

  /// @p pages unified-memory demand faults of @p page_bytes each: each pays
  /// its latency plus its own transfer at half link bandwidth, since fault
  /// handling serializes with the copy (the Numba-UM papers' penalty).
  double page_fault_seconds(std::uint64_t pages,
                            std::uint64_t page_bytes) const;

  /// Fixed API-call overhead (alloc/free/sync), seconds.
  double api_overhead_seconds() const { return 1e-6; }

 private:
  DeviceSpec spec_;
};

}  // namespace sagesim::gpu
