#include "gpusim/timing.hpp"

#include <algorithm>

namespace sagesim::gpu {

double TimingModel::kernel_seconds(const KernelWork& work) const {
  const double launch = spec_.launch_overhead_us * 1e-6;
  const double occ = std::clamp(work.occupancy, 0.01, 1.0);
  const double lanes = std::clamp(work.lane_efficiency, 0.01, 1.0);

  const double compute_s =
      work.flops > 0.0 ? work.flops / (spec_.peak_flops() * occ * lanes) : 0.0;
  // Warp-mode launches supply the DRAM bytes their transactions actually
  // moved (strided access inflates this well past the requested bytes);
  // analytic launches price the requested bytes at face value.
  const double bytes =
      work.effective_bytes > 0.0 ? work.effective_bytes : work.global_bytes;
  const double memory_s =
      bytes > 0.0 ? bytes / spec_.peak_bytes_per_s() : 0.0;

  double issue_s;
  if (work.issue_cycles > 0.0) {
    // Warp-granular issue: each SM dual-issues cores_per_sm / warp_size
    // warp-instructions per clock; divergence serialization and bank
    // replays are already folded into issue_cycles.
    const double warp_issue_rate =
        static_cast<double>(spec_.sm_count) *
        (static_cast<double>(spec_.cores_per_sm) / spec_.warp_size) *
        spec_.clock_ghz * 1e9 * occ;
    issue_s = work.issue_cycles / warp_issue_rate;
  } else {
    // Thread-issue floor: the machine can issue at most
    // sm_count * cores_per_sm threads per clock; each thread costs at least
    // one issue slot even when it does no arithmetic.
    const double issue_rate =
        static_cast<double>(spec_.sm_count) * spec_.cores_per_sm *
        spec_.clock_ghz * 1e9 * occ;
    issue_s = static_cast<double>(work.threads) / issue_rate;
  }

  return launch + std::max({compute_s, memory_s, issue_s});
}

double TimingModel::transfer_seconds(std::uint64_t bytes, bool pinned) const {
  const double bw = spec_.pcie_bytes_per_s() * (pinned ? 1.0 : 0.55);
  return spec_.pcie_latency_us * 1e-6 + static_cast<double>(bytes) / bw;
}

double TimingModel::peer_transfer_seconds(std::uint64_t bytes) const {
  // Peer copies traverse the link twice as fast in practice on the course's
  // multi-GPU instances (same PCIe switch); model 1.5x the host link.
  return spec_.pcie_latency_us * 1e-6 +
         static_cast<double>(bytes) / (1.5 * spec_.pcie_bytes_per_s());
}

double TimingModel::d2d_copy_seconds(std::uint64_t bytes) const {
  return 2.0 * static_cast<double>(bytes) / spec_.peak_bytes_per_s();
}

double TimingModel::page_fault_seconds(std::uint64_t pages,
                                       std::uint64_t page_bytes) const {
  const double per_page =
      kPageFaultLatencyS +
      static_cast<double>(page_bytes) / (0.5 * spec_.pcie_bytes_per_s());
  return static_cast<double>(pages) * per_page;
}

}  // namespace sagesim::gpu
