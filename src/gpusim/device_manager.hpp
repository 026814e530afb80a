// Multi-GPU node: a set of simulated devices sharing one timeline, plus
// peer-to-peer transfers — the substrate for the course's multi-GPU labs
// (DDP, distributed GCN).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gpusim/device.hpp"

namespace sagesim::gpu {

class DeviceManager {
 public:
  /// Creates @p count devices of identical @p spec sharing a fresh timeline.
  DeviceManager(std::size_t count, DeviceSpec spec,
                Executor* executor = &Executor::shared());

  /// Creates heterogeneous devices.
  DeviceManager(std::vector<DeviceSpec> specs,
                Executor* executor = &Executor::shared());

  std::size_t device_count() const { return devices_.size(); }

  /// Device by ordinal; throws std::out_of_range.
  Device& device(std::size_t ordinal);
  const Device& device(std::size_t ordinal) const;

  prof::Timeline& timeline() { return *timeline_; }
  std::shared_ptr<prof::Timeline> timeline_ptr() const { return timeline_; }

  /// Copies @p bytes from device memory on @p src_dev to device memory on
  /// @p dst_dev (cudaMemcpyPeer analogue).  Charges peer-link time on both
  /// devices — @p dst_stream on the destination and @p src_stream on the
  /// source, so neither side can start later work before the wire is free —
  /// and records one kMemcpyD2D event.
  void copy_peer(std::size_t dst_dev, void* dst, std::size_t src_dev,
                 const void* src, std::size_t bytes, int dst_stream = 0,
                 int src_stream = 0);

  /// Latest stream cursor across all devices (global simulated "now").
  double now_s() const;

 private:
  std::shared_ptr<prof::Timeline> timeline_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace sagesim::gpu
