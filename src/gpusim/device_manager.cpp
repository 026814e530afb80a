#include "gpusim/device_manager.hpp"

#include <cstring>
#include <stdexcept>

namespace sagesim::gpu {

DeviceManager::DeviceManager(std::size_t count, DeviceSpec spec,
                             Executor* executor)
    : timeline_(std::make_shared<prof::Timeline>()) {
  if (count == 0)
    throw std::invalid_argument("DeviceManager: need at least one device");
  devices_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    devices_.push_back(std::make_unique<Device>(static_cast<int>(i), spec,
                                                timeline_, executor));
}

DeviceManager::DeviceManager(std::vector<DeviceSpec> specs, Executor* executor)
    : timeline_(std::make_shared<prof::Timeline>()) {
  if (specs.empty())
    throw std::invalid_argument("DeviceManager: need at least one device");
  devices_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    devices_.push_back(std::make_unique<Device>(
        static_cast<int>(i), std::move(specs[i]), timeline_, executor));
}

Device& DeviceManager::device(std::size_t ordinal) {
  if (ordinal >= devices_.size())
    throw std::out_of_range("DeviceManager: no device " +
                            std::to_string(ordinal));
  return *devices_[ordinal];
}

const Device& DeviceManager::device(std::size_t ordinal) const {
  if (ordinal >= devices_.size())
    throw std::out_of_range("DeviceManager: no device " +
                            std::to_string(ordinal));
  return *devices_[ordinal];
}

void DeviceManager::copy_peer(std::size_t dst_dev, void* dst,
                              std::size_t src_dev, const void* src,
                              std::size_t bytes, int dst_stream,
                              int src_stream) {
  Device& d = device(dst_dev);
  Device& s = device(src_dev);
  if (!d.memory().owns(dst))
    throw std::invalid_argument("copy_peer: dst not on destination device");
  if (!s.memory().owns(src))
    throw std::invalid_argument("copy_peer: src not on source device");
  if (d.memory().size_of(dst) < bytes || s.memory().size_of(src) < bytes)
    throw std::invalid_argument("copy_peer: copy overruns an allocation");

  std::memcpy(dst, src, bytes);

  // The transfer occupies the peer link: the participating streams on both
  // devices advance to a common completion time.
  const double dur = s.timing().peer_transfer_seconds(bytes);
  const double start =
      std::max(s.stream_time(src_stream), d.stream_time(dst_stream));
  const Event fence{start + dur, static_cast<int>(src_dev), src_stream};
  s.wait_event(src_stream, fence);
  d.wait_event(dst_stream, fence);

  prof::TraceEvent e;
  e.name = "memcpy_peer";
  e.kind = prof::EventKind::kMemcpyD2D;
  e.start_s = start;
  e.duration_s = dur;
  e.device = static_cast<int>(src_dev);
  e.stream = src_stream;
  e.counters["bytes"] = static_cast<double>(bytes);
  e.counters["dst_device"] = static_cast<double>(dst_dev);
  e.counters["comm"] = 1.0;
  timeline_->record(std::move(e));
}

double DeviceManager::now_s() const {
  double latest = 0.0;
  for (const auto& d : devices_)
    for (std::size_t s = 0; s < d->stream_count(); ++s)
      latest = std::max(latest, d->stream_time(static_cast<int>(s)));
  return latest;
}

}  // namespace sagesim::gpu
