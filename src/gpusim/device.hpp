// A simulated CUDA device: memory, streams, kernel launches, transfers.
//
// Results are bit-real (kernels execute on the host); time is modeled (see
// timing.hpp) and recorded into a prof::Timeline so the course's profiling
// workflow — launch, trace, read the timeline, find the bottleneck — works
// unchanged.  Library kernels (GEMM, SpMM, elementwise) launch through
// launch_modeled: analytic launches compute on the host engines and price
// from closed-form counts, warp launches run their per-thread bodies.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/stream.hpp"
#include "gpusim/timing.hpp"
#include "prof/trace.hpp"

namespace sagesim::gpu {

class Device {
 public:
  /// @param ordinal   device index as seen by the application
  /// @param spec      hardware model
  /// @param timeline  shared trace sink (one per simulation run)
  /// @param executor  host thread pool; defaults to the shared pool
  Device(int ordinal, DeviceSpec spec,
         std::shared_ptr<prof::Timeline> timeline,
         Executor* executor = &Executor::shared());

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int ordinal() const { return ordinal_; }
  const DeviceSpec& spec() const { return timing_.spec(); }
  const TimingModel& timing() const { return timing_; }
  DeviceMemory& memory() { return memory_; }
  const DeviceMemory& memory() const { return memory_; }
  prof::Timeline& timeline() { return *timeline_; }
  std::shared_ptr<prof::Timeline> timeline_ptr() const { return timeline_; }

  // --- streams & events -------------------------------------------------

  /// Creates a new stream and returns its ordinal (stream 0 always exists).
  int create_stream();

  /// Ordinal of the dedicated communication stream (collectives overlap
  /// compute on stream 0), created lazily on first use.  Comm work enqueued
  /// here advances concurrently with stream 0 and is fenced back explicitly
  /// by the caller (e.g. GradientSynchronizer::sync()).
  int comm_stream();

  /// Number of streams (>= 1).
  std::size_t stream_count() const;

  /// Simulated-time cursor of @p stream.  Throws std::out_of_range for
  /// unknown streams.
  double stream_time(int stream) const;

  /// Records an event at the current cursor of @p stream.
  Event record_event(int stream = 0);

  /// Makes @p stream wait for @p event (cross-stream ordering).
  void wait_event(int stream, const Event& event);

  /// Waits for all streams; returns the simulated completion time.
  double synchronize();

  // --- memory -----------------------------------------------------------

  /// cudaMalloc analogue.  Charges API overhead to simulated time.
  void* device_malloc(std::size_t bytes);

  /// cudaFree analogue.
  void device_free(void* ptr);

  /// Host-to-device copy; @p dst must be device memory of this device.
  /// Charges modeled PCIe time to @p stream; @p pinned selects pinned vs
  /// pageable host-memory bandwidth.  Host memory is pageable unless the
  /// caller explicitly pinned it (mem::Buffer::host_pinned), so pageable
  /// is the default — mirroring cudaMemcpy from a plain malloc.
  void copy_h2d(void* dst, const void* src, std::size_t bytes, int stream = 0,
                bool pinned = false);

  /// Device-to-host copy; @p src must be device memory of this device.
  void copy_d2h(void* dst, const void* src, std::size_t bytes, int stream = 0,
                bool pinned = false);

  /// Device-to-device copy within this device (bandwidth-priced, not PCIe).
  void copy_d2d(void* dst, const void* src, std::size_t bytes, int stream = 0);

  // --- kernel launches ----------------------------------------------------

  /// Launches a per-thread kernel over grid x block.  Validates the launch
  /// configuration, executes blocks in parallel on the host pool, models the
  /// duration from reported counters, and records a kernel trace event.
  LaunchResult launch(const std::string& name, Dim3 grid, Dim3 block,
                      const ThreadKernel& kernel, LaunchOptions opts = {});

  /// Launches a per-block kernel (shared-memory algorithms).
  LaunchResult launch_blocks(const std::string& name, Dim3 grid, Dim3 block,
                             const BlockKernel& kernel,
                             LaunchOptions opts = {});

  /// Convenience 1-D launch covering @p n elements with @p block_size
  /// threads per block.
  LaunchResult launch_linear(const std::string& name, std::uint64_t n,
                             std::uint32_t block_size,
                             const ThreadKernel& kernel,
                             LaunchOptions opts = {});

  /// Launches a kernel that has a host body and a per-thread body computing
  /// the same bits.  Under analytic fidelity the launch is validated, @p host
  /// computes the result, and the launch is priced from @p cost: the flop
  /// and byte totals the threads would report.  Under Fidelity::kWarp the
  /// per-thread @p kernel runs over grid x block exactly as launch() runs
  /// it, so the warp model sees every lane.
  LaunchResult launch_modeled(const std::string& name, Dim3 grid, Dim3 block,
                              const WorkCounters& cost,
                              const std::function<void()>& host,
                              const ThreadKernel& kernel,
                              LaunchOptions opts = {});

  /// Charges a kernel that has no launch shape (work done on the host and
  /// priced as one device kernel): records one kKernel event with flops and
  /// bytes counters, priced by the timing model from @p cost alone — launch
  /// overhead plus the roofline term, with no occupancy or issue floor.
  /// Returns the modeled duration.
  double charge_kernel(const std::string& name, const WorkCounters& cost,
                       int stream = 0);

  /// Advances simulated time on @p stream by a known-cost operation and
  /// records it (API calls and transfers priced by the timing model).
  void charge(const std::string& name, prof::EventKind kind,
              double duration_s, int stream = 0,
              std::map<std::string, double> counters = {});

 private:
  void validate_launch(const Dim3& grid, const Dim3& block,
                       const LaunchOptions& opts) const;
  Stream& stream_at(int stream);
  const Stream& stream_at(int stream) const;
  LaunchResult finish_launch(const std::string& name, const Dim3& grid,
                             const Dim3& block, const LaunchOptions& opts,
                             const WorkCounters& totals,
                             const WarpStats* warp);

  const int ordinal_;
  TimingModel timing_;
  DeviceMemory memory_;
  std::shared_ptr<prof::Timeline> timeline_;
  Executor* executor_;
  mutable std::mutex mutex_;  // guards streams_ and comm_stream_
  std::vector<Stream> streams_;
  int comm_stream_{-1};
};

/// Grid of a 1-D launch covering @p n threads in blocks of @p block_size,
/// as launch_linear shapes it.  Throws std::invalid_argument when either is
/// zero.
Dim3 linear_grid(std::uint64_t n, std::uint32_t block_size);

/// Runs fn(i) for every i in [0, n): as a plain host loop when @p dev is
/// null, otherwise as one 1-D launch of 256-thread blocks that charges
/// @p flops_per_elem and @p bytes_per_elem per element.  Analytic launches
/// run the loop on the host and are priced from n times the per-element
/// counts; warp launches give each element its own thread behind the
/// `i < n` tail guard.  With whole-number counts (every caller's) both
/// totals agree exactly.
template <typename Fn>
void elementwise(Device* dev, const std::string& name, std::uint64_t n,
                 double flops_per_elem, double bytes_per_elem, Fn&& fn,
                 LaunchOptions opts = {}) {
  const auto host = [&] {
    for (std::uint64_t i = 0; i < n; ++i) fn(i);
  };
  if (dev == nullptr) {
    host();
    return;
  }
  constexpr std::uint32_t kBlock = 256;
  const double count = static_cast<double>(n);
  dev->launch_modeled(
      name, linear_grid(n, kBlock), Dim3{kBlock},
      WorkCounters{count * flops_per_elem, count * bytes_per_elem}, host,
      [&](const ThreadCtx& ctx) {
        const std::uint64_t i = ctx.global_x();
        if (!ctx.branch(i < n)) return;
        fn(i);
        // A pure copy issues no arithmetic instruction.
        if (flops_per_elem != 0.0) ctx.add_flops(flops_per_elem);
        ctx.add_bytes(bytes_per_elem);
      },
      opts);
}

/// Typed RAII handle over a device allocation (thrust::device_vector-lite).
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  /// Allocates @p count elements on @p device.
  DeviceBuffer(Device& device, std::size_t count)
      : device_(&device),
        count_(count),
        data_(static_cast<T*>(device.device_malloc(count * sizeof(T)))) {}

  DeviceBuffer(DeviceBuffer&& other) noexcept { swap(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  ~DeviceBuffer() { release(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return count_; }
  std::size_t bytes() const { return count_ * sizeof(T); }
  bool empty() const { return count_ == 0; }
  Device* device() const { return device_; }

  /// Copies @p host into the buffer (sizes must match exactly).
  void upload(std::span<const T> host, int stream = 0) {
    if (host.size() != count_)
      throw std::invalid_argument("DeviceBuffer::upload: size mismatch");
    device_->copy_h2d(data_, host.data(), bytes(), stream);
  }

  /// Copies the buffer into @p host (sizes must match exactly).
  void download(std::span<T> host, int stream = 0) const {
    if (host.size() != count_)
      throw std::invalid_argument("DeviceBuffer::download: size mismatch");
    device_->copy_d2h(host.data(), data_, bytes(), stream);
  }

  /// Downloads into a fresh vector.
  std::vector<T> to_host(int stream = 0) const {
    std::vector<T> out(count_);
    download(std::span<T>(out), stream);
    return out;
  }

 private:
  void release() {
    if (device_ != nullptr && data_ != nullptr) device_->device_free(data_);
    device_ = nullptr;
    data_ = nullptr;
    count_ = 0;
  }
  void swap(DeviceBuffer& other) noexcept {
    std::swap(device_, other.device_);
    std::swap(count_, other.count_);
    std::swap(data_, other.data_);
  }

  Device* device_{nullptr};
  std::size_t count_{0};
  T* data_{nullptr};
};

/// Allocates a DeviceBuffer<T> and uploads @p host into it.
template <typename T>
DeviceBuffer<T> make_buffer(Device& device, std::span<const T> host,
                            int stream = 0) {
  DeviceBuffer<T> buf(device, host.size());
  buf.upload(host, stream);
  return buf;
}

}  // namespace sagesim::gpu
