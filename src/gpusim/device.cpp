#include "gpusim/device.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "gpusim/occupancy.hpp"
#include "gpusim/warp.hpp"
#include "prof/check.hpp"

namespace sagesim::gpu {

Device::Device(int ordinal, DeviceSpec spec,
               std::shared_ptr<prof::Timeline> timeline, Executor* executor)
    : ordinal_(ordinal),
      timing_(std::move(spec)),
      memory_(timing_.spec().global_mem_bytes),
      timeline_(std::move(timeline)),
      executor_(executor) {
  if (!timeline_)
    throw std::invalid_argument("Device: timeline must not be null");
  SAGESIM_CHECK(executor_ != nullptr);
  streams_.emplace_back(0);
}

int Device::create_stream() {
  std::lock_guard lock(mutex_);
  const int ordinal = static_cast<int>(streams_.size());
  streams_.emplace_back(ordinal);
  return ordinal;
}

int Device::comm_stream() {
  std::lock_guard lock(mutex_);
  if (comm_stream_ < 0) {
    comm_stream_ = static_cast<int>(streams_.size());
    streams_.emplace_back(comm_stream_);
  }
  return comm_stream_;
}

std::size_t Device::stream_count() const {
  std::lock_guard lock(mutex_);
  return streams_.size();
}

Stream& Device::stream_at(int stream) {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size())
    throw std::out_of_range("Device: unknown stream " +
                            std::to_string(stream));
  return streams_[static_cast<std::size_t>(stream)];
}

const Stream& Device::stream_at(int stream) const {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size())
    throw std::out_of_range("Device: unknown stream " +
                            std::to_string(stream));
  return streams_[static_cast<std::size_t>(stream)];
}

double Device::stream_time(int stream) const {
  std::lock_guard lock(mutex_);
  return stream_at(stream).cursor_s();
}

Event Device::record_event(int stream) {
  std::lock_guard lock(mutex_);
  return Event{stream_at(stream).cursor_s(), ordinal_, stream};
}

void Device::wait_event(int stream, const Event& event) {
  std::lock_guard lock(mutex_);
  stream_at(stream).wait_until(event.time_s);
}

double Device::synchronize() {
  std::lock_guard lock(mutex_);
  double latest = 0.0;
  for (const auto& s : streams_) latest = std::max(latest, s.cursor_s());
  // Synchronization is itself an API call: all streams align to the fence.
  latest += timing_.api_overhead_seconds();
  for (auto& s : streams_) s.wait_until(latest);
  return latest;
}

void* Device::device_malloc(std::size_t bytes) {
  void* ptr = memory_.allocate(bytes);
  charge("cudaMalloc", prof::EventKind::kApi, timing_.api_overhead_seconds());
  return ptr;
}

void Device::device_free(void* ptr) {
  memory_.free(ptr);
  charge("cudaFree", prof::EventKind::kApi, timing_.api_overhead_seconds());
}

void Device::copy_h2d(void* dst, const void* src, std::size_t bytes,
                      int stream, bool pinned) {
  if (!memory_.owns(dst))
    throw std::invalid_argument("copy_h2d: dst is not device memory");
  if (memory_.size_of(dst) < bytes)
    throw std::invalid_argument("copy_h2d: copy overruns destination");
  std::memcpy(dst, src, bytes);
  charge(pinned ? "memcpy_h2d" : "memcpy_h2d_pageable",
         prof::EventKind::kMemcpyH2D,
         timing_.transfer_seconds(bytes, pinned), stream,
         {{"bytes", static_cast<double>(bytes)}});
}

void Device::copy_d2h(void* dst, const void* src, std::size_t bytes,
                      int stream, bool pinned) {
  if (!memory_.owns(src))
    throw std::invalid_argument("copy_d2h: src is not device memory");
  if (memory_.size_of(src) < bytes)
    throw std::invalid_argument("copy_d2h: copy overruns source");
  std::memcpy(dst, src, bytes);
  charge(pinned ? "memcpy_d2h" : "memcpy_d2h_pageable",
         prof::EventKind::kMemcpyD2H,
         timing_.transfer_seconds(bytes, pinned), stream,
         {{"bytes", static_cast<double>(bytes)}});
}

void Device::copy_d2d(void* dst, const void* src, std::size_t bytes,
                      int stream) {
  if (!memory_.owns(dst) || !memory_.owns(src))
    throw std::invalid_argument("copy_d2d: both pointers must be device memory");
  if (memory_.size_of(dst) < bytes || memory_.size_of(src) < bytes)
    throw std::invalid_argument("copy_d2d: copy overruns an allocation");
  std::memmove(dst, src, bytes);
  charge("memcpy_d2d", prof::EventKind::kMemcpyD2D,
         timing_.d2d_copy_seconds(bytes), stream,
         {{"bytes", static_cast<double>(bytes)}});
}

double Device::charge_kernel(const std::string& name, const WorkCounters& cost,
                             int stream) {
  const double duration =
      timing_.kernel_seconds(KernelWork{cost.flops, cost.global_bytes});
  charge(name, prof::EventKind::kKernel, duration, stream,
         {{"flops", cost.flops}, {"bytes", cost.global_bytes}});
  return duration;
}

void Device::charge(const std::string& name, prof::EventKind kind,
                    double duration_s, int stream,
                    std::map<std::string, double> counters) {
  double start;
  {
    std::lock_guard lock(mutex_);
    start = stream_at(stream).enqueue(duration_s);
  }
  prof::TraceEvent e;
  e.name = name;
  e.kind = kind;
  e.start_s = start;
  e.duration_s = duration_s;
  e.device = ordinal_;
  e.stream = stream;
  e.counters = std::move(counters);
  timeline_->record(std::move(e));
}

void Device::validate_launch(const Dim3& grid, const Dim3& block,
                             const LaunchOptions& opts) const {
  const auto& s = timing_.spec();
  if (grid.total() == 0 || block.total() == 0)
    throw std::invalid_argument("launch: empty grid or block");
  if (block.total() > s.max_threads_per_block)
    throw std::invalid_argument(
        "launch: block has " + std::to_string(block.total()) +
        " threads; device max is " + std::to_string(s.max_threads_per_block));
  if (opts.shared_mem_bytes > s.shared_mem_per_block)
    throw std::invalid_argument(
        "launch: shared memory request exceeds per-block limit");
  const std::uint32_t regs = opts.regs_per_thread == 0
                                 ? s.default_regs_per_thread
                                 : opts.regs_per_thread;
  if (block.total() * regs > s.registers_per_sm)
    throw std::invalid_argument(
        "launch: block needs " + std::to_string(block.total() * regs) +
        " registers; the SM register file holds " +
        std::to_string(s.registers_per_sm));
  if (opts.stream < 0 ||
      static_cast<std::size_t>(opts.stream) >= streams_.size())
    throw std::out_of_range("launch: unknown stream " +
                            std::to_string(opts.stream));
}

namespace {

/// Decodes a linear block id into (x, y, z), x fastest.
Dim3 decode_block(std::uint64_t id, const Dim3& grid) {
  Dim3 b;
  b.x = static_cast<std::uint32_t>(id % grid.x);
  b.y = static_cast<std::uint32_t>((id / grid.x) % grid.y);
  b.z = static_cast<std::uint32_t>(id / (static_cast<std::uint64_t>(grid.x) * grid.y));
  return b;
}

/// Decodes a linear thread id within a block into (x, y, z), x fastest —
/// the packing order warps are formed in.
Dim3 decode_thread(std::uint64_t id, const Dim3& block) {
  Dim3 t;
  t.x = static_cast<std::uint32_t>(id % block.x);
  t.y = static_cast<std::uint32_t>((id / block.x) % block.y);
  t.z = static_cast<std::uint32_t>(
      id / (static_cast<std::uint64_t>(block.x) * block.y));
  return t;
}

/// Resolves a launch's fidelity against the process default.
bool warp_fidelity_enabled(const LaunchOptions& opts) {
  const Fidelity f =
      opts.fidelity == Fidelity::kDefault ? default_fidelity() : opts.fidelity;
  return f == Fidelity::kWarp;
}

/// Occupancy limiters travel through TraceEvent's numeric counters; prof
/// decodes the same table (see prof::kernel_report).
double limiter_code(const char* limiter) {
  const std::string_view l{limiter};
  if (l == "threads") return 1.0;
  if (l == "blocks") return 2.0;
  if (l == "shared_mem") return 3.0;
  if (l == "registers") return 4.0;
  return 0.0;
}

}  // namespace

LaunchResult Device::finish_launch(const std::string& name, const Dim3& grid,
                                   const Dim3& block,
                                   const LaunchOptions& opts,
                                   const WorkCounters& totals,
                                   const WarpStats* warp) {
  // validate_launch already rejected every shape occupancy_for refuses.
  const OccupancyResult occ =
      occupancy_for(timing_.spec(), block, opts.shared_mem_bytes,
                    opts.regs_per_thread)
          .value();
  KernelWork work;
  work.flops = totals.flops;
  work.global_bytes = totals.global_bytes;
  work.blocks = grid.total();
  work.threads = grid.total() * block.total();
  work.occupancy = occ.occupancy;
  work.lane_efficiency = occ.lane_efficiency;
  if (warp != nullptr && warp->issue_slots > 0) {
    // The folded traces subsume the static partial-warp estimate: masked
    // lanes simply recorded fewer ops.
    work.lane_efficiency = warp->simd_efficiency();
    work.issue_cycles = warp->issue_cycles();
    // Requested bytes with the API-recorded portion re-priced at what its
    // transactions actually moved (32B per touched sector).
    work.effective_bytes = std::max(
        0.0, totals.global_bytes - warp->api_bytes) +
        warp->effective_api_bytes();
  }
  const double duration = timing_.kernel_seconds(work);

  double start;
  {
    std::lock_guard lock(mutex_);
    start = stream_at(opts.stream).enqueue(duration);
  }

  prof::TraceEvent e;
  e.name = name;
  e.kind = prof::EventKind::kKernel;
  e.start_s = start;
  e.duration_s = duration;
  e.device = ordinal_;
  e.stream = opts.stream;
  e.counters["flops"] = totals.flops;
  e.counters["bytes"] = totals.global_bytes;
  e.counters["blocks"] = static_cast<double>(grid.total());
  e.counters["threads_per_block"] = static_cast<double>(block.total());
  e.counters["occupancy"] = occ.occupancy;
  e.counters["lane_efficiency"] = work.lane_efficiency;
  e.counters["limiter"] = limiter_code(occ.limiter);
  e.counters["regs_per_thread"] = static_cast<double>(occ.regs_per_thread);

  LaunchResult r;
  r.start_s = start;
  r.duration_s = duration;
  r.flops = totals.flops;
  r.bytes = totals.global_bytes;
  r.occupancy = occ.occupancy;
  r.lane_efficiency = work.lane_efficiency;
  r.limiter = occ.limiter;

  if (warp != nullptr) {
    r.warp_fidelity = true;
    r.divergence = 1.0 - work.lane_efficiency;
    r.effective_bytes =
        work.effective_bytes > 0.0 ? work.effective_bytes : totals.global_bytes;
    r.gld_transactions_per_request = warp->gld_transactions_per_request();
    r.gst_transactions_per_request = warp->gst_transactions_per_request();
    r.shared_bank_replays = warp->shared_replays;
    r.divergent_branches = warp->divergent_branches;
    r.warps = warp->warps;
    r.issue_slots = warp->issue_slots;

    e.counters["warp_fidelity"] = 1.0;
    e.counters["effective_bytes"] = r.effective_bytes;
    e.counters["divergence"] = r.divergence;
    e.counters["warps"] = static_cast<double>(warp->warps);
    e.counters["issue_slots"] = static_cast<double>(warp->issue_slots);
    e.counters["divergent_branches"] =
        static_cast<double>(warp->divergent_branches);
    e.counters["branches"] = static_cast<double>(warp->branches);
    e.counters["gld_requests"] = static_cast<double>(warp->gld_requests);
    e.counters["gld_transactions"] =
        static_cast<double>(warp->gld_transactions);
    e.counters["gst_requests"] = static_cast<double>(warp->gst_requests);
    e.counters["gst_transactions"] =
        static_cast<double>(warp->gst_transactions);
    e.counters["shared_requests"] =
        static_cast<double>(warp->shared_requests);
    e.counters["shared_replays"] = static_cast<double>(warp->shared_replays);
  }
  timeline_->record(std::move(e));
  return r;
}

LaunchResult Device::launch(const std::string& name, Dim3 grid, Dim3 block,
                            const ThreadKernel& kernel, LaunchOptions opts) {
  {
    std::lock_guard lock(mutex_);
    validate_launch(grid, block, opts);
  }
  const bool warp_mode = warp_fidelity_enabled(opts);
  WorkCounters totals;
  WarpStats warp_totals;
  std::mutex totals_mutex;

  executor_->parallel_for(grid.total(), [&](std::uint64_t block_id) {
    WorkCounters local;
    ThreadCtx ctx;
    ctx.grid_dim = grid;
    ctx.block_dim = block;
    ctx.block_idx = decode_block(block_id, grid);
    ctx.counters = &local;
    WarpStats wlocal;
    if (warp_mode) {
      // Same thread order as the analytic path (x fastest), chunked into
      // warps of warp_size lanes; each lane's ops fold at warp retirement.
      WarpRecorder rec(timing_.spec().warp_size);
      ctx.recorder = &rec;
      const std::uint64_t threads = block.total();
      std::uint64_t linear = 0;
      while (linear < threads) {
        const std::uint32_t lanes = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(timing_.spec().warp_size,
                                    threads - linear));
        rec.begin_scope(lanes);
        for (std::uint32_t l = 0; l < lanes; ++l, ++linear) {
          rec.set_slot(l);
          ctx.thread_idx = decode_thread(linear, block);
          kernel(ctx);
        }
        rec.end_scope();
      }
      wlocal = rec.take();
    } else {
      for (std::uint32_t z = 0; z < block.z; ++z)
        for (std::uint32_t y = 0; y < block.y; ++y)
          for (std::uint32_t x = 0; x < block.x; ++x) {
            ctx.thread_idx = Dim3{x, y, z};
            kernel(ctx);
          }
    }
    std::lock_guard lock(totals_mutex);
    totals.flops += local.flops;
    totals.global_bytes += local.global_bytes;
    if (warp_mode) warp_totals.merge(wlocal);
  });

  return finish_launch(name, grid, block, opts, totals,
                       warp_mode ? &warp_totals : nullptr);
}

LaunchResult Device::launch_blocks(const std::string& name, Dim3 grid,
                                   Dim3 block, const BlockKernel& kernel,
                                   LaunchOptions opts) {
  {
    std::lock_guard lock(mutex_);
    validate_launch(grid, block, opts);
  }
  const bool warp_mode = warp_fidelity_enabled(opts);
  WorkCounters totals;
  WarpStats warp_totals;
  std::mutex totals_mutex;

  executor_->parallel_for(grid.total(), [&](std::uint64_t block_id) {
    WorkCounters local;
    std::vector<std::byte> shared(opts.shared_mem_bytes);
    BlockCtx ctx;
    ctx.grid_dim = grid;
    ctx.block_dim = block;
    ctx.block_idx = decode_block(block_id, grid);
    ctx.shared = std::span<std::byte>(shared);
    ctx.counters = &local;
    WarpStats wlocal;
    if (warp_mode) {
      // for_each_thread phases open lockstep scopes on this recorder;
      // straight-line block code folds as single-lane work.
      WarpRecorder rec(timing_.spec().warp_size);
      ctx.recorder = &rec;
      kernel(ctx);
      wlocal = rec.take();
    } else {
      kernel(ctx);
    }
    std::lock_guard lock(totals_mutex);
    totals.flops += local.flops;
    totals.global_bytes += local.global_bytes;
    if (warp_mode) warp_totals.merge(wlocal);
  });

  return finish_launch(name, grid, block, opts, totals,
                       warp_mode ? &warp_totals : nullptr);
}

LaunchResult Device::launch_linear(const std::string& name, std::uint64_t n,
                                   std::uint32_t block_size,
                                   const ThreadKernel& kernel,
                                   LaunchOptions opts) {
  // Guard threads beyond n, like every CUDA 1-D kernel's `if (i < n)`;
  // going through ctx.branch lets warp fidelity see the tail mask.
  return launch(
      name, linear_grid(n, block_size), Dim3{block_size},
      [&](const ThreadCtx& ctx) {
        if (ctx.branch(ctx.global_x() < n)) kernel(ctx);
      },
      opts);
}

LaunchResult Device::launch_modeled(const std::string& name, Dim3 grid,
                                    Dim3 block, const WorkCounters& cost,
                                    const std::function<void()>& host,
                                    const ThreadKernel& kernel,
                                    LaunchOptions opts) {
  if (warp_fidelity_enabled(opts))
    return launch(name, grid, block, kernel, opts);
  {
    std::lock_guard lock(mutex_);
    validate_launch(grid, block, opts);
  }
  host();
  return finish_launch(name, grid, block, opts, cost, nullptr);
}

Dim3 linear_grid(std::uint64_t n, std::uint32_t block_size) {
  if (n == 0) throw std::invalid_argument("launch_linear: n must be > 0");
  if (block_size == 0)
    throw std::invalid_argument("launch_linear: block_size must be > 0");
  return Dim3{div_up(n, block_size)};
}

}  // namespace sagesim::gpu
