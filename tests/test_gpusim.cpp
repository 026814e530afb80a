// Unit tests for the simulated GPU: memory, occupancy, timing, launches,
// streams, transfers, multi-GPU peer copies.
#include <gtest/gtest.h>

#include <any>
#include <atomic>
#include <numeric>
#include <thread>

#include "gpusim/device_manager.hpp"
#include "gpusim/occupancy.hpp"

namespace gpu = sagesim::gpu;
using gpu::Dim3;
using sagesim::ErrorCode;

namespace {

std::shared_ptr<sagesim::prof::Timeline> timeline() {
  return std::make_shared<sagesim::prof::Timeline>();
}

}  // namespace

// --- Dim3 -------------------------------------------------------------------

TEST(Dim3Test, DefaultsToUnit) {
  constexpr Dim3 d;
  EXPECT_EQ(d.total(), 1u);
}

TEST(Dim3Test, TotalMultiplies) {
  constexpr Dim3 d{4, 3, 2};
  EXPECT_EQ(d.total(), 24u);
}

TEST(Dim3Test, DivUpRoundsUp) {
  EXPECT_EQ(gpu::div_up(100, 32), 4u);
  EXPECT_EQ(gpu::div_up(96, 32), 3u);
  EXPECT_EQ(gpu::div_up(1, 32), 1u);
}

// --- DeviceSpec / catalog ---------------------------------------------------

TEST(DeviceSpec, PresetsHaveDatasheetShapes) {
  const auto t4 = gpu::spec::t4();
  EXPECT_NEAR(t4.peak_flops(), 8.1e12, 0.3e12);  // ~8.1 TFLOP/s FP32
  const auto v100 = gpu::spec::v100();
  EXPECT_GT(v100.peak_bytes_per_s(), t4.peak_bytes_per_s());
}

TEST(DeviceSpec, ByNameRoundTrips) {
  for (const auto& name : gpu::spec::names())
    EXPECT_NO_THROW(gpu::spec::by_name(name));
  EXPECT_THROW(gpu::spec::by_name("h100"), std::invalid_argument);
}

// --- DeviceMemory -----------------------------------------------------------

TEST(DeviceMemory, AllocatesAndTracks) {
  gpu::DeviceMemory mem(1 << 20);
  void* p = mem.allocate(1024);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(mem.used_bytes(), 1024u);
  EXPECT_EQ(mem.live_allocations(), 1u);
  mem.free(p);
  EXPECT_EQ(mem.used_bytes(), 0u);
}

TEST(DeviceMemory, PeakTracksHighWater) {
  gpu::DeviceMemory mem(1 << 20);
  void* a = mem.allocate(1000);
  void* b = mem.allocate(2000);
  mem.free(a);
  mem.free(b);
  EXPECT_EQ(mem.peak_bytes(), 3000u);
}

TEST(DeviceMemory, ThrowsOnExhaustion) {
  gpu::DeviceMemory mem(1024);
  EXPECT_THROW(mem.allocate(2048), gpu::DeviceOutOfMemory);
  void* p = mem.allocate(1024);
  EXPECT_THROW(mem.allocate(1), gpu::DeviceOutOfMemory);
  mem.free(p);
  EXPECT_NO_THROW(mem.allocate(1024));
}

TEST(DeviceMemory, RejectsZeroByteAndUnknownFree) {
  gpu::DeviceMemory mem(1024);
  EXPECT_THROW(mem.allocate(0), std::invalid_argument);
  int x = 0;
  EXPECT_THROW(mem.free(&x), std::invalid_argument);
}

TEST(DeviceMemory, OwnsInteriorPointers) {
  gpu::DeviceMemory mem(1 << 20);
  auto* p = static_cast<std::byte*>(mem.allocate(1000));
  EXPECT_TRUE(mem.owns(p));
  EXPECT_TRUE(mem.owns(p + 500));
  EXPECT_TRUE(mem.owns(p + 999));
  EXPECT_FALSE(mem.owns(p + 1000));
  EXPECT_EQ(mem.size_of(p + 400), 600u);
  mem.free(p);
  EXPECT_FALSE(mem.owns(p));
}

// --- Occupancy --------------------------------------------------------------

TEST(Occupancy, FullBlocksReachFullOccupancy) {
  const auto spec = gpu::spec::t4();  // 1024 threads/SM
  const auto r = gpu::occupancy_for(spec, Dim3{256}).value();
  EXPECT_EQ(r.warps_per_block, 8u);
  EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
  EXPECT_DOUBLE_EQ(r.lane_efficiency, 1.0);
}

TEST(Occupancy, PartialWarpLowersLaneEfficiency) {
  const auto spec = gpu::spec::t4();
  const auto r = gpu::occupancy_for(spec, Dim3{33}).value();
  EXPECT_EQ(r.warps_per_block, 2u);
  EXPECT_NEAR(r.lane_efficiency, 33.0 / 64.0, 1e-12);
}

TEST(Occupancy, SharedMemoryLimitsBlocks) {
  const auto spec = gpu::spec::test_tiny();  // 16 KB smem/SM
  const auto r = gpu::occupancy_for(spec, Dim3{32}, 8 << 10).value();
  EXPECT_EQ(r.active_blocks_per_sm, 2u);
  EXPECT_STREQ(r.limiter, "shared_mem");
}

TEST(Occupancy, RejectsUnlaunchableBlocks) {
  const auto spec = gpu::spec::t4();
  const auto too_wide = gpu::occupancy_for(spec, Dim3{2048});
  ASSERT_FALSE(too_wide.has_value());
  EXPECT_EQ(too_wide.status().code(), ErrorCode::kInvalidArgument);
  const auto too_much_smem = gpu::occupancy_for(spec, Dim3{32}, 1 << 20);
  ASSERT_FALSE(too_much_smem.has_value());
  EXPECT_EQ(too_much_smem.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Occupancy, RegistersLimitActiveBlocks) {
  const auto spec = gpu::spec::t4();  // 64K registers/SM, 1024 threads/SM
  // 256 threads * 128 regs = 32768 regs/block -> 2 blocks = 512 threads.
  const auto r = gpu::occupancy_for(spec, Dim3{256}, 0, 128).value();
  EXPECT_EQ(r.active_blocks_per_sm, 2u);
  EXPECT_STREQ(r.limiter, "registers");
  EXPECT_DOUBLE_EQ(r.occupancy, 0.5);
  // A block whose registers exceed the whole SM file is unlaunchable.
  const auto too_fat = gpu::occupancy_for(spec, Dim3{1024}, 0, 128);
  ASSERT_FALSE(too_fat.has_value());
  EXPECT_EQ(too_fat.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Occupancy, SuggestedBlockSizeIsWarpMultipleAndOptimal) {
  const auto spec = gpu::spec::t4();
  const auto block = gpu::suggest_block_size(spec).value();
  EXPECT_EQ(block % spec.warp_size, 0u);
  const auto r = gpu::occupancy_for(spec, Dim3{block}).value();
  EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
}

TEST(Occupancy, SuggestedBlockSizeSkipsRegisterUnlaunchableSizes) {
  const auto spec = gpu::spec::t4();
  // 128 regs/thread: any block over 512 threads is unlaunchable; the best
  // launchable size must still be suggested rather than an error.
  const auto block = gpu::suggest_block_size(spec, 0, 128).value();
  EXPECT_LE(block, 512u);
  EXPECT_EQ(block % spec.warp_size, 0u);
}

// --- TimingModel ------------------------------------------------------------

TEST(TimingModel, LaunchOverheadFloorsKernelTime) {
  gpu::TimingModel model(gpu::spec::t4());
  gpu::KernelWork none;
  EXPECT_NEAR(model.kernel_seconds(none), 6e-6, 1e-9);
}

TEST(TimingModel, ComputeBoundScalesWithFlops) {
  gpu::TimingModel model(gpu::spec::t4());
  gpu::KernelWork w;
  w.threads = 1u << 20;
  w.flops = model.spec().peak_flops();  // one second of peak math
  const double t = model.kernel_seconds(w);
  EXPECT_NEAR(t, 1.0, 0.01);
}

TEST(TimingModel, MemoryBoundScalesWithBytes) {
  gpu::TimingModel model(gpu::spec::t4());
  gpu::KernelWork w;
  w.threads = 1024;
  w.global_bytes = model.spec().peak_bytes_per_s();  // one second of traffic
  EXPECT_NEAR(model.kernel_seconds(w), 1.0, 0.01);
}

TEST(TimingModel, LowOccupancySlowsComputeBoundKernels) {
  gpu::TimingModel model(gpu::spec::t4());
  gpu::KernelWork fast, slow;
  fast.threads = slow.threads = 1u << 20;
  fast.flops = slow.flops = 1e12;
  fast.occupancy = 1.0;
  slow.occupancy = 0.25;
  EXPECT_GT(model.kernel_seconds(slow), 2.0 * model.kernel_seconds(fast));
}

TEST(TimingModel, TransferHasLatencyPlusBandwidth) {
  gpu::TimingModel model(gpu::spec::test_tiny());  // 1 GB/s PCIe, 10 us lat
  EXPECT_NEAR(model.transfer_seconds(0), 10e-6, 1e-9);
  // Pinned host memory sustains the full link.
  EXPECT_NEAR(model.transfer_seconds(1'000'000'000, /*pinned=*/true),
              1.0 + 10e-6, 1e-3);
  // The default is pageable: nothing pinned the host side, so the copy
  // stages at ~55% of link bandwidth (the cudaMemcpy pageable penalty).
  EXPECT_NEAR(model.transfer_seconds(1'000'000'000), 1.0 / 0.55 + 10e-6,
              1e-3);
  EXPECT_GT(model.transfer_seconds(1'000'000'000, false),
            model.transfer_seconds(1'000'000'000, true));
}

// --- Device: launches, transfers, streams ------------------------------------

TEST(Device, LaunchComputesRealResults) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  std::vector<int> data(1000, 0);
  dev.launch_linear("fill", data.size(), 128, [&](const gpu::ThreadCtx& ctx) {
    data[ctx.global_x()] = static_cast<int>(ctx.global_x());
  });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i);
}

TEST(Device, LaunchRecordsTimelineEvent) {
  auto tl = timeline();
  gpu::Device dev(0, gpu::spec::test_tiny(), tl);
  dev.launch_linear("noop", 256, 64, [](const gpu::ThreadCtx&) {});
  const auto kernels = tl->snapshot(sagesim::prof::EventKind::kKernel);
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].name, "noop");
  EXPECT_GT(kernels[0].duration_s, 0.0);
}

TEST(Device, LaunchAdvancesStreamCursor) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  const double before = dev.stream_time(0);
  dev.launch_linear("noop", 256, 64, [](const gpu::ThreadCtx&) {});
  EXPECT_GT(dev.stream_time(0), before);
}

TEST(Device, CountersDriveModeledDuration) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  const auto cheap = dev.launch_linear("cheap", 1024, 128,
                                       [](const gpu::ThreadCtx&) {});
  const auto costly =
      dev.launch_linear("costly", 1024, 128, [](const gpu::ThreadCtx& ctx) {
        ctx.add_flops(1e6);  // per thread: 1 Gflop total
      });
  EXPECT_GT(costly.duration_s, cheap.duration_s);
}

TEST(Device, ValidatesLaunchConfiguration) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  const auto noop = [](const gpu::ThreadCtx&) {};
  EXPECT_THROW(dev.launch("bad", Dim3{0}, Dim3{32}, noop),
               std::invalid_argument);
  EXPECT_THROW(dev.launch("bad", Dim3{1}, Dim3{2048}, noop),
               std::invalid_argument);
  gpu::LaunchOptions opts;
  opts.stream = 7;
  EXPECT_THROW(dev.launch("bad", Dim3{1}, Dim3{32}, noop, opts),
               std::out_of_range);
}

TEST(Device, TwoDimensionalLaunchCoversGrid) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  std::vector<int> hits(16 * 16, 0);
  dev.launch("2d", Dim3{4, 4}, Dim3{4, 4}, [&](const gpu::ThreadCtx& ctx) {
    hits[ctx.global_y() * 16 + ctx.global_x()] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Device, BlockKernelSharedMemoryWorks) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  std::vector<float> block_sums(4, 0.0f);
  gpu::LaunchOptions opts;
  opts.shared_mem_bytes = 64 * sizeof(float);
  dev.launch_blocks(
      "block_reduce", Dim3{4}, Dim3{64},
      [&](const gpu::BlockCtx& ctx) {
        auto shared = ctx.shared_as<float>();
        ctx.for_each_thread([&](const Dim3& tid) {
          shared[tid.x] = 1.0f;  // phase 1: stage
        });
        float sum = 0.0f;  // phase 2: reduce (single "thread 0" role)
        for (std::uint32_t i = 0; i < 64; ++i) sum += shared[i];
        block_sums[ctx.block_idx.x] = sum;
      },
      opts);
  for (float s : block_sums) EXPECT_FLOAT_EQ(s, 64.0f);
}

TEST(Device, CopiesRoundTripAndAreTimed) {
  auto tl = timeline();
  gpu::Device dev(0, gpu::spec::test_tiny(), tl);
  std::vector<float> host(256);
  std::iota(host.begin(), host.end(), 0.0f);
  auto buf = gpu::make_buffer<float>(dev, host);
  auto back = buf.to_host();
  EXPECT_EQ(back, host);
  EXPECT_GT(tl->total_time(sagesim::prof::EventKind::kMemcpyH2D), 0.0);
  EXPECT_GT(tl->total_time(sagesim::prof::EventKind::kMemcpyD2H), 0.0);
}

TEST(Device, CopyValidatesDevicePointers) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  std::vector<float> host(16);
  EXPECT_THROW(dev.copy_h2d(host.data(), host.data(), 16),
               std::invalid_argument);
  gpu::DeviceBuffer<float> buf(dev, 16);
  EXPECT_THROW(dev.copy_h2d(buf.data(), host.data(), 1024),
               std::invalid_argument);
}

TEST(Device, DeviceBufferMoveSemantics) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  gpu::DeviceBuffer<float> a(dev, 128);
  const float* ptr = a.data();
  gpu::DeviceBuffer<float> b(std::move(a));
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(dev.memory().live_allocations(), 1u);
  b = gpu::DeviceBuffer<float>(dev, 64);
  EXPECT_EQ(dev.memory().live_allocations(), 1u);
}

TEST(Device, StreamsAdvanceIndependently) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  const int s1 = dev.create_stream();
  gpu::LaunchOptions on_s1;
  on_s1.stream = s1;
  dev.launch_linear("k", 4096, 64, [](const gpu::ThreadCtx&) {}, on_s1);
  EXPECT_GT(dev.stream_time(s1), 0.0);
  EXPECT_DOUBLE_EQ(dev.stream_time(0), 0.0);
}

TEST(Device, EventsOrderStreams) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  const int s1 = dev.create_stream();
  gpu::LaunchOptions on_s1;
  on_s1.stream = s1;
  dev.launch_linear("k", 4096, 64, [](const gpu::ThreadCtx&) {}, on_s1);
  const auto ev = dev.record_event(s1);
  dev.wait_event(0, ev);
  EXPECT_GE(dev.stream_time(0), ev.time_s);
}

TEST(Device, SynchronizeAlignsAllStreams) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  const int s1 = dev.create_stream();
  gpu::LaunchOptions on_s1;
  on_s1.stream = s1;
  dev.launch_linear("k", 4096, 64, [](const gpu::ThreadCtx&) {}, on_s1);
  const double t = dev.synchronize();
  EXPECT_GE(dev.stream_time(0), t - 1e-12);
  EXPECT_GE(t, dev.stream_time(s1) - 1e-9);
}

// --- DeviceManager ----------------------------------------------------------

TEST(DeviceManager, CreatesDevicesWithSharedTimeline) {
  gpu::DeviceManager dm(3, gpu::spec::test_tiny());
  EXPECT_EQ(dm.device_count(), 3u);
  dm.device(1).launch_linear("k", 64, 64, [](const gpu::ThreadCtx&) {});
  EXPECT_EQ(dm.timeline().snapshot(sagesim::prof::EventKind::kKernel).size(),
            1u);
  EXPECT_THROW(dm.device(3), std::out_of_range);
}

TEST(DeviceManager, PeerCopyMovesBytesAndTime) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  auto& d0 = dm.device(0);
  auto& d1 = dm.device(1);
  std::vector<float> host(64, 3.5f);
  auto src = gpu::make_buffer<float>(d0, host);
  gpu::DeviceBuffer<float> dst(d1, 64);
  dm.copy_peer(1, dst.data(), 0, src.data(), 64 * sizeof(float));
  // Both devices advanced to the common fence (read before any further op).
  EXPECT_NEAR(d0.stream_time(0), d1.stream_time(0), 1e-12);
  const auto back = dst.to_host();
  EXPECT_FLOAT_EQ(back[0], 3.5f);
  EXPECT_FLOAT_EQ(back[63], 3.5f);
}

TEST(DeviceManager, PeerCopyValidatesOwnership) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  gpu::DeviceBuffer<float> a(dm.device(0), 16);
  gpu::DeviceBuffer<float> b(dm.device(1), 16);
  // Swapped device ordinals: pointers owned by the *other* device.
  EXPECT_THROW(dm.copy_peer(0, b.data(), 1, a.data(), 16 * sizeof(float)),
               std::invalid_argument);
}

TEST(DeviceManager, NowIsMaxOverDevices) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  dm.device(1).launch_linear("k", 1u << 16, 64, [](const gpu::ThreadCtx&) {});
  EXPECT_DOUBLE_EQ(dm.now_s(), dm.device(1).stream_time(0));
}

// --- Executor ----------------------------------------------------------------

TEST(Executor, ParallelForCoversRangeExactlyOnce) {
  gpu::Executor exec(4);
  std::vector<std::atomic<int>> hits(1000);
  exec.parallel_for(1000, [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, PropagatesExceptions) {
  gpu::Executor exec(2);
  EXPECT_THROW(exec.parallel_for(100,
                                 [](std::uint64_t i) {
                                   if (i == 57) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(Executor, AbortsRemainingChunksAfterError) {
  // Contract: no chunk claimed after the abort is published invokes fn.
  // Both pool workers are parked first, so the calling thread claims every
  // chunk in order: chunk 0 throws at i == 0 and publishes the abort, and
  // each later chunk is claimed after it — none of them may run.
  gpu::Executor exec(2);
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  for (int w = 0; w < 2; ++w)
    exec.scheduler().submit_any({}, [&]() -> std::any {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      return {};
    });
  while (parked.load() < 2) std::this_thread::yield();

  std::atomic<std::uint64_t> calls{0};
  EXPECT_THROW(exec.parallel_for(10000,
                                 [&](std::uint64_t i) {
                                   calls.fetch_add(1);
                                   if (i == 0)
                                     throw std::runtime_error("poison");
                                 }),
               std::runtime_error);
  release.store(true);
  // The helper task queued behind the parked workers finds nothing left.
  exec.scheduler().wait_idle();
  EXPECT_EQ(calls.load(), 1u);
}

TEST(Executor, HandlesZeroAndOne) {
  gpu::Executor exec(2);
  int count = 0;
  exec.parallel_for(0, [&](std::uint64_t) { ++count; });
  EXPECT_EQ(count, 0);
  exec.parallel_for(1, [&](std::uint64_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(Device, PageableTransferSlowerThanPinned) {
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  gpu::DeviceBuffer<float> buf(dev, 1 << 20);
  std::vector<float> host(1 << 20);
  const double t0 = dev.stream_time(0);
  dev.copy_h2d(buf.data(), host.data(), buf.bytes(), 0, /*pinned=*/true);
  const double pinned = dev.stream_time(0) - t0;
  dev.copy_h2d(buf.data(), host.data(), buf.bytes(), 0, /*pinned=*/false);
  const double pageable = dev.stream_time(0) - t0 - pinned;
  EXPECT_GT(pageable, 1.5 * pinned);
}

// --- parameterized launch-config sweep -------------------------------------------

class LaunchConfigSweep
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint32_t>> {};

TEST_P(LaunchConfigSweep, LinearLaunchCoversExactlyOnce) {
  const auto [n, block] = GetParam();
  gpu::Device dev(0, gpu::spec::test_tiny(), timeline());
  std::vector<std::atomic<int>> hits(n);
  dev.launch_linear("cover", n, block, [&](const gpu::ThreadCtx& ctx) {
    hits[ctx.global_x()].fetch_add(1);
  });
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LaunchConfigSweep,
    ::testing::Values(std::pair<std::uint64_t, std::uint32_t>{1, 32},
                      std::pair<std::uint64_t, std::uint32_t>{31, 32},
                      std::pair<std::uint64_t, std::uint32_t>{32, 32},
                      std::pair<std::uint64_t, std::uint32_t>{33, 32},
                      std::pair<std::uint64_t, std::uint32_t>{1000, 128},
                      std::pair<std::uint64_t, std::uint32_t>{4096, 256},
                      std::pair<std::uint64_t, std::uint32_t>{5000, 1024}));

class OccupancySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OccupancySweep, InvariantsHoldForAllBlockSizes) {
  const auto size = GetParam();
  const auto spec = gpu::spec::t4();
  const auto r = gpu::occupancy_for(spec, gpu::Dim3{size}).value();
  EXPECT_GT(r.occupancy, 0.0);
  EXPECT_LE(r.occupancy, 1.0);
  EXPECT_GT(r.lane_efficiency, 0.0);
  EXPECT_LE(r.lane_efficiency, 1.0);
  EXPECT_LE(r.active_threads_per_sm, spec.max_threads_per_sm);
  EXPECT_GE(r.active_blocks_per_sm, 1u);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, OccupancySweep,
                         ::testing::Values(1u, 17u, 32u, 33u, 64u, 96u, 128u,
                                           255u, 256u, 512u, 1000u, 1024u));
