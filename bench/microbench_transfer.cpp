// Data-plane microbench: what the mem::Pool and mem::Buffer layers buy.
//
//   1. pooled vs unpooled host allocation latency (same upstream heap),
//   2. simulated cudaMalloc latency, cold (pool miss) vs steady state (hit),
//   3. accounted H2D/D2H bandwidth through Buffer placement transitions,
//      cross-checked against the process-wide transfer ledger,
//   4. a DDP-style steady-state step loop's pool hit rate.
//
// Writes a JSON baseline (BENCH_mem.json) so the data-plane numbers are
// recorded across PRs.
//
//   microbench_transfer [--smoke] [--json PATH]
//
// --smoke shrinks sizes/reps so the perf.* ctest entry stays fast.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_manager.hpp"
#include "gpusim/device_spec.hpp"
#include "mem/buffer.hpp"
#include "mem/pool.hpp"

using namespace sagesim;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A pool over the plain host heap; @p enabled false makes every request a
/// real malloc/free pair — the unpooled baseline.
mem::Pool make_heap_pool(const std::string& name, bool enabled) {
  return mem::Pool(
      name,
      [](std::size_t bytes) -> Expected<void*> {
        return ::operator new(bytes, std::align_val_t{mem::Buffer::kHostAlignment});
      },
      [](void* p) {
        ::operator delete(p, std::align_val_t{mem::Buffer::kHostAlignment});
      },
      enabled);
}

/// ns per allocate+free pair over @p iters iterations (after one warmup
/// pass so the pooled variant measures steady state, not first-touch).
double alloc_free_ns(mem::Pool& pool, std::size_t bytes, int iters) {
  void* warm = pool.allocate(bytes).value();
  pool.free(warm);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    void* p = pool.allocate(bytes).value();
    pool.free(p);
  }
  return seconds_since(t0) / iters * 1e9;
}

struct AllocRow {
  std::size_t bytes;
  double pooled_ns, unpooled_ns;
};

struct BandwidthRow {
  std::size_t bytes;
  double h2d_sim_s, d2h_sim_s;  // deterministic, from the device model
  double h2d_gbps, d2h_gbps;
  double h2d_pinned_gbps, d2h_pinned_gbps;  // via Buffer::host_pinned
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_mem.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  bench::header("microbench_transfer",
                "pooled allocation and accounted PCIe transfers");

  // ---- 1. host allocation: pool free-list vs the raw heap -------------
  bench::section("host allocation latency (alloc+free pair)");
  const std::vector<std::size_t> alloc_sizes =
      smoke ? std::vector<std::size_t>{4096, 256 * 1024}
            : std::vector<std::size_t>{4096, 64 * 1024, 1024 * 1024,
                                       8 * 1024 * 1024};
  const int alloc_iters = smoke ? 2000 : 20000;

  std::vector<AllocRow> alloc_rows;
  {
    mem::Pool pooled = make_heap_pool("bench_host_pooled", /*enabled=*/true);
    mem::Pool unpooled =
        make_heap_pool("bench_host_unpooled", /*enabled=*/false);
    std::printf("%12s %14s %14s %10s\n", "bytes", "pooled ns/op",
                "unpooled ns/op", "speedup");
    for (std::size_t bytes : alloc_sizes) {
      AllocRow row{bytes, alloc_free_ns(pooled, bytes, alloc_iters),
                   alloc_free_ns(unpooled, bytes, alloc_iters)};
      alloc_rows.push_back(row);
      const double speedup = row.unpooled_ns / row.pooled_ns;
      std::printf("%12zu %14.1f %14.1f %9.2fx  %s\n", bytes, row.pooled_ns,
                  row.unpooled_ns, speedup,
                  bench::bar(speedup, 32.0, 24).c_str());
    }
    const mem::PoolStats ps = pooled.stats();
    std::printf("pooled free-list hit rate: %.1f%% (%llu hits, %llu misses)\n",
                100.0 * ps.hit_rate(),
                static_cast<unsigned long long>(ps.hits),
                static_cast<unsigned long long>(ps.misses));
  }

  // ---- 2. simulated cudaMalloc: pool miss vs steady-state hit ---------
  // Misses charge the device spec's cudaMalloc API latency to stream 0;
  // hits are served from the free list and charge nothing.  The sim-time
  // delta is deterministic, so cold/warm separate exactly.
  bench::section("simulated cudaMalloc latency (T4 model, sim time)");
  double cold_sim_us = 0.0, warm_sim_us = 0.0;
  {
    gpu::DeviceManager dm(1, gpu::spec::t4());
    gpu::Device& dev = dm.device(0);
    mem::Pool& dp = mem::device_pool(dev);
    const int blocks = smoke ? 16 : 64;
    const std::size_t block_bytes = 1024 * 1024;
    std::vector<void*> held;
    held.reserve(blocks);

    double t0 = dm.now_s();
    for (int i = 0; i < blocks; ++i)
      held.push_back(dp.allocate(block_bytes).value());
    cold_sim_us = (dm.now_s() - t0) / blocks * 1e6;
    for (void* p : held) dp.free(p);
    held.clear();

    t0 = dm.now_s();
    for (int i = 0; i < blocks; ++i)
      held.push_back(dp.allocate(block_bytes).value());
    warm_sim_us = (dm.now_s() - t0) / blocks * 1e6;
    for (void* p : held) dp.free(p);

    std::printf("cold (pool miss, real cudaMalloc): %8.2f us/alloc\n",
                cold_sim_us);
    std::printf("warm (free-list hit)             : %8.2f us/alloc\n",
                warm_sim_us);
  }

  // ---- 3. accounted H2D/D2H bandwidth ---------------------------------
  // Buffer::to_device / to_host charge the device's PCIe model and bump the
  // process-wide ledger; modeled bandwidth = accounted bytes / sim time.
  // Plain Buffer::host memory is pageable and pays the staging discount
  // (0.55x the link); Buffer::host_pinned sustains the full link rate —
  // the Week-3 pinned-vs-pageable lab, in table form.
  bench::section("accounted transfer bandwidth (T4 PCIe model, sim time)");
  std::vector<BandwidthRow> bw_rows;
  {
    gpu::DeviceManager dm(1, gpu::spec::t4());
    gpu::Device& dev = dm.device(0);
    mem::reset_transfer_ledger();
    const std::vector<std::size_t> bw_sizes =
        smoke ? std::vector<std::size_t>{1024 * 1024}
              : std::vector<std::size_t>{1024 * 1024, 16 * 1024 * 1024,
                                         64 * 1024 * 1024};
    std::printf("%12s %12s %12s %10s %10s %10s %10s\n", "bytes",
                "h2d sim ms", "d2h sim ms", "h2d GB/s", "d2h GB/s",
                "pin h2d", "pin d2h");
    std::uint64_t expect_bytes = 0, expect_pinned = 0;
    for (std::size_t bytes : bw_sizes) {
      mem::Buffer buf = mem::Buffer::host(bytes);
      std::memset(buf.data(), 0x5a, bytes);

      double t0 = dm.now_s();
      buf.to_device(dev).throw_if_error();
      const double h2d_s = dm.now_s() - t0;
      t0 = dm.now_s();
      buf.to_host().throw_if_error();
      const double d2h_s = dm.now_s() - t0;

      mem::Buffer pinned = mem::Buffer::host_pinned(bytes, /*zero=*/false);
      std::memset(pinned.data(), 0xa5, bytes);
      t0 = dm.now_s();
      pinned.to_device(dev).throw_if_error();
      const double h2d_pin_s = dm.now_s() - t0;
      t0 = dm.now_s();
      pinned.to_host().throw_if_error();
      const double d2h_pin_s = dm.now_s() - t0;
      expect_bytes += 2 * bytes;
      expect_pinned += bytes;

      BandwidthRow row{bytes, h2d_s, d2h_s,
                       static_cast<double>(bytes) / h2d_s / 1e9,
                       static_cast<double>(bytes) / d2h_s / 1e9,
                       static_cast<double>(bytes) / h2d_pin_s / 1e9,
                       static_cast<double>(bytes) / d2h_pin_s / 1e9};
      bw_rows.push_back(row);
      std::printf("%12zu %12.3f %12.3f %10.2f %10.2f %10.2f %10.2f\n", bytes,
                  1e3 * row.h2d_sim_s, 1e3 * row.d2h_sim_s, row.h2d_gbps,
                  row.d2h_gbps, row.h2d_pinned_gbps, row.d2h_pinned_gbps);
    }
    const mem::TransferCounters ledger = mem::transfer_ledger();
    std::printf("ledger cross-check: %llu H2D bytes (%llu pinned), "
                "%llu D2H bytes (expected %llu total / %llu pinned)%s\n",
                static_cast<unsigned long long>(ledger.h2d_bytes),
                static_cast<unsigned long long>(ledger.h2d_pinned_bytes),
                static_cast<unsigned long long>(ledger.d2h_bytes),
                static_cast<unsigned long long>(expect_bytes),
                static_cast<unsigned long long>(expect_pinned),
                ledger.h2d_bytes == expect_bytes &&
                        ledger.d2h_bytes == expect_bytes &&
                        ledger.h2d_pinned_bytes == expect_pinned &&
                        ledger.d2h_pinned_bytes == expect_pinned
                    ? " — OK"
                    : " — MISMATCH");
  }

  // ---- 4. DDP-style steady-state loop hit rate ------------------------
  // The shape of ddp::Trainer's step: per rank, a device-resident gradient
  // bucket plus a host staging block, allocated and dropped every step.
  // After warmup every allocation should recycle.
  bench::section("DDP-style step loop (2 ranks): pool hit rate");
  double host_hit_rate = 0.0, dev_hit_rate = 0.0;
  {
    gpu::DeviceManager dm(2, gpu::spec::t4());
    const std::size_t bucket_bytes = 256 * 1024;
    const int warmup = 3, steps = smoke ? 10 : 50;

    auto step = [&] {
      for (int r = 0; r < 2; ++r) {
        mem::Buffer bucket =
            mem::Buffer::on_device(dm.device(r), bucket_bytes).value();
        mem::Buffer staging = mem::Buffer::host(bucket_bytes, /*zero=*/false);
        bucket.download(staging.data(), bucket_bytes).throw_if_error();
      }
    };
    for (int i = 0; i < warmup; ++i) step();
    mem::host_pool().reset_stats();
    mem::device_pool(dm.device(0)).reset_stats();
    mem::device_pool(dm.device(1)).reset_stats();
    for (int i = 0; i < steps; ++i) step();

    const mem::PoolStats hs = mem::host_pool().stats();
    const mem::PoolStats d0 = mem::device_pool(dm.device(0)).stats();
    const mem::PoolStats d1 = mem::device_pool(dm.device(1)).stats();
    host_hit_rate = hs.hit_rate();
    dev_hit_rate = (static_cast<double>(d0.hits + d1.hits)) /
                   static_cast<double>(d0.hits + d0.misses + d1.hits +
                                       d1.misses);
    std::printf("host pool : %.1f%% hit rate over %d steps\n",
                100.0 * host_hit_rate, steps);
    std::printf("device pools: %.1f%% hit rate over %d steps\n",
                100.0 * dev_hit_rate, steps);
    std::printf("\n%s", mem::pool_report().c_str());
  }

  // ---- JSON baseline ---------------------------------------------------
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"mem\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"host_alloc\": [\n");
    for (std::size_t i = 0; i < alloc_rows.size(); ++i) {
      const AllocRow& r = alloc_rows[i];
      std::fprintf(f,
                   "    {\"bytes\": %zu, \"pooled_ns\": %.1f, "
                   "\"unpooled_ns\": %.1f, \"speedup\": %.3f}%s\n",
                   r.bytes, r.pooled_ns, r.unpooled_ns,
                   r.unpooled_ns / r.pooled_ns,
                   i + 1 < alloc_rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"device_alloc\": {\"cold_sim_us\": %.3f, "
                 "\"warm_sim_us\": %.3f},\n",
                 cold_sim_us, warm_sim_us);
    std::fprintf(f, "  \"transfer_bandwidth\": [\n");
    for (std::size_t i = 0; i < bw_rows.size(); ++i) {
      const BandwidthRow& r = bw_rows[i];
      std::fprintf(f,
                   "    {\"bytes\": %zu, \"h2d_sim_ms\": %.4f, "
                   "\"d2h_sim_ms\": %.4f, \"h2d_gbps\": %.3f, "
                   "\"d2h_gbps\": %.3f, \"h2d_pinned_gbps\": %.3f, "
                   "\"d2h_pinned_gbps\": %.3f}%s\n",
                   r.bytes, 1e3 * r.h2d_sim_s, 1e3 * r.d2h_sim_s, r.h2d_gbps,
                   r.d2h_gbps, r.h2d_pinned_gbps, r.d2h_pinned_gbps,
                   i + 1 < bw_rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"ddp_loop\": {\"host_hit_rate\": %.4f, "
                 "\"device_hit_rate\": %.4f}\n}\n",
                 host_hit_rate, dev_hit_rate);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
