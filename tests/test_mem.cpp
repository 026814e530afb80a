// Unit tests for the mem data plane: size-class pooling allocator, Buffer
// placement transitions, transfer accounting, unified-memory page
// residency, and TypedBuffer semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/device_manager.hpp"
#include "mem/buffer.hpp"
#include "mem/pool.hpp"

namespace mem = sagesim::mem;
namespace gpu = sagesim::gpu;
namespace prof = sagesim::prof;
using sagesim::ErrorCode;
using sagesim::Expected;
using sagesim::Status;

// --- Pool ---------------------------------------------------------------------

namespace {

/// Counting upstream over the heap, with an optional allocation budget so
/// tests can force upstream OOM deterministically.
struct FakeUpstream {
  std::size_t allocs{0};
  std::size_t frees{0};
  std::size_t budget_bytes{std::numeric_limits<std::size_t>::max()};
  std::size_t outstanding{0};
  std::unordered_map<void*, std::size_t> sizes;

  mem::Pool::UpstreamAlloc alloc_fn() {
    return [this](std::size_t bytes) -> Expected<void*> {
      if (outstanding + bytes > budget_bytes)
        return Status::resource_exhausted("fake upstream out of memory");
      ++allocs;
      outstanding += bytes;
      void* p = ::operator new(bytes);
      sizes.emplace(p, bytes);
      return p;
    };
  }
  mem::Pool::UpstreamFree free_fn() {
    return [this](void* p) {
      ++frees;
      outstanding -= sizes.at(p);
      sizes.erase(p);
      ::operator delete(p);
    };
  }
};

}  // namespace

TEST(Pool, SizeClassRoundsToPowerOfTwo) {
  EXPECT_EQ(mem::Pool::size_class(1), 64u);
  EXPECT_EQ(mem::Pool::size_class(64), 64u);
  EXPECT_EQ(mem::Pool::size_class(65), 128u);
  EXPECT_EQ(mem::Pool::size_class(4096), 4096u);
  EXPECT_EQ(mem::Pool::size_class(4097), 8192u);
  EXPECT_EQ(mem::Pool::size_class(mem::Pool::kMaxPooled),
            mem::Pool::kMaxPooled);
  // Oversize and zero requests are not poolable.
  EXPECT_EQ(mem::Pool::size_class(mem::Pool::kMaxPooled + 1), 0u);
  EXPECT_EQ(mem::Pool::size_class(0), 0u);
}

TEST(Pool, FreeListRecyclesSameClass) {
  FakeUpstream up;
  mem::Pool pool("test", up.alloc_fn(), up.free_fn());
  Expected<void*> a = pool.allocate(100);
  ASSERT_TRUE(a);
  pool.free(*a);                        // cached, not released
  EXPECT_EQ(up.frees, 0u);
  Expected<void*> b = pool.allocate(120);  // same 128-byte class
  ASSERT_TRUE(b);
  EXPECT_EQ(*b, *a);  // recycled block
  const mem::PoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
  EXPECT_EQ(s.bytes_served, 220u);
  EXPECT_EQ(up.allocs, 1u);
  pool.free(*b);
}

TEST(Pool, OversizeRequestsPassThrough) {
  FakeUpstream up;
  mem::Pool pool("test", up.alloc_fn(), up.free_fn());
  Expected<void*> p = pool.allocate(mem::Pool::kMaxPooled + 1);
  ASSERT_TRUE(p);
  EXPECT_EQ(pool.stats().pass_through, 1u);
  pool.free(*p);  // released straight to upstream, never cached
  EXPECT_EQ(up.frees, 1u);
  EXPECT_EQ(pool.stats().bytes_cached, 0u);
}

TEST(Pool, DisabledPoolNeverCaches) {
  FakeUpstream up;
  mem::Pool pool("test", up.alloc_fn(), up.free_fn(), /*enabled=*/false);
  Expected<void*> a = pool.allocate(256);
  ASSERT_TRUE(a);
  pool.free(*a);
  Expected<void*> b = pool.allocate(256);
  ASSERT_TRUE(b);
  pool.free(*b);
  const mem::PoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.pass_through, 2u);
  EXPECT_EQ(up.allocs, 2u);
  EXPECT_EQ(up.frees, 2u);
}

TEST(Pool, RejectsZeroBytesAndForeignPointers) {
  FakeUpstream up;
  mem::Pool pool("test", up.alloc_fn(), up.free_fn());
  Expected<void*> z = pool.allocate(0);
  ASSERT_FALSE(z);
  EXPECT_EQ(z.status().code(), ErrorCode::kInvalidArgument);
  int local = 0;
  EXPECT_THROW(pool.free(&local), std::invalid_argument);
}

TEST(Pool, FlushReleasesCachedBlocks) {
  FakeUpstream up;
  mem::Pool pool("test", up.alloc_fn(), up.free_fn());
  Expected<void*> a = pool.allocate(1024);
  ASSERT_TRUE(a);
  pool.free(*a);
  EXPECT_EQ(pool.stats().bytes_cached, 1024u);
  pool.flush();
  EXPECT_EQ(up.frees, 1u);
  const mem::PoolStats s = pool.stats();
  EXPECT_EQ(s.bytes_cached, 0u);
  EXPECT_EQ(s.flushes, 1u);
}

TEST(Pool, FlushesCacheAndRetriesOnUpstreamOom) {
  FakeUpstream up;
  up.budget_bytes = 1024;  // room for exactly one 1 KiB block upstream
  mem::Pool pool("test", up.alloc_fn(), up.free_fn());
  Expected<void*> a = pool.allocate(1024);
  ASSERT_TRUE(a);
  pool.free(*a);  // cached: upstream capacity stays consumed
  EXPECT_EQ(up.outstanding, 1024u);

  // A different size class can't reuse the cached block, and upstream is
  // full — the pool must flush its cache and retry before succeeding.
  Expected<void*> b = pool.allocate(512);
  ASSERT_TRUE(b);
  EXPECT_EQ(pool.stats().flushes, 1u);
  EXPECT_EQ(up.outstanding, 512u);
  pool.free(*b);

  // The 512 block is cached again; a 1 KiB request overflows the budget
  // and rides a second flush-and-retry.
  Expected<void*> c = pool.allocate(1024);
  ASSERT_TRUE(c);
  EXPECT_EQ(pool.stats().flushes, 2u);
  pool.free(*c);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PoolDeathTest, CachedBlockIsPoisonedUnderAsan) {
  // A freed block stays mapped in the pool's free list; ASan must still
  // flag a stale pointer into it, as it would after a real free().
  EXPECT_DEATH(
      {
        mem::Pool pool(
            "poisoned",
            [](std::size_t bytes) -> Expected<void*> {
              return ::operator new(bytes);
            },
            [](void* p) { ::operator delete(p); });
        Expected<void*> block = pool.allocate(256);
        ASSERT_TRUE(block);
        auto* bytes = static_cast<volatile unsigned char*>(*block);
        bytes[0] = 1;
        pool.free(*block);
        (void)bytes[0];
      },
      "use-after-poison");
}

TEST(PoolDeathTest, BytesPastRequestArePoisonedUnderAsan) {
  // A 100-byte request is served from the 128-byte class.  The slack past
  // the request belongs to no caller, so a read of byte 100 must fault as
  // it would past the end of a real malloc(100): on a miss (a fresh
  // upstream block) and on a hit (a recycled one).
  const auto make_pool = [] {
    return mem::Pool(
        "slack", [](std::size_t bytes) -> Expected<void*> {
          return ::operator new(bytes);
        },
        [](void* p) { ::operator delete(p); });
  };
  EXPECT_DEATH(
      {
        mem::Pool pool = make_pool();
        Expected<void*> block = pool.allocate(100);
        ASSERT_TRUE(block);
        auto* bytes = static_cast<volatile unsigned char*>(*block);
        bytes[99] = 1;
        (void)bytes[100];
      },
      "use-after-poison");
  EXPECT_DEATH(
      {
        mem::Pool pool = make_pool();
        Expected<void*> warm = pool.allocate(128);
        ASSERT_TRUE(warm);
        pool.free(*warm);
        Expected<void*> block = pool.allocate(100);
        ASSERT_TRUE(block);
        ASSERT_EQ(pool.stats().hits, 1u);
        auto* bytes = static_cast<volatile unsigned char*>(*block);
        bytes[99] = 1;
        (void)bytes[100];
      },
      "use-after-poison");
}
#endif

TEST(Pool, HostPoolRecyclesBufferBlocks) {
  // Warm the class once, then every same-size Buffer must hit the cache.
  { mem::Buffer warm = mem::Buffer::host(4096); }
  const std::uint64_t hits_before = mem::host_pool().stats().hits;
  for (int i = 0; i < 10; ++i) {
    mem::Buffer b = mem::Buffer::host(4096);
    ASSERT_TRUE(b.valid());
  }
  EXPECT_GE(mem::host_pool().stats().hits - hits_before, 10u);
}

// --- Buffer -------------------------------------------------------------------

TEST(Buffer, EmptyHandleAndZeroBytes) {
  mem::Buffer b;
  EXPECT_FALSE(b.valid());
  EXPECT_EQ(b.size_bytes(), 0u);
  EXPECT_EQ(b.placement(), mem::Placement::kHost);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_FALSE(mem::Buffer::host(0).valid());
}

TEST(Buffer, HostAllocationIsZeroFilled) {
  // The pool hands back recycled (dirty) blocks; Buffer::host must scrub
  // them so containers keep their vector zero-init semantics.
  {
    mem::Buffer dirty = mem::Buffer::host(512, /*zero=*/false);
    std::memset(dirty.data(), 0xAB, 512);
  }
  mem::Buffer b = mem::Buffer::host(512);
  for (const std::uint8_t v : b.view<std::uint8_t>()) EXPECT_EQ(v, 0u);
}

TEST(Buffer, DeviceRoundTripPreservesBytes) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::Buffer b = mem::Buffer::host(1024);
  auto s = b.view<std::uint32_t>();
  std::iota(s.begin(), s.end(), 7u);

  ASSERT_TRUE(b.to_device(dm.device(0)).ok());
  EXPECT_EQ(b.placement(), mem::Placement::kDevice);
  EXPECT_EQ(b.device(), &dm.device(0));
  // Simulated device memory is host-reachable: the view still reads true.
  EXPECT_EQ(b.view<std::uint32_t>()[3], 10u);

  ASSERT_TRUE(b.to_host().ok());
  EXPECT_EQ(b.placement(), mem::Placement::kHost);
  EXPECT_EQ(b.device(), nullptr);
  auto r = b.view<std::uint32_t>();
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], 7u + i);

  const mem::TransferCounters t = b.transfers();
  EXPECT_EQ(t.h2d_count, 1u);
  EXPECT_EQ(t.h2d_bytes, 1024u);
  EXPECT_EQ(t.d2h_count, 1u);
  EXPECT_EQ(t.d2h_bytes, 1024u);
}

TEST(Buffer, TransitionsAreIdempotent) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::Buffer b = mem::Buffer::host(256);
  ASSERT_TRUE(b.to_host().ok());  // host -> host: no-op
  EXPECT_EQ(b.transfers().d2h_count, 0u);
  ASSERT_TRUE(b.to_device(dm.device(0)).ok());
  ASSERT_TRUE(b.to_device(dm.device(0)).ok());  // already there: no-op
  EXPECT_EQ(b.transfers().h2d_count, 1u);
}

TEST(Buffer, CopiedHandlesShareStorageAndObserveMoves) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::Buffer a = mem::Buffer::host(128);
  mem::Buffer b = a;  // O(1) handle copy
  EXPECT_EQ(a.use_count(), 2);
  ASSERT_TRUE(a.to_device(dm.device(0)).ok());
  EXPECT_EQ(b.placement(), mem::Placement::kDevice);
  EXPECT_EQ(b.data(), a.data());
}

TEST(Buffer, TransfersRecordTimelineEventsAndLedger) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::reset_transfer_ledger();
  mem::Buffer b = mem::Buffer::host(2048);
  ASSERT_TRUE(b.to_device(dm.device(0)).ok());
  ASSERT_TRUE(b.to_host().ok());

  const auto h2d = dm.timeline().snapshot(prof::EventKind::kMemcpyH2D);
  const auto d2h = dm.timeline().snapshot(prof::EventKind::kMemcpyD2H);
  ASSERT_EQ(h2d.size(), 1u);
  ASSERT_EQ(d2h.size(), 1u);
  EXPECT_DOUBLE_EQ(h2d[0].counters.at("bytes"), 2048.0);
  EXPECT_DOUBLE_EQ(d2h[0].counters.at("bytes"), 2048.0);
  EXPECT_GT(h2d[0].duration_s, 0.0);

  const mem::TransferCounters ledger = mem::transfer_ledger();
  EXPECT_EQ(ledger.h2d_count, 1u);
  EXPECT_EQ(ledger.h2d_bytes, 2048u);
  EXPECT_EQ(ledger.d2h_count, 1u);
  EXPECT_EQ(ledger.d2h_bytes, 2048u);
}

TEST(Buffer, PinnedFlagSticksAcrossRoundTripsAndClones) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::Buffer b = mem::Buffer::host_pinned(512);
  EXPECT_TRUE(b.pinned());
  EXPECT_EQ(b.placement(), mem::Placement::kHost);
  for (const std::uint8_t v : b.view<std::uint8_t>()) ASSERT_EQ(v, 0u);

  ASSERT_TRUE(b.to_device(dm.device(0)).ok());
  EXPECT_TRUE(b.pinned());  // property lives on the storage, not the side
  ASSERT_TRUE(b.to_host().ok());
  EXPECT_TRUE(b.pinned());

  EXPECT_TRUE(b.clone().pinned());
  EXPECT_FALSE(mem::Buffer::host(512).pinned());
  EXPECT_FALSE(mem::Buffer().pinned());
}

TEST(Buffer, PinnedTransfersAreFasterAndLedgeredSeparately) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());  // 1 GB/s PCIe
  mem::reset_transfer_ledger();
  constexpr std::size_t kBytes = 2u << 20;

  mem::Buffer pageable = mem::Buffer::host(kBytes);
  mem::Buffer pinned = mem::Buffer::host_pinned(kBytes);
  ASSERT_TRUE(pageable.to_device(dm.device(0)).ok());
  ASSERT_TRUE(pinned.to_device(dm.device(0)).ok());

  const auto h2d = dm.timeline().snapshot(prof::EventKind::kMemcpyH2D);
  ASSERT_EQ(h2d.size(), 2u);
  // Same bytes, same bus — the pageable copy pays the staging discount.
  EXPECT_GT(h2d[0].duration_s, h2d[1].duration_s);
  EXPECT_NEAR(h2d[0].duration_s / h2d[1].duration_s, 1.0 / 0.55, 0.1);

  const mem::TransferCounters ledger = mem::transfer_ledger();
  EXPECT_EQ(ledger.h2d_bytes, 2 * kBytes);
  EXPECT_EQ(ledger.h2d_pinned_bytes, kBytes);  // only the pinned buffer's
  EXPECT_EQ(pinned.transfers().h2d_pinned_bytes, kBytes);
  EXPECT_EQ(pageable.transfers().h2d_pinned_bytes, 0u);

  ASSERT_TRUE(pinned.to_host().ok());
  EXPECT_EQ(mem::transfer_ledger().d2h_pinned_bytes, kBytes);
}

TEST(Buffer, DeviceOomFailsAndLeavesHostCopyIntact) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());  // 64 MiB device
  const std::size_t bytes = (64ull << 20) + 4096;    // just over capacity
  mem::Buffer b = mem::Buffer::host(bytes, /*zero=*/false);
  b.view<std::uint8_t>()[0] = 42;
  b.view<std::uint8_t>()[bytes - 1] = 24;

  const Status s = b.to_device(dm.device(0));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(b.placement(), mem::Placement::kHost);
  EXPECT_EQ(b.view<std::uint8_t>()[0], 42u);
  EXPECT_EQ(b.view<std::uint8_t>()[bytes - 1], 24u);
  EXPECT_EQ(b.transfers().h2d_count, 0u);
}

TEST(Buffer, ManagedPrefetchAccountsWithoutMoving) {
  gpu::DeviceManager dm(2, gpu::spec::test_tiny());
  Expected<mem::Buffer> mb = mem::Buffer::managed(dm.device(0), 4096);
  ASSERT_TRUE(mb);
  mem::Buffer b = *std::move(mb);
  EXPECT_EQ(b.placement(), mem::Placement::kManaged);
  for (const std::uint8_t v : b.view<std::uint8_t>()) ASSERT_EQ(v, 0u);

  void* before = b.data();
  ASSERT_TRUE(b.to_device(dm.device(0)).ok());  // prefetch to device
  EXPECT_EQ(b.data(), before);                  // residency moved, bytes not
  EXPECT_EQ(b.placement(), mem::Placement::kManaged);
  EXPECT_EQ(b.transfers().h2d_count, 1u);
  ASSERT_TRUE(b.to_host().ok());
  EXPECT_EQ(b.transfers().d2h_count, 1u);
  // A managed buffer belongs to its device; prefetching it to another fails.
  const Status s = b.to_device(dm.device(1));
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
}

// --- unified memory ----------------------------------------------------------

namespace {

constexpr std::size_t kPage = mem::Buffer::kManagedPageBytes;

/// The events named @p name on @p dm's timeline.
std::vector<prof::TraceEvent> events_named(gpu::DeviceManager& dm,
                                           const std::string& name) {
  std::vector<prof::TraceEvent> out;
  for (auto& e : dm.timeline().snapshot())
    if (e.name == name) out.push_back(std::move(e));
  return out;
}

}  // namespace

TEST(UnifiedMemory, PagesStartHostResident) {
  gpu::DeviceManager dm(1, gpu::spec::t4());
  mem::Buffer buf = mem::Buffer::managed(dm.device(0), 2 * kPage).value();
  EXPECT_EQ(buf.device_resident_pages(), 0u);
  ASSERT_TRUE(buf.to_device(dm.device(0)).ok());
  EXPECT_EQ(buf.device_resident_pages(), 2u);
}

TEST(UnifiedMemory, DemandFaultMigratesTouchedPagesOnly) {
  gpu::DeviceManager dm(1, gpu::spec::t4());
  mem::Buffer buf = mem::Buffer::managed(dm.device(0), 8 * kPage).value();
  // Touch the first 1 MiB: one page.
  ASSERT_TRUE(buf.fault_to_device(0, 1u << 20).ok());
  EXPECT_EQ(buf.device_resident_pages(), 1u);
  auto faults = events_named(dm, "um_fault_h2d");
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].counters.at("pages"), 1.0);
  EXPECT_EQ(faults[0].counters.at("bytes"), static_cast<double>(kPage));
  EXPECT_EQ(buf.transfers().h2d_bytes, kPage);
  // Touching it again is free.
  ASSERT_TRUE(buf.fault_to_device(0, 1u << 20).ok());
  EXPECT_EQ(events_named(dm, "um_fault_h2d").size(), 1u);
  EXPECT_EQ(buf.transfers().h2d_count, 1u);
}

TEST(UnifiedMemory, PrefetchMovesEverythingInOneTransfer) {
  gpu::DeviceManager dm(1, gpu::spec::t4());
  mem::Buffer buf = mem::Buffer::managed(dm.device(0), 8 * kPage).value();
  ASSERT_TRUE(buf.to_device(dm.device(0)).ok());
  EXPECT_EQ(buf.device_resident_pages(), 8u);
  EXPECT_TRUE(events_named(dm, "um_fault_h2d").empty());  // no demand faults
  const auto h2d = dm.timeline().snapshot(prof::EventKind::kMemcpyH2D);
  ASSERT_EQ(h2d.size(), 1u);
  EXPECT_EQ(h2d.back().name, "um_prefetch_h2d");
  EXPECT_EQ(h2d.back().counters.at("pages"), 8.0);
  // Prefetching a resident buffer again moves nothing and costs nothing.
  const double t = dm.device(0).stream_time(0);
  ASSERT_TRUE(buf.to_device(dm.device(0)).ok());
  EXPECT_EQ(dm.device(0).stream_time(0), t);
  EXPECT_EQ(buf.transfers().h2d_count, 1u);
}

TEST(UnifiedMemory, DemandPagingCostsMoreThanPrefetch) {
  gpu::DeviceManager dm1(1, gpu::spec::t4());
  mem::Buffer faulty = mem::Buffer::managed(dm1.device(0), 64u << 20).value();
  const double t1 = dm1.device(0).stream_time(0);
  ASSERT_TRUE(faulty.fault_to_device(0, faulty.size_bytes()).ok());
  const double fault_time = dm1.device(0).stream_time(0) - t1;

  gpu::DeviceManager dm2(1, gpu::spec::t4());
  mem::Buffer prefetched =
      mem::Buffer::managed(dm2.device(0), 64u << 20).value();
  const double t2 = dm2.device(0).stream_time(0);
  ASSERT_TRUE(prefetched.to_device(dm2.device(0)).ok());
  const double prefetch_time = dm2.device(0).stream_time(0) - t2;

  EXPECT_GT(fault_time, 1.5 * prefetch_time);  // fault latency dominates
}

TEST(UnifiedMemory, RoundTripMigration) {
  gpu::DeviceManager dm(1, gpu::spec::t4());
  mem::Buffer buf = mem::Buffer::managed(dm.device(0), 2 * kPage).value();
  ASSERT_TRUE(buf.to_device(dm.device(0)).ok());
  EXPECT_EQ(buf.device_resident_pages(), 2u);
  ASSERT_TRUE(buf.to_host().ok());
  EXPECT_EQ(buf.device_resident_pages(), 0u);
  EXPECT_EQ(buf.transfers().d2h_bytes, 2 * kPage);
  // Data is real memory throughout.
  buf.view<float>()[12345] = 7.5f;
  EXPECT_FLOAT_EQ(buf.view<float>()[12345], 7.5f);
}

TEST(UnifiedMemory, ValidatesRanges) {
  gpu::DeviceManager dm(1, gpu::spec::t4());
  mem::Buffer buf = mem::Buffer::managed(dm.device(0), 4096).value();
  EXPECT_EQ(buf.fault_to_device(0, 1 << 20).code(), ErrorCode::kOutOfRange);
  // offset + length wraps around; the check must not.
  EXPECT_EQ(buf.fault_to_device(1, SIZE_MAX).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(buf.fault_to_device(99 * kPage, 1).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(buf.device_resident_pages(), 0u);
  ASSERT_TRUE(buf.fault_to_device(4096, 0).ok());  // empty range at the end
  EXPECT_EQ(mem::Buffer::managed(dm.device(0), 0).status().code(),
            ErrorCode::kInvalidArgument);
  mem::Buffer host = mem::Buffer::host(4096);
  EXPECT_EQ(host.fault_to_device(0, 4096).code(),
            ErrorCode::kFailedPrecondition);
}

TEST(UnifiedMemory, CountsAgainstDeviceCapacity) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());  // 64 MiB
  EXPECT_EQ(mem::Buffer::managed(dm.device(0), 128u << 20).status().code(),
            ErrorCode::kResourceExhausted);
}

TEST(Buffer, CloneIsDeepAndStartsFreshCounters) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::Buffer a = mem::Buffer::host(64);
  a.view<float>()[0] = 3.5f;
  ASSERT_TRUE(a.to_device(dm.device(0)).ok());

  mem::Buffer c = a.clone();
  EXPECT_EQ(c.placement(), mem::Placement::kDevice);
  EXPECT_NE(c.data(), a.data());
  EXPECT_FLOAT_EQ(c.view<float>()[0], 3.5f);
  EXPECT_EQ(c.transfers().h2d_count, 0u);
  c.view<float>()[0] = -1.0f;
  EXPECT_FLOAT_EQ(a.view<float>()[0], 3.5f);  // original untouched
}

TEST(Buffer, HostCloneDownloadsWithAccounting) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::Buffer a = mem::Buffer::host(64);
  a.view<float>()[1] = 9.0f;
  ASSERT_TRUE(a.to_device(dm.device(0)).ok());

  mem::Buffer h = a.host_clone();
  EXPECT_EQ(h.placement(), mem::Placement::kHost);
  EXPECT_FLOAT_EQ(h.view<float>()[1], 9.0f);
  EXPECT_EQ(a.placement(), mem::Placement::kDevice);  // source untouched
  EXPECT_EQ(a.transfers().d2h_count, 1u);  // snapshot charged to the source
}

TEST(Buffer, UploadDownloadRequireExactSize) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::Buffer b = mem::Buffer::host(16);
  float out[4] = {};
  EXPECT_EQ(b.download(out, 8).code(), ErrorCode::kInvalidArgument);
  const float in[4] = {1, 2, 3, 4};
  EXPECT_EQ(b.upload(in, 8).code(), ErrorCode::kInvalidArgument);
  ASSERT_TRUE(b.upload(in, 16).ok());
  ASSERT_TRUE(b.to_device(dm.device(0)).ok());
  ASSERT_TRUE(b.download(out, 16).ok());
  EXPECT_FLOAT_EQ(out[3], 4.0f);
  EXPECT_EQ(b.transfers().d2h_count, 1u);
}

// --- TypedBuffer --------------------------------------------------------------

TEST(TypedBuffer, VectorSemantics) {
  mem::TypedBuffer<int> a(std::vector<int>{1, 2, 3});
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2], 3);

  mem::TypedBuffer<int> b = a;  // deep copy
  b[0] = 99;
  EXPECT_EQ(a[0], 1);

  mem::TypedBuffer<int> c = std::move(b);
  EXPECT_EQ(c[0], 99);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move): moved-from spec
  EXPECT_EQ(b.data(), nullptr);

  mem::TypedBuffer<double> z(std::size_t{5});
  for (double v : z) EXPECT_EQ(v, 0.0);
}

TEST(TypedBuffer, RoundTripRefreshesDataPointer) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::TypedBuffer<float> t(std::vector<float>{1.0f, 2.0f, 4.0f});
  const float* host_ptr = t.data();
  ASSERT_TRUE(t.to_device(dm.device(0)).ok());
  EXPECT_NE(t.data(), host_ptr);  // storage moved, cached pointer followed
  EXPECT_EQ(t.placement(), mem::Placement::kDevice);
  EXPECT_FLOAT_EQ(t[2], 4.0f);
  ASSERT_TRUE(t.to_host().ok());
  EXPECT_FLOAT_EQ(t.span()[1], 2.0f);
}

TEST(TypedBuffer, HostCopySnapshotsDeviceContents) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::TypedBuffer<float> t(std::vector<float>{5.0f, 6.0f});
  ASSERT_TRUE(t.to_device(dm.device(0)).ok());
  const mem::TypedBuffer<float> h = t.host_copy();
  EXPECT_EQ(h.placement(), mem::Placement::kHost);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_FLOAT_EQ(h[1], 6.0f);
  EXPECT_EQ(t.placement(), mem::Placement::kDevice);
}

// --- device pool integration --------------------------------------------------

TEST(DevicePool, StableHitRateAfterWarmup) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  auto& pool = mem::device_pool(dm.device(0));
  // Warm one allocation of each size this loop uses.
  {
    auto a = mem::Buffer::on_device(dm.device(0), 1024);
    auto b = mem::Buffer::on_device(dm.device(0), 4096);
    ASSERT_TRUE(a && b);
  }
  pool.reset_stats();
  for (int i = 0; i < 50; ++i) {
    auto a = mem::Buffer::on_device(dm.device(0), 1024);
    auto b = mem::Buffer::on_device(dm.device(0), 4096);
    ASSERT_TRUE(a && b);
  }
  const mem::PoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hits, 100u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 1.0);
}

TEST(DevicePool, FreshDevicesGetFreshPools) {
  // Two managers in sequence: the second device's pool must not try to
  // recycle blocks belonging to the first (dead) DeviceMemory.
  std::uint64_t first_id = 0;
  {
    gpu::DeviceManager dm(1, gpu::spec::test_tiny());
    first_id = dm.device(0).memory().id();
    auto b = mem::Buffer::on_device(dm.device(0), 2048);
    ASSERT_TRUE(b);
    EXPECT_TRUE(gpu::DeviceMemory::alive(first_id));
  }
  EXPECT_FALSE(gpu::DeviceMemory::alive(first_id));
  gpu::DeviceManager dm2(1, gpu::spec::test_tiny());
  EXPECT_NE(dm2.device(0).memory().id(), first_id);
  auto b = mem::Buffer::on_device(dm2.device(0), 2048);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->view<std::uint8_t>().size(), 2048u);
}

TEST(DevicePool, DeadDevicesLeaveTheResidencyGauge) {
  // A device pool outlives its device.  Once the device is gone, the bytes
  // its pool cached or handed out must leave the process gauge; otherwise
  // every repetition that builds a fresh device raises the floor the peak
  // is re-armed to.
  mem::reset_process_peak_resident_bytes();
  const std::uint64_t before = mem::process_resident_bytes();
  std::optional<mem::Buffer> survivor;
  {
    gpu::DeviceManager dm(1, gpu::spec::test_tiny());
    ASSERT_TRUE(mem::Buffer::on_device(dm.device(0), 2u << 20));  // cached
    survivor = mem::Buffer::on_device(dm.device(0), 1u << 20).value();
    EXPECT_EQ(mem::process_resident_bytes(), before + (3u << 20));
    EXPECT_NE(mem::pool_report().find("device0"), std::string::npos);
  }
  mem::reset_process_peak_resident_bytes();
  EXPECT_EQ(mem::process_resident_bytes(), before);
  EXPECT_EQ(mem::process_peak_resident_bytes(), before);
  EXPECT_EQ(mem::pool_report().find("device0"), std::string::npos);
  // The survivor's DeviceMemory is gone: its block is not returned twice.
  survivor.reset();
  EXPECT_EQ(mem::process_resident_bytes(), before);
}

TEST(Reports, TablesRenderWithoutCrashing) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  mem::Buffer b = mem::Buffer::host(256);
  ASSERT_TRUE(b.to_device(dm.device(0)).ok());
  const std::string pools = mem::pool_report();
  EXPECT_NE(pools.find("host"), std::string::npos);
  const std::string ledger = mem::ledger_report();
  EXPECT_NE(ledger.find("H2D"), std::string::npos);
}

// --- residency gauge ---------------------------------------------------------

TEST(Pool, LivePeakPersistsAfterFree) {
  FakeUpstream up;
  mem::Pool pool("peak", up.alloc_fn(), up.free_fn());
  Expected<void*> a = pool.allocate(1000);  // 1024-byte class
  Expected<void*> b = pool.allocate(1000);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(pool.stats().bytes_live, 2048u);
  EXPECT_EQ(pool.stats().bytes_live_peak, 2048u);
  pool.free(*a);
  pool.free(*b);
  // Live drops, the high-water mark does not: the peak records the worst
  // simultaneous footprint, which is what residency ceilings assert.
  EXPECT_EQ(pool.stats().bytes_live, 0u);
  EXPECT_EQ(pool.stats().bytes_live_peak, 2048u);
  // reset_stats keeps the gauge family; reset_peak re-arms to current live.
  pool.reset_stats();
  EXPECT_EQ(pool.stats().bytes_live_peak, 2048u);
  pool.reset_peak();
  EXPECT_EQ(pool.stats().bytes_live_peak, 0u);
}

TEST(Pool, ProcessResidentGaugeTracksFactoryPools) {
  // The process gauge only counts factory pools (host_pool/device_pool), so
  // drive the real host pool.  Flush first: cached blocks from earlier tests
  // would otherwise sit between the two readings.
  mem::flush_all_pools();
  const std::uint64_t before = mem::process_resident_bytes();
  mem::reset_process_peak_resident_bytes();
  EXPECT_EQ(mem::process_peak_resident_bytes(), before);

  Expected<void*> p = mem::host_pool().allocate(1 << 20);
  ASSERT_TRUE(p);
  EXPECT_GE(mem::process_resident_bytes(), before + (1u << 20));
  EXPECT_GE(mem::process_peak_resident_bytes(), before + (1u << 20));

  mem::host_pool().free(*p);
  // Cached, not returned upstream: resident stays up...
  EXPECT_GE(mem::process_resident_bytes(), before + (1u << 20));
  mem::flush_all_pools();
  // ...until a flush hands the block back.
  EXPECT_LE(mem::process_resident_bytes(), before);
  // The peak survives both the free and the flush.
  EXPECT_GE(mem::process_peak_resident_bytes(), before + (1u << 20));
}

TEST(Pool, PassThroughBlocksHitTheGaugeToo) {
  // Oversize allocations bypass the free lists but still occupy upstream
  // memory; the gauge must see them or ceilings under-count big tensors.
  mem::reset_process_peak_resident_bytes();
  const std::uint64_t before = mem::process_resident_bytes();
  const std::size_t big = mem::Pool::kMaxPooled + 1;
  Expected<void*> p = mem::host_pool().allocate(big);
  ASSERT_TRUE(p);
  EXPECT_GE(mem::process_resident_bytes(), before + big);
  mem::host_pool().free(*p);
  // Pass-through frees go straight upstream — resident returns to baseline.
  EXPECT_EQ(mem::process_resident_bytes(), before);
  EXPECT_GE(mem::process_peak_resident_bytes(), before + big);
}
