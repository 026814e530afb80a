#include "mem/pool.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <iomanip>
#include <new>
#include <sstream>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "gpusim/device.hpp"
#include "prof/check.hpp"

namespace sagesim::mem {

namespace {

/// Pools created through the host_pool()/device_pool() factories, for
/// pool_report() and flush_all_pools().  Factory pools are leaked by design
/// (buffers freed at static destruction time must still find them); a
/// retired device pool leaves the registry but is never deleted.
std::mutex g_registry_mutex;
std::vector<Pool*>& registry() {
  static std::vector<Pool*>* pools = new std::vector<Pool*>();
  return *pools;
}

void register_pool(Pool* pool) {
  std::lock_guard lock(g_registry_mutex);
  registry().push_back(pool);
}

// Process-wide residency gauge + high-water mark: bytes pools currently
// hold from their upstreams (live + cached).  Updated on every upstream
// allocate/free, never on pool hits — recycling a cached block does not
// change how much real memory the process occupies.
std::atomic<std::uint64_t> g_resident_bytes{0};
std::atomic<std::uint64_t> g_resident_peak_bytes{0};

void resident_add(std::uint64_t bytes) {
  const std::uint64_t now =
      g_resident_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = g_resident_peak_bytes.load(std::memory_order_relaxed);
  while (peak < now && !g_resident_peak_bytes.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void resident_sub(std::uint64_t bytes) {
  g_resident_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

/// Device pools by DeviceMemory id.  The mutex is taken before
/// g_registry_mutex; both are leaked like the pools.
struct DevicePools {
  std::mutex mutex;
  std::unordered_map<std::uint64_t, Pool*> by_mem_id;
};

DevicePools& device_pools() {
  static auto* pools = new DevicePools();
  return *pools;
}

/// Retires every pool whose DeviceMemory died: flushes it, takes its live
/// blocks (freed with the device) off the gauge, and drops it from the map
/// and the registry.  Caller holds device_pools().mutex.
void retire_dead_device_pools_locked() {
  std::erase_if(device_pools().by_mem_id, [](const auto& entry) {
    if (gpu::DeviceMemory::alive(entry.first)) return false;
    Pool* pool = entry.second;
    pool->flush();
    resident_sub(pool->stats().bytes_live);
    std::lock_guard lock(g_registry_mutex);
    std::erase(registry(), pool);
    return true;
  });
}

}  // namespace

std::uint64_t process_resident_bytes() {
  return g_resident_bytes.load(std::memory_order_relaxed);
}

std::uint64_t process_peak_resident_bytes() {
  return g_resident_peak_bytes.load(std::memory_order_relaxed);
}

void reset_process_peak_resident_bytes() {
  {
    std::lock_guard lock(device_pools().mutex);
    retire_dead_device_pools_locked();
  }
  g_resident_peak_bytes.store(g_resident_bytes.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
}

void flush_all_pools() {
  std::vector<Pool*> pools;
  {
    std::lock_guard lock(g_registry_mutex);
    pools = registry();
  }
  for (Pool* p : pools) p->flush();
}

Pool::Pool(std::string name, UpstreamAlloc upstream_alloc,
           UpstreamFree upstream_free, bool enabled)
    : name_(std::move(name)),
      upstream_alloc_(std::move(upstream_alloc)),
      upstream_free_(std::move(upstream_free)),
      enabled_(enabled) {
  if (!upstream_alloc_ || !upstream_free_)
    throw std::invalid_argument("Pool: upstream callbacks must not be null");
}

Pool::~Pool() { flush(); }

std::size_t Pool::size_class(std::size_t bytes) {
  if (bytes == 0 || bytes > kMaxPooled) return 0;
  return std::max(kMinClass, std::bit_ceil(bytes));
}

Expected<void*> Pool::upstream_allocate_locked(std::size_t bytes) {
  Expected<void*> p = upstream_alloc_(bytes);
  if (!p && !free_lists_.empty()) {
    // Cached blocks count against upstream capacity; give them back and
    // retry once before surfacing the failure.
    flush_locked();
    p = upstream_alloc_(bytes);
  }
  if (p) resident_add(bytes);
  return p;
}

void Pool::note_live_locked() {
  stats_.bytes_live_peak = std::max(stats_.bytes_live_peak, stats_.bytes_live);
}

Expected<void*> Pool::allocate(std::size_t bytes) {
  if (bytes == 0)
    return Status::invalid_argument("Pool::allocate: zero-byte request");
  std::lock_guard lock(mutex_);
  const std::size_t cls = enabled_ ? size_class(bytes) : 0;
  if (cls == 0) {
    Expected<void*> p = upstream_allocate_locked(bytes);
    if (!p) return p.status();
    ++stats_.pass_through;
    stats_.bytes_served += bytes;
    stats_.bytes_live += bytes;
    note_live_locked();
    live_.emplace(*p, Live{bytes, 0});
    return *p;
  }
  auto it = free_lists_.find(cls);
  if (it != free_lists_.end() && !it->second.empty()) {
    void* p = it->second.back();
    it->second.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(p, cls);
    ++stats_.hits;
    stats_.bytes_served += bytes;
    stats_.bytes_cached -= cls;
    stats_.bytes_live += cls;
    note_live_locked();
    live_.emplace(p, Live{cls, cls});
    return p;
  }
  Expected<void*> p = upstream_allocate_locked(cls);
  if (!p) return p.status();
  ++stats_.misses;
  stats_.bytes_served += bytes;
  stats_.bytes_live += cls;
  note_live_locked();
  live_.emplace(*p, Live{cls, cls});
  return *p;
}

void Pool::free(void* ptr) {
  if (ptr == nullptr) return;
  std::lock_guard lock(mutex_);
  auto it = live_.find(ptr);
  if (it == live_.end())
    throw std::invalid_argument("Pool::free: pointer not owned by pool '" +
                                name_ + "'");
  const Live info = it->second;
  live_.erase(it);
  stats_.bytes_live -= info.block_bytes;
  if (info.class_bytes == 0) {
    upstream_free_(ptr);
    resident_sub(info.block_bytes);
    return;
  }
  // The block stays mapped but belongs to no caller: under ASan a stale
  // pointer into it faults at the access instead of corrupting its next
  // owner.
  ASAN_POISON_MEMORY_REGION(ptr, info.class_bytes);
  free_lists_[info.class_bytes].push_back(ptr);
  stats_.bytes_cached += info.class_bytes;
}

void Pool::flush_locked() {
  for (auto& [cls, list] : free_lists_)
    for (void* p : list) {
      ASAN_UNPOISON_MEMORY_REGION(p, cls);
      upstream_free_(p);
      resident_sub(cls);
    }
  free_lists_.clear();
  stats_.bytes_cached = 0;
  ++stats_.flushes;
}

void Pool::flush() {
  std::lock_guard lock(mutex_);
  flush_locked();
}

PoolStats Pool::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void Pool::reset_stats() {
  std::lock_guard lock(mutex_);
  const std::uint64_t cached = stats_.bytes_cached;
  const std::uint64_t live = stats_.bytes_live;
  const std::uint64_t peak = stats_.bytes_live_peak;
  stats_ = PoolStats{};
  stats_.bytes_cached = cached;
  stats_.bytes_live = live;
  stats_.bytes_live_peak = peak;
}

void Pool::reset_peak() {
  std::lock_guard lock(mutex_);
  stats_.bytes_live_peak = stats_.bytes_live;
}

Pool& host_pool() {
  static Pool* pool = [] {
    auto* p = new Pool(
        "host",
        [](std::size_t bytes) -> Expected<void*> {
          return ::operator new(bytes, std::align_val_t{64});
        },
        [](void* ptr) { ::operator delete(ptr, std::align_val_t{64}); });
    register_pool(p);
    return p;
  }();
  return *pool;
}

Pool& device_pool(gpu::Device& device) {
  gpu::Device* dev = &device;
  const std::uint64_t mem_id = device.memory().id();
  DevicePools& pools = device_pools();
  std::lock_guard lock(pools.mutex);
  auto it = pools.by_mem_id.find(mem_id);
  if (it != pools.by_mem_id.end()) return *it->second;
  retire_dead_device_pools_locked();
  auto* p = new Pool(
      "device" + std::to_string(device.ordinal()),
      [dev](std::size_t bytes) -> Expected<void*> {
        Expected<void*> ptr = dev->memory().try_allocate(bytes);
        if (ptr)
          dev->charge("cudaMalloc", prof::EventKind::kApi,
                      dev->timing().api_overhead_seconds());
        return ptr;
      },
      [dev, mem_id](void* ptr) {
        // The pool outlives its device; blocks freed after the DeviceMemory
        // died were already released by its destructor.
        if (!gpu::DeviceMemory::alive(mem_id)) return;
        dev->memory().free(ptr);
        dev->charge("cudaFree", prof::EventKind::kApi,
                    dev->timing().api_overhead_seconds());
      });
  register_pool(p);
  pools.by_mem_id.emplace(mem_id, p);
  return *p;
}

std::string pool_report() {
  std::vector<Pool*> pools;
  {
    std::lock_guard lock(g_registry_mutex);
    pools = registry();
  }
  std::ostringstream os;
  os << "memory pools\n";
  os << "  " << std::left << std::setw(10) << "pool" << std::right
     << std::setw(10) << "hits" << std::setw(10) << "misses" << std::setw(9)
     << "hit%" << std::setw(12) << "served MB" << std::setw(12) << "cached MB"
     << std::setw(12) << "live MB" << std::setw(12) << "peak MB" << '\n';
  for (Pool* p : pools) {
    const PoolStats s = p->stats();
    os << "  " << std::left << std::setw(10) << p->name() << std::right
       << std::setw(10) << s.hits << std::setw(10) << s.misses << std::setw(8)
       << std::fixed << std::setprecision(1) << 100.0 * s.hit_rate() << '%'
       << std::setw(12) << std::setprecision(2)
       << static_cast<double>(s.bytes_served) / (1024.0 * 1024.0)
       << std::setw(12)
       << static_cast<double>(s.bytes_cached) / (1024.0 * 1024.0)
       << std::setw(12)
       << static_cast<double>(s.bytes_live) / (1024.0 * 1024.0)
       << std::setw(12)
       << static_cast<double>(s.bytes_live_peak) / (1024.0 * 1024.0) << '\n';
  }
  if (pools.empty()) os << "  (no pools created)\n";
  os << "  process resident " << std::fixed << std::setprecision(2)
     << static_cast<double>(process_resident_bytes()) / (1024.0 * 1024.0)
     << " MB, peak "
     << static_cast<double>(process_peak_resident_bytes()) / (1024.0 * 1024.0)
     << " MB\n";
  return os.str();
}

}  // namespace sagesim::mem
