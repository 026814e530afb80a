// Size-class pooling allocator fronting both the host heap and simulated
// gpusim::DeviceMemory.  Freed blocks are cached per power-of-two class and
// recycled, so steady-state training loops stop paying cudaMalloc/cudaFree
// (and host malloc) per step — the Week 3/4 lesson that allocation churn,
// not arithmetic, dominates naive GPU code.  Per-pool hit/miss/byte counters
// make the recycling visible and testable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/status.hpp"

namespace sagesim::gpu {
class Device;
}

namespace sagesim::mem {

/// Counter snapshot for one Pool.
struct PoolStats {
  std::uint64_t hits{0};          ///< requests served from a free list
  std::uint64_t misses{0};        ///< requests that went upstream
  std::uint64_t pass_through{0};  ///< oversize/disabled requests (not pooled)
  std::uint64_t flushes{0};       ///< free-list purges (explicit or OOM retry)
  std::uint64_t bytes_served{0};  ///< sum of requested bytes over all allocs
  std::uint64_t bytes_cached{0};  ///< bytes currently parked in free lists
  std::uint64_t bytes_live{0};    ///< bytes currently handed out to callers
  /// High-water mark of bytes_live since construction (or the last
  /// reset_peaks()) — the per-pool residency ceiling memory-budget tests
  /// assert against.  reset_stats() preserves it like the live/cached gauges.
  std::uint64_t bytes_live_peak{0};

  /// Fraction of *poolable* requests served without touching upstream.
  double hit_rate() const {
    const std::uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// A caching allocator over an arbitrary upstream (host heap or one device's
/// DeviceMemory).  Thread-safe.  Blocks are bucketed into power-of-two size
/// classes between kMinClass and kMaxPooled; larger requests pass straight
/// through to upstream.  When upstream allocation fails and the pool holds
/// cached blocks, the pool flushes them and retries once — mirroring the
/// "free your cache before declaring OOM" behavior of real caching
/// allocators (e.g. the CUDA async memory pool).
class Pool {
 public:
  using UpstreamAlloc = std::function<Expected<void*>(std::size_t)>;
  using UpstreamFree = std::function<void(void*)>;

  static constexpr std::size_t kMinClass = 64;
  static constexpr std::size_t kMaxPooled = std::size_t{1} << 26;  // 64 MiB

  /// @param enabled  when false every request passes through (still tracked,
  ///                 so free() works) — the unpooled baseline benches
  ///                 measure the pool against.
  Pool(std::string name, UpstreamAlloc upstream_alloc,
       UpstreamFree upstream_free, bool enabled = true);

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Returns cached blocks to upstream before dying.
  ~Pool();

  /// Rounds @p bytes up to its size class, or 0 when the request is not
  /// poolable (oversize).  Exposed for tests.
  static std::size_t size_class(std::size_t bytes);

  /// Allocates at least @p bytes.  Fails with kInvalidArgument for zero
  /// bytes and propagates upstream failure (kResourceExhausted for device
  /// OOM) after one flush-and-retry.
  Expected<void*> allocate(std::size_t bytes);

  /// Returns a block from allocate() to the pool (cached, not released).
  /// Throws std::invalid_argument for pointers this pool did not hand out.
  /// Under ASan a cached block is poisoned until allocate() reuses it, so a
  /// caller touching a block it already freed gets a use-after-poison report.
  void free(void* ptr);

  /// Releases every cached block to upstream.
  void flush();

  PoolStats stats() const;
  void reset_stats();

  /// Re-arms bytes_live_peak to the current bytes_live (scoping a memory
  /// ceiling to one phase of a run, e.g. "training after the graph was
  /// generated").  The process-wide peak has its own reset; see
  /// reset_process_peak_resident_bytes().
  void reset_peak();

  const std::string& name() const { return name_; }
  bool enabled() const { return enabled_; }

 private:
  struct Live {
    std::size_t block_bytes{0};  ///< size-class bytes, or raw size if 0 class
    std::size_t class_bytes{0};  ///< 0 for pass-through blocks
  };

  Expected<void*> upstream_allocate_locked(std::size_t bytes);
  void flush_locked();
  void note_live_locked();  ///< folds bytes_live into bytes_live_peak

  const std::string name_;
  const UpstreamAlloc upstream_alloc_;
  const UpstreamFree upstream_free_;
  const bool enabled_;

  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, std::vector<void*>> free_lists_;
  std::unordered_map<void*, Live> live_;
  PoolStats stats_;
};

/// Process-wide pool over the host heap (64-byte aligned).  Never destroyed.
Pool& host_pool();

/// The pool fronting @p device's DeviceMemory.  One pool per DeviceMemory
/// *instance* (keyed by its unique id, not its address), created on first
/// use.  Once its DeviceMemory dies, the next pool creation or
/// reset_process_peak_resident_bytes() retires it: its bytes leave the
/// resident gauge and its pool_report() row goes, but the object is never
/// deleted, so a pointer flush_all_pools() already copied stays valid.
/// Allocation misses charge cudaMalloc API time to the device's stream 0,
/// exactly like Device::device_malloc.
Pool& device_pool(gpu::Device& device);

/// Human-readable table of every pool created so far (host + per-device):
/// hits, misses, hit rate, cached/live/peak bytes.  Appended to prof
/// reports, with the process-wide resident gauge and high-water mark on the
/// last line.
std::string pool_report();

// --- process-wide residency accounting -------------------------------------
//
// Every byte a Pool holds from its upstream — live blocks handed to callers
// *plus* blocks parked in free lists (parked blocks still occupy real host
// or device memory) — is mirrored into one process-wide atomic gauge with a
// high-water mark.  This is the "did we ever materialize the full graph?"
// number: out-of-core ceiling tests assert the peak instead of re-deriving
// residency from transfer events.  Pool-less allocations (plain std::vector
// scratch) are invisible by design; the data plane (Buffer/TypedBuffer/
// Tensor) allocates exclusively through pools.

/// Bytes currently held from upstream across all pools (live + cached).
std::uint64_t process_resident_bytes();

/// High-water mark of process_resident_bytes() since process start or the
/// last reset_process_peak_resident_bytes().
std::uint64_t process_peak_resident_bytes();

/// Retires the pools of dead devices (see device_pool()), then re-arms the
/// process-wide peak to the current resident gauge.
void reset_process_peak_resident_bytes();

/// Flushes every registered factory pool's free lists back to upstream,
/// dropping the resident gauge to just-live bytes.  Residency ceiling tests
/// call this first so blocks cached by earlier work in the same process
/// don't inflate the floor the peak is measured from.
void flush_all_pools();

}  // namespace sagesim::mem
