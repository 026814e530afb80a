// The unified data plane: untyped, alignment-aware, refcounted storage with
// an explicit Placement (host / device / managed) and zero-copy typed views.
//
// Every data container in the repo (tensor::Tensor, df::Column, graph CSR
// arrays, rl::ReplayBuffer arenas, rag index embeddings) stores its bytes in
// a Buffer, so the profiler and the simulated DeviceMemory see *all* of the
// data plane: placement transitions are explicit (`to_device` / `to_host`),
// every crossing of the PCIe bus is accounted (per-buffer counters plus a
// process-wide ledger plus prof::Timeline memcpy events), and allocation
// goes through mem::Pool so steady-state loops recycle blocks instead of
// hitting cudaMalloc per step.
//
// Copying a Buffer handle is O(1) and shares storage (shared_ptr semantics);
// placement transitions mutate the shared storage in place, so views created
// before a `to_device` observe the move.  Buffers are not internally
// synchronized — concurrent transitions on the same storage are a data race,
// like concurrent writes to a std::vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "prof/check.hpp"
#include "runtime/status.hpp"

namespace sagesim::gpu {
class Device;
}

namespace sagesim::mem {

/// Where a Buffer's bytes currently live.  Managed mirrors CUDA unified
/// memory: the allocation counts against device capacity and is reachable
/// from both sides, and each page is resident on the host or the device
/// (see to_device, to_host and fault_to_device); nothing reallocates.
enum class Placement : std::uint8_t { kHost = 0, kDevice = 1, kManaged = 2 };

const char* to_string(Placement p);

/// Monotonic transfer counters (H2D/D2H crossings and bytes).  The pinned
/// sub-counters track the share staged from/to pinned host memory — the
/// split the Week-3 pinned-vs-pageable lab plots.
struct TransferCounters {
  std::uint64_t h2d_count{0};
  std::uint64_t h2d_bytes{0};
  std::uint64_t d2h_count{0};
  std::uint64_t d2h_bytes{0};
  std::uint64_t h2d_pinned_bytes{0};
  std::uint64_t d2h_pinned_bytes{0};
};

/// Snapshot of the process-wide transfer ledger (every accounted H2D/D2H
/// across all buffers since start or the last reset).
TransferCounters transfer_ledger();
void reset_transfer_ledger();

/// One line per direction: count, MB, suitable for prof reports.
std::string ledger_report();

class Buffer {
 public:
  /// Alignment of host placements (device alignment follows DeviceMemory).
  static constexpr std::size_t kHostAlignment = 64;

  /// Residency granularity of managed buffers (CUDA's UM page on x86).
  static constexpr std::size_t kManagedPageBytes = std::size_t{2} << 20;

  /// Empty handle: no storage, size 0, host placement.
  Buffer() = default;

  /// Host-placed buffer of @p bytes from the host pool.  Zero-filled when
  /// @p zero (pool recycling hands back dirty blocks; callers that memcpy
  /// over the whole buffer immediately can skip the memset).
  /// bytes == 0 yields an empty handle.
  static Buffer host(std::size_t bytes, bool zero = true);

  /// Host-placed buffer whose memory is modeled as *pinned* (cudaHostAlloc
  /// semantics): transfers to and from it sustain full link bandwidth
  /// instead of the pageable-staging rate.  The pinned property sticks to
  /// the storage across to_device()/to_host() round trips and clones.
  static Buffer host_pinned(std::size_t bytes, bool zero = true);

  /// Device-placed buffer from @p device's pool; contents uninitialized
  /// (cudaMalloc semantics).  Fails with kResourceExhausted on OOM.
  static Expected<Buffer> on_device(gpu::Device& device, std::size_t bytes,
                                    int stream = 0);

  /// Managed (unified-memory) buffer: counts against @p device's capacity,
  /// host-reachable, zero-filled, every page host-resident.  Fails with
  /// kInvalidArgument for zero bytes and kResourceExhausted on OOM.
  static Expected<Buffer> managed(gpu::Device& device, std::size_t bytes);

  bool valid() const { return s_ != nullptr; }
  std::size_t size_bytes() const;
  Placement placement() const;

  /// True when the storage's host side is pinned (see host_pinned()).
  bool pinned() const;

  /// Owning device for device/managed placements, nullptr for host.
  gpu::Device* device() const;

  /// Number of Buffer handles sharing this storage (0 for empty handles).
  long use_count() const { return s_ ? s_.use_count() : 0; }

  void* data();
  const void* data() const;

  /// Zero-copy typed view over the whole buffer.  SAGESIM_CHECKs that the
  /// byte size is a multiple of sizeof(T).
  template <typename T>
  std::span<T> view() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Buffer views require trivially copyable element types");
    SAGESIM_CHECK(size_bytes() % sizeof(T) == 0);
    return {static_cast<T*>(data()), size_bytes() / sizeof(T)};
  }
  template <typename T>
  std::span<const T> view() const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Buffer views require trivially copyable element types");
    SAGESIM_CHECK(size_bytes() % sizeof(T) == 0);
    return {static_cast<const T*>(data()), size_bytes() / sizeof(T)};
  }

  /// Moves the storage to @p device (H2D, accounted + timed on @p stream).
  /// No-op when already there.  Device-to-device goes through the host
  /// (no P2P in the model).  On allocation failure returns
  /// kResourceExhausted and leaves the buffer — including a host copy —
  /// untouched.  Empty handles succeed trivially.  A managed buffer
  /// prefetches instead: its host-resident pages move in one transfer at
  /// pinned-link bandwidth (free when all are resident); another device is
  /// kFailedPrecondition.
  Status to_device(gpu::Device& device, int stream = 0);

  /// Moves the storage back to the host (D2H, accounted + timed).  A
  /// managed buffer prefetches its device-resident pages back.
  Status to_host(int stream = 0);

  /// Demand-migrates the managed pages overlapping [offset, offset+length)
  /// to the device, as a kernel touching them cold would: each host-resident
  /// page pays TimingModel::page_fault_seconds.  kOutOfRange when the range
  /// leaves the buffer, kFailedPrecondition when the buffer is not managed.
  Status fault_to_device(std::size_t offset, std::size_t length,
                         int stream = 0);

  /// Managed pages resident on the device (0 for other placements).
  std::size_t device_resident_pages() const;

  /// Deep copy with the same placement (device clones allocate on the same
  /// device and copy on-device; throws StatusError on OOM).  The clone's
  /// transfer counters start at zero.
  Buffer clone() const;

  /// Host-placed deep copy.  Device-resident sources are explicitly
  /// downloaded (accounted D2H) — the checkpoint snapshot path.
  Buffer host_clone(int stream = 0) const;

  /// Copies @p bytes from host memory @p src into the buffer (exact size
  /// required).  Accounted H2D when the buffer is device-placed.
  Status upload(const void* src, std::size_t bytes, int stream = 0);

  /// Copies the buffer into host memory @p dst (exact size required).
  /// Accounted D2H when the buffer is device-placed.
  Status download(void* dst, std::size_t bytes, int stream = 0) const;

  /// This storage's lifetime H2D/D2H counters (zeros for empty handles).
  TransferCounters transfers() const;

 private:
  struct Storage;
  explicit Buffer(std::shared_ptr<Storage> s) : s_(std::move(s)) {}

  std::shared_ptr<Storage> s_;
};

/// A typed, owning array over Buffer — the drop-in replacement for the
/// `std::vector<T>` members the data containers used to hold.  Copying is a
/// deep clone (vector semantics, placement preserved); moving is cheap.
template <typename T>
class TypedBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "TypedBuffer requires trivially copyable element types");

 public:
  TypedBuffer() = default;

  /// @p count zero-initialized elements on the host.
  explicit TypedBuffer(std::size_t count)
      : buf_(Buffer::host(count * sizeof(T))), count_(count) {
    refresh();
  }

  /// Takes the contents of @p values (host placement).
  explicit TypedBuffer(const std::vector<T>& values)
      : buf_(Buffer::host(values.size() * sizeof(T), /*zero=*/false)),
        count_(values.size()) {
    refresh();
    if (count_ != 0)
      buf_.upload(values.data(), count_ * sizeof(T)).throw_if_error();
  }

  TypedBuffer(const TypedBuffer& other)
      : buf_(other.buf_.clone()), count_(other.count_) {
    refresh();
  }
  TypedBuffer& operator=(const TypedBuffer& other) {
    if (this != &other) {
      buf_ = other.buf_.clone();
      count_ = other.count_;
      refresh();
    }
    return *this;
  }
  TypedBuffer(TypedBuffer&& other) noexcept
      : buf_(std::move(other.buf_)), count_(other.count_), ptr_(other.ptr_) {
    other.count_ = 0;
    other.ptr_ = nullptr;
  }
  TypedBuffer& operator=(TypedBuffer&& other) noexcept {
    if (this != &other) {
      buf_ = std::move(other.buf_);
      count_ = other.count_;
      ptr_ = other.ptr_;
      other.count_ = 0;
      other.ptr_ = nullptr;
    }
    return *this;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  T* data() { return ptr_; }
  const T* data() const { return ptr_; }
  T& operator[](std::size_t i) { return ptr_[i]; }
  const T& operator[](std::size_t i) const { return ptr_[i]; }
  T* begin() { return ptr_; }
  T* end() { return ptr_ + count_; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + count_; }

  std::span<T> span() { return {ptr_, count_}; }
  std::span<const T> span() const { return {ptr_, count_}; }

  Status to_device(gpu::Device& device, int stream = 0) {
    Status s = buf_.to_device(device, stream);
    refresh();
    return s;
  }
  Status to_host(int stream = 0) {
    Status s = buf_.to_host(stream);
    refresh();
    return s;
  }
  Placement placement() const { return buf_.placement(); }
  gpu::Device* device() const { return buf_.device(); }

  /// Host-placed deep copy (accounted D2H when device-resident).
  TypedBuffer host_copy(int stream = 0) const {
    TypedBuffer t;
    t.buf_ = buf_.host_clone(stream);
    t.count_ = count_;
    t.refresh();
    return t;
  }

  Buffer& buffer() { return buf_; }
  const Buffer& buffer() const { return buf_; }

 private:
  void refresh() { ptr_ = static_cast<T*>(buf_.valid() ? buf_.data() : nullptr); }

  Buffer buf_;
  std::size_t count_{0};
  T* ptr_{nullptr};
};

}  // namespace sagesim::mem
