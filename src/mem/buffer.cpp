#include "mem/buffer.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>

#include "gpusim/device.hpp"
#include "mem/pool.hpp"

namespace sagesim::mem {

namespace {

// Process-wide ledger; relaxed atomics (counters, not synchronization).
std::atomic<std::uint64_t> g_h2d_count{0};
std::atomic<std::uint64_t> g_h2d_bytes{0};
std::atomic<std::uint64_t> g_d2h_count{0};
std::atomic<std::uint64_t> g_d2h_bytes{0};
std::atomic<std::uint64_t> g_h2d_pinned_bytes{0};
std::atomic<std::uint64_t> g_d2h_pinned_bytes{0};

}  // namespace

const char* to_string(Placement p) {
  switch (p) {
    case Placement::kHost:
      return "host";
    case Placement::kDevice:
      return "device";
    case Placement::kManaged:
      return "managed";
  }
  return "?";
}

TransferCounters transfer_ledger() {
  TransferCounters c;
  c.h2d_count = g_h2d_count.load(std::memory_order_relaxed);
  c.h2d_bytes = g_h2d_bytes.load(std::memory_order_relaxed);
  c.d2h_count = g_d2h_count.load(std::memory_order_relaxed);
  c.d2h_bytes = g_d2h_bytes.load(std::memory_order_relaxed);
  c.h2d_pinned_bytes = g_h2d_pinned_bytes.load(std::memory_order_relaxed);
  c.d2h_pinned_bytes = g_d2h_pinned_bytes.load(std::memory_order_relaxed);
  return c;
}

void reset_transfer_ledger() {
  g_h2d_count.store(0, std::memory_order_relaxed);
  g_h2d_bytes.store(0, std::memory_order_relaxed);
  g_d2h_count.store(0, std::memory_order_relaxed);
  g_d2h_bytes.store(0, std::memory_order_relaxed);
  g_h2d_pinned_bytes.store(0, std::memory_order_relaxed);
  g_d2h_pinned_bytes.store(0, std::memory_order_relaxed);
}

std::string ledger_report() {
  const TransferCounters c = transfer_ledger();
  std::ostringstream os;
  os << "transfer ledger\n";
  os << "  H2D: " << c.h2d_count << " copies, "
     << static_cast<double>(c.h2d_bytes) / (1024.0 * 1024.0) << " MB ("
     << static_cast<double>(c.h2d_pinned_bytes) / (1024.0 * 1024.0)
     << " MB pinned)\n";
  os << "  D2H: " << c.d2h_count << " copies, "
     << static_cast<double>(c.d2h_bytes) / (1024.0 * 1024.0) << " MB ("
     << static_cast<double>(c.d2h_pinned_bytes) / (1024.0 * 1024.0)
     << " MB pinned)\n";
  return os.str();
}

struct Buffer::Storage {
  void* ptr{nullptr};
  std::size_t bytes{0};
  Placement placement{Placement::kHost};
  bool pinned{false};  ///< host side is pinned (cudaHostAlloc semantics)
  gpu::Device* device{nullptr};
  std::uint64_t device_mem_id{0};
  TransferCounters transfers;
  /// Managed placement only: per-page residency, true = on the device.
  std::vector<bool> device_pages;

  /// Moves managed pages [first, last] that are not yet on the side
  /// @p to_device names, then charges and accounts the moved bytes: one
  /// demand fault per page when @p fault, else one bulk prefetch.
  void migrate(std::size_t first, std::size_t last, bool to_device,
               bool fault, int stream);

  ~Storage() {
    if (ptr == nullptr) return;
    if (placement == Placement::kHost) {
      host_pool().free(ptr);
      return;
    }
    // Device/managed blocks whose DeviceMemory died were already reclaimed
    // wholesale by its destructor; freeing them again would be a bug.
    if (device != nullptr && gpu::DeviceMemory::alive(device_mem_id))
      device_pool(*device).free(ptr);
  }
};

namespace {

void bump_h2d(TransferCounters& t, std::size_t bytes, bool pinned = false) {
  ++t.h2d_count;
  t.h2d_bytes += bytes;
  if (pinned) {
    t.h2d_pinned_bytes += bytes;
    g_h2d_pinned_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  g_h2d_count.fetch_add(1, std::memory_order_relaxed);
  g_h2d_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void bump_d2h(TransferCounters& t, std::size_t bytes, bool pinned = false) {
  ++t.d2h_count;
  t.d2h_bytes += bytes;
  if (pinned) {
    t.d2h_pinned_bytes += bytes;
    g_d2h_pinned_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  g_d2h_count.fetch_add(1, std::memory_order_relaxed);
  g_d2h_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace

void Buffer::Storage::migrate(std::size_t first, std::size_t last,
                              bool to_device, bool fault, int stream) {
  std::size_t pages = 0;
  std::size_t moved = 0;
  for (std::size_t p = first; p <= last; ++p) {
    if (device_pages[p] == to_device) continue;
    device_pages[p] = to_device;
    ++pages;
    moved += std::min(kManagedPageBytes, bytes - p * kManagedPageBytes);
  }
  if (pages == 0) return;
  const gpu::TimingModel& timing = device->timing();
  // A fault moves whole pages; the migration engine DMAs a prefetch
  // directly, at pinned-path bandwidth.
  const double seconds =
      fault ? timing.page_fault_seconds(pages,
                                        std::min(kManagedPageBytes, bytes))
            : timing.transfer_seconds(moved, /*pinned=*/true);
  const char* name = fault       ? "um_fault_h2d"
                     : to_device ? "um_prefetch_h2d"
                                 : "um_prefetch_d2h";
  device->charge(name,
                 to_device ? prof::EventKind::kMemcpyH2D
                           : prof::EventKind::kMemcpyD2H,
                 seconds, stream,
                 {{"bytes", static_cast<double>(moved)},
                  {"pages", static_cast<double>(pages)}});
  if (to_device)
    bump_h2d(transfers, moved);
  else
    bump_d2h(transfers, moved);
}

Buffer Buffer::host(std::size_t bytes, bool zero) {
  if (bytes == 0) return Buffer{};
  Expected<void*> p = host_pool().allocate(bytes);
  p.status().throw_if_error();  // the host heap throws rather than failing
  auto s = std::make_shared<Storage>();
  s->ptr = *p;
  s->bytes = bytes;
  s->placement = Placement::kHost;
  if (zero) std::memset(s->ptr, 0, bytes);
  return Buffer(std::move(s));
}

Buffer Buffer::host_pinned(std::size_t bytes, bool zero) {
  Buffer b = host(bytes, zero);
  if (b.s_ != nullptr) b.s_->pinned = true;
  return b;
}

Expected<Buffer> Buffer::on_device(gpu::Device& device, std::size_t bytes,
                                   int stream) {
  (void)stream;
  if (bytes == 0) return Buffer{};
  Expected<void*> p = device_pool(device).allocate(bytes);
  if (!p) return p.status();
  auto s = std::make_shared<Storage>();
  s->ptr = *p;
  s->bytes = bytes;
  s->placement = Placement::kDevice;
  s->device = &device;
  s->device_mem_id = device.memory().id();
  return Buffer(std::move(s));
}

Expected<Buffer> Buffer::managed(gpu::Device& device, std::size_t bytes) {
  if (bytes == 0)
    return Status::invalid_argument("Buffer::managed: zero-byte request");
  Expected<Buffer> b = on_device(device, bytes);
  if (!b) return b;
  Storage& s = *b->s_;
  s.placement = Placement::kManaged;
  s.device_pages.assign((bytes + kManagedPageBytes - 1) / kManagedPageBytes,
                        false);
  std::memset(s.ptr, 0, bytes);
  return b;
}

std::size_t Buffer::size_bytes() const { return s_ ? s_->bytes : 0; }

Placement Buffer::placement() const {
  return s_ ? s_->placement : Placement::kHost;
}

bool Buffer::pinned() const { return s_ ? s_->pinned : false; }

gpu::Device* Buffer::device() const { return s_ ? s_->device : nullptr; }

void* Buffer::data() { return s_ ? s_->ptr : nullptr; }
const void* Buffer::data() const { return s_ ? s_->ptr : nullptr; }

Status Buffer::to_device(gpu::Device& device, int stream) {
  if (!s_ || s_->bytes == 0) return {};
  Storage& s = *s_;
  if (s.placement == Placement::kManaged) {
    if (s.device != &device)
      return Status::failed_precondition(
          "Buffer::to_device: managed buffer belongs to device " +
          std::to_string(s.device->ordinal()));
    // Unified-memory prefetch: residency moves, the allocation does not.
    s.migrate(0, s.device_pages.size() - 1, /*to_device=*/true,
              /*fault=*/false, stream);
    return {};
  }
  if (s.placement == Placement::kDevice) {
    if (s.device == &device) return {};
    // No P2P in the model: cross-device moves stage through the host.
    if (Status st = to_host(stream); !st.ok()) return st;
  }
  Expected<void*> p = device_pool(device).allocate(s.bytes);
  if (!p) return p.status();  // host copy stays valid and untouched
  device.copy_h2d(*p, s.ptr, s.bytes, stream, s.pinned);
  bump_h2d(s.transfers, s.bytes, s.pinned);
  host_pool().free(s.ptr);
  s.ptr = *p;
  s.placement = Placement::kDevice;
  s.device = &device;
  s.device_mem_id = device.memory().id();
  return {};
}

Status Buffer::to_host(int stream) {
  if (!s_ || s_->bytes == 0) return {};
  Storage& s = *s_;
  if (s.placement == Placement::kHost) return {};
  if (s.placement == Placement::kManaged) {
    s.migrate(0, s.device_pages.size() - 1, /*to_device=*/false,
              /*fault=*/false, stream);
    return {};
  }
  Expected<void*> hp = host_pool().allocate(s.bytes);
  hp.status().throw_if_error();
  // Landing in the buffer's own (possibly pinned) host block.
  s.device->copy_d2h(*hp, s.ptr, s.bytes, stream, s.pinned);
  bump_d2h(s.transfers, s.bytes, s.pinned);
  device_pool(*s.device).free(s.ptr);
  s.ptr = *hp;
  s.placement = Placement::kHost;
  s.device = nullptr;
  s.device_mem_id = 0;
  return {};
}

Buffer Buffer::clone() const {
  if (!s_) return Buffer{};
  const Storage& s = *s_;
  switch (s.placement) {
    case Placement::kHost: {
      Buffer b = s.pinned ? host_pinned(s.bytes, /*zero=*/false)
                          : host(s.bytes, /*zero=*/false);
      if (s.bytes != 0) std::memcpy(b.s_->ptr, s.ptr, s.bytes);
      return b;
    }
    case Placement::kDevice: {
      Expected<Buffer> b = on_device(*s.device, s.bytes);
      b.status().throw_if_error();
      b->s_->pinned = s.pinned;  // survives a later to_host round trip
      s.device->copy_d2d(b->s_->ptr, s.ptr, s.bytes);
      return *std::move(b);
    }
    case Placement::kManaged: {
      Expected<Buffer> b = managed(*s.device, s.bytes);
      b.status().throw_if_error();
      std::memcpy(b->s_->ptr, s.ptr, s.bytes);
      return *std::move(b);
    }
  }
  return Buffer{};
}

Buffer Buffer::host_clone(int stream) const {
  if (!s_) return Buffer{};
  const Storage& s = *s_;
  Buffer b = host(s.bytes, /*zero=*/false);
  if (s.bytes == 0) return b;
  if (s.placement == Placement::kHost) {
    std::memcpy(b.s_->ptr, s.ptr, s.bytes);
  } else {
    // Explicit, accounted snapshot — the checkpoint path.
    s.device->copy_d2h(b.s_->ptr, s.ptr, s.bytes, stream);
    bump_d2h(s_->transfers, s.bytes);
  }
  return b;
}

Status Buffer::upload(const void* src, std::size_t bytes, int stream) {
  if (bytes != size_bytes())
    return Status::invalid_argument("Buffer::upload: size mismatch");
  if (bytes == 0) return {};
  Storage& s = *s_;
  if (s.placement == Placement::kDevice) {
    s.device->copy_h2d(s.ptr, src, bytes, stream);
    bump_h2d(s.transfers, bytes);
  } else {
    std::memcpy(s.ptr, src, bytes);
  }
  return {};
}

Status Buffer::download(void* dst, std::size_t bytes, int stream) const {
  if (bytes != size_bytes())
    return Status::invalid_argument("Buffer::download: size mismatch");
  if (bytes == 0) return {};
  const Storage& s = *s_;
  if (s.placement == Placement::kDevice) {
    s.device->copy_d2h(dst, s.ptr, bytes, stream);
    bump_d2h(s_->transfers, bytes);
  } else {
    std::memcpy(dst, s.ptr, bytes);
  }
  return {};
}

Status Buffer::fault_to_device(std::size_t offset, std::size_t length,
                               int stream) {
  if (placement() != Placement::kManaged)
    return Status::failed_precondition(
        "Buffer::fault_to_device: only managed buffers fault");
  Storage& s = *s_;
  if (offset > s.bytes || length > s.bytes - offset)
    return Status::out_of_range("Buffer::fault_to_device: range leaves the " +
                                std::to_string(s.bytes) + "-byte buffer");
  if (length == 0) return {};
  s.migrate(offset / kManagedPageBytes,
            (offset + length - 1) / kManagedPageBytes, /*to_device=*/true,
            /*fault=*/true, stream);
  return {};
}

std::size_t Buffer::device_resident_pages() const {
  if (!s_) return 0;
  return static_cast<std::size_t>(
      std::count(s_->device_pages.begin(), s_->device_pages.end(), true));
}

TransferCounters Buffer::transfers() const {
  return s_ ? s_->transfers : TransferCounters{};
}

}  // namespace sagesim::mem
