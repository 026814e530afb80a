#include "compute/plan.hpp"

#include <atomic>
#include <new>

#include "mem/pool.hpp"

namespace sagesim::compute {

namespace {

std::atomic<gpu::Executor*>& executor_slot() {
  static std::atomic<gpu::Executor*> slot{nullptr};
  return slot;
}

}  // namespace

gpu::Executor& executor() {
  gpu::Executor* ex = executor_slot().load(std::memory_order_acquire);
  return ex != nullptr ? *ex : gpu::Executor::shared();
}

void set_executor(gpu::Executor* ex) {
  executor_slot().store(ex, std::memory_order_release);
}

// --- ISA dispatch -----------------------------------------------------------

Isa isa() {
#if defined(__GNUC__) && defined(__x86_64__)
  static const Isa v =
      __builtin_cpu_supports("avx2") > 0 ? Isa::kAvx2 : Isa::kPortable;
  return v;
#else
  return Isa::kPortable;
#endif
}

const char* isa_name() { return isa() == Isa::kAvx2 ? "avx2" : "portable"; }

// --- pooled scratch ---------------------------------------------------------

Scratch::Scratch(std::size_t bytes) {
  if (bytes == 0) return;
  auto block = mem::host_pool().allocate(bytes);
  if (!block.has_value()) throw std::bad_alloc();
  ptr_ = block.value();
}

Scratch::~Scratch() {
  if (ptr_ != nullptr) mem::host_pool().free(ptr_);
}

}  // namespace sagesim::compute
