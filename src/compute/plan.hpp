// What the host compute kernels share: the executor they fork/join on, the
// runtime ISA their micro-kernels dispatch on, and pooled packing scratch.
//
// Execution model (see DESIGN.md "Host kernels & autotuning"): every host
// kernel (tensor/gemm_host, graph/spmm) partitions its output and runs
// gpu::Executor::parallel_for over that partition on compute::executor().
// parallel_for is the one fork/join loop: the calling thread claims chunks
// alongside the helper tasks, so a kernel launched from inside a worker of
// the same pool (a core::Workflow stage) still completes on a 1-worker
// pool; the first exception is rethrown on the caller; and a
// grain collapses small ranges onto the calling thread, so tiny shapes
// never pay fork/join.
//
// Determinism: every output element is written by exactly one index of the
// partition, and each index folds its reduction in the kernel's canonical
// (ascending-k / ascending-edge) order.  Scheduling order can therefore
// never perturb result bits, at any worker count.
#pragma once

#include <cstddef>

#include "gpusim/executor.hpp"

namespace sagesim::compute {

/// The executor host kernels run on: gpu::Executor::shared() unless
/// overridden.  set_executor(nullptr) restores the shared pool.
/// The override exists for worker-count sweeps (tests, microbenches) —
/// swap in a private pool of exactly N workers without re-execing under a
/// different SAGESIM_WORKERS.  Not intended to be raced against in-flight
/// kernels.
gpu::Executor& executor();
void set_executor(gpu::Executor* ex);

/// Host ISA the kernel micro-kernels dispatch on, resolved once at runtime.
enum class Isa { kPortable, kAvx2 };
Isa isa();
/// "avx2" / "portable" — the string benches record so BENCH deltas are
/// attributable to the dispatch choice.
const char* isa_name();

/// RAII scratch block drawn from mem::host_pool() — a kernel's packing
/// buffers, recycled across launches by the pool's free lists instead of
/// hitting the host heap per launch.
class Scratch {
 public:
  explicit Scratch(std::size_t bytes);
  ~Scratch();
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  float* floats() { return static_cast<float*>(ptr_); }
  void* data() { return ptr_; }

 private:
  void* ptr_{nullptr};
};

}  // namespace sagesim::compute
