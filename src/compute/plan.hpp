// Kernel-plan layer: the one way to launch a host compute kernel.
//
// A compute::Plan describes a macro-tile decomposition as a small task
// graph — pack tasks feeding tile tasks, each node an opaque callable with
// explicit dependencies — and compute::run executes it on the work-stealing
// runtime.  The kernel layers (tensor/gemm_host, graph/spmm) build plans;
// they never talk to the scheduler directly anymore.
//
// Execution model (see DESIGN.md "Compute plans & autotuning"):
//
//  * Dependency-counted: a node becomes ready only when every dependency
//    has finished; workers never block on dependencies.
//  * Caller-participating: ready nodes go into a shared claim pool that
//    helper tasks on compute::executor() *and the calling thread* drain.
//    Caller participation is what makes plan execution safe to launch from
//    inside a pool worker (a nested plan still completes on a 1-worker
//    pool — the same property gpusim::Executor::parallel_for has).
//  * Cancellation-safe: the first node that throws aborts the plan — nodes
//    claimed afterwards complete without running their body, dependents
//    drain, and the exception is rethrown on the calling thread once every
//    node has reached a terminal state.
//  * Min-grain: RunOptions::min_grain is the minimum number of nodes per
//    worker below which the plan runs serially on the calling thread
//    (topological index order), so tiny shapes never pay fork/join.
//
// Determinism: a plan partitions output elements across nodes — every
// element is written by exactly one node, and each node folds its
// reduction in the kernel's canonical (ascending-k / ascending-edge)
// order.  Scheduling order can therefore never perturb result bits, at
// any worker count.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "gpusim/executor.hpp"
#include "runtime/status.hpp"

namespace sagesim::compute {

/// One node of a plan.  `deps` are indices of previously added nodes
/// (topological order is enforced at add time).
struct PlanNode {
  std::function<void()> fn;
  std::vector<std::size_t> deps;
};

/// A macro-tile decomposition: an immutable-once-run task graph.
class Plan {
 public:
  explicit Plan(std::string name = "plan") : name_(std::move(name)) {}

  /// Adds a node depending on @p deps (all must index earlier nodes —
  /// throws std::invalid_argument otherwise, which also rules out cycles).
  /// Returns the node's index for use in later deps.
  std::size_t add(std::function<void()> fn, std::vector<std::size_t> deps = {});

  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  const std::string& name() const { return name_; }
  const std::vector<PlanNode>& nodes() const { return nodes_; }

 private:
  std::string name_;
  std::vector<PlanNode> nodes_;
};

struct RunOptions {
  /// Minimum nodes per worker before going parallel: with fewer than
  /// 2 * min_grain nodes (or a 1-worker pool) the plan runs serially on the
  /// calling thread.
  std::size_t min_grain{1};
};

/// Executes @p plan to completion on compute::executor(); rethrows the
/// first node exception after every node has reached a terminal state.
void run(const Plan& plan, const RunOptions& options = {});

/// The executor kernel plans run on by default: gpu::Executor::shared()
/// unless overridden.  set_executor(nullptr) restores the shared pool.
/// The override exists for worker-count sweeps (tests, microbenches) —
/// swap in a private pool of exactly N workers without re-execing under a
/// different SAGESIM_WORKERS.  Not intended to be raced against in-flight
/// plans.
gpu::Executor& executor();
void set_executor(gpu::Executor* ex);

/// Host ISA the kernel micro-kernels dispatch on, resolved once at runtime.
enum class Isa { kPortable, kAvx2 };
Isa isa();
/// "avx2" / "portable" — the string benches record so BENCH deltas are
/// attributable to the dispatch choice.
const char* isa_name();

/// RAII scratch block drawn from mem::host_pool() — the packing buffers of
/// a plan, recycled across tasks by the pool's free lists instead of hitting
/// the host heap per launch.
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
