// The dflow Cluster: a Dask-distributed-like scheduler whose workers are
// pinned one-per-simulated-GPU, exactly how the course configures Dask-CUDA
// ("Initialize Dask cluster; assign each worker to a GPU" — Algorithm 1,
// line 4).
//
// Capabilities used by the labs:
//  * submit(fn, deps)     — task-graph execution with dependencies
//  * map(fns)             — fan-out over workers
//  * run_on_all(fn)       — SPMD step on every worker (DDP-style)
//  * scatter/gather       — data placement helpers
//
// Execution rides the unified task-graph runtime (src/runtime): the cluster
// owns a runtime::Scheduler with one worker lane per device.  Tasks
// submitted with an explicit rank are pinned to that lane (device
// affinity); tasks submitted with rank < 0 go into the shared stealable
// pool, so a rank stuck on a long task no longer strands work that used to
// be round-robin-assigned to it — an idle rank steals it.
#pragma once

#include <any>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/device_manager.hpp"
#include "runtime/future.hpp"
#include "runtime/job_control.hpp"
#include "runtime/scheduler.hpp"

namespace sagesim::dflow {

/// dask.distributed.Future analogue: the runtime's type-erased future, so
/// any dflow future is also a runtime::Scheduler dependency and vice versa.
using Future = runtime::AnyFuture;

/// Execution context a task receives: its worker rank and that worker's
/// simulated GPU.  For unpinned (stealable) tasks, the rank is whichever
/// worker picked the task up.
struct WorkerCtx {
  int rank{0};
  int world_size{1};
  gpu::Device* device{nullptr};
};

using TaskFn = std::function<std::any(WorkerCtx&)>;

/// Exponential-backoff retry schedule for retryable failures (preemption,
/// missed deadlines, unavailable ranks).  Attempt n >= 2 sleeps
/// initial_backoff_ms * multiplier^(n-2), capped at max_backoff_ms, before
/// re-running the task body.
struct RetryPolicy {
  int max_attempts{3};
  double initial_backoff_ms{1.0};
  double multiplier{2.0};
  double max_backoff_ms{50.0};
};

/// Binding of cluster ranks to control-plane capacity: rank r runs on
/// leased instance instance_ids[r].  Clusters used to launch (implicitly
/// own) their capacity; under the multi-tenant control plane
/// (sched::ClusterManager) they *acquire* it as a lease instead — the
/// manager decides placement, bills the tenant, and reclaims the instances
/// when the job ends or is preempted.
struct LeaseBinding {
  std::string lease_id;
  std::vector<std::string> instance_ids;  ///< index == rank
};

/// Aggregate cluster configuration (satellite of the fault-tolerance API):
/// one struct instead of a parade of constructor arguments.
struct ClusterOptions {
  /// When set, the cluster seeds a runtime::FaultInjector with this config
  /// and attaches it to its scheduler; every submit then draws a fault plan.
  std::optional<runtime::FaultConfig> faults;
  /// Deadline applied to every submit that does not pass its own timeout;
  /// 0 == no deadline.
  double default_timeout_s{0.0};
  /// Policy used by submit_retry when the caller does not pass one.
  RetryPolicy retry;
  /// Control-plane lease backing this cluster's ranks (instance_ids.size()
  /// must equal the device count when set).
  std::optional<LeaseBinding> lease;
  /// Job-level control: when set, every submit is attached for group
  /// cancellation, the job deadline tightens per-task timeouts, and submits
  /// after cancel() fail immediately with kCancelled.  Non-owning; must
  /// outlive the cluster.
  runtime::JobControl* control{nullptr};
};

class Cluster {
 public:
  /// One worker lane per device in @p devices.  The cluster borrows the
  /// manager; it must outlive the cluster.
  explicit Cluster(gpu::DeviceManager& devices);
  Cluster(gpu::DeviceManager& devices, ClusterOptions options);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int world_size() const {
    return static_cast<int>(scheduler_.worker_count());
  }
  gpu::DeviceManager& devices() { return devices_; }

  /// Submits a task.  It runs once every dependency has completed, on
  /// @p rank (or any idle worker when rank < 0 — the stealable pool).
  /// Dependency *failures* propagate: the task fails without running.
  /// Submitting pinned work to a preempted rank returns a future already
  /// failed with kUnavailable (retryable) — the spot-instance contract.
  Future submit(std::string name, TaskFn fn, std::vector<Future> deps = {},
                int rank = -1, double timeout_s = 0.0);

  /// submit + automatic retry: retryable failures (preemption, deadline,
  /// unavailable rank) re-run the body under @p policy's backoff schedule.
  /// A retry whose pinned rank is down degrades to the stealable pool, so
  /// work migrates off reclaimed capacity instead of waiting for it.  The
  /// returned future completes with the first success or the last failure.
  Future submit_retry(std::string name, TaskFn fn,
                      std::vector<Future> deps = {}, int rank = -1,
                      std::optional<RetryPolicy> policy = std::nullopt,
                      double timeout_s = 0.0);

  /// Submits one task per worker rank; returns the futures in rank order.
  std::vector<Future> map(const std::string& name, const TaskFn& fn);

  /// SPMD helper: runs @p fn on every worker concurrently and waits for all;
  /// rethrows the first failure.  Returns per-rank results.
  std::vector<std::any> run_on_all(const std::string& name, const TaskFn& fn);

  /// Places one value per rank (scatter).  Values are moved into immediate
  /// futures tagged to each rank for later pinned tasks.
  std::vector<Future> scatter(std::vector<std::any> values);

  /// Waits for @p futures and collects their values.
  std::vector<std::any> gather(const std::vector<Future>& futures);

  /// gather with failures as values: the first non-ok outcome (in input
  /// order) is returned as its Status instead of being rethrown.
  Expected<std::vector<std::any>> try_gather(
      const std::vector<Future>& futures);

  // --- elasticity: spot-style rank loss and re-acquisition ---------------

  /// Marks @p rank's simulated instance as reclaimed.  Already-running work
  /// finishes (the grace window); *new* pinned submits to the rank fail
  /// immediately with kUnavailable until restore_rank.  Out-of-range ranks
  /// throw (API misuse).
  void preempt_rank(int rank);

  /// Brings a reclaimed rank back (re-acquired capacity rejoining).
  void restore_rank(int rank);

  /// True when the rank currently holds capacity.
  bool rank_available(int rank) const;

  /// Ranks currently up, ascending.  Shrinks under preemption; the elastic
  /// layers (ddp, distributed GCN) re-shard over exactly this set.
  std::vector<int> active_ranks() const;
  int active_world_size() const {
    return static_cast<int>(active_ranks().size());
  }

  /// Blocks until every submitted task has finished.
  void wait_all();

  /// Number of tasks that reached a terminal state (ran, failed, or was
  /// skipped by a failed dependency).
  std::size_t completed_tasks() const { return scheduler_.tasks_completed(); }

  /// The cluster's underlying task-graph scheduler (rank == lane).
  runtime::Scheduler& scheduler() { return scheduler_; }

  const ClusterOptions& options() const { return options_; }

  /// The control-plane lease backing this cluster, if any.
  const std::optional<LeaseBinding>& lease() const { return options_.lease; }

  /// Leased instance id behind @p rank; throws std::logic_error when the
  /// cluster holds no lease, std::out_of_range for a bad rank.
  const std::string& instance_id(int rank) const;

  /// Job control routed through submits, or nullptr.
  runtime::JobControl* control() const { return options_.control; }

  /// The injector seeded from options().faults, or nullptr.
  std::shared_ptr<runtime::FaultInjector> fault_injector() const {
    return scheduler_.fault_injector();
  }

 private:
  gpu::DeviceManager& devices_;
  ClusterOptions options_;
  runtime::Scheduler scheduler_;
  mutable std::mutex ranks_mutex_;
  std::vector<char> rank_up_;  ///< guarded by ranks_mutex_
};

}  // namespace sagesim::dflow
