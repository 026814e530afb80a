// The sagesim task-graph runtime: one work-stealing scheduler under every
// execution layer in the repo.
//
//  * gpusim::Executor::parallel_for submits chunk tasks here and waits on a
//    condition variable — the one fork/join loop the host kernels (GEMM,
//    SpMM) run on, via compute::executor();
//  * dflow::Cluster owns a rank-pinned instance (one lane per simulated
//    GPU) and routes submit/map/run_on_all through it;
//  * core::Workflow schedules DAG stages on the process-shared instance.
//
// Scheduling model: dependency counting (a task becomes *ready* only when
// every dependency has completed — workers never block on dependencies),
// then placement:
//
//  * lane >= 0  — pinned: only worker `lane` executes it, FIFO per lane.
//    Pinned tasks model rank/device affinity (dflow semantics) and are
//    never stolen.
//  * lane == -1 — stealable: lands on the submitting worker's local deque
//    (or round-robin when submitted from outside the pool); idle workers
//    first drain their own deque front-to-back, then steal from the *back*
//    of a victim's deque.
//
// Dependency failures propagate without running the dependent; cancellation
// completes a not-yet-running task with TaskCancelled.  Every named task
// emits a host-time trace span into the scheduler's prof::Timeline.
#pragma once

#include <any>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "prof/trace.hpp"
#include "runtime/fault.hpp"
#include "runtime/future.hpp"

namespace sagesim::runtime {

struct SubmitOptions {
  std::string name;                ///< trace/span label ("" = untraced)
  int lane{-1};                    ///< pinned worker, -1 == stealable
  std::vector<AnyFuture> deps;     ///< must complete before the task runs
  /// Wall-clock budget from submission; a task popped past its deadline
  /// fails with DeadlineExceeded (retryable) without running.  0 == none.
  double timeout_s{0.0};
};

/// Resolves a requested worker count: @p requested if > 0, else the
/// SAGESIM_WORKERS environment variable if set and positive, else
/// std::thread::hardware_concurrency() (at least 1).
unsigned resolve_worker_count(unsigned requested);

class Scheduler {
 public:
  /// Creates a pool with resolve_worker_count(@p workers) threads.
  explicit Scheduler(unsigned workers = 0);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  unsigned worker_count() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Process-shared pool (sized by SAGESIM_WORKERS / hardware).
  static Scheduler& shared();

  /// Index of the calling thread within *this* scheduler's pool, or -1 when
  /// called from outside it.
  int current_worker() const;

  /// Submits a type-erased task; returns its future.  Throws
  /// std::out_of_range when opts.lane >= worker_count().
  AnyFuture submit_any(SubmitOptions opts, std::function<std::any()> fn);

  /// Typed submit: wraps @p fn (no arguments) and returns Future<R>.
  template <typename F>
  auto submit(std::string name, F&& fn, std::vector<AnyFuture> deps = {},
              int lane = -1, double timeout_s = 0.0) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    SubmitOptions opts;
    opts.name = std::move(name);
    opts.lane = lane;
    opts.deps = std::move(deps);
    opts.timeout_s = timeout_s;
    if constexpr (std::is_void_v<R>) {
      return Future<void>(submit_any(
          std::move(opts),
          [f = std::forward<F>(fn)]() mutable -> std::any {
            f();
            return {};
          }));
    } else {
      return Future<R>(submit_any(
          std::move(opts),
          [f = std::forward<F>(fn)]() mutable -> std::any {
            return std::any(f());
          }));
    }
  }

  /// Blocks until every task submitted so far has completed.
  void wait_idle();

  /// Tasks that have reached a terminal state (ran, failed, dep-skipped or
  /// cancelled).
  std::size_t tasks_completed() const {
    std::lock_guard lock(mutex_);
    return completed_;
  }

  /// Host-time spans of executed named tasks (kind kScheduler, counter
  /// "worker"); timestamps are seconds since scheduler construction.
  prof::Timeline& timeline() { return timeline_; }

  /// Attaches (or detaches, with nullptr) a fault injector.  Each subsequent
  /// submit consults injector->plan() in submission order; the decision is
  /// baked into the task, so execution-time interleaving cannot perturb a
  /// seeded fault pattern.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) {
    std::lock_guard lock(mutex_);
    fault_injector_ = std::move(injector);
  }
  std::shared_ptr<FaultInjector> fault_injector() const {
    std::lock_guard lock(mutex_);
    return fault_injector_;
  }

 private:
  friend void detail::complete_task(std::shared_ptr<detail::TaskState>,
                                    std::any, std::exception_ptr);

  struct Worker {
    std::deque<std::shared_ptr<detail::TaskState>> pinned;  ///< owner-only
    std::deque<std::shared_ptr<detail::TaskState>> local;   ///< stealable
  };

  void worker_loop(unsigned id);
  bool try_pop(unsigned id, std::shared_ptr<detail::TaskState>& out);
  void run_task(const std::shared_ptr<detail::TaskState>& task, unsigned id);

  /// Called by the dependency machinery when @p task's last dependency
  /// resolved; enqueues it (or finishes it immediately on dep failure or
  /// cancellation).
  void make_ready(const std::shared_ptr<detail::TaskState>& task);

  /// Bookkeeping when an owned task reaches a terminal state.
  void on_task_finished();

  mutable std::mutex mutex_;
  std::condition_variable cv_;       ///< workers sleep here
  std::condition_variable idle_cv_;  ///< wait_idle sleeps here
  std::vector<Worker> workers_;      ///< queues, guarded by mutex_
  std::vector<std::thread> threads_;
  bool stop_{false};
  std::size_t pending_{0};    ///< submitted, not yet terminal
  std::size_t completed_{0};  ///< reached a terminal state
  std::size_t next_spot_{0};  ///< round-robin for external submits
  std::shared_ptr<FaultInjector> fault_injector_;  ///< guarded by mutex_

  prof::Timeline timeline_;
  std::chrono::steady_clock::time_point epoch_{
      std::chrono::steady_clock::now()};
};

/// Future that completes once every input completes, carrying their values
/// as std::vector<std::any> (in input order).  Fails with the first
/// dependency failure.  The join task is stealable and runs on @p sched.
Future<std::vector<std::any>> when_all(Scheduler& sched,
                                       std::vector<AnyFuture> futures,
                                       std::string name = "when_all");

// --- Future<T>::then — declared in future.hpp, needs Scheduler ------------

namespace detail {
/// Owner scheduler of @p f's task, or the process-shared pool for bare
/// futures.
inline Scheduler& continuation_scheduler(const AnyFuture& f) {
  Scheduler* owner = f.state()->owner;
  return owner != nullptr ? *owner : Scheduler::shared();
}
}  // namespace detail

template <typename T>
template <typename F>
auto Future<T>::then(std::string name, F&& fn) const {
  auto& sched = detail::continuation_scheduler(erased_);
  return sched.submit(
      std::move(name),
      [self = erased_, f = std::forward<F>(fn)]() mutable {
        return f(std::any_cast<T>(self.get_any()));
      },
      {erased_});
}

template <typename F>
auto Future<void>::then(std::string name, F&& fn) const {
  auto& sched = detail::continuation_scheduler(erased_);
  return sched.submit(
      std::move(name),
      [f = std::forward<F>(fn)]() mutable { return f(); }, {erased_});
}

}  // namespace sagesim::runtime
