#include "compute/plan.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>

#include "mem/pool.hpp"

namespace sagesim::compute {

std::size_t Plan::add(std::function<void()> fn, std::vector<std::size_t> deps) {
  for (const std::size_t d : deps)
    if (d >= nodes_.size())
      throw std::invalid_argument("Plan::add: dep " + std::to_string(d) +
                                  " is not an earlier node of '" + name_ +
                                  "'");
  nodes_.push_back(PlanNode{std::move(fn), std::move(deps)});
  return nodes_.size() - 1;
}

namespace {

// Heap-allocated so helper tasks can outlive the caller's stack frame: a
// helper woken after the plan finished touches only this state, never the
// caller-owned Plan.
struct RunState {
  const std::vector<PlanNode>* nodes{nullptr};
  std::size_t total{0};

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<int> pending;                 ///< deps left, guarded by mutex
  std::vector<std::vector<std::size_t>> children;
  std::deque<std::size_t> ready;            ///< ready, unclaimed nodes
  std::size_t finished{0};
  std::exception_ptr first_error;           ///< guarded by mutex
  std::atomic<bool> aborted{false};
};

/// Runs node @p idx (body skipped after an abort), then retires it:
/// decrements children's dep counts, queues newly-ready nodes, and signals
/// completion.  This is the dependency-counting heart of the executor.
void run_one(const std::shared_ptr<RunState>& state, std::size_t idx) {
  std::exception_ptr error;
  if (!state->aborted.load(std::memory_order_acquire)) {
    try {
      (*state->nodes)[idx].fn();
    } catch (...) {
      error = std::current_exception();
      state->aborted.store(true, std::memory_order_release);
    }
  }
  std::lock_guard lock(state->mutex);
  if (error && !state->first_error) state->first_error = error;
  for (const std::size_t c : state->children[idx])
    if (--state->pending[c] == 0) state->ready.push_back(c);
  ++state->finished;
  if (state->finished == state->total || !state->ready.empty())
    state->cv.notify_all();
}

/// Claim loop shared by the calling thread and the helper tasks:
/// pop ready nodes until every node of the plan has retired.
void drain(const std::shared_ptr<RunState>& state) {
  std::unique_lock lock(state->mutex);
  for (;;) {
    state->cv.wait(lock, [&] {
      return !state->ready.empty() || state->finished == state->total;
    });
    if (state->ready.empty()) return;  // finished == total
    const std::size_t idx = state->ready.front();
    state->ready.pop_front();
    lock.unlock();
    run_one(state, idx);
    lock.lock();
  }
}

void run_serial(const Plan& plan) {
  // Nodes are in topological order by construction, so index order
  // satisfies every dependency.
  std::exception_ptr error;
  for (const PlanNode& node : plan.nodes()) {
    if (error) break;  // cancelled: remaining bodies drain without running
    try {
      node.fn();
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

std::atomic<gpu::Executor*>& executor_slot() {
  static std::atomic<gpu::Executor*> slot{nullptr};
  return slot;
}

}  // namespace

void run(const Plan& plan, const RunOptions& options) {
  if (plan.empty()) return;
  gpu::Executor& ex = executor();
  const unsigned workers = ex.worker_count();

  // Min-grain: tiny plans (or a 1-worker pool) run on the calling thread —
  // no helper submission, no cv hand-off.
  const std::size_t min_parallel = 2 * std::max<std::size_t>(options.min_grain, 1);
  if (workers <= 1 || plan.size() < min_parallel) {
    run_serial(plan);
    return;
  }

  auto state = std::make_shared<RunState>();
  state->nodes = &plan.nodes();
  state->total = plan.size();
  state->pending.resize(plan.size(), 0);
  state->children.resize(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const PlanNode& node = plan.nodes()[i];
    state->pending[i] = static_cast<int>(node.deps.size());
    for (const std::size_t d : node.deps) state->children[d].push_back(i);
    if (node.deps.empty()) state->ready.push_back(i);
  }

  // Helpers, as in Executor::parallel_for: the caller participates too, so
  // the plan completes even when launched from inside a pool worker.
  // Helpers are unnamed — per-tile spans would swamp the runtime timeline.
  const std::size_t helper_cap =
      std::max<std::size_t>(state->ready.size(), std::size_t{1});
  for (unsigned i = 0; i + 1 < workers && i < helper_cap; ++i)
    ex.scheduler().submit_any({}, [state]() -> std::any {
      drain(state);
      return {};
    });
  drain(state);

  std::unique_lock lock(state->mutex);
  state->cv.wait(lock, [&] { return state->finished == state->total; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

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
