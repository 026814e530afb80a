// Stress and semantics tests for the unified task-graph runtime
// (src/runtime): dependency diamonds, failure propagation, pinned vs
// stealable placement, cancellation, continuations, when_all, the
// SAGESIM_WORKERS override, and a many-task churn run executed twice to
// catch ordering nondeterminism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"

namespace rt = sagesim::runtime;

using namespace std::chrono_literals;

// --- basics -------------------------------------------------------------------

TEST(Runtime, SubmitReturnsTypedValue) {
  rt::Scheduler sched(2);
  auto f = sched.submit("answer", [] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(Runtime, VoidTasksComplete) {
  rt::Scheduler sched(2);
  std::atomic<bool> ran{false};
  auto f = sched.submit("side_effect", [&] { ran.store(true); });
  f.get();
  EXPECT_TRUE(ran.load());
}

TEST(Runtime, RejectsBadLaneAndNullFn) {
  rt::Scheduler sched(2);
  rt::SubmitOptions opts;
  opts.lane = 7;
  EXPECT_THROW(sched.submit_any(std::move(opts), [] { return std::any{}; }),
               std::out_of_range);
  EXPECT_THROW(sched.submit_any({}, nullptr), std::invalid_argument);
}

TEST(Runtime, WaitIdleDrainsEverything) {
  rt::Scheduler sched(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i)
    sched.submit("t", [&] { done.fetch_add(1); });
  sched.wait_idle();
  EXPECT_EQ(done.load(), 64);
  EXPECT_EQ(sched.tasks_completed(), 64u);
}

// --- dependency diamonds ------------------------------------------------------

TEST(Runtime, DiamondRunsInTopologicalOrder) {
  rt::Scheduler sched(4);
  std::atomic<int> clock{0};
  std::atomic<int> a_t{-1}, b_t{-1}, c_t{-1}, d_t{-1};

  auto a = sched.submit("a", [&] { a_t = clock.fetch_add(1); return 1; });
  auto b = sched.submit(
      "b", [&] { b_t = clock.fetch_add(1); return 10; }, {a.erased()});
  auto c = sched.submit(
      "c", [&] { c_t = clock.fetch_add(1); return 100; }, {a.erased()});
  auto d = sched.submit(
      "d",
      [&] {
        d_t = clock.fetch_add(1);
        return b.get() + c.get();  // both ready: declared deps
      },
      {b.erased(), c.erased()});

  EXPECT_EQ(d.get(), 110);
  EXPECT_LT(a_t.load(), b_t.load());
  EXPECT_LT(a_t.load(), c_t.load());
  EXPECT_GT(d_t.load(), b_t.load());
  EXPECT_GT(d_t.load(), c_t.load());
}

TEST(Runtime, DeepDiamondLattice) {
  // Layered lattice: each node depends on the full previous layer; the sum
  // at the sink is layer-count deterministic regardless of interleaving.
  rt::Scheduler sched(4);
  const int kLayers = 12, kWidth = 4;  // 4^11 stays well inside int range
  std::vector<rt::Future<int>> prev;
  for (int w = 0; w < kWidth; ++w)
    prev.push_back(sched.submit("l0", [] { return 1; }));
  for (int l = 1; l < kLayers; ++l) {
    std::vector<rt::Future<int>> next;
    std::vector<rt::AnyFuture> deps;
    for (const auto& p : prev) deps.push_back(p.erased());
    for (int w = 0; w < kWidth; ++w) {
      next.push_back(sched.submit(
          "l" + std::to_string(l),
          [prev] {
            int s = 0;
            for (const auto& p : prev) s += p.get();
            return s;
          },
          deps));
    }
    prev = std::move(next);
  }
  // value(l) = width * value(l-1) => width^(layers-1); use modular-free
  // small check instead: every node in a layer must agree.
  const int v0 = prev[0].get();
  for (const auto& f : prev) EXPECT_EQ(f.get(), v0);
  EXPECT_GT(v0, 0);
}

// --- failure propagation ------------------------------------------------------

TEST(Runtime, FailurePropagatesThroughDependencies) {
  rt::Scheduler sched(2);
  std::atomic<bool> downstream_ran{false};
  auto bad = sched.submit("bad", []() -> int {
    throw std::runtime_error("boom");
  });
  auto mid = sched.submit(
      "mid",
      [&] {
        downstream_ran.store(true);
        return 1;
      },
      {bad.erased()});
  auto leaf = sched.submit(
      "leaf",
      [&] {
        downstream_ran.store(true);
        return 2;
      },
      {mid.erased()});
  EXPECT_THROW(leaf.get(), std::runtime_error);
  EXPECT_THROW(mid.get(), std::runtime_error);
  EXPECT_FALSE(downstream_ran.load());
  sched.wait_idle();  // skipped dependents still reach a terminal state
  EXPECT_EQ(sched.tasks_completed(), 3u);
}

TEST(Runtime, LongFailureCascadeCompletes) {
  // 2000-deep chain below a failing root: the cascade must complete
  // iteratively (bounded stack) and every future must observe the error.
  rt::Scheduler sched(2);
  auto root = sched.submit("root", []() -> int {
    throw std::runtime_error("cascade");
  });
  rt::AnyFuture prev = root.erased();
  for (int i = 0; i < 2000; ++i)
    prev = sched.submit("link", [] { return 0; }, {prev}).erased();
  EXPECT_THROW(prev.wait(), std::runtime_error);
  sched.wait_idle();
}

TEST(Runtime, MixedFailureOnlyPoisonsDescendants) {
  rt::Scheduler sched(2);
  auto bad = sched.submit("bad", []() -> int { throw std::logic_error("x"); });
  auto good = sched.submit("good", [] { return 7; });
  auto child_of_good =
      sched.submit("cg", [&] { return good.get() + 1; }, {good.erased()});
  EXPECT_EQ(child_of_good.get(), 8);
  EXPECT_THROW(bad.get(), std::logic_error);
}

// --- pinned vs stealable ------------------------------------------------------

TEST(Runtime, PinnedTasksRunOnTheirLane) {
  rt::Scheduler sched(4);
  for (int lane = 0; lane < 4; ++lane) {
    auto f = sched.submit(
        "pinned", [&sched] { return sched.current_worker(); }, {}, lane);
    EXPECT_EQ(f.get(), lane);
  }
}

TEST(Runtime, PinnedLaneIsFifo) {
  rt::Scheduler sched(3);
  std::vector<int> order;
  std::vector<rt::AnyFuture> fs;
  for (int i = 0; i < 32; ++i)
    fs.push_back(sched.submit("fifo", [&order, i] { order.push_back(i); },
                              {}, /*lane=*/1)
                     .erased());
  for (auto& f : fs) f.wait();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Runtime, StealableWorkDrainsWhileOneLaneIsBusy) {
  // One worker sleeps on a long pinned task; unpinned tasks must all finish
  // long before it wakes — they are stealable by the other workers.
  rt::Scheduler sched(3);
  std::atomic<int> done{0};
  auto slow = sched.submit(
      "slow", [] { std::this_thread::sleep_for(300ms); }, {}, /*lane=*/0);
  std::vector<rt::AnyFuture> quick;
  for (int i = 0; i < 24; ++i)
    quick.push_back(
        sched.submit("quick", [&] { done.fetch_add(1); }).erased());
  for (auto& f : quick) f.wait();
  EXPECT_EQ(done.load(), 24);
  EXPECT_FALSE(slow.ready());  // the slow lane is still asleep
  slow.wait();
}

TEST(Runtime, CurrentWorkerIsMinusOneOffPool) {
  rt::Scheduler sched(2);
  EXPECT_EQ(sched.current_worker(), -1);
}

// --- cancellation -------------------------------------------------------------

TEST(Runtime, CancelPreventsExecution) {
  rt::Scheduler sched(2);
  rt::AnyFuture gate;  // bare promise: holds the dependent pending
  std::atomic<bool> ran{false};
  auto f = sched.submit("cancellable", [&] { ran.store(true); return 1; },
                        {gate});
  EXPECT_TRUE(f.cancel().ok());
  gate.deliver({});
  EXPECT_THROW(f.get(), rt::TaskCancelled);
  EXPECT_TRUE(f.cancelled());
  EXPECT_FALSE(ran.load());
  sched.wait_idle();
}

TEST(Runtime, CancellationPropagatesToDependents) {
  rt::Scheduler sched(2);
  rt::AnyFuture gate;
  auto a = sched.submit("a", [] { return 1; }, {gate});
  auto b = sched.submit("b", [&] { return a.get() + 1; }, {a.erased()});
  a.cancel();
  gate.deliver({});
  EXPECT_THROW(b.get(), rt::TaskCancelled);
  EXPECT_TRUE(b.cancelled());
}

TEST(Runtime, CancelAfterCompletionIsHarmless) {
  rt::Scheduler sched(2);
  auto f = sched.submit("done", [] { return 5; });
  EXPECT_EQ(f.get(), 5);
  EXPECT_EQ(f.cancel().code(), sagesim::ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(f.cancelled());
  EXPECT_EQ(f.get(), 5);
}

// --- continuations & when_all -------------------------------------------------

TEST(Runtime, ThenChainsTypedResults) {
  rt::Scheduler sched(2);
  auto f = sched.submit("seed", [] { return 3; })
               .then("double", [](int v) { return v * 2; })
               .then("stringify", [](int v) { return std::to_string(v); });
  EXPECT_EQ(f.get(), "6");
}

TEST(Runtime, ThenPropagatesFailure) {
  rt::Scheduler sched(2);
  std::atomic<bool> ran{false};
  auto f = sched
               .submit("seed", []() -> int { throw std::runtime_error("up"); })
               .then("next", [&](int v) {
                 ran.store(true);
                 return v;
               });
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_FALSE(ran.load());
}

TEST(Runtime, WhenAllCollectsValuesInOrder) {
  rt::Scheduler sched(3);
  std::vector<rt::AnyFuture> fs;
  for (int i = 0; i < 10; ++i)
    fs.push_back(sched.submit("v", [i] { return i * i; }).erased());
  auto joined = rt::when_all(sched, fs, "join");
  const auto values = joined.get();
  ASSERT_EQ(values.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(std::any_cast<int>(values[static_cast<size_t>(i)]), i * i);
}

TEST(Runtime, WhenAllFailsWithFirstError) {
  rt::Scheduler sched(2);
  std::vector<rt::AnyFuture> fs;
  fs.push_back(sched.submit("ok", [] { return 1; }).erased());
  fs.push_back(sched.submit("bad", []() -> int {
                      throw std::invalid_argument("nope");
                    }).erased());
  EXPECT_THROW(rt::when_all(sched, fs).get(), std::invalid_argument);
}

// --- external promises as graph inputs ---------------------------------------

TEST(Runtime, ExternalPromiseGatesTasks) {
  rt::Scheduler sched(2);
  rt::AnyFuture gate;
  auto f = sched.submit("gated", [] { return 9; }, {gate});
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(f.ready());
  gate.deliver({});
  EXPECT_EQ(f.get(), 9);
}

TEST(Runtime, ExternalPromiseFailureGatesTasks) {
  rt::Scheduler sched(2);
  rt::AnyFuture gate;
  auto f = sched.submit("gated", [] { return 9; }, {gate});
  gate.fail(std::make_exception_ptr(std::runtime_error("gate broke")));
  EXPECT_THROW(f.get(), std::runtime_error);
}

// --- env override -------------------------------------------------------------

TEST(Runtime, SagesimWorkersEnvOverridesDefault) {
  ::setenv("SAGESIM_WORKERS", "3", 1);
  rt::Scheduler sched(0);
  ::unsetenv("SAGESIM_WORKERS");
  EXPECT_EQ(sched.worker_count(), 3u);
  // Explicit counts beat the environment.
  ::setenv("SAGESIM_WORKERS", "5", 1);
  rt::Scheduler sched2(2);
  ::unsetenv("SAGESIM_WORKERS");
  EXPECT_EQ(sched2.worker_count(), 2u);
}

TEST(Runtime, GarbageEnvFallsBackToHardware) {
  ::setenv("SAGESIM_WORKERS", "banana", 1);
  const unsigned n = rt::resolve_worker_count(0);
  ::unsetenv("SAGESIM_WORKERS");
  EXPECT_GE(n, 1u);
}

// --- trace spans --------------------------------------------------------------

TEST(Runtime, NamedTasksEmitTraceSpans) {
  rt::Scheduler sched(2);
  sched.submit("traced_task", [] { return 1; }).get();
  sched.wait_idle();
  const auto events = sched.timeline().snapshot();
  ASSERT_FALSE(events.empty());
  bool found = false;
  for (const auto& e : events)
    if (e.name == "traced_task" &&
        e.kind == sagesim::prof::EventKind::kScheduler)
      found = true;
  EXPECT_TRUE(found);
}

// --- churn (run twice to catch ordering nondeterminism) -----------------------

namespace {

// Many small tasks with random-ish cross-lane and stealable dependencies;
// returns a checksum that must be identical run to run because the value
// of each task depends only on its dependencies' values.  The checksum is
// unsigned so its wraparound is defined.
std::uint64_t churn_once(unsigned seed) {
  rt::Scheduler sched(4);
  std::vector<rt::Future<long>> tasks;
  unsigned state = seed;
  auto next_rand = [&state] {
    state = state * 1664525u + 1013904223u;
    return state >> 8;
  };
  for (int i = 0; i < 600; ++i) {
    std::vector<rt::AnyFuture> deps;
    std::vector<rt::Future<long>> dep_fs;
    if (!tasks.empty()) {
      const int ndeps = static_cast<int>(next_rand() % 3);
      for (int d = 0; d < ndeps; ++d) {
        const auto pick = tasks[next_rand() % tasks.size()];
        deps.push_back(pick.erased());
        dep_fs.push_back(pick);
      }
    }
    const int lane =
        (next_rand() % 4 == 0) ? static_cast<int>(next_rand() % 4) : -1;
    tasks.push_back(sched.submit(
        "churn",
        [i, dep_fs] {
          long v = i;
          for (const auto& d : dep_fs) v += d.get();
          return v;
        },
        std::move(deps), lane));
  }
  std::uint64_t checksum = 0;
  for (auto& t : tasks)
    checksum = checksum * 31 + static_cast<std::uint64_t>(t.get());
  sched.wait_idle();
  return checksum;
}

}  // namespace

TEST(Runtime, ChurnIsDeterministicAcrossRuns) {
  const std::uint64_t first = churn_once(1234);
  const std::uint64_t second = churn_once(1234);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, churn_once(99));
}
