// Wall-clock measurement for the benchmark harness and for host-side
// work whose cost is real (not modeled).
#pragma once

#include <chrono>

namespace sagesim::prof {

/// Monotonic wall-clock stopwatch.
class HostTimer {
 public:
  HostTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed.
  double elapsed_ms() const { return elapsed_s() * 1e3; }

  /// Microseconds elapsed.
  double elapsed_us() const { return elapsed_s() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sagesim::prof
